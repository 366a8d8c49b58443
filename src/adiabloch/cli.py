"""Command-line interface.

Subcommands: decompose | solve | effective | bound | evolve | reproduce |
scaling.  Exit codes: 0 on success, 1 on numerical failure, 2 on usage
errors (including unreadable or malformed model files).  The command group
enforces them: an :class:`AdiablochError` escaping any subcommand becomes
one ``error: <message>`` line on stderr and exit 1.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import click

from . import bench, bloch, matcore, spectral
from .bloch import DEFAULT_TOL, solve_blocks
from .effective import eternal_bound, verify_similarity
from .errors import AdiablochError
from .liouville import LindbladModel, _matrix_to_json, build_superop, gkls_decompose


def _load_model(path: str) -> LindbladModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read model file {path}: {exc}") from exc
    try:
        return LindbladModel.from_json(text)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, AdiablochError) as exc:
        # AdiablochError: a non-finite entry, which Python's json accepts
        raise click.UsageError(f"malformed model file {path}: {exc}") from exc


class _Number(click.ParamType):
    """A float that is positive (with ``zero_ok``, non-negative) and finite,
    by the library's rule (:func:`matcore._require_positive`); anything else
    is a usage error naming the option (exit 2)."""

    name = "float"

    def __init__(self, zero_ok: bool = False):
        self.zero_ok = zero_ok

    def convert(self, value, param, ctx):
        value = click.FLOAT.convert(value, param, ctx)
        try:
            matcore._require_positive(self.zero_ok, **{param.name: value})
        except ValueError as exc:
            self.fail(str(exc), param, ctx)
        return value


class _Order(click.ParamType):
    """A truncation order: a non-negative integer by the library's rule
    (:func:`matcore._require_integer`), or with ``inf_ok`` "inf", read as
    None (the nonperturbative generator); anything else is a usage error
    naming the option (exit 2)."""

    name = "order"

    def __init__(self, inf_ok: bool = False):
        self.inf_ok = inf_ok

    def convert(self, value, param, ctx):
        if self.inf_ok and value == "inf":
            return None
        value = click.INT.convert(value, param, ctx)
        try:
            matcore._require_integer(param.name, value, 0)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)
        return value


def _orders(ctx, param, text: str) -> list:
    """The comma-separated truncation orders of ``text``, each by :class:`_Order`."""
    return [_Order().convert(k, param, ctx) for k in text.split(",") if k]


def _couplings(ctx, param, text: str) -> list:
    """The comma-separated couplings of ``text``: floats, checked by the
    library's sweep rule (:func:`bench._require_couplings`)."""
    values = [click.FLOAT.convert(g, param, ctx) for g in text.split(",") if g]
    try:
        bench._require_couplings(values)
    except ValueError as exc:
        raise click.BadParameter(str(exc), ctx, param) from exc
    return values


def _with_gamma(model: LindbladModel, gamma: float | None) -> LindbladModel:
    return model if gamma is None else dataclasses.replace(model, gamma=gamma)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload, out: str | None) -> None:
    """Emit ``payload`` as strict JSON (RFC 8259); dict keys become strings."""
    _emit(json.dumps(_finite(payload), indent=2, allow_nan=False), out)


def _finite(value):
    """``value`` with each non-finite float as the string "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _matrix_fields(obj, names, include: bool) -> dict:
    """The matrix fields ``names`` of ``obj`` as JSON rows, or nothing
    unless ``include``."""
    return {name: _matrix_to_json(getattr(obj, name)) for name in names} if include else {}


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


model_option = click.option(
    "--model", "model_path", required=True, type=click.Path(), help="Model JSON file."
)
gamma_option = click.option(
    "--gamma", type=_Number(), default=None, help="Override the model coupling."
)
out_option = click.option(
    "--out", type=click.Path(), default=None, help="Output file (default: stdout)."
)
tol_option = click.option(
    "--tol", type=_Number(), default=DEFAULT_TOL, show_default=True,
    help="Solver residual tolerance.",
)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
    show_default=True,
)


class _Group(click.Group):
    """Command group that reports a numerical failure with exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except AdiablochError as exc:
            _fail(str(exc))


@click.group(cls=_Group)
def main():
    """Effective adiabatic generators for strongly driven open systems."""


@main.command()
@model_option
@click.option("--cluster-tol", type=_Number(zero_ok=True), default=None,
              help="Eigenvalue clustering tolerance.")
@click.option("--matrices", is_flag=True, help="Include projection/resolvent matrices.")
@out_option
def decompose(model_path, cluster_tol, matrices, out):
    """Spectral decomposition of the strong generator."""
    model = _load_model(model_path)
    strong = build_superop(model, "strong")
    if cluster_tol is not None:
        dec = spectral.decompose(strong.matrix, cluster_tol)
    else:
        dec = spectral.robust_decompose(strong.matrix)
    payload = {
        "dim": model.dim,
        "cluster_tol": dec.cluster_tol,
        "residuals": dec.residuals,
        "blocks": [
            {
                "eigenvalue": [blk.eigenvalue.real, blk.eigenvalue.imag],
                "rank": blk.rank,
                "index": blk.index,
                **_matrix_fields(blk, ("projection", "nilpotent", "resolvent"), matrices),
            }
            for blk in dec.blocks
        ],
    }
    _emit_json(payload, out)


@main.command()
@model_option
@gamma_option
@tol_option
@click.option("--matrices", is_flag=True, help="Include solution matrices.")
@out_option
def solve(model_path, gamma, tol, matrices, out):
    """Solve the adiabatic Bloch equations on every block."""
    model = _with_gamma(_load_model(model_path), gamma)
    strong = build_superop(model, "strong")
    weak = build_superop(model, "weak")
    dec = spectral.robust_decompose(strong.matrix)
    try:
        sols = solve_blocks(dec, weak.matrix, model.gamma, tol=tol)
    except AdiablochError as exc:
        # the solutions carry their reports; only a failed solve builds them,
        # from one norm of C
        c_norm = matcore.op_norm(weak.matrix, "spectral")
        reports = [
            bloch._kantorovich(block, c_norm, model.gamma, ell)
            for ell, block in enumerate(dec.blocks)
        ]
        _fail(f"{exc}{_certificate_note(reports)}")
    # an uncertified run must at least land on the adiabatic branch on both
    # sides, i.e. a small deformation of the unperturbed projections
    implausible = [
        s.ell
        for s in sols
        if not s.certified
        and max(s.residuals["wave_deformation"], s.residuals["wave_conj_deformation"]) >= 1.0
    ]
    if implausible:
        _fail(
            f"solution on blocks {implausible} is not a small deformation of "
            f"the unperturbed projections (||U - P|| or ||U~ - P|| >= 1); the adiabatic "
            f"branch is not reachable at gamma = {model.gamma:.6g}."
            f"{_certificate_note([s.report for s in sols])}"
        )
    payload = {
        "gamma": model.gamma,
        "blocks": [
            {
                "ell": s.ell,
                "eigenvalue": [
                    dec.blocks[s.ell].eigenvalue.real,
                    dec.blocks[s.ell].eigenvalue.imag,
                ],
                "iterations": s.iterations,
                "residuals": s.residuals,
                "certified": s.certified,
                "kantorovich": dataclasses.asdict(s.report),
                **_matrix_fields(s, ("omega", "omega_conj", "wave", "wave_conj"), matrices),
            }
            for s in sols
        ],
    }
    _emit_json(payload, out)


def _certificate_note(reports) -> str:
    """The failure note on blocks whose Kantorovich certificate does not apply."""
    uncertified = [r for r in reports if not r.solvable]
    if not uncertified:
        return ""
    return (
        " Newton-Kantorovich certificate inapplicable on "
        f"{len(uncertified)} of {len(reports)} blocks (gamma below the "
        f"certified threshold max gamma_l = {max(r.gamma_min for r in reports):.6g})."
    )


@main.command()
@model_option
@gamma_option
@tol_option
@out_option
def effective(model_path, gamma, tol, out):
    """GKLS data of the symmetrized effective generator."""
    model = _with_gamma(_load_model(model_path), gamma)
    pipe = bench.compute_effective(model, tol=tol)
    form = gkls_decompose(pipe.generators.schrieffer_wolff, tol=1e-8)
    sim = verify_similarity(
        pipe.generators,
        pipe.decomposition,
        pipe.strong.matrix,
        pipe.weak.matrix,
        model.gamma,
        list(pipe.solutions),
    )
    payload = {
        "gamma": model.gamma,
        "rates": list(form.rates),
        "hamiltonian": _matrix_to_json(form.hamiltonian),
        "verdicts": form.verdicts,
        "min_rate": min(form.rates, default=0.0),
        "similarity_residuals": sim,
    }
    _emit_json(payload, out)


@main.command()
@model_option
@gamma_option
@click.option("--unitary", is_flag=True, help="Also evaluate the unitary-case bound.")
@out_option
def bound(model_path, gamma, unitary, out):
    """Per-block coupling thresholds and uniform-in-time error bounds."""
    model = _with_gamma(_load_model(model_path), gamma)
    strong = build_superop(model, "strong")
    weak = build_superop(model, "weak")
    dec = spectral.robust_decompose(strong.matrix)
    report = eternal_bound(dec, weak.matrix, model.gamma, unitary=unitary)
    _emit_json(dataclasses.asdict(report), out)


@main.command()
@model_option
@gamma_option
@click.option("--order", type=_Order(inf_ok=True), default="inf", show_default=True,
              help="Truncation order, or 'inf' for the nonperturbative generator.")
@format_option
@out_option
def evolve(model_path, gamma, order, fmt, out):
    """Distance between the true and effective evolutions over the time grid."""
    model = _with_gamma(_load_model(model_path), gamma)
    pipe = bench.compute_effective(model)
    curve = bench.distance_curves(pipe, [order])[order]
    if fmt == "csv":
        _emit(curve.to_csv(), out)
    else:
        payload = {
            "order": "inf" if order is None else order,
            "times": [float(t) for t in curve.times],
            "distances": [float(d) for d in curve.distances],
            "envelope": [float(e) for e in curve.envelope],
        }
        _emit_json(payload, out)


@main.command()
@click.argument("case", type=click.Choice(list(bench.CASES) + ["all"]))
@format_option
@out_option
def reproduce(case, fmt, out):
    """Re-derive the printed reference data of the built-in examples."""
    cases = bench.CASES if case == "all" else (case,)
    reports = [bench.reproduce(c) for c in cases]
    if fmt == "csv":
        lines = ["case,name,expected,computed,provenance,tol,pass"]
        for rep in reports:
            for item in rep.items:
                lines.append(
                    f"{rep.case},{item.name},{item.expected},{item.computed},"
                    f"{item.provenance},{item.tol:.17g},{item.passed}"
                )
        _emit("\n".join(lines), out)
    else:
        payload = [rep.to_dict() for rep in reports]
        _emit_json(payload[0] if len(payload) == 1 else payload, out)
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        click.echo(f"{rep.case}: {status}", err=True)
    if not all(rep.passed for rep in reports):
        sys.exit(1)


@main.command()
@model_option
@click.option("--gammas", default="10,20,40", show_default=True, callback=_couplings,
              help="Comma-separated couplings for the sweep.")
@click.option("--orders", default="0,1,2", show_default=True, callback=_orders,
              help="Comma-separated truncation orders.")
@out_option
def scaling(model_path, gammas, orders, out):
    """Breakaway-time scaling of the truncated approximations."""
    model = _load_model(model_path)
    report = bench.scaling_check(model, gammas, orders)
    _emit_json(dataclasses.asdict(report), out)


if __name__ == "__main__":
    main()
