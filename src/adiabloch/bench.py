"""Exact-propagation comparison engine and reproduction suites.

Compares the true evolution exp(t(g B + C)) against the adiabatic
approximations exp(t(g B + K_eff)) over a log-spaced time grid, extracts
upper envelopes and breakaway times, fits the breakaway-time scaling with
the coupling, and re-derives the printed reference data of the built-in
example models (dissipative Lambda system, qubit with nilpotent, and the
three-level no-go model).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from . import liouville, matcore, spectral
from .bloch import DEFAULT_TOL, schrieffer_wolff_series, solve_blocks
from .effective import (
    EffectiveGenerators,
    _bounds_at,
    build_effective,
    eternal_bound,
    multiset_spectral_distance,
)
from .liouville import LindbladModel, Superoperator, build_superop, gkls_decompose
from .models import (
    counterexample_model,
    counterexample_similarity,
    lambda_model,
    qubit_nilpotent_model,
)
from .spectral import robust_decompose


def default_time_grid() -> np.ndarray:
    """t = 0 plus 400 log-spaced points over [1e-2, 1e6]."""
    return np.concatenate(([0.0], np.logspace(-2.0, 6.0, 400)))


@dataclass(frozen=True)
class PipelineResult:
    """Everything the comparison engine needs about one model."""

    model: LindbladModel
    strong: Superoperator
    weak: Superoperator
    decomposition: spectral.SpectralDecomposition
    solutions: tuple
    generators: EffectiveGenerators
    cluster_tol: float

    @property
    def total_matrix(self) -> np.ndarray:
        return self.model.gamma * self.strong.matrix + self.weak.matrix

    def effective_total(self, order: int | None = None) -> np.ndarray:
        """g B + K (order None) or g B + K_eff^(order)."""
        return self.model.gamma * self.strong.matrix + self._k_effs([order])[order]

    def k_eff(self, order: int) -> np.ndarray:
        """Truncated symmetrized generator sum_l sum_{j<=order} K_l^(j)/g^j."""
        return self._k_effs([order])[order]

    def _k_effs(self, orders) -> dict:
        """K (order None) and k_eff(order) for each finite order.

        Each block's series is built once, to the largest finite order, and
        the lower orders are its truncations.
        """
        finite = [order for order in orders if order is not None]
        if finite and min(finite) < 0:
            raise ValueError(f"truncation order must be >= 0, got {min(finite)}")
        out = {order: np.zeros_like(self.weak.matrix) for order in finite}
        for ell in range(len(self.decomposition.blocks) if finite else 0):
            series = schrieffer_wolff_series(
                self.decomposition, self.weak.matrix, ell, max(finite), method="series"
            )
            for order in finite:
                out[order] = out[order] + series.truncated_sum(self.model.gamma, order)
        out[None] = self.generators.schrieffer_wolff.matrix
        return out


def compute_effective(model: LindbladModel, tol: float = DEFAULT_TOL) -> PipelineResult:
    """Full pipeline: decompose, solve all blocks, assemble the generators."""
    strong = build_superop(model, "strong")
    weak = build_superop(model, "weak")
    return _solve_and_assemble(model, strong, weak, robust_decompose(strong.matrix), tol)


def _solve_and_assemble(
    model: LindbladModel,
    strong: Superoperator,
    weak: Superoperator,
    dec: spectral.SpectralDecomposition,
    tol: float = DEFAULT_TOL,
) -> PipelineResult:
    """Solve every block at the model's coupling and assemble the generators.

    The spectral data of B and the superoperators do not depend on the
    coupling, so a sweep over gamma decomposes B once and repeats only this.
    """
    sols = solve_blocks(dec, weak.matrix, model.gamma, tol=tol)
    gen = build_effective(dec, weak.matrix, model.gamma, sols)
    return PipelineResult(
        model=model,
        strong=strong,
        weak=weak,
        decomposition=dec,
        solutions=tuple(sols),
        generators=gen,
        cluster_tol=dec.cluster_tol,
    )


@dataclass(frozen=True)
class DistanceCurve:
    times: np.ndarray
    distances: np.ndarray
    order: int | None          # None tags the nonperturbative generator
    norm_kind: str
    envelope: np.ndarray       # trailing-decade running maximum

    def to_csv(self) -> str:
        tag = "inf" if self.order is None else str(self.order)
        lines = ["t,distance,order,norm"]
        for t, dist in zip(self.times, self.distances):
            lines.append(f"{t:.17g},{dist:.17g},{tag},{self.norm_kind}")
        return "\n".join(lines) + "\n"


def _time_grid(times) -> np.ndarray:
    """The default grid, or ``times`` checked to be a non-empty 1-d grid of
    finite, non-negative, non-decreasing times."""
    if times is None:
        return default_time_grid()
    grid = np.asarray(times, dtype=float)
    if (
        grid.ndim != 1
        or grid.size == 0
        or not np.all(np.isfinite(grid))
        or grid[0] < 0.0
        or np.any(np.diff(grid) < 0.0)
    ):
        raise ValueError(
            "times must be a non-empty 1-d grid of finite, non-negative, "
            f"non-decreasing values; got shape {grid.shape}"
        )
    return grid


def _trailing_decade_max(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Maximum of ``values`` over (t/10, t] at each t of a sorted grid, always
    including the point itself."""
    ends = np.arange(1, len(times) + 1)
    starts = np.minimum(np.searchsorted(times, times / 10.0, side="right"), ends - 1)
    # reduceat reduces between consecutive bounds: interleave each window's
    # start with its end and keep the even slots
    bounds = np.stack([starts, ends], axis=1).ravel()[:-1]
    return np.maximum.reduceat(values, bounds)[::2]


# Working-set budget of the propagation kernels, in bytes of one stacked
# (points, n, n) complex array.  A distance-table chunk holds about four such
# stacks at once (two propagators, V + U and V - U of matcore.expm), so a
# fixed point count makes its working set grow like n^2.  On the `paper`
# workload (Lambda, n = 25; 2-vCPU VM, BLAS on one thread) chunks of 64
# points raised peak RSS from 71.7 to 77.2 MB, 256 KiB per stack (26 points)
# by under 1.2 MB, and 16 KiB (one point) doubled curves_s.  At n = 64 one
# 401-point stack ran 1.5 times as long as 4-point chunks (cache).  Small n
# gains from long stacks: at n = 4, 64-point chunks took 1.2-1.6 times as
# long as one call for the whole grid.  _TIME_CHUNK caps the count for tiny
# generators (n <= 6 still take the 401-point default grid in one call).
_CHUNK_BYTES = 256 * 1024
_TIME_CHUNK = 512


def _chunk_points(n: int) -> int:
    """Time points per expm/SVD call for n x n generators."""
    return max(1, min(_TIME_CHUNK, _CHUNK_BYTES // (16 * n * n)))


def _distance_table(
    total: np.ndarray,
    targets: dict,
    times: np.ndarray,
    norm_kind: str,
    with_norm: bool = True,
) -> dict:
    """Distances to several targets, sharing the true propagator per time.

    With ``with_norm``, ``__norm__`` holds the norm of the true propagator
    exp(t total), which depends on ``total`` alone.
    """
    keys = list(targets) + (["__norm__"] if with_norm else [])
    table = {key: np.empty(len(times)) for key in keys}
    step = _chunk_points(total.shape[0])
    for start in range(0, len(times), step):
        part = slice(start, start + step)
        true_prop = matcore.expm(total, times[part])
        for key, target in targets.items():
            table[key][part] = matcore.op_norm(
                true_prop - matcore.expm(target, times[part]), norm_kind
            )
        if with_norm:
            table["__norm__"][part] = matcore.op_norm(true_prop, norm_kind)
    return table


def distance_curves(
    pipe: PipelineResult,
    orders,
    times: np.ndarray | None = None,
    norm_kind: str = "spectral",
) -> dict:
    """Curves for several truncation orders, reusing the true propagator."""
    times = _time_grid(times)
    base = pipe.model.gamma * pipe.strong.matrix
    k_effs = pipe._k_effs(orders)
    targets = {order: base + k_effs[order] for order in orders}
    table = _distance_table(pipe.total_matrix, targets, times, norm_kind, with_norm=False)
    return {
        order: DistanceCurve(
            times=times,
            distances=table[order],
            order=order,
            norm_kind=norm_kind,
            envelope=_trailing_decade_max(times, table[order]),
        )
        for order in orders
    }


def semigroup_norm_bound(
    pipe: PipelineResult, times: np.ndarray | None = None, norm_kind: str = "spectral"
) -> float:
    """Sampled sup of ||exp(t (g B + C))|| over the grid."""
    times = _time_grid(times)
    table = _distance_table(pipe.total_matrix, {}, times, norm_kind)
    return float(table["__norm__"].max())


def log_slope(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(values) against log(times)."""
    mask = (times > 0) & (values > 0)
    if mask.sum() < 2:
        return 0.0
    return float(np.polyfit(np.log(times[mask]), np.log(values[mask]), 1)[0])


@dataclass(frozen=True)
class ScalingReport:
    gammas: tuple
    orders: tuple
    plateau: dict              # gamma -> k = inf plateau level
    threshold_level: float     # fixed breakaway level for the whole sweep
    breakaway: dict            # order -> {gamma: time or None}
    slopes: dict               # order -> fitted exponent or None
    lower_bound_only: dict     # order -> True when breakaway never reached
    threshold_factor: float


def breakaway_time(curve: DistanceCurve, level: float):
    """First grid time where the envelope exceeds the given level."""
    above = np.flatnonzero(curve.envelope > level)
    if above.size == 0:
        return None
    return float(curve.times[above[0]])


def scaling_check(
    model: LindbladModel,
    gammas,
    orders,
    times: np.ndarray | None = None,
    norm_kind: str = "spectral",
    threshold_factor: float = 3.0,
) -> ScalingReport:
    """Fit the breakaway-time exponents of the truncated approximations.

    The nonperturbative envelope at the first (reference) coupling sets the
    plateau; order k breaks away when its envelope first exceeds
    ``threshold_factor`` times that plateau.  The level is held fixed over
    the sweep so that the fitted slopes of log t_k against log gamma
    estimate the validity exponents (expected k + 1); a level tied to the
    per-coupling plateau, which itself shrinks like 1/gamma, would shift
    every exponent down by one.
    """
    if len(gammas) == 0:
        raise ValueError("scaling_check needs at least one coupling")
    times = _time_grid(times)
    strong = build_superop(model, "strong")
    weak = build_superop(model, "weak")
    dec = robust_decompose(strong.matrix)
    plateau = {}
    level = None
    t_break: dict = {k: {} for k in orders}
    for gamma in gammas:
        coupled = dataclasses.replace(model, gamma=float(gamma))
        pipe = _solve_and_assemble(coupled, strong, weak, dec)
        curves = distance_curves(pipe, list(orders) + [None], times, norm_kind)
        plateau[float(gamma)] = float(curves[None].envelope.max())
        if level is None:
            level = threshold_factor * plateau[float(gamma)]
        for k in orders:
            t_break[k][float(gamma)] = breakaway_time(curves[k], level)
    slopes = {}
    lower_only = {}
    for k in orders:
        pts = [(g, t) for g, t in t_break[k].items() if t is not None]
        lower_only[k] = len(pts) < len(gammas)
        if len(pts) >= 2:
            gs = np.log([p[0] for p in pts])
            ts = np.log([p[1] for p in pts])
            slopes[k] = float(np.polyfit(gs, ts, 1)[0])
        else:
            slopes[k] = None
    return ScalingReport(
        gammas=tuple(float(g) for g in gammas),
        orders=tuple(int(k) for k in orders),
        plateau=plateau,
        threshold_level=float(level),
        breakaway=t_break,
        slopes=slopes,
        lower_bound_only=lower_only,
        threshold_factor=float(threshold_factor),
    )


# ---------------------------------------------------------------------------
# reproduction suites


@dataclass(frozen=True)
class ReproItem:
    name: str
    expected: object
    computed: object
    provenance: str
    tol: float
    passed: bool


@dataclass(frozen=True)
class ReproductionReport:
    case: str
    items: tuple

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def to_dict(self) -> dict:
        items = []
        for item in self.items:
            record = dataclasses.asdict(item)
            record["pass"] = record.pop("passed")
            items.append(record)
        return {"case": self.case, "pass": self.passed, "items": items}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _item(name, expected, computed, provenance, tol, ok=None) -> ReproItem:
    if ok is None:
        ok = bool(abs(computed - expected) <= tol)
    return ReproItem(
        name=name,
        expected=_jsonable(expected),
        computed=_jsonable(computed),
        provenance=provenance,
        tol=float(tol),
        passed=bool(ok),
    )


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, np.complexfloating):
        return [float(x.real), float(x.imag)]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _significant_rates(form: liouville.GKLSForm, count: int) -> np.ndarray:
    rates = np.sort(np.array(form.rates))[::-1]
    return np.concatenate((rates[: count - 1], rates[-1:]))


def _mixing_ratio(jump: np.ndarray, row_a: int, row_b: int, col: int) -> complex:
    """Phase-invariant ratio -<b|L|col> / <a|L|col> of a jump operator."""
    alpha = jump[row_a, col]
    beta = jump[row_b, col]
    return -beta / alpha


def _case_lambda_numeric() -> ReproductionReport:
    model = lambda_model(10.0)
    pipe = compute_effective(model)
    form = gkls_decompose(pipe.generators.schrieffer_wolff, tol=1e-9)
    items = []

    expected = [1.000, 0.995, 0.025, 0.005, -0.025]
    got = _significant_rates(form, 5)
    for i, (e, c) in enumerate(zip(expected, got)):
        items.append(_item(f"k_rate_{i}", e, float(c), "reference", 5e-4))
    rest = np.sort(np.array(form.rates))[::-1][4:-1]
    items.append(
        _item(
            "k_rates_remaining_max_abs",
            0.0,
            float(np.abs(rest).max()),
            "derived",
            5e-4,
        )
    )

    rates = np.array(form.rates)
    top = form.jumps[int(np.argmax(rates))]
    ratio = _mixing_ratio(top, 1, 2, 0)
    items.append(_item("tan_theta", 0.909, float(abs(ratio)), "reference", 2e-3))
    items.append(
        _item(
            "tan_phi",
            0.029,
            float(math.tan(math.atan2(ratio.imag, ratio.real))),
            "reference",
            2e-3,
        )
    )

    form_total = gkls_decompose(Superoperator(model.dim, pipe.effective_total()), tol=1e-8)
    rates_total = np.array(form_total.rates)
    idx_min = int(np.argmin(rates_total))
    items.append(
        _item(
            "total_min_kossakowski",
            -6.22e-5,
            float(rates_total[idx_min]),
            "reference",
            1e-7,
        )
    )
    jump_min = form_total.jumps[idx_min]
    tilde_ratio = abs(jump_min[2, 4] / jump_min[1, 4])
    items.append(_item("tan_theta_tilde", 0.0025, float(tilde_ratio), "reference", 2.5e-4))
    return ReproductionReport("lambda_numeric", tuple(items))


def _lambda_analytic_expectations(gamma, g1, g2, kappa, kappa0, omega):
    g = math.sqrt(abs(g1) ** 2 + abs(g2) ** 2)
    root = math.sqrt(gamma**2 + g**2)
    gamma1 = kappa
    gamma2 = (
        kappa
        * (gamma**2 + gamma * root + g**2 + 8 * kappa**2)
        / (2 * (gamma**2 + g**2 + 4 * kappa**2))
    )
    gamma3 = (
        kappa * (gamma**2 - gamma * root + g**2) / (2 * (gamma**2 + g**2 + 4 * kappa**2))
    )
    gamma_pm = 0.5 * (root - gamma) * abs(g1 * g2) / g**2
    ham = np.zeros((5, 5), dtype=np.complex128)
    ham[0, 0] = omega
    block = np.zeros((5, 5), dtype=np.complex128)
    block[1, 1] = -abs(g1) ** 2 / g**2
    block[1, 2] = -np.conj(g1) * g2 / g**2
    block[2, 1] = -g1 * np.conj(g2) / g**2
    block[2, 2] = -abs(g2) ** 2 / g**2
    block[3, 3] = 1.0
    ham = ham + 0.5 * (root - gamma) * block

    tan_phi = (root - gamma) / (2 * gamma * kappa0)
    disc = math.sqrt(1 + 4 * tan_phi**2 * abs(g1 * g2) ** 2 / g**4)
    tilde_plus = 0.5 * gamma * kappa0 * (1 + disc)
    tilde_minus = 0.5 * gamma * kappa0 * (1 - disc)
    u_plus = math.sqrt(0.5 * (1 + 1 / disc))
    u_minus = math.sqrt(0.5 * (1 - 1 / disc))
    phase1 = np.exp(-1j * np.angle(g1))
    phase2 = np.exp(-1j * np.angle(g2))
    # the strong decay replaces the +- jump pair by the exact eigenvectors
    # [(u+ + u-) L+ - (u+ - u-) L-]/sqrt(2) and its orthogonal complement
    jump_p = np.zeros((5, 5), dtype=np.complex128)
    jump_p[1, 4] = phase1 / math.sqrt(2)
    jump_p[2, 4] = -1j * phase2 / math.sqrt(2)
    jump_m = np.zeros((5, 5), dtype=np.complex128)
    jump_m[1, 4] = phase1 / math.sqrt(2)
    jump_m[2, 4] = 1j * phase2 / math.sqrt(2)
    c1 = (u_plus + u_minus) / math.sqrt(2)
    c2 = (u_plus - u_minus) / math.sqrt(2)
    ltilde_plus = c1 * jump_p - c2 * jump_m
    ltilde_minus = c2 * jump_p + c1 * jump_m
    return {
        "rates": (gamma1, gamma2, gamma3, gamma_pm),
        "hamiltonian": ham,
        "tilde_rates": (tilde_plus, tilde_minus),
        "tilde_jumps": (ltilde_plus, ltilde_minus),
    }


def _case_lambda_analytic() -> ReproductionReport:
    gamma, g1, g2, kappa, kappa0, omega = 10.0, 1.0, 1.0, 0.1, 1.0, 1.0
    model = lambda_model(gamma, omega=omega, delta=0.0, g1=g1, g2=g2, kappa=kappa, kappa0=kappa0)
    pipe = compute_effective(model)
    ana = _lambda_analytic_expectations(gamma, g1, g2, kappa, kappa0, omega)
    items = []

    form = gkls_decompose(pipe.generators.schrieffer_wolff, tol=1e-9)
    g1r, g2r, g3r, gpm = ana["rates"]
    expected = np.sort(np.array([g1r, g2r, g3r, gpm, -gpm]))[::-1]
    got = _significant_rates(form, 5)
    names = ["gamma_1", "gamma_2", "gamma_pm_plus", "gamma_3", "gamma_pm_minus"]
    order = np.argsort([g1r, g2r, gpm, g3r, -gpm])[::-1]
    labels = [names[i] for i in order]
    for label, e, c in zip(labels, expected, got):
        items.append(_item(f"k_rate_{label}", float(e), float(c), "analytic", 1e-9))

    ham_expected = ana["hamiltonian"]
    ham_expected = ham_expected - np.trace(ham_expected) / 5.0 * np.eye(5)
    dev = float(np.abs(form.hamiltonian - ham_expected).max())
    items.append(_item("k_hamiltonian_max_dev", 0.0, dev, "analytic", 1e-9))

    form_total = gkls_decompose(Superoperator(model.dim, pipe.effective_total()), tol=1e-8)
    tp, tm = ana["tilde_rates"]
    expected_total = np.sort(np.array([g1r, g2r, g3r, tp, tm]))[::-1]
    got_total = _significant_rates(form_total, 5)
    for i, (e, c) in enumerate(zip(expected_total, got_total)):
        items.append(_item(f"total_rate_{i}", float(e), float(c), "analytic", 1e-9))

    rates_total = np.array(form_total.rates)
    for sign, expected_jump, rate in (
        ("plus", ana["tilde_jumps"][0], tp),
        ("minus", ana["tilde_jumps"][1], tm),
    ):
        idx = int(np.argmin(np.abs(rates_total - rate)))
        jump = form_total.jumps[idx]
        overlap = abs(np.vdot(expected_jump, jump))
        items.append(
            _item(f"tilde_jump_{sign}_overlap", 1.0, float(overlap), "analytic", 1e-9)
        )

    for gam in (50.0, 100.0):
        m2 = lambda_model(gam, omega=omega, delta=0.0, g1=g1, g2=g2, kappa=kappa, kappa0=kappa0)
        pipe2 = compute_effective(m2)
        total2 = Superoperator(5, pipe2.effective_total())
        min_rate = min(gkls_decompose(total2, tol=1e-8).rates)
        asym = -abs(g1 * g2) ** 2 / (16 * gam**3 * kappa0)
        ok = abs(min_rate - asym) <= 0.05 * abs(asym)
        items.append(
            _item(
                f"tilde_minus_asymptote_gamma_{int(gam)}",
                asym,
                float(min_rate),
                "analytic",
                0.05 * abs(asym),
                ok=ok,
            )
        )
    return ReproductionReport("lambda_analytic", tuple(items))


def _table1_spectra(gamma, g1, g2, kappa, kappa0, omega):
    g = math.sqrt(abs(g1) ** 2 + abs(g2) ** 2)
    root = math.sqrt(gamma**2 + g**2)
    half = 0.5 * (root - gamma)
    strong = (
        [0.0] * 10
        + [1j] * 3
        + [-1j] * 3
        + [-0.5 * kappa0 + 1j, -0.5 * kappa0 - 1j]
        + [-0.5 * kappa0 + 2j] * 3
        + [-0.5 * kappa0 - 2j] * 3
        + [-kappa0]
    )
    total = [
        0.0,
        0.0,
        0.0,
        1j * half,
        -1j * half,
        -kappa + 1j * omega,
        -kappa - 1j * omega,
        -kappa + 1j * (omega + half),
        -kappa - 1j * (omega + half),
        -2.0 * kappa,
        0.5j * (gamma + root),
        -0.5j * (gamma + root),
        1j * root,
        -1j * root,
        -kappa + 1j * (0.5 * (gamma + root) - omega),
        -kappa - 1j * (0.5 * (gamma + root) - omega),
        -0.5 * gamma * kappa0 + 0.5j * (3 * gamma - root),
        -0.5 * gamma * kappa0 - 0.5j * (3 * gamma - root),
        -0.5 * gamma * kappa0 + 2j * gamma,
        -0.5 * gamma * kappa0 - 2j * gamma,
        -0.5 * gamma * kappa0 + 0.5j * (3 * gamma + root),
        -0.5 * gamma * kappa0 - 0.5j * (3 * gamma + root),
        -0.5 * gamma * kappa0 - kappa + 1j * (2 * gamma - omega),
        -0.5 * gamma * kappa0 - kappa - 1j * (2 * gamma - omega),
        -gamma * kappa0,
    ]
    return np.array(strong, dtype=complex), np.array(total, dtype=complex)


def _case_table1() -> ReproductionReport:
    gamma, g1, g2, kappa, kappa0, omega = 10.0, 1.0, 1.0, 0.1, 1.0, 1.0
    model = lambda_model(gamma, omega=omega, delta=0.0, g1=g1, g2=g2, kappa=kappa, kappa0=kappa0)
    strong = build_superop(model, "strong")
    weak = build_superop(model, "weak")
    expected_b, expected_total = _table1_spectra(gamma, g1, g2, kappa, kappa0, omega)
    dist_b = multiset_spectral_distance(np.linalg.eigvals(strong.matrix), expected_b)
    total = gamma * strong.matrix + weak.matrix
    dist_t = multiset_spectral_distance(np.linalg.eigvals(total), expected_total)
    items = (
        _item("strong_spectrum_distance", 0.0, dist_b, "analytic", 1e-9),
        _item("total_spectrum_distance", 0.0, dist_t, "analytic", 1e-9),
    )
    return ReproductionReport("table1", items)


def _case_qubit_nilpotent() -> ReproductionReport:
    items = []
    for gamma in (2.0, 10.0, 100.0):
        model = qubit_nilpotent_model(gamma)
        pipe = compute_effective(model)
        total = pipe.total_matrix
        expected = np.array(
            [
                0.0,
                -gamma + 2j * math.sqrt(gamma + 2),
                -gamma - 2j * math.sqrt(gamma + 2),
                -2.0 * gamma,
            ]
        )
        dist = multiset_spectral_distance(np.linalg.eigvals(total), expected)
        items.append(
            _item(f"spectrum_distance_gamma_{int(gamma)}", 0.0, dist, "analytic", 1e-10)
        )

        coeff = math.sqrt(gamma**2 + 4 * gamma + 8) - gamma
        k_exact = 0.5 * coeff * liouville.hamiltonian_superop(
            np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        dev = float(
            np.abs(pipe.generators.schrieffer_wolff.matrix - k_exact).max()
        )
        items.append(
            _item(f"k_matrix_max_dev_gamma_{int(gamma)}", 0.0, dev, "analytic", 1e-10)
        )

        k = pipe.generators.schrieffer_wolff.matrix
        b = pipe.strong.matrix
        bk = matcore.op_norm(b @ k - k @ b, "spectral")
        items.append(
            _item(
                f"bk_commutator_nonzero_gamma_{int(gamma)}",
                "nonzero",
                float(bk),
                "analytic",
                0.0,
                ok=bk > 1e-3,
            )
        )
        kp = max(
            matcore.op_norm(k @ blk.projection - blk.projection @ k, "spectral")
            for blk in pipe.decomposition.blocks
        )
        items.append(
            _item(f"kp_commutator_gamma_{int(gamma)}", 0.0, kp, "derived", 1e-10)
        )

        nil_block = max(pipe.decomposition.blocks, key=lambda blk: blk.rank)
        items.append(
            _item(
                f"nilpotent_index_gamma_{int(gamma)}",
                2,
                nil_block.index,
                "reference",
                0.0,
                ok=nil_block.index == 2 and abs(nil_block.eigenvalue + 1.0) < 1e-8,
            )
        )
    return ReproductionReport("qubit_nilpotent", tuple(items))


def _table2_spectrum(gamma) -> np.ndarray:
    s = math.sqrt(gamma**2 - 1.0)
    return np.array(
        [
            0.0,
            0.0,
            -2.0,
            -0.5 + 1j * gamma / 3.0,
            -0.5 - 1j * gamma / 3.0,
            -0.5 + 2j * gamma / 3.0,
            -0.5 - 2j * gamma / 3.0,
            -1.0 + 1j * s,
            -1.0 - 1j * s,
        ]
    )


def _case_table2() -> ReproductionReport:
    items = []
    for gamma in (2.0, 5.0, 10.0):
        model = counterexample_model(gamma)
        strong = build_superop(model, "strong")
        weak = build_superop(model, "weak")
        expected_b = np.array(
            [0.0, 0.0, 0.0, 1j / 3, -1j / 3, 2j / 3, -2j / 3, 1j, -1j]
        )
        dist_b = multiset_spectral_distance(
            np.linalg.eigvals(strong.matrix), expected_b
        )
        total = gamma * strong.matrix + weak.matrix
        dist_t = multiset_spectral_distance(
            np.linalg.eigvals(total), _table2_spectrum(gamma)
        )
        items.append(
            _item(f"strong_spectrum_gamma_{int(gamma)}", 0.0, dist_b, "analytic", 1e-9)
        )
        items.append(
            _item(f"total_spectrum_gamma_{int(gamma)}", 0.0, dist_t, "analytic", 1e-9)
        )
    return ReproductionReport("table2", tuple(items))


def _counterexample_constrained_block(r, gamma):
    """Top-left 3x3 block plus fixed diagonal of the constrained generator."""
    mid = np.zeros((9, 9), dtype=np.complex128)
    r1, r2, r3, r4, r5, r6 = r
    mid[0, :3] = (r1, r2, r3)
    mid[1, :3] = (r4, r5, r6)
    mid[2, :3] = (-r1 - r4, -r2 - r5, -r3 - r6)
    s = math.sqrt(gamma**2 - 1.0)
    diag = [
        (-0.5, gamma / 3.0),
        (-0.5, -gamma / 3.0),
        (-0.5, 2.0 * gamma / 3.0),
        (-0.5, -2.0 * gamma / 3.0),
        (-1.0, s),
        (-1.0, -s),
    ]
    for i, (re, im) in enumerate(diag):
        mid[3 + i, 3 + i] = re + 1j * im
    return mid


def counterexample_parameter_grid(points: int = 7, span: float = 3.0):
    """Constrained (r1..r6) samples: r3, r6 eliminated by the two conditions."""
    vals = np.linspace(-span, span, points)
    out = []
    for r1 in vals:
        for r2 in vals:
            for r4 in vals:
                for r5 in vals:
                    s = r1 + r5 + 2.0  # r3 + r6
                    den = r1 - r2 + r4 - r5
                    if abs(den) < 1e-9:
                        continue
                    r3 = (r2 * (r4 - s) - r1 * (r5 - s)) / den
                    r6 = s - r3
                    out.append((r1, r2, r3, r4, r5, r6))
    return out


def _choi_spectrum_closed_form(r, gamma) -> np.ndarray:
    r1, r2, r3, r4, r5, r6 = r
    q = gamma - math.sqrt(gamma**2 - 1.0)
    tail = (1.0 / 12.0) * math.sqrt(
        9 * (r1 + r5 + 1) ** 2 + 3 * (r1 - r5 + 1) ** 2 + 12 * q**2
    )
    return np.array(
        [
            0.5 * r2,
            0.5 * r3,
            0.5 * r4,
            0.5 * r6,
            -0.5 * (r1 + r4),
            -0.5 * (r2 + r5),
            tail,
            -tail,
        ]
    )


def _case_counterexample() -> ReproductionReport:
    items = []
    sim, _layout = counterexample_similarity()
    sim_inv = np.linalg.inv(sim)
    for gamma in (2.0, 5.0, 10.0):
        model = counterexample_model(gamma)
        pipe = compute_effective(model)
        form = gkls_decompose(pipe.generators.schrieffer_wolff, tol=1e-8)
        q = gamma - math.sqrt(gamma**2 - 1.0)
        # form.rates is sorted descending: the degenerate unit pair comes
        # first, then +q/sqrt(3), zeros, and -q/sqrt(3) last.  The reference
        # jumps have squared HS norms 2 (unit pair) and 3 (the +- pair), so
        # the reference rates are eigenvalue/2 and eigenvalue/3.
        rates = np.array(form.rates)
        items.append(
            _item(
                f"k_gamma_plus_gamma_{int(gamma)}",
                q / (3.0 * math.sqrt(3.0)),
                float(rates[2] / 3.0),
                "analytic",
                1e-9,
            )
        )
        items.append(
            _item(
                f"k_gamma_minus_gamma_{int(gamma)}",
                -q / (3.0 * math.sqrt(3.0)),
                float(rates[-1] / 3.0),
                "analytic",
                1e-9,
            )
        )
        pair = rates[:2]
        items.append(
            _item(
                f"k_gamma12_gamma_{int(gamma)}",
                0.5,
                float(pair.mean() / 2.0),
                "analytic",
                1e-9,
                ok=bool(np.abs(pair / 2.0 - 0.5).max() <= 1e-9),
            )
        )
        ham_expected = (q / 3.0) * np.diag([1.0, 0.0, -1.0])
        items.append(
            _item(
                f"k_hamiltonian_dev_gamma_{int(gamma)}",
                0.0,
                float(np.abs(form.hamiltonian - ham_expected).max()),
                "analytic",
                1e-9,
            )
        )
        expected_jump = np.diag(np.array(
            [np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3), -1.0]
        )) / math.sqrt(3.0)
        jump_plus = form.jumps[2]
        overlap = abs(np.vdot(expected_jump, jump_plus))
        items.append(
            _item(f"k_jump_plus_overlap_gamma_{int(gamma)}", 1.0, float(overlap), "analytic", 1e-9)
        )

        # constrained-gauge sweep: the closed-form lowest Kossakowski
        # eigenvalue stays at or below the parameter-free negative level
        grid = counterexample_parameter_grid()
        bound = -q / (2.0 * math.sqrt(3.0))
        worst = -np.inf
        all_negative = True
        for r in grid:
            val = _choi_spectrum_closed_form(r, gamma)[-1]
            worst = max(worst, val)
            if not val < 0.0:
                all_negative = False
        items.append(
            _item(
                f"constrained_min_eig_max_over_grid_gamma_{int(gamma)}",
                bound,
                float(worst),
                "analytic",
                1e-12,
                ok=bool(worst <= bound + 1e-12 and all_negative),
            )
        )
        items.append(
            _item(
                f"constrained_grid_size_gamma_{int(gamma)}",
                "nonempty",
                len(grid),
                "derived",
                0.0,
                ok=len(grid) > 100,
            )
        )

        # spot-check the closed-form Kossakowski spectrum against a direct
        # decomposition of the constrained generator at a few grid points;
        # the closed-form values are stated in the (tau_i|tau_j) = 2 basis
        # normalization, i.e. half of the orthonormal-basis eigenvalues
        worst_dev = 0.0
        for r in grid[:: max(1, len(grid) // 5)][:5]:
            mid = _counterexample_constrained_block(r, gamma)
            candidate = sim @ mid @ sim_inv
            total_form = gkls_decompose(
                Superoperator(3, candidate, "custom"), tol=1e-7
            )
            got = np.sort(np.array(total_form.rates)) / 2.0
            expected_spec = np.sort(_choi_spectrum_closed_form(r, gamma))
            worst_dev = max(worst_dev, float(np.abs(got - expected_spec).max()))
        items.append(
            _item(
                f"constrained_spectrum_formula_dev_gamma_{int(gamma)}",
                0.0,
                worst_dev,
                "derived",
                1e-8,
            )
        )
    return ReproductionReport("counterexample", tuple(items))


_SUITES = {
    "lambda_numeric": _case_lambda_numeric,
    "lambda_analytic": _case_lambda_analytic,
    "table1": _case_table1,
    "qubit_nilpotent": _case_qubit_nilpotent,
    "table2": _case_table2,
    "counterexample": _case_counterexample,
}
CASES = tuple(_SUITES)


def reproduce(case: str) -> ReproductionReport:
    """Run the reproduction suite ``case``, one of :data:`CASES`."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; known cases: {', '.join(CASES)}")
    return _SUITES[case]()


def bound_check(
    model: LindbladModel,
    gamma_factor: float = 2.0,
    times: np.ndarray | None = None,
    norm_kind: str = "spectral",
) -> dict:
    """Measured distances against the explicit uniform-in-time bounds.

    The model's coupling is replaced by gamma_factor * max_l gamma_l; the
    returned dict carries the sampled semigroup bound, the per-generator
    sup distances over the grid, and the corresponding tight bounds.  B is
    decomposed once, at the default cluster tolerance and without
    escalation, and that decomposition serves both the thresholds and the
    solve.
    """
    times = _time_grid(times)
    strong = build_superop(model, "strong")
    weak = build_superop(model, "weak")
    dec = spectral.decompose(strong.matrix)
    report0 = eternal_bound(dec, weak.matrix, 1.0, norm_kind)
    gamma = gamma_factor * max(report0.gamma_blocks)
    pipe = _solve_and_assemble(dataclasses.replace(model, gamma=float(gamma)), strong, weak, dec)
    table = _distance_table(
        pipe.total_matrix,
        {
            "K": pipe.effective_total(None),
            "D": pipe.model.gamma * pipe.strong.matrix
            + pipe.generators.adiabatic.matrix,
        },
        times,
        norm_kind,
    )
    m_bound = float(table["__norm__"].max())
    # the thresholds do not depend on the coupling: reuse those taken at 1
    report = _bounds_at(dec, report0.gamma_blocks, gamma, norm_kind, m_bound)
    return {
        "gamma": float(gamma),
        "semigroup_bound": m_bound,
        "sup_distance_k": float(table["K"].max()),
        "sup_distance_d": float(table["D"].max()),
        "tight_bound_k": report.tight_bound_k,
        "tight_bound_d": report.tight_bound_d,
        "loose_bound": report.loose_bound,
        "applicable": report.applicable,
        "distances_k": table["K"],
        "distances_d": table["D"],
        "times": times,
    }
