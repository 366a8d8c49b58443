import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from adiabloch import bench, bloch, cli, spectral
from adiabloch.cli import main
from adiabloch.errors import (
    ClusterAmbiguityError,
    ConvergenceError,
    NonFiniteError,
    PhysicalityError,
    SingularMatrixError,
    SpectralOverlapError,
)
from adiabloch.liouville import build_superop
from adiabloch.models import lambda_model, qubit_nilpotent_model


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def lambda_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "lambda.json"
    path.write_text(lambda_model(10.0).to_json())
    return str(path)


@pytest.fixture(scope="module")
def qubit_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "qubit.json"
    path.write_text(qubit_nilpotent_model(10.0).to_json())
    return str(path)


def test_decompose(runner, lambda_file):
    result = runner.invoke(main, ["decompose", "--model", lambda_file])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["blocks"]) == 8
    assert data["residuals"]["rank_total"] == 25


def test_decompose_malformed_model_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    result = runner.invoke(main, ["decompose", "--model", str(bad)])
    assert result.exit_code == 2


def test_decompose_missing_file_exits_2(runner):
    result = runner.invoke(main, ["decompose", "--model", "/no/such/file.json"])
    assert result.exit_code == 2


def test_solve_success(runner, lambda_file):
    result = runner.invoke(main, ["solve", "--model", lambda_file])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["blocks"]) == 8
    assert all(b["residuals"]["omega_eq"] < 1e-11 for b in data["blocks"])


def test_solve_builds_one_report_per_solved_block(runner, lambda_file, monkeypatch):
    # the reports come off the solutions: one per solved block, none for the
    # mapped member of a conjugate orbit, and none built twice
    calls = []
    kantorovich = bloch._kantorovich

    def counting(block, c_norm, gamma, ell):
        calls.append(ell)
        return kantorovich(block, c_norm, gamma, ell)

    monkeypatch.setattr(bloch, "_kantorovich", counting)
    result = runner.invoke(main, ["solve", "--model", lambda_file])
    assert result.exit_code == 0
    blocks = json.loads(result.output)["blocks"]
    model = lambda_model(10.0)
    dec = spectral.robust_decompose(build_superop(model, "strong").matrix)
    assert dec.images
    assert calls == [ell for ell in range(len(dec.blocks)) if ell not in dec.images]
    # each printed report is the block's own, as a direct call gives it
    c = build_superop(model, "weak").matrix
    for block in blocks:
        want = dataclasses.asdict(bloch.kantorovich_report(dec, c, model.gamma, block["ell"]))
        got = block["kantorovich"]
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                # non-finite values are printed as the strings "inf" and "nan"
                got_value = float(got[key])
                assert math.isclose(got_value, value, rel_tol=1e-12) or (
                    math.isnan(got_value) and math.isnan(value)
                ), key
            else:
                assert got[key] == value, key


def test_solve_below_threshold_exits_1(runner, lambda_file):
    result = runner.invoke(main, ["solve", "--model", lambda_file, "--gamma", "0.1"])
    assert result.exit_code == 1
    assert "Kantorovich" in result.output


def test_solve_failure_note_takes_one_norm_of_c(runner, lambda_file, monkeypatch):
    # the note is built from one ||C|| of the command and the solver's own;
    # it had taken one per block through kantorovich_report
    model = lambda_model(0.1)
    dec = spectral.robust_decompose(build_superop(model, "strong").matrix)
    c = build_superop(model, "weak").matrix
    with pytest.raises(ConvergenceError) as info:
        bloch.solve_blocks(dec, c, 0.1)
    reports = [bloch.kantorovich_report(dec, c, 0.1, ell) for ell in range(len(dec.blocks))]
    assert len(reports) == 8 and not any(r.solvable for r in reports)
    calls = []
    op_norm = cli.matcore.op_norm

    def counting(a, kind="spectral"):
        calls.append(np.shape(a) == c.shape and np.array_equal(a, c))
        return op_norm(a, kind)

    monkeypatch.setattr(cli.matcore, "op_norm", counting)
    result = runner.invoke(main, ["solve", "--model", lambda_file, "--gamma", "0.1"])
    assert result.exit_code == 1
    assert result.stderr == f"error: {info.value}{cli._certificate_note(reports)}\n"
    assert sum(calls) <= 2


def test_solve_has_no_method_option(runner, lambda_file):
    # Newton is the only solver: the option is gone, and so is the JSON key
    result = runner.invoke(main, ["solve", "--model", lambda_file, "--method", "newton"])
    assert result.exit_code == 2
    assert "No such option '--method'" in result.output
    result = runner.invoke(main, ["solve", "--model", lambda_file])
    assert result.exit_code == 0
    assert all("method" not in block for block in json.loads(result.output)["blocks"])


def test_solve_far_from_the_projections_exits_1(runner, qubit_file, monkeypatch):
    # an uncertified solution with ||U - P|| >= 1 is off the adiabatic branch
    solve_blocks = cli.solve_blocks

    def far_off(*args, **kwargs):
        sols = solve_blocks(*args, **kwargs)
        residuals = {**sols[0].residuals, "wave_deformation": 1.0}
        return [dataclasses.replace(sols[0], certified=False, residuals=residuals)] + sols[1:]

    monkeypatch.setattr(cli, "solve_blocks", far_off)
    result = runner.invoke(main, ["solve", "--model", qubit_file])
    assert result.exit_code == 1, result.output
    assert result.stderr.startswith(
        "error: solution on blocks [0] is not a small deformation of the unperturbed projections"
    )


def test_solve_failure_on_certified_blocks_has_no_certificate_note(runner, qubit_file):
    # every qubit block is certified at gamma = 40, and tol 1e-20 lies below
    # the rounding floor of the residual, so Newton stalls
    model = qubit_nilpotent_model(40.0)
    dec = spectral.robust_decompose(build_superop(model, "strong").matrix)
    c = build_superop(model, "weak").matrix
    assert all(
        bloch.kantorovich_report(dec, c, 40.0, ell).solvable for ell in range(len(dec.blocks))
    )
    result = runner.invoke(
        main, ["solve", "--model", qubit_file, "--gamma", "40", "--tol", "1e-20"]
    )
    assert result.exit_code == 1, result.output
    assert "stalled" in result.stderr
    assert "certificate" not in result.stderr


def test_effective_emits_gkls_data(runner, lambda_file, tmp_path):
    out = tmp_path / "eff.json"
    result = runner.invoke(
        main, ["effective", "--model", lambda_file, "--out", str(out)]
    )
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["verdicts"] == {"hp": True, "tp": True, "ccp": False}
    big = sorted(r for r in data["rates"] if abs(r) > 1e-4)
    assert abs(big[0] + 0.025) < 5e-4 and abs(big[-1] - 1.0) < 5e-4


def test_bound(runner, lambda_file):
    result = runner.invoke(main, ["bound", "--model", lambda_file, "--gamma", "50"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["applicable"]
    assert data["tight_bound_d"] <= data["tight_bound_k"]


def test_evolve_csv(runner, qubit_file, tmp_path):
    out = tmp_path / "curve.csv"
    result = runner.invoke(
        main,
        ["evolve", "--model", qubit_file, "--order", "0", "--format", "csv",
         "--out", str(out)],
    )
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,distance,order"
    assert len(lines) == 402  # t = 0 plus the 400-point grid


def test_evolve_json(runner, qubit_file):
    result = runner.invoke(main, ["evolve", "--model", qubit_file, "--order", "0"])
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert set(data) == {"order", "times", "distances", "envelope"}
    assert data["order"] == 0
    assert len(data["times"]) == len(data["distances"]) == len(data["envelope"]) == 401
    assert data["times"][0] == 0.0 and data["distances"][0] == 0.0


@pytest.mark.parametrize("command", ["bound", "evolve", "scaling"])
def test_no_command_has_a_norm_option(runner, qubit_file, command):
    # every bound and curve is in the spectral norm the certificates use
    result = runner.invoke(main, [command, "--model", qubit_file, "--norm", "spectral"])
    assert result.exit_code == 2
    assert "No such option '--norm'" in result.output


def test_outputs_name_no_norm(runner, qubit_file):
    result = runner.invoke(main, ["evolve", "--model", qubit_file, "--format", "csv"])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0] == "t,distance,order"
    result = runner.invoke(main, ["evolve", "--model", qubit_file])
    assert result.exit_code == 0
    assert "norm" not in json.loads(result.stdout)
    result = runner.invoke(main, ["bound", "--model", qubit_file, "--gamma", "40"])
    assert result.exit_code == 0
    assert set(json.loads(result.stdout)) == {
        "gamma", "gamma_blocks", "loose_bound", "tight_bound_d", "tight_bound_k",
        "applicable", "semigroup_bound", "unitary_bound",
    }
    result = runner.invoke(main, ["solve", "--model", qubit_file, "--gamma", "40"])
    assert result.exit_code == 0
    for block in json.loads(result.stdout)["blocks"]:
        assert set(block["kantorovich"]) == {
            "ell", "mu", "beta", "nu", "lipschitz", "h", "theta", "xi",
            "gamma_min", "solvable", "quadratic",
        }


def test_evolve_bad_order_exits_2(runner, qubit_file):
    result = runner.invoke(main, ["evolve", "--model", qubit_file, "--order", "x"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args", [["evolve", "--order", "-1"], ["scaling", "--orders", "0,-1"]]
)
def test_negative_order_exits_2(runner, qubit_file, args):
    result = runner.invoke(main, [args[0], "--model", qubit_file] + args[1:])
    assert result.exit_code == 2
    assert "must be a non-negative integer, got -1" in result.output


def test_scaling_json(runner, qubit_file):
    result = runner.invoke(
        main, ["scaling", "--model", qubit_file, "--gammas", "10,20", "--orders", "0,1"]
    )
    assert result.exit_code == 0
    data = json.loads(result.stdout)
    assert set(data) == {f.name for f in dataclasses.fields(bench.ScalingReport)}
    assert data["gammas"] == [10.0, 20.0] and data["orders"] == [0, 1]
    assert set(data["plateau"]) == {"10.0", "20.0"}
    for key in ("breakaway", "slopes", "lower_bound_only"):
        assert set(data[key]) == {"0", "1"}
    assert data["threshold_factor"] == 3.0


def test_scaling_empty_gammas_exits_2(runner, qubit_file):
    result = runner.invoke(main, ["scaling", "--model", qubit_file, "--gammas", ","])
    assert result.exit_code == 2
    assert "--gammas" in result.output


def test_scaling_repeated_coupling_exits_2(runner, qubit_file):
    result = runner.invoke(main, ["scaling", "--model", qubit_file, "--gammas", "10,20,10"])
    assert result.exit_code == 2, result.output
    assert "--gammas" in result.output
    assert "gammas[2] = 10.0 repeats gammas[0]" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["evolve", "--gamma", "0"],
        ["evolve", "--gamma", "-5"],
        ["solve", "--gamma", "-5"],
        ["effective", "--gamma", "nan"],
        ["bound", "--gamma", "inf"],
        ["scaling", "--gammas", "0"],
        ["scaling", "--gammas", "10,-1"],
    ],
)
def test_bad_coupling_exits_2(runner, qubit_file, args):
    result = runner.invoke(main, [args[0], "--model", qubit_file] + args[1:])
    assert result.exit_code == 2, result.output
    assert args[1] in result.output
    assert "positive and finite" in result.output


def test_reproduce_writes_report(runner, tmp_path):
    out = tmp_path / "r.json"
    result = runner.invoke(main, ["reproduce", "table2", "--out", str(out)])
    assert result.exit_code == 0
    data = json.loads(out.read_text())
    assert data["case"] == "table2"
    assert data["pass"] is True
    assert all(item["pass"] for item in data["items"])


def test_reproduce_csv(runner):
    result = runner.invoke(main, ["reproduce", "table2", "--format", "csv"])
    assert result.exit_code == 0
    header, *rows = result.stdout.strip().splitlines()
    assert header == "case,name,expected,computed,provenance,tol,pass"
    assert rows and all(row.startswith("table2,") and row.endswith(",True") for row in rows)
    assert result.stderr == "table2: pass\n"


def test_reproduce_failing_suite_exits_1(runner, monkeypatch):
    failed = bench.ReproItem("x", 1.0, 2.0, "patched", 0.5, False)
    report = bench.ReproductionReport("table2", (failed,))
    monkeypatch.setitem(bench._SUITES, "table2", lambda: report)
    result = runner.invoke(main, ["reproduce", "table2"])
    assert result.exit_code == 1
    assert json.loads(result.stdout)["pass"] is False
    assert result.stderr == "table2: FAIL\n"


def test_reproduce_unknown_case_exits_2(runner):
    result = runner.invoke(main, ["reproduce", "nonsense"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--tol", "nan"],
        ["solve", "--tol", "0"],
        ["solve", "--tol", "-1"],
        ["effective", "--tol", "nan"],
        ["effective", "--tol", "0"],
        ["effective", "--tol", "-1"],
    ],
)
def test_bad_tolerance_exits_2(runner, lambda_file, args):
    result = runner.invoke(main, [args[0], "--model", lambda_file] + args[1:])
    assert result.exit_code == 2, result.output
    assert "--tol" in result.output
    assert "positive and finite" in result.output


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_cluster_tol_exits_2(runner, lambda_file, value):
    result = runner.invoke(main, ["decompose", "--model", lambda_file, "--cluster-tol", value])
    assert result.exit_code == 2, result.output
    assert "--cluster-tol" in result.output
    assert "non-negative and finite" in result.output


def test_zero_cluster_tol_is_legal(runner, lambda_file):
    result = runner.invoke(main, ["decompose", "--model", lambda_file, "--cluster-tol", "0"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["cluster_tol"] == 0.0


_MODEL_COMMANDS = ["decompose", "solve", "effective", "bound", "evolve", "scaling"]


@pytest.mark.parametrize("command", _MODEL_COMMANDS)
@pytest.mark.parametrize("entry", ["H-nan", "L-inf", "rate-nan", "rate-inf"])
def test_non_finite_model_entry_exits_2(runner, tmp_path, command, entry):
    # Python's json reads NaN and Infinity: such a model file is malformed
    data = qubit_nilpotent_model(10.0).to_dict()
    strong = data["strong"]
    if entry == "H-nan":
        strong["H"][0][0][0] = math.nan
    elif entry == "L-inf":
        strong["dissipators"][0]["L"][0][1][1] = math.inf
    else:
        strong["dissipators"][0]["rate"] = math.nan if entry == "rate-nan" else math.inf
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, [command, "--model", str(bad)])
    assert result.exit_code == 2, result.output
    assert "malformed model file" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "args, owner, name, error",
    [
        (["decompose", "--model"], spectral, "robust_decompose",
         ClusterAmbiguityError("clusters too close", gap=1e-9)),
        (["solve", "--model"], spectral, "robust_decompose",
         SpectralOverlapError("clusters overlap", separation=0.0)),
        (["effective", "--model"], bench, "compute_effective",
         ConvergenceError("no convergence", residual=1.0, iterations=3)),
        (["bound", "--model"], cli, "eternal_bound", SingularMatrixError("singular", cond=1e20)),
        (["evolve", "--model"], bench, "distance_curves", NonFiniteError("overflow")),
        (["reproduce", "table2"], bench, "reproduce", PhysicalityError("not HP/TP")),
        (["scaling", "--model"], bench, "scaling_check", NonFiniteError("overflow in scaling")),
    ],
    ids=["decompose", "solve-decompose", "effective", "bound", "evolve", "reproduce", "scaling"],
)
def test_numerical_failure_exits_1(runner, qubit_file, monkeypatch, args, owner, name, error):
    # the command group turns any AdiablochError into one line on stderr
    def failing(*_args, **_kwargs):
        raise error

    monkeypatch.setattr(owner, name, failing)
    if args[-1] == "--model":
        args = args + [qubit_file]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert result.stderr == f"error: {error}\n"
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("routine", ["ztrsen", "ztrsyl"])
def test_lapack_failure_is_an_overlap_error(runner, lambda_file, monkeypatch, routine):
    # LAPACK reports INFO = 1 (eigenvalues too close to reorder or decouple).
    # ZTRSEN's had escaped as a raw ValueError naming argument -1, and
    # `adiabloch decompose` had printed its traceback.
    real = getattr(spectral.sla.lapack, routine)
    monkeypatch.setattr(
        spectral.sla.lapack, routine, lambda *args, **kwargs: (*real(*args, **kwargs)[:-1], 1)
    )
    strong = build_superop(lambda_model(10.0), "strong").matrix
    for decomposer in (spectral.decompose, spectral.robust_decompose):
        with pytest.raises(SpectralOverlapError, match=routine) as err:
            decomposer(strong)
        assert err.value.separation > 0.0
    result = runner.invoke(main, ["decompose", "--model", lambda_file])
    assert result.exit_code == 1, result.output
    assert re.fullmatch(f"error: {routine} [^\n]*\n", result.stderr)
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "edit, message",
    [
        # float.fromhex would read "10" as 16.0 and "0.5" as 0.3125
        (lambda data: data.update(gamma="10"), "float.hex"),
        (lambda data: data["strong"]["dissipators"][0].update(rate="0.5"), "float.hex"),
        (lambda data: data.update(dim=2.5), "dim must be a positive integer"),
        (lambda data: data.update(dim=0), "dim must be a positive integer"),
        # a JSON true had run as 1
        (lambda data: data.update(gamma=True), "gamma must be a number, got True"),
        # a part that is not an object had ended in a raw AttributeError
        (lambda data: data.update(strong=[]), "strong must be a JSON object, got list"),
        (lambda data: data.update(weak="x"), "weak must be a JSON object, got str"),
        # a null jump had loaded as a zero matrix
        (
            lambda data: data["strong"]["dissipators"][0].update(L=None),
            "strong dissipator 0 jump must be 2x2, got ()",
        ),
        # entries of the wrong JSON type had exited with raw Python text
        (
            lambda data: data["strong"].update(dissipators=[[1.0]]),
            'strong dissipator 0 must be a JSON object with "rate" and "L", got list',
        ),
        (
            lambda data: data["strong"].update(dissipators={"rate": 1.0}),
            "strong dissipators must be a JSON array, got dict",
        ),
        (
            lambda data: data["strong"].update(dissipators=[{"rate": 1.0}]),
            'strong dissipator 0 must be a JSON object with "rate" and "L", got keys',
        ),
        (
            lambda data: data["weak"].update(dissipators=[{"L": [[[1.0, 0.0]]]}]),
            'weak dissipator 0 must be a JSON object with "rate" and "L", got keys',
        ),
        (
            lambda data: data["strong"].update(H=[[1.0, 2.0]]),
            "strong H must be equal rows of [re, im] pairs",
        ),
        (
            lambda data: data["strong"].update(H=5),
            "strong H must be equal rows of [re, im] pairs",
        ),
        (
            lambda data: data["strong"]["H"][0][0].append(0.0),
            "strong H must be equal rows of [re, im] pairs",
        ),
        (lambda data: [data], 'model must be a JSON object with "dim" and "gamma", got list'),
        # a misspelt key had dropped its part and exited 0
        (lambda data: data.update(Strong=data.pop("strong")), 'model has unknown key "Strong"'),
        (
            lambda data: data["strong"].update(dissipator=data["strong"].pop("dissipators")),
            'strong has unknown key "dissipator"',
        ),
        (
            lambda data: data["strong"]["dissipators"][0].update(jump=None),
            'strong dissipator 0 has unknown key "jump"',
        ),
    ],
    ids=["gamma-10", "rate-0.5", "dim-2.5", "dim-0", "gamma-true", "strong-list", "weak-str",
         "L-null", "dissipator-list", "dissipators-object", "L-missing", "rate-missing",
         "H-row-of-numbers", "H-number", "entry-triple", "top-level-list", "Strong-key",
         "dissipator-key", "jump-key"],
)
def test_bad_number_or_dim_exits_2(runner, tmp_path, edit, message):
    data = qubit_nilpotent_model(10.0).to_dict()
    # an edit returns None, or the whole file when it replaces the object
    data = edit(data) or data
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["bound", "--model", str(bad)])
    assert result.exit_code == 2, result.output
    assert "malformed model file" in result.output
    assert message in result.output


def test_effective_one_level_model(runner, tmp_path):
    # d = 1: no traceless frame element, so H = 0, no rates and min_rate 0
    model = tmp_path / "one.json"
    model.write_text(json.dumps(
        {"dim": 1, "gamma": 1.0, "strong": {"H": [[[0.5, 0.0]]]}, "weak": {}}
    ))
    result = runner.invoke(main, ["effective", "--model", str(model)])
    assert result.exit_code == 0, result.output
    data = json.loads(result.stdout)
    assert data["rates"] == [] and data["min_rate"] == 0.0
    assert data["hamiltonian"] == [[[0.0, 0.0]]]


def _items(data):
    """Every (key, value) pair of nested JSON objects and arrays."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield key, value
            yield from _items(value)
    elif isinstance(data, list):
        for value in data:
            yield from _items(value)


@pytest.mark.parametrize(
    "args, key, value",
    [
        (["solve", "--gamma", "1"], "beta", "inf"),
        (["solve", "--gamma", "1"], "theta", "nan"),
        (["bound", "--gamma", "1", "--unitary"], "tight_bound_k", "inf"),
    ],
)
def test_non_finite_numbers_are_strict_json(runner, qubit_file, args, key, value):
    # below the certified coupling the Kantorovich constants and the bounds
    # are not finite; RFC 8259 has no Infinity or NaN tokens
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    result = runner.invoke(main, [args[0], "--model", qubit_file, *args[1:]])
    assert result.exit_code == 0, result.output
    data = json.loads(result.stdout, parse_constant=reject)
    assert (key, value) in _items(data)


_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("args", [["--help"], ["reproduce", "table2"]], ids=["help", "table2"])
def test_python_m_runs_the_cli(args):
    # python -m adiabloch runs the same command group as the console script
    path = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "adiabloch", *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    if args == ["--help"]:
        assert result.stdout.startswith("Usage: adiabloch [OPTIONS] COMMAND")
    else:
        assert json.loads(result.stdout)["pass"] is True
        assert result.stderr == "table2: pass\n"
