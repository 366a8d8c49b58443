import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from adiabloch import bench, matcore, spectral
from adiabloch.liouville import LindbladModel
from adiabloch.models import lambda_model


@pytest.fixture(scope="module")
def short_times():
    return np.concatenate(([0.0], np.logspace(-2, 2, 40)))


class TestDistanceCurve:
    def test_zero_weak_part(self, short_times):
        model = LindbladModel(
            dim=2,
            gamma=5.0,
            strong_hamiltonian=np.diag([0.0, 1.0]),
        )
        pipe = bench.compute_effective(model)
        curve = bench.distance_curves(pipe, [None], short_times)[None]
        assert np.abs(curve.distances).max() < 1e-12

    def test_starts_at_zero(self, lambda_pipe, short_times):
        curve = bench.distance_curves(lambda_pipe, [0], short_times)[0]
        assert curve.times[0] == 0.0
        assert curve.distances[0] == 0.0

    def test_small_time_taylor_oracle(self, lambda_pipe):
        # distance(t) ~ t * ||C - K_eff|| for small t
        t = 1e-7
        k = 1
        curve = bench.distance_curves(lambda_pipe, [k], np.array([t]))[k]
        generator_gap = matcore.op_norm(
            lambda_pipe.total_matrix - lambda_pipe.effective_total(k), "spectral"
        )
        assert_allclose(curve.distances[0], t * generator_gap, rtol=2e-2)

    def test_envelope_dominates_curve(self, lambda_pipe, short_times):
        curve = bench.distance_curves(lambda_pipe, [0], short_times)[0]
        assert np.all(curve.envelope >= curve.distances - 1e-15)
        # trailing-decade maximum: spot-check a few windows directly
        for i in (10, 20, 39):
            t = curve.times[i]
            window = (curve.times > t / 10) & (curve.times <= t)
            assert_allclose(curve.envelope[i], curve.distances[window].max())

    def test_truncated_generator_consistency(self, lambda_pipe):
        # K_eff at high order approaches the nonperturbative generator
        k3 = lambda_pipe.k_eff(3)
        k8 = lambda_pipe.k_eff(8)
        k_full = lambda_pipe.generators.schrieffer_wolff.matrix
        gap3 = matcore.op_norm(k3 - k_full, "spectral")
        gap8 = matcore.op_norm(k8 - k_full, "spectral")
        assert gap8 < gap3 * 1e-3

    def test_csv_schema(self, lambda_pipe, short_times):
        curve = bench.distance_curves(lambda_pipe, [2], short_times)[2]
        lines = curve.to_csv().strip().splitlines()
        assert lines[0] == "t,distance,order,norm"
        first = lines[1].split(",")
        assert first[2] == "2" and first[3] == "spectral"
        assert len(lines) == 1 + len(short_times)


class TestReproduce:
    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            bench.reproduce("nope")

    def test_table2_passes_and_is_deterministic(self):
        rep1 = bench.reproduce("table2")
        rep2 = bench.reproduce("table2")
        assert rep1.passed
        assert rep1.to_json() == rep2.to_json()

    def test_report_schema(self):
        rep = bench.reproduce("table1")
        data = json.loads(rep.to_json())
        assert data["case"] == "table1"
        for item in data["items"]:
            assert set(item) == {
                "name", "expected", "computed", "provenance", "tol", "pass",
            }


class TestScaling:
    def test_zero_weak_part_degenerate(self, short_times):
        model = LindbladModel(
            dim=2,
            gamma=5.0,
            strong_hamiltonian=np.diag([0.0, 1.0]),
        )
        report = bench.scaling_check(
            model, gammas=(5.0, 10.0), orders=(0,), times=short_times
        )
        assert report.plateau[5.0] < 1e-12
        assert report.lower_bound_only[0]
        assert report.slopes[0] is None

    def test_breakaway_ordering_short_grid(self):
        model = lambda_model(10.0, omega=0.0, kappa=0.001)
        times = np.concatenate(([0.0], np.logspace(-2, 5, 160)))
        pipe = bench.compute_effective(model)
        curves = bench.distance_curves(pipe, [0, 1, None], times)
        level = 3.0 * curves[None].envelope.max()
        t0 = bench.breakaway_time(curves[0], level)
        t1 = bench.breakaway_time(curves[1], level)
        assert t0 is not None and t1 is not None and t0 < t1


def test_semigroup_norm_bound(lambda_pipe, short_times):
    m = bench.semigroup_norm_bound(lambda_pipe, short_times)
    assert 1.0 <= m < 10.0


def test_semigroup_norm_bound_matches_bound_check(short_times):
    model = lambda_model(10.0)
    report = bench.bound_check(model, times=short_times)
    pipe = bench.compute_effective(dataclasses.replace(model, gamma=report["gamma"]))
    assert bench.semigroup_norm_bound(pipe, short_times) == report["semigroup_bound"]
    # the value before the grid kernel, which took each e^{tA} from tA's own
    # powers, within the accuracy class 8 eps t ||A||_1 of either kernel
    tol = 8 * np.finfo(float).eps * short_times.max() * np.linalg.norm(pipe.total_matrix, 1)
    assert abs(report["semigroup_bound"] - 1.519447605000835) <= tol


def test_distance_curves_takes_no_propagator_norm(qubit_pipe, monkeypatch):
    # one stacked norm per chunk and order: none of the true propagator
    orders = [0, 1, 2, None]
    op_norm, stacked = matcore.op_norm, []

    def counting_op_norm(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacked.append(np.shape(a))
        return op_norm(a, *args, **kwargs)

    monkeypatch.setattr(matcore, "op_norm", counting_op_norm)
    bench.distance_curves(qubit_pipe, orders)
    times = len(bench.default_time_grid())
    chunks = -(-times // bench._chunk_points(qubit_pipe.total_matrix.shape[0]))
    assert len(stacked) == chunks * len(orders)


def _count_decompose(monkeypatch) -> list:
    calls = []
    real = spectral.decompose

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "decompose", counting)
    return calls


def test_bound_check_decomposes_once(monkeypatch, short_times):
    calls = _count_decompose(monkeypatch)
    bench.bound_check(lambda_model(10.0), times=short_times)
    assert len(calls) == 1


def test_scaling_check_decomposes_once(monkeypatch, short_times):
    calls = _count_decompose(monkeypatch)
    bench.scaling_check(lambda_model(10.0), (10.0, 20.0, 40.0), (0,), times=short_times)
    assert len(calls) == 1


def test_distance_table_matches_per_time_loop(lambda_pipe):
    # 150 points: two full chunks and a partial one
    times = np.concatenate(([0.0], np.logspace(-2.0, 6.0, 149)))
    assert len(times) % bench._TIME_CHUNK != 0
    total = lambda_pipe.total_matrix
    targets = {0: lambda_pipe.effective_total(0), None: lambda_pipe.effective_total()}
    table = bench._distance_table(total, targets, times, "spectral")

    expected = {key: [] for key in list(targets) + ["__norm__"]}
    for t in times:
        true_prop = matcore.expm(total, [t])[0]
        for key, target in targets.items():
            expected[key].append(
                matcore.op_norm(true_prop - matcore.expm(target, [t])[0], "spectral")
            )
        expected["__norm__"].append(matcore.op_norm(true_prop, "spectral"))
    assert set(table) == set(expected)
    for key, values in expected.items():
        assert_allclose(table[key], values, rtol=1e-13, atol=1e-13)


def _loop_envelope(times, values):
    """Trailing-decade maximum as a scan over the sorted grid."""
    env = np.empty_like(values)
    lo = 0
    for i, t in enumerate(times):
        while times[lo] <= t / 10.0 and lo < i:
            lo += 1
        env[i] = values[lo : i + 1].max()
    return env


@pytest.mark.parametrize(
    "times",
    [
        bench.default_time_grid(),
        np.sort(np.concatenate([np.logspace(-2, 3, 30), np.logspace(-2, 3, 10), [10.0] * 4])),
        np.concatenate(([0.0, 0.0, 0.0], np.linspace(0.05, 50.0, 40))),
    ],
    ids=["default", "repeated", "zeros"],
)
def test_trailing_decade_max_matches_the_scan(times):
    values = np.random.default_rng(3).lognormal(size=len(times))
    assert np.array_equal(bench._trailing_decade_max(times, values), _loop_envelope(times, values))


BAD_GRIDS = {
    "2d": np.zeros((2, 3)),
    "empty": np.zeros(0),
    "nan": np.array([0.0, np.nan, 1.0]),
    "inf": np.array([0.0, 1.0, np.inf]),
    "negative": np.array([-1.0, 0.0, 1.0]),
    # the envelope at t = 0.01 would include the value at t = 1
    "unsorted": np.array([1.0, 0.01, 100.0]),
}


@pytest.mark.parametrize("grid", BAD_GRIDS.values(), ids=BAD_GRIDS.keys())
def test_bad_time_grid_rejected_before_any_work(grid, lambda_pipe, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the grid was checked")

    monkeypatch.setattr(bench, "robust_decompose", no_work)
    monkeypatch.setattr(bench.spectral, "decompose", no_work)
    monkeypatch.setattr(bench, "_distance_table", no_work)
    model = lambda_model(10.0)
    with pytest.raises(ValueError, match="times"):
        bench.distance_curves(lambda_pipe, [0], grid)
    with pytest.raises(ValueError, match="times"):
        bench.semigroup_norm_bound(lambda_pipe, grid)
    with pytest.raises(ValueError, match="times"):
        bench.scaling_check(model, (10.0,), (0,), grid)
    with pytest.raises(ValueError, match="times"):
        bench.bound_check(model, times=grid)


def test_distance_curves_propagates_in_batched_chunks(qubit_pipe, monkeypatch):
    # one Pade solve per chunk and generator, none per time point, and no
    # per-slice scipy exponential
    orders = [0, 1, 2, None]
    scipy_calls = []
    solves = []
    scipy_expm, solve = sla.expm, np.linalg.solve

    def counting_expm(*args, **kwargs):
        scipy_calls.append(1)
        return scipy_expm(*args, **kwargs)

    def counting_solve(a, b):
        solves.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(sla, "expm", counting_expm)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    bench.distance_curves(qubit_pipe, orders)
    times = len(bench.default_time_grid())
    chunks = -(-times // bench._chunk_points(qubit_pipe.total_matrix.shape[0]))
    assert scipy_calls == []
    assert len(solves) == chunks * (len(orders) + 1)
    assert sum(shape[0] for shape in solves) == times * (len(orders) + 1)


def test_negative_order_rejected_before_any_series(lambda_pipe, monkeypatch):
    def no_series(*args, **kwargs):
        raise AssertionError("series built for a negative order")

    monkeypatch.setattr(bench, "schrieffer_wolff_series", no_series)
    with pytest.raises(ValueError, match="order"):
        lambda_pipe.k_eff(-1)
    with pytest.raises(ValueError, match="order"):
        bench.distance_curves(lambda_pipe, [2, -1, None], np.array([0.0, 1.0]))


def test_scaling_check_rejects_empty_gammas():
    with pytest.raises(ValueError, match="coupling"):
        bench.scaling_check(lambda_model(10.0), gammas=(), orders=(0,))


def test_counterexample_grid_constraints():
    grid = bench.counterexample_parameter_grid()
    assert len(grid) > 2000
    for r in grid[::97]:
        r1, r2, r3, r4, r5, r6 = r
        assert abs((r1 + r5) - (r3 + r6) + 2.0) < 1e-9
        assert abs((r1 - r3) * (r5 - r6) - (r2 - r3) * (r4 - r6)) < 1e-8
