import dataclasses
import json
import re

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from adiabloch import bench, liouville, matcore, spectral
from adiabloch.errors import NonFiniteError, PhysicalityError
from adiabloch.liouville import LindbladModel
from adiabloch.models import (
    counterexample_model,
    lambda_model,
    qubit_nilpotent_model,
    random_model,
)

EPS = np.finfo(float).eps


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
        assert lines[0] == "t,distance,order"
        first = lines[1].split(",")
        assert len(first) == 3 and first[2] == "2"
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


@pytest.mark.parametrize(
    "times, values",
    [
        ([0.0, 1.0, 2.0], [1.0, 0.0, 3.0]),
        ([0.0, 1.0], [2.0, -1.0]),
        ([], []),
        # positive points at one time had made LAPACK print a DLASCL message
        # and numpy raise: a vertical line has no slope
        ([1.0, 1.0], [1.0, 2.0]),
        ([0.0, 2.0, 2.0, 2.0], [5.0, 1.0, 2.0, 3.0]),
    ],
    ids=["one-positive", "none-positive", "empty", "one-time", "one-positive-time"],
)
def test_log_slope_needs_two_positive_points(times, values, capfd):
    assert bench.log_slope(np.array(times), np.array(values)) == 0.0
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize(
    "times, values",
    [
        ([1.0, 2.0, 3.0], [1.0, np.inf, 3.0]),
        ([1.0, 2.0, 3.0], [1.0, np.nan, 3.0]),
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
    ],
    ids=["value-inf", "value-nan", "time-nan"],
)
def test_log_slope_rejects_non_finite_points(times, values):
    # an infinite value had given a NaN slope, and a NaN point was dropped
    with pytest.raises(NonFiniteError, match="times|values"):
        bench.log_slope(np.array(times), np.array(values))


@pytest.mark.parametrize(
    "times, values, name",
    [
        (np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0]), "values"),
        (np.ones((2, 2)), np.ones((2, 2)), "times"),
        (np.array([1.0, 2.0]), np.ones((2, 1)), "values"),
    ],
    ids=["unequal-lengths", "2-d", "2-d-values"],
)
def test_log_slope_needs_1d_arrays_of_one_length(times, values, name):
    # unequal lengths had given a raw broadcast error and 2-d arrays were
    # fitted flattened
    with pytest.raises(ValueError, match=f"{name} must be a 1-d array"):
        bench.log_slope(times, values)


def test_log_slope_takes_lists():
    # lists had raised a raw TypeError
    assert bench.log_slope([1.0, 2.0, 4.0], [1.0, 4.0, 16.0]) == pytest.approx(2.0)


@pytest.mark.parametrize("level", [None, True, "1.0"])
def test_breakaway_time_needs_a_real_level(level):
    # None had raised a raw TypeError and True ran as 1
    grid = np.array([0.0, 1.0, 2.0])
    curve = bench.DistanceCurve(grid, grid, 0, grid)
    with pytest.raises(ValueError, match=re.escape(f"level must be a real number, got {level!r}")):
        bench.breakaway_time(curve, level)


@pytest.mark.parametrize("level", [np.nan, np.inf])
def test_breakaway_time_rejects_a_non_finite_level(level):
    # a NaN level had returned None, which reads as "never broke away"
    grid = np.array([0.0, 1.0, 2.0])
    curve = bench.DistanceCurve(grid, grid, 0, grid)
    with pytest.raises(NonFiniteError, match="level"):
        bench.breakaway_time(curve, level)


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
    # one stacked norm per chunk and order: none of the true propagator,
    # whether through the Gram-matrix kernel or op_norm
    orders = [0, 1, 2, None]
    stacked = {"_spectral_norms": [], "op_norm": []}

    def spy(name):
        real = getattr(matcore, name)

        def counting(a, *args):
            if np.ndim(a) == 3:
                stacked[name].append(np.shape(a))
            return real(a, *args)

        monkeypatch.setattr(matcore, name, counting)

    spy("_spectral_norms")
    spy("op_norm")
    bench.distance_curves(qubit_pipe, orders)
    times = len(bench.default_time_grid())
    chunks = -(-times // matcore._chunk_points(qubit_pipe.total_matrix.shape[0]))
    assert len(stacked["_spectral_norms"]) == chunks * len(orders)
    assert stacked["op_norm"] == []


def test_distance_curves_without_orders_propagates_nothing(lambda_pipe, monkeypatch):
    # the true kernel had walked all 401 points (8 calls on Lambda) for no target
    calls = []
    call = matcore._GridExpm.__call__

    def spy_call(self, t):
        calls.append(len(t))
        return call(self, t)

    monkeypatch.setattr(matcore._GridExpm, "__call__", spy_call)
    assert bench.distance_curves(lambda_pipe, []) == {}
    assert calls == []


def _count_decompose(monkeypatch) -> list:
    # decompose and robust_decompose share this routine
    calls = []
    real = spectral._decompose

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "_decompose", counting)
    return calls


def test_bound_check_decomposes_once(monkeypatch, short_times):
    calls = _count_decompose(monkeypatch)
    bench.bound_check(lambda_model(10.0), times=short_times)
    assert len(calls) == 1


def test_scaling_check_decomposes_once(monkeypatch, short_times):
    calls = _count_decompose(monkeypatch)
    bench.scaling_check(lambda_model(10.0), (10.0, 20.0, 40.0), (0,), times=short_times)
    assert len(calls) == 1


def _per_time_table(pipe, times):
    """The distance table of orders 0 and infinity and M, taken on the
    real-frame generators one time point per kernel call."""
    total = pipe.total_matrix
    targets = {0: pipe.effective_total(0), None: pipe.effective_total()}
    table = bench._distance_table(total, {**targets, "norm": None}, times)
    total = bench._real_frame(total)
    targets = {key: bench._real_frame(target) for key, target in targets.items()}
    expected = {key: [] for key in list(targets) + ["norm"]}
    for t in times:
        true_prop = matcore.expm(total, [t])[0]
        for key, target in targets.items():
            expected[key].append(matcore.op_norm(true_prop - matcore.expm(target, [t])[0]))
        expected["norm"].append(matcore.op_norm(true_prop))
    assert set(table) == set(expected)
    return table, expected


def test_distance_table_matches_per_time_loop(lambda_pipe):
    # 150 points: two full chunks and a partial one
    times = np.concatenate(([0.0], np.logspace(-2.0, 6.0, 149)))
    table, expected = _per_time_table(lambda_pipe, times)
    for key, values in expected.items():
        assert_allclose(table[key], values, rtol=1e-13, atol=1e-13)


def _sector_spies(monkeypatch) -> tuple:
    """Record the sector sizes of each ``_spectral_norms`` call (None for one
    sector) and the size of each eigensolve."""
    partitions, eigensolves = [], []
    spectral_norms, eigvalsh = matcore._spectral_norms, np.linalg.eigvalsh

    def recording_norms(a, sectors=None):
        partitions.append(
            None if sectors is None else sorted(np.unique(sectors, return_counts=True)[1].tolist())
        )
        return spectral_norms(a, sectors)

    def recording_eigvalsh(a, *args, **kwargs):
        eigensolves.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(matcore, "_spectral_norms", recording_norms)
    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    return partitions, eigensolves


def test_lambda_distances_are_taken_per_invariant_sector(lambda_pipe, monkeypatch):
    # orders 0-2 and M keep the total's 11 + 6 + 6 + 2; K and D join two of them
    times = np.concatenate(([0.0], np.logspace(-2.0, 6.0, 99)))
    partitions, eigensolves = _sector_spies(monkeypatch)
    targets = {
        **{order: lambda_pipe.effective_total(order) for order in (0, 1, 2)},
        "M": None,
        "K": lambda_pipe.effective_total(None),
        "D": lambda_pipe.model.gamma * lambda_pipe.strong.matrix
        + lambda_pipe.generators.adiabatic.matrix,
    }
    bench._distance_table(lambda_pipe.total_matrix, targets, times)
    chunks = -(-len(times) // matcore._chunk_points(25))
    assert chunks > 1
    # each chunk takes the targets in order
    assert partitions == ([[2, 6, 6, 11]] * 4 + [[2, 6, 17]] * 2) * chunks
    assert eigensolves and 25 not in eigensolves
    assert set(eigensolves) <= {2, 6, 11, 17}


def test_bound_check_takes_no_full_size_eigensolve(monkeypatch, short_times):
    partitions, eigensolves = _sector_spies(monkeypatch)
    bench.bound_check(lambda_model(10.0), times=short_times)
    # one chunk: K, D and M
    assert partitions == [[2, 6, 17], [2, 6, 17], [2, 6, 6, 11]]
    assert eigensolves and 25 not in eigensolves


def test_one_sector_is_passed_as_none(qubit_pipe, monkeypatch, short_times):
    partitions, eigensolves = _sector_spies(monkeypatch)
    bench.distance_curves(qubit_pipe, [0, None], short_times)
    assert partitions == [None, None]
    assert set(eigensolves) <= {4}


def test_a_one_sector_total_is_labelled_alone(qubit_pipe, lambda_pipe, monkeypatch):
    # a union with one sector is one sector, so a table whose total is one
    # sector labels nothing else; Lambda's targets keep their own labels
    calls, labels = [], []
    components, spectral_norms = matcore._components, matcore._spectral_norms

    def counting(adjacency):
        calls.append(adjacency.shape)
        return components(adjacency)

    def recording(a, sectors=None):
        labels.append(sectors)
        return spectral_norms(a, sectors)

    monkeypatch.setattr(matcore, "_components", counting)
    monkeypatch.setattr(matcore, "_spectral_norms", recording)
    times = np.array([0.0, 1.0, 10.0])
    for pipe in (qubit_pipe, lambda_pipe):
        calls.clear(), labels.clear()
        targets = {
            **{order: pipe.effective_total(order) for order in (0, 1, 2)},
            "M": None,
            "K": pipe.effective_total(None),
        }
        bench._distance_table(pipe.total_matrix, targets, times)
        pattern = bench._real_frame(pipe.total_matrix) != 0
        if pipe is qubit_pipe:
            assert calls == [(4, 4)] and labels == [None] * len(targets)
            continue
        assert len(calls) == len(targets)
        for got, g in zip(labels, targets.values()):
            want = components(pattern if g is None else pattern | (bench._real_frame(g) != 0))
            assert want.any() and np.array_equal(got, want)


def test_real_frame_distances_match_complex_propagation(lambda_pipe):
    # the complex kernel on the raw superoperators, within its accuracy class
    # 8 eps t ||A||_1; a grid call gives each time its single-point arithmetic
    times = bench.default_time_grid()
    total = lambda_pipe.total_matrix
    targets = {k: lambda_pipe.effective_total(k) for k in (0, 2, None)}
    table = bench._distance_table(total, {**targets, "norm": None}, times)
    true_prop = matcore.expm(total, times)
    assert true_prop.dtype == np.complex128
    for key, target in targets.items():
        ref = matcore.op_norm(true_prop - matcore.expm(target, times), "spectral")
        a_norm = max(np.linalg.norm(total, 1), np.linalg.norm(target, 1))
        assert np.all(np.abs(table[key] - ref) <= 8 * EPS * times * a_norm)
    # the norm of a propagator near 1 rounds like 1, also at small t
    ref = matcore.op_norm(true_prop, "spectral")
    a_norm = np.linalg.norm(total, 1)
    assert np.all(np.abs(table["norm"] - ref) <= 8 * EPS * np.maximum(1.0, times * a_norm) * ref)


def _with_frame_defect(g: np.ndarray, kind: str, size: float) -> np.ndarray:
    """g plus ``size`` in one entry of U^H g U: imaginary (Hermiticity) or in row 0 (trace)."""
    frame, _ = liouville._unit_frame(int(np.sqrt(g.shape[0])))
    bump = np.zeros(g.shape, dtype=np.complex128)
    if kind == "hermiticity":
        bump[3, 7] = 1j * size
    else:
        bump[0, 7] = size
    return g + frame @ bump @ frame.conj().T


@pytest.mark.parametrize("kind", ["hermiticity", "trace"])
def test_non_physical_generator_rejected_before_any_propagation(lambda_pipe, monkeypatch, kind):
    times = np.array([0.0, 1.0, 1e3])
    total, target = lambda_pipe.total_matrix, lambda_pipe.effective_total(0)
    tol = liouville._FRAME_DEFECT_TOL * EPS * np.linalg.norm(target, 1)
    expected = bench._distance_table(total, {0: target}, times)
    below = bench._distance_table(total, {0: _with_frame_defect(target, kind, 0.9 * tol)}, times)
    assert_allclose(below[0], expected[0], rtol=1e-10, atol=1e-14)

    def no_propagation(*args, **kwargs):
        raise AssertionError("propagated before the generators were checked")

    monkeypatch.setattr(matcore, "expm", no_propagation)
    above = _with_frame_defect(target, kind, 1.1 * tol)
    with pytest.raises(PhysicalityError, match="hp defect"):
        bench._distance_table(total, {0: above}, times)


def test_frames_checked_before_any_kernel_is_built(lambda_pipe, monkeypatch):
    # the distance table propagates through matcore._GridExpm, not expm
    def no_kernel(*args, **kwargs):
        raise AssertionError("a propagation kernel was built before the frames were checked")

    monkeypatch.setattr(matcore, "_GridExpm", no_kernel)
    target = lambda_pipe.effective_total(0)
    tol = liouville._FRAME_DEFECT_TOL * EPS * np.linalg.norm(target, 1)
    above = _with_frame_defect(target, "trace", 1.1 * tol)
    with pytest.raises(PhysicalityError, match="tp defect"):
        bench._distance_table(lambda_pipe.total_matrix, {0: above}, np.array([0.0, 1.0]))


# ||e^{tG} - e^{tK}||_2 for random d = 8 (seed 11) at its certified coupling,
# G = gamma B + C and K the nonperturbative generator, both as stored by the
# pipeline and mapped to the real frame.  mpmath expm at 40 digits gives
# these 25 digits at t = 1, 1e2, 1e4, 1e5 and 1e6, and at 60 digits the same
# at t = 1e6.
RANDOM_D8_PLATEAU = 2.273435624922637884593339e-4


def test_random_d8_distance_at_large_time(random_d8_certified):
    assert random_d8_certified.model.gamma == pytest.approx(1.709e4, rel=1e-3)
    curve = bench.distance_curves(random_d8_certified, [None], np.array([1e6]))[None]
    assert_allclose(curve.distances, RANDOM_D8_PLATEAU, rtol=1e-6)


def test_random_d8_distance_is_a_plateau(random_d8_certified):
    times = np.array([1.0, 1e2, 1e4, 1e5])
    curve = bench.distance_curves(random_d8_certified, [None], times)[None]
    assert_allclose(curve.distances, RANDOM_D8_PLATEAU, rtol=1e-6)


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


@pytest.mark.parametrize("factor", [-1.0, 0.0, np.nan, np.inf])
def test_bad_gamma_factor_rejected_before_any_work(factor, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before gamma_factor was checked")

    monkeypatch.setattr(bench, "build_superop", no_work)
    monkeypatch.setattr(bench.spectral, "decompose", no_work)
    with pytest.raises(ValueError, match=f"gamma_factor must be positive and finite, got {factor}"):
        bench.bound_check(lambda_model(10.0), gamma_factor=factor)


@pytest.mark.parametrize("value, shown", [(None, "None"), ("2", "'2'"), (True, "True")])
def test_non_number_couplings_rejected_before_any_work(value, shown, monkeypatch):
    # None or a string had escaped as a raw TypeError, and True passed as 1
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(bench, "build_superop", no_work)
    with pytest.raises(ValueError, match=re.escape(f"gamma_factor must be positive and finite, got {shown}")):
        bench.bound_check(lambda_model(10.0), gamma_factor=value)
    with pytest.raises(ValueError, match=re.escape(f"gammas[0] must be positive and finite, got {shown}")):
        bench.scaling_check(lambda_model(10.0), (value,), (0,))


@pytest.mark.parametrize(
    "gammas, orders, message",
    [
        ((10.0, 20.0), (0, None), "orders[1] must be a non-negative integer, got None"),
        ((10.0,), (-1,), "orders[0] must be a non-negative integer, got -1"),
        ((10.0,), (1.5,), "orders[0] must be a non-negative integer, got 1.5"),
        ((10.0, -1.0), (0,), "gammas[1] must be positive and finite, got -1.0"),
        ((np.inf,), (0,), "gammas[0] must be positive and finite, got inf"),
        ((0.0,), (0,), "gammas[0] must be positive and finite, got 0.0"),
        ((10.0,), (True,), "orders[0] must be a non-negative integer, got True"),
        # keyed by coupling, a repeat had collapsed and read as never broken away
        ((10.0, 10.0), (0, 1, 2), "gammas[1] = 10.0 repeats gammas[0]"),
        ((10.0, 20.0, 10), (0,), "gammas[2] = 10 repeats gammas[0]"),
    ],
)
def test_scaling_arguments_rejected_before_any_work(gammas, orders, message, monkeypatch):
    # an order None had failed only after every coupling was solved and propagated
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(bench, "build_superop", no_work)
    with pytest.raises(ValueError, match=re.escape(message)):
        bench.scaling_check(lambda_model(10.0), gammas, orders)


def _unchained_points(g: np.ndarray, times: np.ndarray) -> int:
    """Points of ``times`` that take their own Pade solve for the real-frame
    generator ``g``: those whose half is not on the grid with one squaring
    fewer (the chain rule, as a loop over the grid)."""
    steps = matcore._GridExpm(g)._steps(times).tolist()
    at = dict(zip(times.tolist(), steps))
    return sum(
        not (2 * (t / 2) == t and at.get(t / 2) == s - 1) for t, s in zip(times.tolist(), steps)
    )


def test_distance_curves_propagates_in_batched_chunks(qubit_pipe, monkeypatch):
    # one batched Pade solve per chunk and generator (the qubit's grid is one
    # chunk), over the points no squaring chain reaches, none per time
    # point, and no per-slice scipy exponential
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
    times = bench.default_time_grid()
    chunks = -(-len(times) // matcore._chunk_points(qubit_pipe.total_matrix.shape[0]))
    generators = [qubit_pipe.total_matrix] + [qubit_pipe.effective_total(k) for k in orders]
    unchained = sum(_unchained_points(bench._real_frame(g), times) for g in generators)
    assert scipy_calls == []
    assert len(solves) == chunks * (len(orders) + 1)
    assert sum(shape[0] for shape in solves) == unchained < len(times) * (len(orders) + 1) / 4


def _propagators(monkeypatch, total, targets, times) -> tuple:
    """Every (generator, times, propagators) that ``_distance_table`` takes,
    and the number of time points it gave a Pade solve."""
    seen, pade_rows = [], []
    init, call, pade = (
        matcore._GridExpm.__init__, matcore._GridExpm.__call__, matcore._GridExpm._pade
    )

    def spy_init(self, a):
        init(self, a)
        self.generator = a

    def spy_call(self, t):
        out = call(self, t)
        seen.append((self.generator, t, out.copy()))
        return out

    def spy_pade(self, t, steps):
        pade_rows.append(len(t))
        return pade(self, t, steps)

    monkeypatch.setattr(matcore._GridExpm, "__init__", spy_init)
    monkeypatch.setattr(matcore._GridExpm, "__call__", spy_call)
    monkeypatch.setattr(matcore._GridExpm, "_pade", spy_pade)
    bench._distance_table(total, targets, times)
    monkeypatch.undo()
    return seen, sum(pade_rows)


def _assert_chains_are_exact(monkeypatch, pipe, times):
    """gB + C and gB + K propagated by ``_distance_table`` equal the
    per-point kernel bit for bit, with a solve only where no chain reaches."""
    total, target = pipe.total_matrix, pipe.effective_total()
    seen, pade_rows = _propagators(monkeypatch, total, {None: target}, times)
    frames = [bench._real_frame(total), bench._real_frame(target)]
    assert pade_rows == sum(_unchained_points(g, times) for g in frames)
    assert sum(len(t) for _g, t, _out in seen) == 2 * len(times)
    for g, t, out in seen:
        assert any(np.array_equal(g, frame) for frame in frames)
        for time, prop in zip(t, out):
            assert np.array_equal(prop, matcore.expm(g, [time])[0])


CHAINED_MODELS = {
    "lambda": lambda: lambda_model(10.0),
    "qubit": lambda: qubit_nilpotent_model(10.0),
    "no-go": lambda: counterexample_model(5.0),
    "random-d3": lambda: random_model(3, np.random.default_rng(5)),
}


@pytest.mark.parametrize("make", CHAINED_MODELS.values(), ids=CHAINED_MODELS.keys())
def test_chained_propagators_match_per_point_kernel(make, monkeypatch):
    times = bench.default_time_grid()
    _assert_chains_are_exact(monkeypatch, bench.compute_effective(make()), times)


def test_random_d8_chained_propagators_match_per_point_kernel(random_d8_certified, monkeypatch):
    # n = 64: chunks of 8 points, shorter than an octave, so the carried
    # parents span several chunks
    assert matcore._chunk_points(64) < 15
    _assert_chains_are_exact(monkeypatch, random_d8_certified, bench.default_time_grid())


def test_kernel_keeps_only_the_last_octave(rng):
    # n = 64 on the default grid, 8 points per call: between calls the kernel
    # keeps exactly the walked points from half the last call's largest time
    # on, every parent a later point can chain onto and at most 16 of them
    a = rng.normal(size=(64, 64)) / 8.0
    a -= (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(64)
    kernel = matcore._GridExpm(a)
    times = bench.default_time_grid()
    # the budget: the whole default grid in one call up to n = 9
    assert [matcore._chunk_points(n) for n in (9, 25, 64, 100)] == [404, 52, 8, 3]
    step = matcore._chunk_points(64)
    for start in range(0, len(times), step):
        chunk = times[start : start + step]
        kernel(chunk)
        kept_t, kept = kernel._kept
        assert len(kept_t) == len(kept) <= 16
        walked = times[: start + step]
        assert np.array_equal(np.sort(kept_t), walked[walked >= 0.5 * chunk.max()])


def test_chains_cross_a_chunk_boundary(lambda_pipe, monkeypatch):
    # two chunks of 52 points at n = 25: the second chains onto the octave
    # carried from the first, and solves only where the chain rule fails
    step = matcore._chunk_points(25)
    times = bench.default_time_grid()[: 2 * step]
    total = bench._real_frame(lambda_pipe.total_matrix)
    assert step == 52 and _unchained_points(total, times) < step + 15
    _assert_chains_are_exact(monkeypatch, lambda_pipe, times)


def test_default_grid_is_octave_aligned():
    grid = bench.default_time_grid()
    assert len(grid) == 401 and grid[0] == 0.0 and grid[1] == 1e-2
    # every doubling exact, so each point from one octave up is a squaring
    assert np.array_equal(grid[16:], 2.0 * grid[1:-15])
    assert grid[-1] >= 1e6
    ratios = grid[2:] / grid[1:-1]
    assert np.all(np.abs(ratios - 10 ** (8 / 399)) <= 1e-4)


def test_negative_order_rejected_before_any_series(lambda_pipe, monkeypatch):
    def no_series(*args, **kwargs):
        raise AssertionError("series built for a negative order")

    monkeypatch.setattr(bench, "schrieffer_wolff_series", no_series)
    with pytest.raises(ValueError, match="order"):
        lambda_pipe.k_eff(-1)
    with pytest.raises(ValueError, match="order"):
        bench.distance_curves(lambda_pipe, [2, -1, None], np.array([0.0, 1.0]))


@pytest.mark.parametrize("tol, shown", [(-1.0, "-1.0"), (0.0, "0.0"), (np.nan, "nan")])
def test_bad_tol_rejected_before_any_block_is_solved(tol, shown):
    # these had ended in a stalled ConvergenceError
    with pytest.raises(ValueError, match=f"tol must be positive and finite, got {shown}"):
        bench.compute_effective(lambda_model(10.0), tol=tol)


def test_truncation_order_must_be_an_integer(lambda_pipe):
    # True had run as order 1
    with pytest.raises(ValueError, match="truncation order must be a non-negative integer, got True"):
        lambda_pipe.k_eff(True)


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
