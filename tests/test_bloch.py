import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from adiabloch import bloch, effective, matcore, spectral
from adiabloch.bloch import (
    bracket,
    generator_series,
    kantorovich_report,
    omega_from_wave,
    omega_series,
    schrieffer_wolff_series,
    solve_block,
    solve_blocks,
    sum_correction_series,
    wave_from_omega,
    wave_residual,
)
from adiabloch.errors import (
    BranchEscapeError,
    ConvergenceError,
    NonFiniteError,
    PreconditionError,
    SingularMatrixError,
)
from adiabloch.liouville import Superoperator, build_superop, gkls_decompose
from adiabloch.models import (
    counterexample_model,
    degenerate_model,
    lambda_model,
    qubit_nilpotent_model,
    random_model,
    unitary_part,
)


@pytest.fixture(scope="module")
def qubit_dec():
    strong = build_superop(qubit_nilpotent_model(10.0), "strong")
    return spectral.decompose(strong.matrix, cluster_tol=1e-6)


@pytest.fixture(scope="module")
def qubit_weak():
    return build_superop(qubit_nilpotent_model(10.0), "weak").matrix


class TestBracket:
    def test_trivial_without_nilpotent(self, lambda_pipe, rng):
        blk = lambda_pipe.decomposition.blocks[0]
        a = rng.normal(size=(25, 25))
        assert np.array_equal(bracket(blk, a), a)
        # the left-sided bracket, by the mirror identity
        assert np.array_equal(bracket(blk.transposed(), a.T).T, a)

    def test_zero(self, qubit_dec):
        blk = max(qubit_dec.blocks, key=lambda b: b.index)
        assert np.abs(bracket(blk, np.zeros((4, 4)))).max() == 0.0

    def test_two_term_sum_with_nilpotent(self, qubit_dec, rng):
        blk = max(qubit_dec.blocks, key=lambda b: b.index)
        assert blk.index == 2
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        expected_r = a + blk.resolvent @ a @ blk.nilpotent
        expected_l = a + blk.nilpotent @ a @ blk.resolvent
        assert_allclose(bracket(blk, a), expected_r, atol=1e-14)
        # the left-sided bracket sum N^m A S^m is the bracket on the
        # transposed block, transposed back
        assert_allclose(bracket(blk.transposed(), a.T).T, expected_l, atol=1e-14)


# Each entry point with a 9 x 9 operand on Lambda (n = 25), and the operand
# it must name.  Apart from solve_blocks, sum_correction_series and the
# similarity, these had returned thresholds, bounds or a bracket for another
# generator, or failed as a raw numpy error.
_WRONG_SHAPE_CALLS = {
    "eternal_bound": (lambda pipe, m: effective.eternal_bound(pipe.decomposition, m, 10.0), "c"),
    "block_gamma_min": (
        lambda pipe, m: bloch.block_gamma_min(pipe.decomposition.blocks[0], m), "c"
    ),
    "bracket-index-1": (lambda pipe, m: bracket(pipe.decomposition.blocks[0], m), "a"),
    "validate": (lambda pipe, m: spectral.validate(pipe.decomposition, m), "b"),
    "verify_similarity-b": (
        lambda pipe, m: effective.verify_similarity(
            pipe.generators, pipe.decomposition, m, pipe.weak, 10.0, list(pipe.solutions)
        ),
        "b",
    ),
    "verify_similarity-c": (
        lambda pipe, m: effective.verify_similarity(
            pipe.generators, pipe.decomposition, pipe.strong, m, 10.0, list(pipe.solutions)
        ),
        "c",
    ),
    "omega_series": (lambda pipe, m: omega_series(pipe.decomposition, m, 0, 1), "c"),
    "generator_series": (lambda pipe, m: generator_series(pipe.decomposition, m, 0, 1), "c"),
    "schrieffer_wolff_series": (
        lambda pipe, m: schrieffer_wolff_series(pipe.decomposition, m, 0, 1, method="series"),
        "c",
    ),
    "omega_from_wave": (
        lambda pipe, m: omega_from_wave(
            pipe.decomposition.blocks[0], pipe.solutions[0].wave, m, 10.0
        ),
        "c",
    ),
    "omega_from_wave-wave": (
        lambda pipe, m: omega_from_wave(pipe.decomposition.blocks[0], m, pipe.weak, 10.0),
        "wave",
    ),
    "wave_from_omega": (
        lambda pipe, m: wave_from_omega(pipe.decomposition.blocks[0], m, 10.0), "omega"
    ),
    "solve_blocks": (lambda pipe, m: solve_blocks(pipe.decomposition, m, 10.0), "c"),
    "sum_correction_series": (
        lambda pipe, m: sum_correction_series(
            pipe.decomposition, m, np.zeros((25, 25)), 10.0, 0
        ),
        "c",
    ),
    "decompose_from_user": (
        lambda pipe, m: spectral.decompose_from_user(pipe.strong, m, [(0.0, 25)]),
        "similarity",
    ),
}

# Each bloch entry point on the qubit (an index-2 block), with C passed in.
_C_CALLS = {
    "kantorovich_report": lambda pipe, c: kantorovich_report(pipe.decomposition, c, 10.0, 1),
    "block_gamma_min": lambda pipe, c: bloch.block_gamma_min(pipe.decomposition.blocks[1], c),
    "bracket": lambda pipe, c: bracket(pipe.decomposition.blocks[1], c),
    "solve_block": lambda pipe, c: solve_block(pipe.decomposition, c, 10.0, 1),
    "solve_blocks": lambda pipe, c: solve_blocks(pipe.decomposition, c, 10.0),
    "omega_from_wave": lambda pipe, c: omega_from_wave(
        pipe.decomposition.blocks[1], pipe.solutions[1].wave, c, 10.0
    ),
    "omega_series": lambda pipe, c: omega_series(pipe.decomposition, c, 1, 3),
    "generator_series": lambda pipe, c: generator_series(pipe.decomposition, c, 1, 3),
    "generator_series-closed": lambda pipe, c: generator_series(
        pipe.decomposition, c, 1, 3, method="closed"
    ),
    "schrieffer_wolff_series": lambda pipe, c: schrieffer_wolff_series(
        pipe.decomposition, c, 1, 3
    ),
    "schrieffer_wolff_series-series": lambda pipe, c: schrieffer_wolff_series(
        pipe.decomposition, c, 1, 3, method="series"
    ),
    "sum_correction_series": lambda pipe, c: sum_correction_series(
        pipe.decomposition, c, pipe.generators.blocks[1].d_block, 100.0, 1
    ),
}


def _leaves(result) -> list:
    """The arrays, numbers and strings inside a result, in order, as arrays."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    elif isinstance(result, dict):
        result = list(result.values())
    if isinstance(result, (list, tuple)):
        return [leaf for item in result for leaf in _leaves(item)]
    return [np.asarray(result)]


class TestSolvers:
    def test_zero_weak_part(self, lambda_pipe):
        dec = lambda_pipe.decomposition
        zero = np.zeros((25, 25))
        sol = solve_block(dec, zero, 10.0, 0)
        assert np.abs(sol.omega).max() == 0.0
        assert np.abs(sol.omega_conj).max() == 0.0
        assert np.abs(sol.wave - dec.blocks[0].projection).max() < 1e-14

    def test_residuals_below_tolerance(self, lambda_pipe):
        for sol in lambda_pipe.solutions:
            for key in ("omega_eq", "omega_conj_eq", "wave_eq", "wave_conj_eq"):
                assert sol.residuals[key] < 1e-12, (sol.ell, key)
            for key in ("omega_support", "omega_conj_support"):
                assert sol.residuals[key] < 1e-12

    def test_wave_consistency(self, lambda_pipe):
        # U from the omega solution equals P - S omega / gamma by
        # construction; check it solves the wave equation independently
        dec = lambda_pipe.decomposition
        for sol in lambda_pipe.solutions:
            blk = dec.blocks[sol.ell]
            res = wave_residual(blk, lambda_pipe.weak.matrix, 10.0, sol.wave)
            assert matcore.op_norm(res, "spectral") < 1e-12

    @pytest.mark.parametrize("gamma, shown", [("1", "'1'"), (None, "None"), (True, "True")])
    def test_coupling_must_be_a_number(self, lambda_pipe, gamma, shown):
        # a string or None had escaped as a raw TypeError, and True passed as 1
        zero = np.zeros((25, 25))
        with pytest.raises(ValueError, match=f"gamma must be positive and finite, got {shown}"):
            solve_block(lambda_pipe.decomposition, zero, gamma, 0)

    @pytest.mark.parametrize("call", ["solve_blocks", "solve_block"])
    @pytest.mark.parametrize(
        "gamma, tol, match",
        # each case is named by its bad value and the message
        [
            pytest.param(10.0, tol, f"tol must be positive and finite, got {tol}",
                         id=f"{tol}-tol must be positive and finite, got {tol}")
            for tol in (-1.0, 0.0, math.nan, None)
        ] + [
            pytest.param(gamma, 1e-12, f"gamma must be positive and finite, got {gamma}",
                         id=f"{gamma}-gamma must be positive and finite, got {gamma}")
            for gamma in (0.0, -5.0, math.nan, math.inf)
        ],
    )
    def test_solver_arguments_checked_before_any_block(
        self, lambda_pipe, monkeypatch, call, gamma, tol, match
    ):
        # a bad tol had ended in a stalled ConvergenceError
        def no_solve(*args, **kwargs):
            raise AssertionError("a block was solved before the arguments were checked")

        monkeypatch.setattr(bloch, "_solve", no_solve)
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        with pytest.raises(ValueError, match=re.escape(match)):
            if call == "solve_blocks":
                solve_blocks(dec, c, gamma, tol=tol)
            else:
                solve_block(dec, c, gamma, 0, tol=tol)

    @pytest.mark.parametrize("gamma", [0.0, -5.0, math.nan])
    def test_bad_coupling_rejected_before_the_certificate(self, lambda_pipe, gamma):
        # solve_blocks builds each block's Kantorovich report first
        with pytest.raises(ValueError, match="gamma"):
            solve_blocks(lambda_pipe.decomposition, lambda_pipe.weak.matrix, gamma)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, "10"])
    @pytest.mark.parametrize("call", ["wave_from_omega", "omega_from_wave"])
    def test_conversion_coupling_checked(self, lambda_pipe, call, gamma):
        # 0 and nan had given a non-finite matrix, -1 a wrong one, and "10"
        # a raw TypeError
        blk, sol = lambda_pipe.decomposition.blocks[0], lambda_pipe.solutions[0]
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            if call == "wave_from_omega":
                wave_from_omega(blk, sol.omega, gamma)
            else:
                omega_from_wave(blk, sol.wave, lambda_pipe.weak, gamma)

    def test_iteration_budget_exhausted(self, lambda_pipe, monkeypatch):
        # block 3 of Lambda takes two Newton steps
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        assert lambda_pipe.solutions[3].iterations["omega"] == 2
        monkeypatch.setattr(bloch, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="^omega newton .* after 1 iterations") as err:
            solve_block(dec, c, 10.0, 3)
        assert err.value.iterations == 1
        assert len(err.value.history) == 1
        assert err.value.residual == err.value.history[0] > bloch.DEFAULT_TOL

    @pytest.mark.parametrize(
        "call",
        [
            lambda dec, c, ell: solve_block(dec, c, 10.0, ell),
            lambda dec, c, ell: kantorovich_report(dec, c, 10.0, ell),
        ],
        ids=["solve_block", "kantorovich_report"],
    )
    @pytest.mark.parametrize(
        "ell, size, match",
        [(-1, 2, "got -1"), (2, 2, "got 2"), (True, 2, "got True"), (0, 3, r"got \(3, 3\)")],
        ids=["ell-negative", "ell-past-end", "ell-bool", "c-3x3"],
    )
    def test_block_index_and_weak_shape_validated(self, call, ell, size, match):
        # a negative ell must not wrap around to the last block, and a past-end
        # ell or a mis-sized C must fail up front with a message naming it
        dec = spectral.decompose(np.diag([0.0, -2.0j]))
        with pytest.raises(ValueError, match=match):
            call(dec, np.ones((size, size)), ell)

    @pytest.mark.parametrize(
        "call, name", list(_WRONG_SHAPE_CALLS.values()), ids=list(_WRONG_SHAPE_CALLS)
    )
    def test_operand_shape_validated(self, lambda_pipe, call, name):
        with pytest.raises(ValueError, match=rf"^{name} must be 25x25, got \(9, 9\)$"):
            call(lambda_pipe, np.ones((9, 9)))

    @pytest.mark.parametrize("call", list(_C_CALLS.values()), ids=list(_C_CALLS))
    def test_superoperator_weak_part(self, qubit_pipe, call):
        # a Superoperator C had failed with a raw TypeError: must be real number
        got = _leaves(call(qubit_pipe, qubit_pipe.weak))
        want = _leaves(call(qubit_pipe, qubit_pipe.weak.matrix))
        assert len(got) == len(want) > 0
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w, equal_nan=g.dtype.kind in "fc")

    @pytest.mark.parametrize("name", list(_C_CALLS))
    def test_non_finite_weak_part_is_named(self, qubit_pipe, name):
        # the error had named the operand "input"; bracket calls its operand a
        c = qubit_pipe.weak.matrix.copy()
        c[1, 2] = math.nan
        operand = "a" if name == "bracket" else "c"
        with pytest.raises(NonFiniteError, match=rf"^{operand} contains NaN or Inf entries$"):
            _C_CALLS[name](qubit_pipe, c)

    def test_no_square_svd_per_equation(self, lambda_pipe, monkeypatch):
        # Q and W come from the block, residual and ball norms from n x r
        # factors: the only n x n SVDs are the report's ||C|| and ||S_0||
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        solve_block(dec, c, 10.0, 0)
        assert len(shapes) > 2
        assert shapes.count((dec.dim, dec.dim)) == 2

    def test_weak_norm_taken_once_per_solve(self, lambda_pipe, monkeypatch):
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        calls = []
        op_norm = matcore.op_norm

        def counting_norm(a, kind="spectral"):
            if np.shape(a) == c.shape and np.array_equal(a, c):
                calls.append(kind)
            return op_norm(a, kind)

        monkeypatch.setattr(matcore, "op_norm", counting_norm)
        sols = solve_blocks(dec, c, 10.0)
        assert len(sols) == len(dec.blocks) > 1
        assert calls == ["spectral"]

    def test_one_transposed_block_per_block(self, lambda_pipe, monkeypatch):
        # a solved block transposes its data once for both order-reversed
        # equations and their checks, a mapped block once for its residuals
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        calls = []
        transposed = spectral.ProjectionFactors.transposed

        def counting(self, projection_t):
            calls.append(projection_t.shape)
            return transposed(self, projection_t)

        monkeypatch.setattr(spectral.ProjectionFactors, "transposed", counting)
        sols = solve_blocks(dec, c, 10.0)
        assert len(dec.images) == 3
        assert len(sols) == len(dec.blocks) == len(calls) == 8

    def test_residual_keys_in_order(self, lambda_pipe):
        # <equation><side>_<kind>, solved and mapped blocks alike: the order
        # of BlochSolution.residuals and of the CLI's solve JSON
        keys = [
            "omega_eq", "omega_support", "omega_conj_eq", "omega_conj_support",
            "wave_eq", "wave_support", "wave_conj_eq", "wave_conj_support",
            "wave_deformation", "wave_conj_deformation",
        ]
        sols = lambda_pipe.solutions
        assert {sol.mapped_from is None for sol in sols} == {True, False}
        for sol in sols:
            assert list(sol.residuals) == keys, sol.ell

    def test_one_certificate_call_per_stack(self, lambda_pipe, monkeypatch):
        # both sides of every block of a stack (one rank and index) are
        # checked in one supported_norm call: four checks on each side of a
        # solved block, the two equation residuals on each side of a mapped
        # one; a solved stack's other call is its reported final residuals
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        calls = []
        supported_norm = matcore.supported_norm

        def recording(x, basis):
            calls.append(np.shape(x)[:-2])
            return supported_norm(x, basis)

        monkeypatch.setattr(matcore, "supported_norm", recording)
        sols = solve_blocks(dec, c, 10.0)
        assert [blk.rank for blk in dec.blocks] == [3, 10, 3, 3, 1, 1, 3, 1]
        assert dec.images == {2: 0, 6: 3, 5: 4}
        # solved stacks [0, 3], [1] and [4, 7]; mapped stacks [2, 6] and [5]
        assert calls == [
            (2, 2), (4, 2, 2), (1, 2), (4, 1, 2), (2, 2), (4, 2, 2), (2, 2, 2), (2, 1, 2)
        ]
        checks = sum(math.prod(shape) for shape in calls if len(shape) == 3)
        assert checks == sum(4 if sol.mapped_from is not None else 8 for sol in sols)

    def test_divergence_is_typed(self, lambda_pipe, monkeypatch):
        # a Newton step scaled by 1e8 takes the residual past 1e6 times
        # (1 + its first value) at the next iteration; block 0 at gamma = 0.1
        # has no uniqueness ball to leave first
        range_step = bloch._range_step
        monkeypatch.setattr(bloch, "_range_step", lambda *args: 1e8 * range_step(*args))
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        with pytest.raises(ConvergenceError, match="^omega newton iteration diverged on block 0") as info:
            solve_block(dec, c, 0.1, 0)
        err = info.value
        assert err.residual > 1e6 * (1.0 + err.history[0])
        assert err.iterations == len(err.history) - 1 == 1

    def test_iterate_leaving_the_ball_is_typed(self, lambda_pipe, monkeypatch):
        # a uniqueness ball of radius 1e-20 is left at the first Newton step
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        rep = kantorovich_report(dec, c, 10.0, 0)
        tiny = dataclasses.replace(rep, xi=1e-20, solvable=True)
        monkeypatch.setattr(bloch, "kantorovich_report", lambda *args: tiny)
        with pytest.raises(BranchEscapeError, match="^omega iterate on block 0 left the uniqueness ball"):
            solve_block(dec, c, 10.0, 0)

    def test_factored_residuals_bound_the_dense_norms(self, lambda_pipe, qubit_pipe):
        # every residual taken from n x r factors is >= its n x n spectral
        # norm and equal to it to rounding, since it vanishes on range(1 - P)
        for pipe in (lambda_pipe, qubit_pipe):
            dec, c, gamma = pipe.decomposition, pipe.weak.matrix, pipe.model.gamma
            for blk, sol in zip(dec.blocks, pipe.solutions):
                blk_t = blk.transposed()
                dense = {
                    "omega_eq": bloch.omega_residual(blk, c, gamma, sol.omega),
                    "omega_conj_eq": bloch.omega_residual(blk_t, c.T, gamma, sol.omega_conj.T),
                    "wave_eq": wave_residual(blk, c, gamma, sol.wave),
                    "wave_conj_eq": wave_residual(blk_t, c.T, gamma, sol.wave_conj.T),
                    "wave_deformation": sol.wave - blk.projection,
                    "wave_conj_deformation": sol.wave_conj - blk.projection,
                }
                for key, x in dense.items():
                    want = matcore.op_norm(x, "spectral")
                    got = sol.residuals[key]
                    assert got >= want * (1.0 - 1e-14), key
                    assert got - want <= 1e-14 * max(1.0, want), (key, got, want)

    @pytest.mark.parametrize("case", ["lambda", "qubit", "random"])
    def test_order_reversed_equations_oracle(self, case, lambda_pipe, qubit_dec, qubit_weak):
        # the paper's order-reversed equations, written out independently of
        # the transposed-primal route the solver takes
        if case == "lambda":
            dec, c, gamma = lambda_pipe.decomposition, lambda_pipe.weak.matrix, 10.0
            sols = lambda_pipe.solutions
            assert max(blk.rank for blk in dec.blocks) > 1
        elif case == "qubit":
            dec, c, gamma = qubit_dec, qubit_weak, 10.0
            sols = solve_blocks(dec, c, gamma)
            assert max(blk.index for blk in dec.blocks) == 2
        else:
            m = random_model(3, np.random.default_rng(7))
            dec = spectral.decompose(build_superop(m, "strong").matrix)
            c = build_superop(m, "weak").matrix
            gamma = 4.0 * max(bloch.block_gamma_min(blk, c) for blk in dec.blocks)
            sols = solve_blocks(dec, c, gamma)
        eye = np.eye(dec.dim)
        c_norm = matcore.op_norm(c, "spectral")
        for sol in sols:
            blk = dec.blocks[sol.ell]
            p, nil, s = blk.projection, blk.nilpotent, blk.resolvent
            x, u = sol.omega_conj, sol.wave_conj
            omega_conj_eq = (
                (x @ x @ s) / gamma - x - (x @ s @ c) / gamma + nil @ x @ s + p @ c
            )
            wave_conj_eq = u - nil @ u @ s + ((u @ c - u @ c @ u) @ s) / gamma - p
            tol = 1e-12 * max(1.0, gamma * matcore.op_norm(s, "spectral") * c_norm)
            for name, res in (
                ("omega_conj_eq", omega_conj_eq),
                ("wave_conj_eq", wave_conj_eq),
                ("omega_conj_support", (eye - p) @ x),
                ("wave_conj_support", (eye - p) @ u),
            ):
                assert matcore.op_norm(res, "spectral") < tol, (case, sol.ell, name)

    def test_stalled_newton_fails_fast(self, lambda_pipe):
        # block 1 reaches its rounding floor (about 1.5e-16) in 3 steps and
        # then only repeats it; without the stall rule it ran all 200
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        with pytest.raises(ConvergenceError, match="stalled") as info:
            solve_block(dec, c, 10.0, 1, tol=1e-20)
        err = info.value
        assert err.iterations < 20
        assert len(err.history) == err.iterations + 1
        assert min(err.history) < 1e-15

    def test_unitary_conjugation_identities(self):
        model = unitary_part(lambda_model(10.0))
        strong = build_superop(model, "strong")
        weak = build_superop(model, "weak")
        dec = spectral.decompose(strong.matrix)
        sols = solve_blocks(dec, weak.matrix, 10.0)
        for sol in sols:
            assert np.abs(sol.omega_conj + sol.omega.conj().T).max() < 1e-10
            assert np.abs(sol.wave_conj - sol.wave.conj().T).max() < 1e-10

    def test_roundtrips(self, lambda_pipe, qubit_dec, qubit_weak):
        dec = lambda_pipe.decomposition
        c = lambda_pipe.weak.matrix
        for sol in lambda_pipe.solutions:
            blk = dec.blocks[sol.ell]
            omega2 = omega_from_wave(blk, sol.wave, c, 10.0)
            assert matcore.op_norm(omega2 - sol.omega, "spectral") < 1e-11
        # with a genuine nilpotent the gamma * N term enters the inversion
        sols = solve_blocks(qubit_dec, qubit_weak, 10.0)
        for sol in sols:
            blk = qubit_dec.blocks[sol.ell]
            omega2 = omega_from_wave(blk, sol.wave, qubit_weak, 10.0)
            assert matcore.op_norm(omega2 - sol.omega, "spectral") < 1e-11
            wave2 = wave_from_omega(blk, omega2, 10.0)
            assert matcore.op_norm(wave2 - sol.wave, "spectral") < 1e-11


def _dense_omega_jacobian(blk, c, gamma, x):
    s, nil = blk.resolvent, blk.nilpotent
    eye = np.eye(len(s))
    return (
        (np.kron(x.T, s) + np.kron(eye, s @ x)) / gamma
        - np.eye(len(s) ** 2)
        - np.kron(eye, c @ s) / gamma
        + np.kron(nil.T, s)
    )


def _dense_wave_jacobian(blk, c, gamma, x):
    s, nil = blk.resolvent, blk.nilpotent
    eye = np.eye(len(s))
    return (
        np.eye(len(s) ** 2)
        - np.kron(nil.T, s)
        + (np.kron(eye, s @ c) - np.kron((c @ x).T, s) - np.kron(eye, s @ x @ c)) / gamma
    )


def _dense_newton(blk, c, gamma, which, tol=1e-12, max_iter=50):
    """Newton on the full n^2 x n^2 Kronecker Jacobian: (solution, iterations)."""
    residual_fn, jacobian_fn = {
        "omega": (bloch.omega_residual, _dense_omega_jacobian),
        "wave": (wave_residual, _dense_wave_jacobian),
    }[which]
    x = bracket(blk, c @ blk.projection) if which == "omega" else blk.projection
    n = len(x)
    for it in range(max_iter):
        r = residual_fn(blk, c, gamma, x)
        if matcore.op_norm(r, "spectral") <= tol:
            return x, it
        step = np.linalg.solve(jacobian_fn(blk, c, gamma, x), -r.reshape(-1, order="F"))
        x = x + step.reshape((n, n), order="F")
    raise AssertionError(f"dense {which} Newton did not converge")


def _stack_case(name):
    """(decomposition, C) of a model whose blocks make stacks of several ranks,
    indices and sizes, and its coupling: the paper's (Lambda: ranks 1, 3 and
    10; the qubit: an index-2 block; the no-go model) or random d = 4 at
    2 max gamma_l."""
    model = {
        "lambda": lambda: lambda_model(10.0),
        "qubit": lambda: qubit_nilpotent_model(10.0),
        "counterexample": lambda: counterexample_model(5.0),
        "random_d4": lambda: random_model(4, np.random.default_rng(11)),
    }[name]()
    strong, weak = build_superop(model, "strong"), build_superop(model, "weak")
    dec = spectral.robust_decompose(strong.matrix)
    gamma = model.gamma
    if name == "random_d4":
        gamma = 2.0 * max(effective.eternal_bound(dec, weak.matrix, 1.0).gamma_blocks)
    return dec, weak.matrix, gamma


class TestStackedSolve:
    """solve_blocks iterates the omega equations of both sides of every
    solved block of one rank and index as one stack; solve_block is that
    stack for one block."""

    @pytest.mark.parametrize("case", ["lambda", "qubit", "counterexample", "random_d4"])
    def test_a_pair_does_not_depend_on_its_stack(self, case):
        dec, c, gamma = _stack_case(case)
        sols = solve_blocks(dec, c, gamma)
        solved = [sol.ell for sol in sols if sol.mapped_from is None]
        stacks = bloch._stacks(dec, solved)
        assert len(stacks) < len(solved)
        assert {
            "lambda": {1, 3, 10}, "qubit": {1, 2}, "counterexample": {1, 3}, "random_d4": {1}
        }[case] == {dec.blocks[ell].rank for ell in solved}
        assert (case == "qubit") == (max(blk.index for blk in dec.blocks) == 2)
        for ell in solved:
            sol, alone = sols[ell], solve_block(dec, c, gamma, ell)
            for field in ("omega", "omega_conj", "wave", "wave_conj"):
                assert np.array_equal(getattr(alone, field), getattr(sol, field)), (ell, field)
            assert alone.residuals == sol.residuals and alone.iterations == sol.iterations

    # The messages and iteration counts are those the per-block solver gave
    # before the blocks were stacked.  On Lambda block 1 (rank 10, its own
    # stack) fails after 4 iterations and block 0 (rank 3) after 5; on random
    # d = 4 block 14 fails after 6 and block 4, of the same stack, after 7.
    @pytest.mark.parametrize(
        "case, message, iterations",
        [
            ("lambda", "omega newton iteration stalled on block 0: no residual "
             "below 1.333e+00 in the last 4 iterations (tol 1.0e-12)", 5),
            ("random_d4", "omega newton iteration stalled on block 4: no residual "
             "below 1.100e+01 in the last 4 iterations (tol 1.0e-12)", 7),
        ],
    )
    def test_the_first_failing_block_raises(self, case, message, iterations):
        dec, c, _ = _stack_case(case)
        gamma = 0.1
        failing = []
        for ell in range(len(dec.blocks)):
            if ell not in dec.images:
                try:
                    solve_block(dec, c, gamma, ell)
                except ConvergenceError as err:
                    failing.append(err)
        assert len(failing) >= 2
        with pytest.raises(ConvergenceError) as info:
            solve_blocks(dec, c, gamma)
        err, first = info.value, failing[0]
        assert str(err) == str(first) == message
        assert err.iterations == first.iterations == iterations
        assert err.history == first.history and len(err.history) == iterations + 1
        assert err.residual == first.residual

    def test_a_failing_solve_block_raises_the_stacks_error(self):
        # Lambda block 0 fails at gamma = 0.1, and it is the block that
        # solve_blocks reports
        dec, c, _ = _stack_case("lambda")
        with pytest.raises(ConvergenceError) as stacked:
            solve_blocks(dec, c, 0.1)
        with pytest.raises(ConvergenceError) as alone:
            solve_block(dec, c, 0.1, 0)
        assert type(alone.value) is type(stacked.value)
        assert str(alone.value) == str(stacked.value)
        assert "on block 0" in str(alone.value)
        assert alone.value.iterations == stacked.value.iterations

    def test_a_failed_column_solve_is_the_pair_error(self, lambda_pipe):
        # at gamma = 1 a column system of Lambda's rank-10 block is exactly
        # singular; the rank-3 blocks of another stack converge
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        with pytest.raises(SingularMatrixError) as alone:
            solve_block(dec, c, 1.0, 1)
        with pytest.raises(SingularMatrixError) as info:
            solve_blocks(dec, c, 1.0)
        assert str(info.value) == str(alone.value)
        assert info.value.cond == alone.value.cond
        assert solve_block(dec, c, 1.0, 0).iterations == {"omega": 6, "omega_conj": 6}


class TestReducedNewton:
    """Newton steps on range(P) against the dense Kronecker Newton oracle."""

    @pytest.mark.parametrize(
        "case", ["qubit", "counterexample", "random", "lambda", "degenerate"]
    )
    def test_matches_dense_kronecker_newton(
        self, case, lambda_pipe, qubit_dec, qubit_weak, monkeypatch
    ):
        if case == "qubit":
            dec, c, gamma = qubit_dec, qubit_weak, 10.0
        elif case == "counterexample":
            model = counterexample_model(5.0)
            dec = spectral.robust_decompose(build_superop(model, "strong").matrix)
            c, gamma = build_superop(model, "weak").matrix, model.gamma
        elif case in ("random", "degenerate"):
            if case == "random":
                m = random_model(3, np.random.default_rng(7))
            else:
                m = degenerate_model(1.0, dim=4, fold=2)
            dec = spectral.decompose(build_superop(m, "strong").matrix)
            c = build_superop(m, "weak").matrix
            gamma = 4.0 * max(bloch.block_gamma_min(blk, c) for blk in dec.blocks)
        else:
            dec, c, gamma = lambda_pipe.decomposition, lambda_pipe.weak.matrix, 10.0
        expected_rank = {
            "qubit": 2, "counterexample": 3, "random": 1, "lambda": 10, "degenerate": 8
        }[case]
        assert max(blk.rank for blk in dec.blocks) == expected_rank

        steps = []
        reduced_step = bloch._range_step

        def recording_step(blk, *args):
            delta = reduced_step(blk, *args)
            steps.append((blk.projection, delta @ blk.factors.w))
            return delta

        monkeypatch.setattr(bloch, "_range_step", recording_step)
        for ell, blk in enumerate(dec.blocks):
            sol = solve_block(dec, c, gamma, ell)
            # omega and its count on each side; U, read off omega, against
            # the wave equation solved on its own, with no count to compare
            for field, (blk_side, c_side) in (
                ("omega", (blk, c)), ("omega_conj", (blk.transposed(), c.T)),
                ("wave", (blk, c)), ("wave_conj", (blk.transposed(), c.T)),
            ):
                equation = field.removesuffix("_conj")
                x_dense, it_dense = _dense_newton(blk_side, c_side, gamma, equation)
                if field.endswith("_conj"):
                    x_dense = x_dense.T
                if equation == "omega":
                    assert sol.iterations[field] == it_dense, (case, ell, field)
                scale = max(1.0, matcore.op_norm(x_dense, "spectral"))
                dev = matcore.op_norm(getattr(sol, field) - x_dense, "spectral")
                assert dev <= 1e-12 * scale, (case, ell, field, dev)
        assert steps
        for p, delta in steps:
            leak = matcore.op_norm(delta - delta @ p, "spectral")
            assert leak <= 1e-13 * max(1.0, matcore.op_norm(delta, "spectral")), (case, leak)

    def test_large_rank_blocks_solve_only_n_by_n_systems(self, monkeypatch):
        # two 4-fold levels at d = 8: ranks 32, 16, 16 of n = 64, where one
        # Kronecker step would factor a 2048 x 2048 matrix
        m = degenerate_model(1.0)
        dec = spectral.decompose(build_superop(m, "strong").matrix)
        c = build_superop(m, "weak").matrix
        assert sorted(blk.rank for blk in dec.blocks) == [16, 16, 32]
        gamma = 2.0 * max(bloch.block_gamma_min(blk, c) for blk in dec.blocks)
        shapes = []
        solve_linear = matcore.solve_linear

        def recording_solve(a, y):
            shapes.append(np.shape(a))
            return solve_linear(a, y)

        monkeypatch.setattr(matcore, "solve_linear", recording_solve)
        sols = solve_blocks(dec, c, gamma)
        assert all(sol.certified for sol in sols)
        assert shapes and set(shapes) == {(dec.dim, dec.dim)}

    def test_singular_column_system_is_typed(self, monkeypatch):
        # M is non-normal with Schur form T; A = -T_11 S makes the second
        # column matrix A + T_11 S exactly zero while the first stays regular
        m = np.array([[1.0, 3.0], [0.5, 2.0]], dtype=complex)
        t = sla.schur(m, output="complex")[0]
        s = np.diag([1.0, 2.0, 3.0]).astype(complex)
        eye = np.eye(3, 2, dtype=complex)
        blk = SimpleNamespace(factors=SimpleNamespace(q=eye, w=eye.T), resolvent=s)
        calls = []
        solve_linear = matcore.solve_linear

        def counting_solve(a, y):
            calls.append(a)
            return solve_linear(a, y)

        monkeypatch.setattr(matcore, "solve_linear", counting_solve)
        with pytest.raises(SingularMatrixError):
            bloch._range_step(blk, -t[1, 1] * s, m, np.ones((3, 3)) @ eye)
        assert len(calls) == 2 and not np.any(calls[1])


@pytest.mark.parametrize("dim, fold", [(3, 2), (4, 0)])
def test_degenerate_model_rejects_impossible_fold(dim, fold):
    with pytest.raises(ValueError, match="fold"):
        degenerate_model(1.0, dim=dim, fold=fold)


class TestKantorovich:
    def test_unitary_threshold_formula(self):
        model = unitary_part(lambda_model(10.0))
        strong = build_superop(model, "strong")
        weak = build_superop(model, "weak")
        dec = spectral.decompose(strong.matrix)
        c_norm = matcore.op_norm(weak.matrix, "spectral")
        gaps = [
            abs(a.eigenvalue - b.eigenvalue)
            for i, a in enumerate(dec.blocks)
            for b in dec.blocks[i + 1 :]
        ]
        eta = min(gaps)
        for ell, blk in enumerate(dec.blocks):
            rep = kantorovich_report(dec, weak.matrix, 40.0, ell)
            assert rep.mu == 1.0  # no nilpotent
            s_norm = matcore.op_norm(blk.resolvent, "spectral")
            # projections are Hermitian here, so ||P|| = 1 and the
            # threshold is 4 ||S|| ||C|| <= 4 ||C|| / eta
            assert_allclose(rep.gamma_min, 4.0 * s_norm * c_norm, rtol=1e-12)
            assert rep.gamma_min <= 4.0 * c_norm / eta + 1e-12

    def test_certified_lambda(self, lambda_pipe_certified):
        for sol in lambda_pipe_certified.solutions:
            rep = sol.report
            assert rep.solvable and rep.quadratic
            assert rep.h < 0.5
            assert_allclose(rep.theta * rep.xi, 1.0, rtol=1e-12)
            assert sol.residuals["wave_deformation"] <= rep.theta + 1e-12
            assert sol.residuals["wave_conj_deformation"] <= rep.theta + 1e-12

    def test_uncertified_at_small_coupling(self, lambda_pipe):
        # at gamma = 10 the sufficient condition fails on every block even
        # though Newton converges; solvable must report False
        for sol in lambda_pipe.solutions:
            assert not sol.report.solvable

    def test_quadratic_contraction(self, lambda_pipe_certified):
        dec = lambda_pipe_certified.decomposition
        c = lambda_pipe_certified.weak.matrix
        gamma = lambda_pipe_certified.model.gamma
        # below its rounding floor the omega iteration stalls, with the
        # history of every step
        with pytest.raises(ConvergenceError, match="stalled") as info:
            solve_block(dec, c, gamma, 0, tol=1e-20)
        hist = [r for r in info.value.history if r > 1e-13]
        assert len(hist) >= 2
        # each Newton step roughly squares the residual
        for r0, r1 in zip(hist, hist[1:]):
            assert r1 < 10.0 * r0**2 / hist[0]

    def test_division_guard(self, lambda_pipe):
        rep = kantorovich_report(lambda_pipe.decomposition, lambda_pipe.weak.matrix, 1.0, 0)
        assert not rep.solvable
        assert rep.h == math.inf

    def test_solvable_iff_above_threshold(self, lambda_pipe):
        dec = lambda_pipe.decomposition
        c = lambda_pipe.weak.matrix
        gamma_min = kantorovich_report(dec, c, 100.0, 0).gamma_min
        assert kantorovich_report(dec, c, gamma_min * 1.0001, 0).solvable
        assert not kantorovich_report(dec, c, gamma_min * 0.9999, 0).solvable

    def test_spectral_norm_thresholds_on_the_nilpotent_block(self, qubit_dec, qubit_weak):
        # gamma_l = 4 mu ||S|| ||C|| ||P||, mu = sum_{m < index} (||S|| ||N||)^m,
        # every norm the spectral norm taken by a dense SVD; the index-2 block
        # takes ||N|| by supported_norm on range(P^H), the only threshold of
        # the suite with mu > 1
        def spectral_norm(m):
            return np.linalg.svd(m, compute_uv=False).max()

        assert sorted(blk.index for blk in qubit_dec.blocks) == [1, 1, 2]
        report = effective.eternal_bound(qubit_dec, qubit_weak, 10.0)
        mus = []
        for blk, gamma_l in zip(qubit_dec.blocks, report.gamma_blocks, strict=True):
            s_norm = spectral_norm(blk.resolvent)
            mu = sum((s_norm * spectral_norm(blk.nilpotent)) ** m for m in range(blk.index))
            want = 4.0 * mu * s_norm * spectral_norm(qubit_weak) * spectral_norm(blk.projection)
            assert_allclose(gamma_l, want, rtol=1e-12)
            mus.append(mu)
        assert max(mus) > 1.0


class TestSeries:
    def test_generator_series_leading_orders(self, lambda_pipe):
        dec = lambda_pipe.decomposition
        c = lambda_pipe.weak.matrix
        for ell in (0, 1, 4):
            blk = dec.blocks[ell]
            series = generator_series(dec, c, ell, 1)
            p = blk.projection
            assert_allclose(series.coeffs[0], p @ c @ p, atol=1e-13)
            expected_d1 = -p @ c @ blk.resolvent @ bracket(blk, c) @ p
            assert_allclose(series.coeffs[1], expected_d1, atol=1e-12)

    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_recursion_matches_closed_forms_qubit(self, qubit_dec, qubit_weak, ell):
        rec = generator_series(qubit_dec, qubit_weak, ell, 3, method="recursion")
        closed = generator_series(qubit_dec, qubit_weak, ell, 3, method="closed")
        for a, b in zip(rec.coeffs, closed.coeffs):
            assert np.abs(a - b).max() < 1e-11

    def test_sw_series_matches_closed_forms(self, lambda_pipe, qubit_dec, qubit_weak):
        for dec, c in (
            (lambda_pipe.decomposition, lambda_pipe.weak.matrix),
            (qubit_dec, qubit_weak),
        ):
            for ell in range(len(dec.blocks)):
                ser = schrieffer_wolff_series(dec, c, ell, 3, method="series")
                clo = schrieffer_wolff_series(dec, c, ell, 3, method="closed")
                for a, b in zip(ser.coeffs, clo.coeffs):
                    assert np.abs(a - b).max() < 1e-11

    @pytest.mark.parametrize(
        "model, cluster_tol",
        [
            (lambda_model(10.0), None),
            (qubit_nilpotent_model(10.0), 1e-6),
            (counterexample_model(10.0), None),
            (degenerate_model(20.0, 4, 2), None),
        ],
        ids=["lambda", "qubit", "no-go", "degenerate"],
    )
    def test_sw_series_is_the_symmetrized_generator(self, model, cluster_tol):
        # K^(j) = (D^(j) + D~^(j))/2 through j = 2 on every block, and at
        # j = 3 on index-1 blocks (an index-2 block adds a nilpotent term):
        # K from the binomial series, D from the omega recursion on the
        # decomposition and D~ from it on the transposed blocks with C^T.
        # At j = 4 blocks of rank > 1 differ at the 0.1 level.
        dec = spectral.decompose(build_superop(model, "strong").matrix, cluster_tol=cluster_tol)
        c = build_superop(model, "weak").matrix
        dec_t = dataclasses.replace(dec, blocks=tuple(blk.transposed() for blk in dec.blocks))
        pairs = []
        for ell, blk in enumerate(dec.blocks):
            k = schrieffer_wolff_series(dec, c, ell, 3, method="series").coeffs
            d = generator_series(dec, c, ell, 3, method="recursion").coeffs
            d_t = generator_series(dec_t, c.T, ell, 3, method="recursion").coeffs
            orders = 4 if blk.index == 1 else 3
            pairs += [(k[j], (d[j] + d_t[j].T) / 2) for j in range(orders)]
        scale = max(np.abs(k).max() for k, _ in pairs)
        assert scale > 0.0
        assert max(np.abs(k - sym).max() for k, sym in pairs) <= 1e-13 * scale

    def test_closed_form_order_limit(self, lambda_pipe):
        with pytest.raises(ValueError):
            schrieffer_wolff_series(
                lambda_pipe.decomposition, lambda_pipe.weak.matrix, 0, 4, method="closed"
            )

    def test_zeroth_sw_equals_zeno(self, lambda_pipe):
        dec = lambda_pipe.decomposition
        c = lambda_pipe.weak.matrix
        for ell in range(len(dec.blocks)):
            p = dec.blocks[ell].projection
            k = schrieffer_wolff_series(dec, c, ell, 0, method="closed")
            assert_allclose(k.coeffs[0], p @ c @ p, atol=1e-13)

    def test_unitary_sw_coefficients_skew_hermitian(self):
        model = unitary_part(lambda_model(10.0))
        strong = build_superop(model, "strong")
        weak = build_superop(model, "weak")
        dec = spectral.decompose(strong.matrix)
        for ell in range(len(dec.blocks)):
            ser = schrieffer_wolff_series(dec, weak.matrix, ell, 3, method="closed")
            for coeff in ser.coeffs:
                assert np.abs(coeff + coeff.conj().T).max() < 1e-11

    def test_lambda_first_order_gkls_data(self, lambda_pipe):
        # adiabatic-elimination order: rates +-|g1 g2|/4 with the
        # (|1> -+ i |2>)<4| jump pair
        dec = lambda_pipe.decomposition
        c = lambda_pipe.weak.matrix
        k1 = sum(
            schrieffer_wolff_series(dec, c, ell, 1, method="closed").coeffs[1]
            for ell in range(len(dec.blocks))
        )
        form = gkls_decompose(Superoperator(5, k1), tol=1e-9)
        rates = np.array(form.rates)
        big = rates[np.abs(rates) > 1e-10]
        assert_allclose(np.sort(big), [-0.25, 0.25], atol=1e-12)
        jump = form.jumps[int(np.argmax(rates))]
        expected = np.zeros((5, 5), dtype=complex)
        expected[1, 4] = 1 / math.sqrt(2)
        expected[2, 4] = -1j / math.sqrt(2)
        assert abs(abs(np.vdot(expected, jump)) - 1.0) < 1e-12

    def test_series_converges_to_nonperturbative(self, lambda_pipe_certified):
        pipe = lambda_pipe_certified
        gamma = pipe.model.gamma
        dec = pipe.decomposition
        ell = 1
        target = pipe.solutions[ell].omega
        series = omega_series(dec, pipe.weak.matrix, ell, 8)
        errors = [
            matcore.op_norm(series.truncated_sum(gamma, j) - target, "spectral")
            for j in range(9)
        ]
        rate = pipe.solutions[ell].report.gamma_min / gamma
        for e0, e1 in zip(errors, errors[1:]):
            if e0 < 1e-13:
                break
            assert e1 <= rate * e0 * 1.5

    def test_d_norm_bound(self, lambda_pipe_certified):
        pipe = lambda_pipe_certified
        c_norm = matcore.op_norm(pipe.weak.matrix, "spectral")
        for sol in pipe.solutions:
            blk = pipe.decomposition.blocks[sol.ell]
            p_norm = matcore.op_norm(blk.projection, "spectral")
            d_norm = matcore.op_norm(blk.projection @ sol.omega, "spectral")
            bound = 2 * c_norm * p_norm**2 / (
                1 + math.sqrt(1 - sol.report.gamma_min / pipe.model.gamma)
            )
            assert d_norm <= bound + 1e-12


_BAD_SERIES_CALLS = {
    "omega-ell-too-large": lambda dec, c: omega_series(dec, c, len(dec.blocks), 1),
    "omega-ell-negative": lambda dec, c: omega_series(dec, c, -1, 1),
    "omega-order-negative": lambda dec, c: omega_series(dec, c, 0, -1),
    # True had been taken as block 1, tagged ell=True
    "omega-ell-bool": lambda dec, c: omega_series(dec, c, True, 1),
    "omega-order-bool": lambda dec, c: omega_series(dec, c, 0, True),
    "generator-ell-too-large": lambda dec, c: generator_series(dec, c, len(dec.blocks), 1),
    "generator-order-negative": lambda dec, c: generator_series(dec, c, 0, -1),
    "generator-closed-order-too-large": lambda dec, c: generator_series(
        dec, c, 0, 4, method="closed"
    ),
    "generator-closed-order-negative": lambda dec, c: generator_series(
        dec, c, 0, -2, method="closed"
    ),
    "sw-ell-too-large": lambda dec, c: schrieffer_wolff_series(dec, c, len(dec.blocks), 1),
    "sw-closed-order-negative": lambda dec, c: schrieffer_wolff_series(dec, c, 0, -1),
    "sw-series-order-negative": lambda dec, c: schrieffer_wolff_series(
        dec, c, 0, -1, method="series"
    ),
    "sw-order-not-integer": lambda dec, c: schrieffer_wolff_series(
        dec, c, 0, 1.5, method="series"
    ),
}


@pytest.mark.parametrize("call", list(_BAD_SERIES_CALLS.values()), ids=list(_BAD_SERIES_CALLS))
def test_bad_series_arguments_rejected(qubit_dec, qubit_weak, call):
    # rejected up front, not as a raw IndexError or a short or empty result
    with pytest.raises(ValueError, match="ell|order"):
        call(qubit_dec, qubit_weak)


@pytest.mark.parametrize(
    "gamma, order, match",
    [
        (0.0, None, "gamma"),
        (math.nan, None, "gamma"),
        (-1.0, 1, "gamma"),
        (True, 1, "gamma"),
        (10.0, -1, "order"),
        (10.0, 1.5, "order"),
        (10.0, True, "order"),
    ],
    ids=["gamma-zero", "gamma-nan", "gamma-negative", "gamma-bool",
         "order-negative", "order-not-integer", "order-bool"],
)
def test_truncated_sum_checks_its_numbers(gamma, order, match):
    # gamma 0 or NaN had summed to NaN after numpy warnings, -1 and True were
    # taken; order -1 had summed nothing, 1.5 raised a raw TypeError and True
    # ran as 1
    series = bloch.SeriesCoefficients(0, "D_series", (np.eye(2), np.eye(2)))
    with pytest.raises(ValueError, match=match):
        series.truncated_sum(gamma, order)
    assert_allclose(series.truncated_sum(4.0), 1.25 * np.eye(2))


@pytest.mark.parametrize("series", [generator_series, schrieffer_wolff_series])
def test_unknown_series_method_rejected(qubit_dec, qubit_weak, series):
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        series(qubit_dec, qubit_weak, 0, 1, method="bogus")


class TestCorrectionSeries:
    @pytest.mark.parametrize(
        "ell, gamma, d_size, match",
        [
            (-1, 10.0, 4, "got -1"),
            (99, 10.0, 4, "got 99"),
            (1.5, 10.0, 4, "got 1.5"),
            (True, 10.0, 4, "got True"),
            (0, math.nan, 4, "gamma"),
            (0, 10.0, 3, r"d_block must be 4x4"),
        ],
        ids=["ell-negative", "ell-past-end", "ell-not-integer", "ell-bool", "gamma-nan", "d-3x3"],
    )
    def test_arguments_validated_up_front(self, qubit_dec, ell, gamma, d_size, match):
        # the parent took ell = -1 as the last block and let the others fail
        # as a raw IndexError, TypeError or a NonFiniteError inside the loop
        zero = np.zeros((4, 4))
        with pytest.raises(ValueError, match=match):
            sum_correction_series(qubit_dec, zero, np.zeros((d_size, d_size)), gamma, ell)

    @pytest.mark.parametrize("n_max", [0, -1, 2.5, None, True])
    def test_n_max_must_be_a_positive_integer(self, lambda_pipe, n_max):
        # 0 had reported a series that did not converge in 0 terms
        zero = np.zeros((25, 25))
        with pytest.raises(ValueError, match=f"n_max must be a positive integer, got {n_max!r}"):
            sum_correction_series(lambda_pipe.decomposition, zero, zero, 10.0, 0, n_max=n_max)

    @pytest.mark.parametrize("tol, shown", [(None, "None"), ("1e-12", "'1e-12'"), (False, "False")])
    def test_tol_must_be_a_number(self, lambda_pipe, tol, shown):
        zero = np.zeros((25, 25))
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {shown}"):
            sum_correction_series(lambda_pipe.decomposition, zero, zero, 10.0, 0, tol=tol)

    def test_zero_case(self, lambda_pipe):
        dec = lambda_pipe.decomposition
        zero = np.zeros((25, 25))
        result = sum_correction_series(dec, zero, zero, 10.0, 0)
        assert np.abs(result.matrix).max() == 0.0

    def test_leakage_free_with_bloch_solution(self, lambda_pipe):
        dec = lambda_pipe.decomposition
        c = lambda_pipe.weak.matrix
        for sol in lambda_pipe.solutions[:4]:
            blk = dec.blocks[sol.ell]
            d_block = blk.projection @ sol.omega
            result = sum_correction_series(dec, c, d_block, 10.0, sol.ell)
            assert result.leakage_free_defect < 1e-9
            # off-block component reproduces the omega solution
            comp = np.eye(25) - blk.projection
            off = comp @ result.matrix @ blk.projection - comp @ sol.omega @ blk.projection
            assert matcore.op_norm(off, "spectral") < 1e-9

    def test_agrees_with_newton_solution_via_projection(self, rng):
        # independent summation oracle for the omega solver on a random model
        from adiabloch.models import random_model

        m = random_model(3, rng)
        strong = build_superop(m, "strong")
        weak = build_superop(m, "weak")
        dec = spectral.decompose(strong.matrix)
        gamma = 4.0 * max(
            bloch.block_gamma_min(blk, weak.matrix) for blk in dec.blocks
        )
        sols = solve_blocks(dec, weak.matrix, gamma)
        for sol in sols:
            assert sol.residuals["omega_eq"] < 1e-12
            blk = dec.blocks[sol.ell]
            d_block = blk.projection @ sol.omega
            result = sum_correction_series(dec, weak.matrix, d_block, gamma, sol.ell)
            assert result.leakage_free_defect < 1e-8

    def test_precondition_error(self, lambda_pipe):
        dec = lambda_pipe.decomposition
        c = lambda_pipe.weak.matrix
        blk = dec.blocks[0]
        d_block = blk.projection @ c @ blk.projection
        with pytest.raises(PreconditionError):
            sum_correction_series(dec, c, d_block, 0.5, 0)

    def test_no_convergence_within_n_max(self, lambda_pipe):
        # the series of block 0 needs more than two terms to reach 1e-14
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        d_block = dec.blocks[0].projection @ lambda_pipe.solutions[0].omega
        with pytest.raises(ConvergenceError, match="did not converge in 2 terms on block 0") as err:
            sum_correction_series(dec, c, d_block, 10.0, 0, n_max=2)
        assert err.value.iterations == 2 and err.value.residual >= 1e-14
