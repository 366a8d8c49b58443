import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from adiabloch import bloch, liouville, matcore, spectral
from adiabloch.bloch import (
    bracket,
    generator_series,
    kantorovich_report,
    omega_from_wave,
    omega_series,
    schrieffer_wolff_series,
    solve_block,
    solve_blocks,
    solve_equation,
    sum_correction_series,
    wave_from_omega,
    wave_residual,
)
from adiabloch.errors import PreconditionError, SingularMatrixError
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
        assert np.array_equal(bracket(blk, a, "right"), a)
        assert np.array_equal(bracket(blk, a, "left"), a)

    def test_zero(self, qubit_dec):
        blk = max(qubit_dec.blocks, key=lambda b: b.index)
        assert np.abs(bracket(blk, np.zeros((4, 4)))).max() == 0.0

    def test_two_term_sum_with_nilpotent(self, qubit_dec, rng):
        blk = max(qubit_dec.blocks, key=lambda b: b.index)
        assert blk.index == 2
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        expected_r = a + blk.resolvent @ a @ blk.nilpotent
        expected_l = a + blk.nilpotent @ a @ blk.resolvent
        assert_allclose(bracket(blk, a, "right"), expected_r, atol=1e-14)
        assert_allclose(bracket(blk, a, "left"), expected_l, atol=1e-14)


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

    def test_direct_wave_solver_agrees(self, lambda_pipe):
        dec = lambda_pipe.decomposition
        c = lambda_pipe.weak.matrix
        for ell in (0, 1, 7):
            u_direct, _ = solve_equation(dec, c, 10.0, ell, "wave")
            assert (
                matcore.op_norm(u_direct - lambda_pipe.solutions[ell].wave, "spectral")
                < 1e-10
            )
            ut_direct, _ = solve_equation(dec, c, 10.0, ell, "wave_conj")
            assert (
                matcore.op_norm(
                    ut_direct - lambda_pipe.solutions[ell].wave_conj, "spectral"
                )
                < 1e-10
            )

    @pytest.mark.parametrize(
        "which, method, gamma, tol, allowed",
        [
            pytest.param("omega_bar", "newton", 10.0, 1e-12, "omega_conj",
                         id="omega_bar-newton-omega_conj"),
            pytest.param("omega", "secant", 10.0, 1e-12, "fixed_point",
                         id="omega-secant-fixed_point"),
            pytest.param("wave_conj", "secant", 10.0, 1e-12, "fixed_point",
                         id="wave_conj-secant-fixed_point"),
            pytest.param("omega", "newton", 0.0, 1e-12, "gamma", id="gamma-zero"),
            pytest.param("omega", "newton", -5.0, 1e-12, "gamma", id="gamma-negative"),
            pytest.param("wave", "newton", math.nan, 1e-12, "gamma", id="gamma-nan"),
            pytest.param("omega", "newton", math.inf, 1e-12, "gamma", id="gamma-inf"),
            pytest.param("omega", "newton", 10.0, math.nan, "tol", id="tol-nan"),
            pytest.param("omega_conj", "newton", 10.0, 0.0, "tol", id="tol-zero"),
            pytest.param("wave", "fixed_point", 10.0, -1.0, "tol", id="tol-negative"),
        ],
    )
    def test_arguments_validated_before_iterating(
        self, lambda_pipe, which, method, gamma, tol, allowed
    ):
        # with C = 0 the initial guess already meets tol, so nothing but the
        # up-front check can reject the arguments
        zero = np.zeros((25, 25))
        with pytest.raises(ValueError, match=allowed):
            solve_equation(lambda_pipe.decomposition, zero, gamma, 0, which, method, tol)

    @pytest.mark.parametrize("gamma", [0.0, -5.0, math.nan])
    def test_bad_coupling_rejected_before_the_certificate(self, lambda_pipe, gamma):
        # solve_blocks builds each block's Kantorovich report first
        with pytest.raises(ValueError, match="gamma"):
            solve_blocks(lambda_pipe.decomposition, lambda_pipe.weak.matrix, gamma)

    @pytest.mark.parametrize(
        "call",
        [
            lambda dec, c, ell: solve_equation(dec, c, 10.0, ell, "omega"),
            lambda dec, c, ell: solve_block(dec, c, 10.0, ell),
            lambda dec, c, ell: kantorovich_report(dec, c, 10.0, ell),
        ],
        ids=["solve_equation", "solve_block", "kantorovich_report"],
    )
    @pytest.mark.parametrize(
        "ell, size, match",
        [(-1, 2, "got -1"), (2, 2, "got 2"), (0, 3, r"got \(3, 3\)")],
        ids=["ell-negative", "ell-past-end", "c-3x3"],
    )
    def test_block_index_and_weak_shape_validated(self, call, ell, size, match):
        # a negative ell must not wrap around to the last block, and a past-end
        # ell or a mis-sized C must fail up front with a message naming it
        dec = spectral.decompose(np.diag([0.0, -2.0j]))
        with pytest.raises(ValueError, match=match):
            call(dec, np.ones((size, size)), ell)

    def test_no_square_svd_per_equation(self, lambda_pipe, monkeypatch):
        # Q and W come from the block, residual and ball norms from n x r
        # factors: with the report given, no n x n matrix is factorized
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        report = kantorovich_report(dec, c, 10.0, 0)
        shapes = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        for which in ("omega", "omega_conj", "wave", "wave_conj"):
            solve_equation(dec, c, 10.0, 0, which, report=report)
        assert shapes
        assert (dec.dim, dec.dim) not in shapes

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

    def test_fixed_point_agrees_with_newton(self, lambda_pipe_certified):
        dec = lambda_pipe_certified.decomposition
        c = lambda_pipe_certified.weak.matrix
        gamma = lambda_pipe_certified.model.gamma
        fixed = solve_blocks(dec, c, gamma, method="fixed_point")
        for a, b in zip(lambda_pipe_certified.solutions, fixed):
            assert matcore.op_norm(a.omega - b.omega, "spectral") < 1e-9

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
    x = bloch.initial_guess(blk, c, which)
    n = len(x)
    for it in range(max_iter):
        r = residual_fn(blk, c, gamma, x)
        if matcore.op_norm(r, "spectral") <= tol:
            return x, it
        step = np.linalg.solve(jacobian_fn(blk, c, gamma, x), -r.reshape(-1, order="F"))
        x = x + step.reshape((n, n), order="F")
    raise AssertionError(f"dense {which} Newton did not converge")


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
            steps.append((blk.projection, delta))
            return delta

        monkeypatch.setattr(bloch, "_range_step", recording_step)
        for ell, blk in enumerate(dec.blocks):
            for which in ("omega", "omega_conj", "wave"):
                x, info = solve_equation(dec, c, gamma, ell, which)
                if which == "omega_conj":
                    x_dense, it_dense = _dense_newton(blk.transposed(), c.T, gamma, "omega")
                    x_dense = x_dense.T
                else:
                    x_dense, it_dense = _dense_newton(blk, c, gamma, which)
                assert info["iterations"] == it_dense, (case, ell, which)
                scale = max(1.0, matcore.op_norm(x_dense, "spectral"))
                dev = matcore.op_norm(x - x_dense, "spectral")
                assert dev <= 1e-12 * scale, (case, ell, which, dev)
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
            bloch._range_step(blk, -t[1, 1] * s, eye @ m @ eye.T, np.ones((3, 3)))
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
        _, info = solve_equation(dec, c, gamma, 0, "wave", tol=1e-14, max_iter=50)
        hist = [r for r in info["history"] if r > 1e-13]
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
    "bracket-orientation-index-1": lambda dec, c: bracket(
        next(b for b in dec.blocks if b.index == 1), c, "sideways"
    ),
    "omega-ell-too-large": lambda dec, c: omega_series(dec, c, len(dec.blocks), 1),
    "omega-ell-negative": lambda dec, c: omega_series(dec, c, -1, 1),
    "omega-order-negative": lambda dec, c: omega_series(dec, c, 0, -1),
    "generator-ell-too-large": lambda dec, c: generator_series(dec, c, len(dec.blocks), 1),
    "generator-order-negative": lambda dec, c: generator_series(dec, c, 0, -1),
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
    with pytest.raises(ValueError, match="ell|order|orientation"):
        call(qubit_dec, qubit_weak)


class TestCorrectionSeries:
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
