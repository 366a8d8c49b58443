import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from adiabloch import matcore
from adiabloch.errors import (
    BranchCutError,
    NonFiniteError,
    SingularMatrixError,
    SpectralOverlapError,
)
from conftest import random_unitary


class TestOpNorm:
    def test_zero_matrix(self):
        assert matcore.op_norm(np.zeros((4, 4)), "spectral") == 0.0

    def test_identity_trace_norm(self):
        for d in (1, 3, 6):
            assert_allclose(matcore.op_norm(np.eye(d), "trace"), d)

    def test_spectral_squared_is_largest_eigenvalue_of_gram(self, rng):
        # independent oracle: eigenvalues of A^dag A from eigvalsh
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        expected = np.sqrt(np.linalg.eigvalsh(a.conj().T @ a).max())
        assert_allclose(matcore.op_norm(a, "spectral"), expected, rtol=1e-13)

    def test_unitary_invariance(self, rng):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        u = random_unitary(6, rng)
        v = random_unitary(6, rng)
        for kind in ("spectral", "trace", "frobenius"):
            assert_allclose(
                matcore.op_norm(u @ a @ v, kind),
                matcore.op_norm(a, kind),
                rtol=1e-12,
            )

    def test_rejects_nan(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = np.nan
        with pytest.raises(NonFiniteError):
            matcore.op_norm(a)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 3)])
    def test_unknown_kind_rejected_for_every_shape(self, shape):
        with pytest.raises(ValueError, match="unknown norm kind"):
            matcore.op_norm(np.zeros(shape), "bogus")


class TestStacks:
    """op_norm and numerical_rank on (..., n, n) stacks act slice by slice, and
    every slice of expm over a time grid equals expm at that time alone."""

    @pytest.fixture
    def stack(self, rng):
        a = rng.normal(size=(2, 3, 5, 5)) + 1j * rng.normal(size=(2, 3, 5, 5))
        return a * np.logspace(-2, 2, 6).reshape(2, 3, 1, 1)

    @pytest.mark.parametrize("kind", ["spectral", "trace", "frobenius"])
    def test_op_norm_matches_per_slice_loop(self, stack, kind):
        norms = matcore.op_norm(stack, kind)
        assert norms.shape == (2, 3)
        loop = [[matcore.op_norm(stack[i, j], kind) for j in range(3)] for i in range(2)]
        assert all(isinstance(v, float) for row in loop for v in row)
        assert_allclose(norms, loop, rtol=1e-13, atol=0)

    def test_expm_matches_per_slice_loop(self, stack):
        # a grid with repeated points, over the range of the stack's scales
        a = stack[1, 2] - (np.linalg.eigvals(stack[1, 2]).real.max() + 1.0) * np.eye(5)
        times = np.array([0.0, 0.01, 3.0, 0.01, 100.0, 3.0, 1.0])
        out = matcore.expm(a, times)
        assert out.shape == (7, 5, 5) and out.dtype == np.complex128
        for t, slice_ in zip(times, out):
            assert np.array_equal(slice_, matcore.expm(a, [t])[0])
        assert np.array_equal(out[-1], matcore.expm(a))

    def test_expm_unsorted_squarings_match_per_slice_loop(self, rng):
        # a reversed time grid: the number of squarings falls along the stack
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a -= (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(4)
        times = np.logspace(-2, 4, 6)[::-1]
        out = matcore.expm(a, times)
        for t, slice_ in zip(times, out):
            assert np.array_equal(slice_, matcore.expm(a, [t])[0])

    @pytest.mark.parametrize("tol", [None, 1e-1])
    def test_numerical_rank_matches_per_slice_loop(self, stack, tol):
        # rank-deficient slices: zero the last k columns of slice k
        for k, idx in enumerate(np.ndindex(2, 3)):
            stack[idx][:, 5 - k :] = 0.0
        ranks = matcore.numerical_rank(stack, tol)
        assert ranks.shape == (2, 3)
        loop = [[matcore.numerical_rank(stack[i, j], tol) for j in range(3)] for i in range(2)]
        assert all(isinstance(v, int) for row in loop for v in row)
        assert ranks.tolist() == loop
        if tol is None:
            assert loop == [[5, 4, 3], [2, 1, 0]]

    def test_nan_in_one_slice_rejected(self, stack):
        stack[1, 2, 0, 4] = np.nan
        with pytest.raises(NonFiniteError):
            matcore.expm(stack)
        with pytest.raises(NonFiniteError):
            matcore.op_norm(stack)

    def test_non_square_stack_rejected(self):
        with pytest.raises(ValueError):
            matcore.expm(np.ones((4, 2, 3)))

    def test_one_dimensional_input_rejected(self):
        for fn in (matcore.expm, matcore.op_norm):
            with pytest.raises(ValueError):
                fn(np.ones(3))


class TestExpm:
    def test_zero(self):
        assert_allclose(matcore.expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        d = np.diag([0.3, -1.2 + 0.5j, 2.0j])
        assert_allclose(matcore.expm(d), np.diag(np.exp(np.diag(d))), rtol=1e-14)

    def test_nilpotent_truncates(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert_allclose(matcore.expm(n), np.array([[1, 1], [0, 1]]), atol=1e-15)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matcore.expm(np.ones((2, 3)))

    def test_inverse_identity(self, rng):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a *= 10.0 / matcore.op_norm(a, "spectral")
        prod = matcore.expm(a) @ matcore.expm(-a)
        assert matcore.op_norm(prod - np.eye(6), "spectral") < 1e-10

    @pytest.mark.parametrize("n", [2, 4, 9, 25])
    def test_matches_scipy(self, n, rng):
        # ||dE||_2 <= 8 eps max(1, ||A||_1) max(1, ||e^A||_2) for ||A||_1 from
        # 1e-3 to 1e6; large norms are shifted to Re spec(A) <= -1
        eps = np.finfo(float).eps
        base = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for norm in np.logspace(-3, 6, 10):
            a = base * (norm / np.linalg.norm(base, 1))
            if norm > 1.0:
                a -= (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(n)
            ref = sla.expm(a)
            scale = max(1.0, np.linalg.norm(a, 1)) * max(1.0, np.linalg.norm(ref, 2))
            assert np.linalg.norm(matcore.expm(a) - ref, 2) <= 8 * eps * scale

    def test_semigroup_property(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        s, t = rng.uniform(0, 1, size=2)
        lhs = matcore.expm((s + t) * a)
        rhs = matcore.expm(s * a) @ matcore.expm(t * a)
        assert matcore.op_norm(lhs - rhs, "spectral") < 1e-10



class TestExpmGrid:
    """expm(a, times): A's powers once, the time in the scalar coefficients."""

    def test_zero_time_and_zero_matrix_give_the_identity(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        a -= (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(5)
        times = np.array([0.0, 0.5, 1e6, 0.0])
        out = matcore.expm(a * 1e3, times)
        assert np.array_equal(out[0], np.eye(5)) and np.array_equal(out[3], np.eye(5))
        assert np.array_equal(matcore.expm(np.zeros((3, 3)), times), np.broadcast_to(np.eye(3), (4, 3, 3)))

    def test_nilpotent_at_large_times(self):
        # x^j of an exactly zero power overflows; it must never meet inf * 0
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        times = np.array([1.0, 1e6, 1e30])
        out = matcore.expm(n, times)
        for t, slice_ in zip(times, out):
            assert np.array_equal(slice_, np.array([[1.0, t], [0.0, 1.0]]))

    def test_negative_time_inverts(self, rng):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a *= 10.0 / matcore.op_norm(a, "spectral")
        for t in (0.37, 1.0):
            prod = matcore.expm(a, [t])[0] @ matcore.expm(a, [-t])[0]
            assert matcore.op_norm(prod - np.eye(6), "spectral") < 1e-10

    def test_bad_times_rejected(self):
        a = np.eye(2)
        with pytest.raises(ValueError):
            matcore.expm(a, np.ones((2, 2)))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteError):
                matcore.expm(a, [0.0, bad])

    def test_overflow_raises_without_warnings(self, rng):
        # e^A overflows: the typed error only, no raw numpy RuntimeWarning
        a = rng.normal(size=(9, 9))
        a *= 1e6 / np.linalg.norm(a, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                matcore.expm(a)
            with pytest.raises(NonFiniteError):
                matcore.expm(a, [0.0, 1.0, 1e-3])

    @pytest.mark.parametrize("n", [2, 4, 9, 25])
    def test_grid_matches_scipy(self, n, rng):
        # ||dE||_2 <= 8 eps max(1, |t| ||A||_1) max(1, ||e^{tA}||_2) for
        # ||A||_1 in {1e-2, 1, 1e2}, shifted to Re spec(A) <= -1
        eps = np.finfo(float).eps
        base = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        times = np.logspace(-3, 6, 19)
        for norm in (1e-2, 1.0, 1e2):
            a = base * (norm / np.linalg.norm(base, 1))
            a -= (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(n)
            for t, slice_ in zip(times, matcore.expm(a, times)):
                ref = sla.expm(t * a)
                scale = max(1.0, t * np.linalg.norm(a, 1)) * max(1.0, np.linalg.norm(ref, 2))
                assert np.linalg.norm(slice_ - ref, 2) <= 8 * eps * scale


class TestPrincipalSqrt:
    def test_identity(self):
        assert_allclose(matcore.principal_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        assert_allclose(
            matcore.principal_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), rtol=1e-14
        )

    def test_square_of_output(self, rng):
        # near-identity argument, the regime this routine is used in
        a = np.eye(8) + 0.01 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        x = matcore.principal_sqrt(a)
        assert matcore.op_norm(x @ x - a, "spectral") < 1e-12 * matcore.op_norm(a, "spectral")

    def test_spectrum_in_right_half_plane(self, rng):
        a = np.eye(5) + 0.3 * rng.normal(size=(5, 5))
        x = matcore.principal_sqrt(a)
        assert np.linalg.eigvals(x).real.min() > 0

    def test_commutes_with_argument(self, rng):
        a = np.eye(6) + 0.05 * (rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        x = matcore.principal_sqrt(a)
        assert matcore.op_norm(x @ a - a @ x, "spectral") < 1e-11

    def test_negative_axis_rejected(self):
        with pytest.raises(BranchCutError):
            matcore.principal_sqrt(np.diag([1.0, -2.0]))
        with pytest.raises(BranchCutError):
            matcore.principal_sqrt(np.diag([1.0, 0.0]))


class TestSolveLinear:
    def test_identity(self, rng):
        y = rng.normal(size=(4, 2))
        assert_allclose(matcore.solve_linear(np.eye(4), y), y)

    def test_scalar(self):
        assert_allclose(matcore.solve_linear(np.array([[2.0]]), np.array([[4.0]])),
                        np.array([[2.0]]))

    def test_constructed_rhs(self, rng):
        a = np.eye(7) + 0.5 * (rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
        x0 = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
        x = matcore.solve_linear(a, a @ x0)
        assert np.abs(x - x0).max() < 1e-12

    def test_singular_reports_condition(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as err:
            matcore.solve_linear(a, np.eye(2))
        assert err.value.cond is None or err.value.cond > 1e12

    def test_bit_identical_to_scipy_lu(self, rng):
        a = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
        lu_piv = sla.lu_factor(a)
        for y in (rng.normal(size=25) + 1j * rng.normal(size=25),
                  rng.normal(size=(25, 3)) + 1j * rng.normal(size=(25, 3))):
            x = matcore.solve_linear(a, y)
            assert x.shape == y.shape
            assert np.array_equal(x, sla.lu_solve(lu_piv, y))

    @pytest.mark.parametrize("rhs_shape", [(0,), (0, 2)])
    def test_empty_system_has_empty_solution(self, capfd, rhs_shape):
        # LAPACK is not called: getrf on a 0 x 0 matrix prints an
        # "illegal value" message to the terminal
        x = matcore.solve_linear(np.zeros((0, 0)), np.zeros(rhs_shape))
        assert x.shape == rhs_shape and x.dtype == np.complex128
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("a", [np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])],
                             ids=["zeros", "rank-deficient"])
    def test_exactly_singular_is_typed_without_warnings(self, a):
        # getrf reports a zero pivot: rcond 0, cond inf, and no LinAlgWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError) as err:
                matcore.solve_linear(a, np.ones(len(a)))
        assert err.value.cond == np.inf

    @pytest.mark.parametrize(
        "bad",
        [complex(np.inf, 1.0), complex(np.nan, 1.0), complex(1.0, np.inf), complex(1.0, np.nan)],
        ids=["inf-real", "nan-real", "inf-imag", "nan-imag"],
    )
    @pytest.mark.parametrize("where", ["matrix", "rhs"])
    def test_non_finite_part_rejected(self, bad, where, rng):
        # only one of the real and imaginary parts of one entry is non-finite
        a = np.eye(4, dtype=complex) + 0.1 * rng.normal(size=(4, 4))
        y = np.ones((4, 2), dtype=complex)
        (a if where == "matrix" else y)[1, 1] = bad
        with pytest.raises(NonFiniteError):
            matcore.solve_linear(a, y)


class TestSolveSylvester:
    def test_scalar_case(self):
        x = matcore.solve_sylvester(np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]]))
        assert_allclose(x, np.array([[1.0]]))

    def test_zero_rhs(self, rng):
        a = np.diag([1.0, 2.0])
        b = np.diag([-1.0, -2.0])
        assert_allclose(matcore.solve_sylvester(a, b, np.zeros((2, 2))), np.zeros((2, 2)))

    def test_residual(self, rng):
        a = np.diag([1.0, 2.0, 3.0]) + 0.1 * rng.normal(size=(3, 3))
        b = np.diag([-1.0, -2.0]) + 0.1 * rng.normal(size=(2, 2))
        y = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        x = matcore.solve_sylvester(a, b, y)
        res = matcore.op_norm(a @ x - x @ b - y, "spectral")
        assert res < 1e-12 * matcore.op_norm(y, "spectral")

    def test_overlap_rejected(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([2.0, 5.0])
        with pytest.raises(SpectralOverlapError) as err:
            matcore.solve_sylvester(a, b, np.ones((2, 2)))
        assert err.value.separation < 1e-10


def test_numerical_rank():
    a = np.diag([1.0, 1e-3, 1e-12])
    assert matcore.numerical_rank(a) == 2
    assert matcore.numerical_rank(np.zeros((3, 3))) == 0


class TestSupportedNorm:
    """The factored norm bounds the spectral norm and meets it on X = X P."""

    @pytest.fixture
    def oblique(self, rng):
        # rank-2 oblique projection V E V^-1 and orthonormal bases of its
        # range (Q) and of the range of its adjoint (Z)
        v = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        p = v[:, :2] @ np.linalg.inv(v)[:2, :]
        u, _s, vh = np.linalg.svd(p)
        return p, u[:, :2], vh[:2].conj().T

    def test_upper_bound_on_any_matrix(self, oblique, rng):
        _p, _q, z = oblique
        for _ in range(20):
            x = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            assert matcore.supported_norm(x, z) >= matcore.op_norm(x, "spectral")

    def test_equal_on_matrices_vanishing_off_the_range(self, oblique, rng):
        p, q, z = oblique
        for _ in range(20):
            y = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            right, left = y @ p, p @ y
            for got, x in (
                (matcore.supported_norm(right, z), right),
                (matcore.supported_norm(left.T, q.conj()), left),
            ):
                want = matcore.op_norm(x, "spectral")
                assert abs(got - want) <= 1e-14 * want

    def test_stack_matches_per_slice_loop(self, oblique, rng):
        # bases of ranks 2 and 1 stacked with a zero column for the second
        _p, q, z = oblique
        x = rng.normal(size=(2, 6, 6)) + 1j * rng.normal(size=(2, 6, 6))
        bases = np.stack([z, np.hstack([q[:, :1], np.zeros((6, 1))])])
        got = matcore.supported_norm(x, bases)
        assert got.shape == (2,)
        assert_allclose(got[0], matcore.supported_norm(x[0], z), rtol=1e-15)
        assert_allclose(got[1], matcore.supported_norm(x[1], q[:, :1]), rtol=1e-15)

    def test_rejects_nan(self, oblique):
        x = np.eye(6, dtype=complex)
        x[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            matcore.supported_norm(x, oblique[2])
