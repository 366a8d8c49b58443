import numpy as np
import pytest
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
    """op_norm, expm and numerical_rank on (..., n, n) stacks act slice by slice."""

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
        out = matcore.expm(stack)
        assert out.shape == stack.shape and out.dtype == np.complex128
        for idx in np.ndindex(2, 3):
            assert np.array_equal(out[idx], matcore.expm(stack[idx]))

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

    def test_semigroup_property(self, rng):
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        s, t = rng.uniform(0, 1, size=2)
        lhs = matcore.expm((s + t) * a)
        rhs = matcore.expm(s * a) @ matcore.expm(t * a)
        assert matcore.op_norm(lhs - rhs, "spectral") < 1e-10


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
