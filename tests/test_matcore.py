import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from adiabloch import bench, matcore
from adiabloch.errors import BranchCutError, NonFiniteError, SingularMatrixError
from adiabloch.models import counterexample_model
from conftest import random_unitary


class TestOpNorm:
    def test_zero_matrix(self):
        assert matcore.op_norm(np.zeros((4, 4)), "spectral") == 0.0

    def test_spectral_squared_is_largest_eigenvalue_of_gram(self, rng):
        # independent oracle: eigenvalues of A^dag A from eigvalsh
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        expected = np.sqrt(np.linalg.eigvalsh(a.conj().T @ a).max())
        assert_allclose(matcore.op_norm(a, "spectral"), expected, rtol=1e-13)

    def test_unitary_invariance(self, rng):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        u = random_unitary(6, rng)
        v = random_unitary(6, rng)
        assert_allclose(
            matcore.op_norm(u @ a @ v, "spectral"), matcore.op_norm(a, "spectral"), rtol=1e-12
        )

    def test_rejects_nan(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = np.nan
        for a in (a, a.real):
            with pytest.raises(NonFiniteError):
                matcore.op_norm(a)
            with pytest.raises(NonFiniteError):
                matcore.expm(a)

    @pytest.mark.parametrize("kind", ["spectral"])
    def test_real_stack_is_not_cast_to_complex(self, rng, monkeypatch, kind):
        stack = rng.normal(size=(3, 6, 6))
        expected = matcore.op_norm(stack.astype(np.complex128), kind)
        seen = []

        def recording(fn):
            def wrapper(a, *args, **kwargs):
                seen.append(np.asarray(a).dtype)
                return fn(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
        norms = matcore.op_norm(stack, kind)
        assert seen == [np.float64]
        assert_allclose(norms, expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("shape", [(0, 0), (3, 3)])
    def test_unknown_kind_rejected_for_every_shape(self, shape):
        # the spectral norm is the only kind; trace and Frobenius are gone
        for kind in ("bogus", "trace", "frobenius"):
            with pytest.raises(ValueError, match=f"unknown norm kind '{kind}'"):
                matcore.op_norm(np.zeros(shape), kind)


class TestStacks:
    """op_norm on (..., n, n) stacks acts slice by slice, and
    every slice of expm over a time grid equals expm at that time alone."""

    @pytest.fixture
    def stack(self, rng):
        a = rng.normal(size=(2, 3, 5, 5)) + 1j * rng.normal(size=(2, 3, 5, 5))
        return a * np.logspace(-2, 2, 6).reshape(2, 3, 1, 1)

    @pytest.mark.parametrize("kind", ["spectral"])
    def test_op_norm_matches_per_slice_loop(self, stack, kind):
        norms = matcore.op_norm(stack, kind)
        assert norms.shape == (2, 3)
        loop = [[matcore.op_norm(stack[i, j], kind) for j in range(3)] for i in range(2)]
        assert all(isinstance(v, float) for row in loop for v in row)
        assert_allclose(norms, loop, rtol=1e-13, atol=0)

    def test_expm_matches_per_slice_loop(self, stack):
        # a grid with repeated points, over the range of the stack's scales;
        # a real matrix stays real, with the same arithmetic
        for a in (stack[1, 2], stack[1, 2].real):
            a = a - (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(5)
            times = np.array([0.0, 0.01, 3.0, 0.01, 100.0, 3.0, 1.0])
            out = matcore.expm(a, times)
            assert out.shape == (7, 5, 5) and out.dtype == a.dtype
            for t, slice_ in zip(times, out):
                assert np.array_equal(slice_, matcore.expm(a, [t])[0])
            assert np.array_equal(out[-1], matcore.expm(a))

    @pytest.mark.parametrize(
        "n, times, shape", [(0, None, (0, 0)), (0, [0.0, 1.0], (2, 0, 0)), (3, [], (0, 3, 3))]
    )
    def test_expm_of_nothing_is_empty(self, n, times, shape):
        # a 0 x 0 matrix or an empty grid: the shape of the answer, no kernel
        out = matcore.expm(np.zeros((n, n)), times)
        assert out.shape == shape and out.dtype == np.float64

    def test_expm_unsorted_squarings_match_per_slice_loop(self, rng):
        # a reversed time grid: the number of squarings falls along the stack
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for a in (a, a.real):
            a = a - (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(4)
            times = np.logspace(-2, 4, 6)[::-1]
            out = matcore.expm(a, times)
            for t, slice_ in zip(times, out):
                assert np.array_equal(slice_, matcore.expm(a, [t])[0])

    @pytest.mark.parametrize("arrange", ["reversed", "negated", "repeated"])
    def test_expm_chains_on_an_aligned_grid_in_any_order(self, rng, monkeypatch, arrange):
        # t[j + 15] == 2 t[j] exactly: a point whose half is on the grid with
        # one squaring fewer is that point squared, and still equals the
        # exponential at its time alone, whatever the order of the grid
        j = np.arange(90)
        aligned = (0.1 * 2.0 ** (np.arange(15) / 15))[j % 15] * 2.0 ** (j // 15)
        times = {
            "reversed": aligned[::-1],
            "negated": -aligned,
            "repeated": rng.permutation(np.concatenate((aligned, aligned[::4], [0.0, 0.0]))),
        }[arrange]
        rows, pade = [], matcore._GridExpm._pade

        def spy_pade(self, t, steps):
            rows.append(len(t))
            return pade(self, t, steps)

        a = 10.0 * (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        for a in (a, a.real):
            a = a - (np.linalg.eigvals(a).real.max() + 1.0) * np.eye(5)
            rows.clear()
            monkeypatch.setattr(matcore._GridExpm, "_pade", spy_pade)
            out = matcore.expm(a, times)
            monkeypatch.undo()
            assert 0 < rows[0] < len(times) / 2
            for t, slice_ in zip(times, out):
                assert np.array_equal(slice_, matcore.expm(a, [t])[0])

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
        for d in (np.diag([0.3, -1.2 + 0.5j, 2.0j]), np.diag([0.3, -1.2, 2.0])):
            out = matcore.expm(d)
            assert out.dtype == d.dtype
            assert_allclose(out, np.diag(np.exp(np.diag(d))), rtol=1e-14)

    def test_nilpotent_truncates(self):
        for dtype in (np.complex128, np.float64):
            n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=dtype)
            out = matcore.expm(n)
            assert out.dtype == dtype
            assert_allclose(out, np.array([[1, 1], [0, 1]]), atol=1e-15)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matcore.expm(np.ones((2, 3)))

    def test_inverse_identity(self, rng):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        for a in (a, a.real):
            a = a * (10.0 / matcore.op_norm(a, "spectral"))
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
        for dtype in (np.complex128, np.float64):
            n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=dtype)
            times = np.array([1.0, 1e6, 1e30])
            out = matcore.expm(n, times)
            assert out.dtype == dtype
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
            for a in (a.astype(np.complex128), a):
                with pytest.raises(NonFiniteError):
                    matcore.expm(a)
                with pytest.raises(NonFiniteError):
                    matcore.expm(a, [0.0, 1.0, 1e-3])

    def test_pade_overflow_raises_without_warnings(self):
        # a nilpotent A takes no squaring, so at t = 1e300 the powers x^j of
        # its Pade terms leave the float range: the typed error only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="the Pade terms overflow"):
                matcore.expm([[0.0, 1e200], [0.0, 0.0]], [1e300])

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

    def test_empty_matrix(self):
        out = matcore.principal_sqrt(np.zeros((0, 0)))
        assert out.shape == (0, 0) and out.dtype == np.complex128

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

    def test_rhs_height_must_match(self):
        with pytest.raises(ValueError, match=r"incompatible shapes \(2, 2\) and \(3, 1\)"):
            matcore.solve_linear(np.eye(2), np.ones((3, 1)))

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

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_is_each_matrix_alone_bit_for_bit(self, oblique, rng, rank, dtype):
        # a stacked n x 1 column had been summed in another order than a lone one
        z = oblique[2][:, :rank]
        x = rng.normal(size=(40, 6, 6))
        if dtype is complex:
            x = x + 1j * rng.normal(size=x.shape)
        got = matcore.supported_norm(x, np.broadcast_to(z, (40,) + z.shape))
        assert got.tolist() == [matcore.supported_norm(xk, z) for xk in x]

    def test_rejects_nan(self, oblique):
        x = np.eye(6, dtype=complex)
        x[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            matcore.supported_norm(x, oblique[2])


def _full_stack_max(stack, floor=0.0, extra=0.0):
    return max(floor, float(np.hypot(matcore.op_norm(stack, "spectral"), extra).max()))


def _rank_one_stack(rng, dtype):
    """Five 4 x 4 outer products u v^T."""
    u, v = rng.normal(size=(2, 5, 4, 1))
    if dtype is complex:
        u, v = u + 1j * rng.normal(size=u.shape), v + 1j * rng.normal(size=v.shape)
    return u @ np.swapaxes(v, -1, -2)


class TestMaxSpectralNorm:
    """The pruned maximum is op_norm(stack).max() bit for bit, from fewer SVDs."""

    @staticmethod
    def stack(name, dtype, rng):
        phase = np.exp(0.7j) if dtype is complex else 1.0
        if name == "crossed":
            # ||0.9 I||_F = 1.56 leads the Frobenius order, ||0.9 I||_2 = 0.9 < 1.2
            return phase * np.array([0.9 * np.eye(3), np.diag([1.2, 0.0, 0.0])])
        if name == "ties":
            a = phase * rng.normal(size=(3, 3))
            return np.array([a, a.T, -a, a, 0.5 * a])
        if name == "rank-one":
            # sigma_1 = ||X||_F: every bound is met to rounding
            return _rank_one_stack(rng, dtype)
        return np.zeros((4, 3, 3), dtype=dtype)

    @pytest.fixture
    def svds(self, monkeypatch):
        counts = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            counts.append(int(np.prod(np.shape(a)[:-2])))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return counts

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("name", ["crossed", "ties", "rank-one", "zero"])
    def test_equals_the_full_stack(self, name, dtype, rng):
        stack = self.stack(name, dtype, rng)
        assert stack.dtype == (np.complex128 if dtype is complex else np.float64)
        assert matcore._max_spectral_norm(stack) == _full_stack_max(stack)

    def test_frobenius_order_is_not_spectral_order(self, svds):
        # the leader in Frobenius norm does not hold the maximum, so both are taken
        assert matcore._max_spectral_norm(self.stack("crossed", float, None)) == 1.2
        assert sum(svds) == 2

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_stack_takes_no_svd(self, dtype, svds):
        assert matcore._max_spectral_norm(self.stack("zero", dtype, None)) == 0.0
        assert svds == []

    def test_dominant_matrix_prunes_the_rest(self, rng, svds):
        small = rng.normal(size=(6, 4, 4))
        small /= np.linalg.norm(small, axis=(-2, -1))[:, None, None]
        stack = np.concatenate((small, [np.diag([3.0, 0.0, 0.0, 0.0])]))
        assert matcore._max_spectral_norm(stack) == 3.0
        assert sum(svds) == 1

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_floor_and_extra_term(self, dtype, rng):
        # max(floor, max_k hypot(||A_k||_2, extra_k)), as the orthogonality loop takes it
        stack = _rank_one_stack(rng, dtype)[:, :2]
        extra = rng.uniform(0.0, 3.0, size=len(stack))
        full = _full_stack_max(stack, 0.0, extra)
        for floor in (0.0, 0.5 * full, full, 2.0 * full):
            want = _full_stack_max(stack, floor, extra)
            assert matcore._max_spectral_norm(stack, floor, extra) == want
        assert matcore._max_spectral_norm(stack[:0], 0.25) == 0.25

    def test_nan_in_a_matrix_pruning_would_skip(self):
        # a NaN bound sorts last, after 0.1 I, where diag(5, 0, 0) stops the
        # visit: the NaN still raises
        hidden = 0.1 * np.eye(3)
        hidden[0, 1] = np.nan
        stack = np.array([np.diag([5.0, 0.0, 0.0]), 0.1 * np.eye(3), hidden])
        with pytest.raises(NonFiniteError):
            matcore._max_spectral_norm(stack)


class TestSpectralNorms:
    """The Gram-matrix kernel is op_norm to a few n eps, and takes no
    eigensolve where tr G certifies lambda_max."""

    @pytest.fixture
    def eigvalsh(self, monkeypatch):
        counts = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a, *args, **kwargs):
            counts.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        return counts

    @staticmethod
    def assert_close_to_op_norm(stack):
        got, want = matcore._spectral_norms(stack), matcore.op_norm(stack)
        n = stack.shape[-1]
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert np.all(got >= want * (1.0 - 8 * n * np.finfo(float).eps))

    @pytest.mark.parametrize("n", [1, 4, 9, 25])
    def test_gaussian_stacks(self, n, rng):
        self.assert_close_to_op_norm(rng.normal(size=(30, n, n)))

    @pytest.mark.parametrize("n", [2, 9, 25])
    def test_rank_one_takes_the_trace(self, n, rng, eigvalsh):
        u, v = rng.normal(size=(2, 20, n, 1))
        self.assert_close_to_op_norm(u @ np.swapaxes(v, -1, -2))
        assert eigvalsh == []

    def test_equal_singular_values_take_the_eigensolve(self, rng, eigvalsh):
        u, v = np.linalg.qr(rng.normal(size=(2, 5, 5)))[0]
        tied = (u * [2.0, 2.0, 1.0, 0.5, 0.0]) @ v
        stack = np.array([np.eye(5), tied, np.diag([3.0, 3.0, 0.0, 0.0, 0.0])])
        self.assert_close_to_op_norm(stack)
        assert eigvalsh == [3]

    def test_some_matrices_take_the_eigensolve(self, rng, eigvalsh):
        u, v = rng.normal(size=(2, 4, 6, 1))
        stack = np.concatenate((u @ np.swapaxes(v, -1, -2), rng.normal(size=(3, 6, 6))))
        self.assert_close_to_op_norm(stack)
        assert eigvalsh == [3]

    def test_stack_of_many_slices_is_each_matrix_alone(self, rng):
        # the Gram is formed a quarter of a chunk at a time: 13 matrices at n = 25
        u, v = rng.normal(size=(2, 20, 25, 1))
        stack = np.concatenate((u @ np.swapaxes(v, -1, -2), rng.normal(size=(20, 25, 25))))
        stack = stack[rng.permutation(len(stack))]
        assert len(stack) > 2 * matcore._chunk_points(25) // 4
        alone = [matcore._spectral_norms(x[None])[0] for x in stack]
        assert matcore._spectral_norms(stack).tolist() == alone

    def test_nearly_rank_one(self, rng):
        # sigma_2 / sigma_1 = 1e-8: tr G exceeds lambda_max by 1e-16 of it
        q1, q2 = np.linalg.qr(rng.normal(size=(2, 10, 4, 4)))[0]
        self.assert_close_to_op_norm((q1 * [1.0, 1e-8, 0.0, 0.0]) @ q2)

    def test_zero_matrices_give_zero(self):
        assert matcore._spectral_norms(np.zeros((3, 4, 4))).tolist() == [0.0] * 3

    @pytest.mark.parametrize("power", [-1000, 1000])
    def test_power_of_two_scaling_is_exact(self, power, rng):
        u, v = rng.normal(size=(2, 5, 4, 1))
        stack = np.concatenate((rng.normal(size=(5, 4, 4)), u @ np.swapaxes(v, -1, -2)))
        scaled = matcore._spectral_norms(np.ldexp(stack, power))
        assert scaled.tolist() == np.ldexp(matcore._spectral_norms(stack), power).tolist()

    @pytest.fixture(scope="class")
    def paper_stacks(self, lambda_pipe, qubit_pipe):
        """The M and distance stacks of the three paper models on the default grid."""
        nogo = bench.compute_effective(counterexample_model(5.0))
        stacks = []
        for pipe in (lambda_pipe, qubit_pipe, nogo):
            times = bench.default_time_grid()
            true = matcore.expm(bench._real_frame(pipe.total_matrix), times)
            stacks.append(true)
            for order in (0, None):
                target = bench._real_frame(pipe.effective_total(order))
                stacks.append(true - matcore.expm(target, times))
        return stacks

    def test_paper_model_stacks(self, paper_stacks):
        for stack in paper_stacks:
            self.assert_close_to_op_norm(stack)

    def test_argument_is_not_written(self, rng):
        stack = rng.normal(size=(6, 5, 5)) * 1e-200
        kept = stack.copy()
        stack.setflags(write=False)
        matcore._spectral_norms(stack)
        assert np.array_equal(stack, kept)

    def test_rejects_nan(self):
        stack = np.zeros((2, 3, 3))
        stack[1, 0, 2] = np.nan
        with pytest.raises(NonFiniteError):
            matcore._spectral_norms(stack)

    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="real stack"):
            matcore._spectral_norms(np.eye(3)[None] * 1j)

    @staticmethod
    def sector_stack(rng, sizes, count=24):
        """A stack of matrices block diagonal over randomly permuted sectors
        of the given sizes, with their labels: Gaussian blocks, rank-one
        blocks and zero blocks, so that each sector takes both routes."""
        n = sum(sizes)
        stack = np.zeros((count, n, n))
        labels = np.repeat(np.arange(len(sizes)), sizes)
        start = 0
        for m in sizes:
            block = slice(start, start + m)
            u, v = rng.normal(size=(2, count, m, 1))
            kind = rng.integers(3, size=count)
            stack[:, block, block] = np.where(
                (kind == 0)[:, None, None],
                rng.normal(size=(count, m, m)),
                np.where((kind == 1)[:, None, None], u @ np.swapaxes(v, -1, -2), 0.0),
            ) * rng.uniform(0.1, 10.0, size=(count, 1, 1))
            start += m
        perm = rng.permutation(n)
        return stack[:, perm][:, :, perm], labels[perm]

    @pytest.fixture
    def eigvalsh_sizes(self, monkeypatch):
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a, *args, **kwargs):
            sizes.append(a.shape[-1])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        return sizes

    @pytest.mark.parametrize("sizes", [(11, 6, 6, 2), (3, 2, 2, 2)])
    def test_permuted_sectors_are_op_norm(self, sizes, rng, eigvalsh_sizes):
        stack, labels = self.sector_stack(rng, sizes)
        got, want = matcore._spectral_norms(stack, labels), matcore.op_norm(stack)
        n = stack.shape[-1]
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert np.all(got >= want * (1.0 - 8 * n * np.finfo(float).eps))
        # one eigensolve per sector at most, each of that sector's size
        assert eigvalsh_sizes and set(eigvalsh_sizes) <= set(sizes)
        assert len(eigvalsh_sizes) <= len(sizes)

    def test_one_sector_is_no_sectors_bit_for_bit(self, rng):
        stack, _ = self.sector_stack(rng, (11, 6, 6, 2))
        alone = matcore._spectral_norms(stack)
        assert matcore._spectral_norms(stack, np.full(25, 5)).tolist() == alone.tolist()

    def test_a_matrix_alone_is_itself_in_any_stack(self, rng):
        stack, labels = self.sector_stack(rng, (3, 2, 2, 2), count=40)
        alone = [matcore._spectral_norms(x, labels) for x in stack]
        assert matcore._spectral_norms(stack, labels).tolist() == alone
        shuffled = rng.permutation(len(stack))
        assert matcore._spectral_norms(stack[shuffled], labels).tolist() == [
            alone[k] for k in shuffled
        ]

    def test_a_coupled_gram_falls_back_to_one_sector(self, rng, eigvalsh_sizes):
        stack, labels = self.sector_stack(rng, (11, 6, 6, 2))
        i, j = np.flatnonzero(labels == 0)[0], np.flatnonzero(labels == 1)[0]
        # an entry across sectors couples G = X X^T where column j has
        # another nonzero entry
        k = np.flatnonzero(stack[:, :, j].any(axis=1))[0]
        stack[k, i, j] = 1.0
        gram = stack[k] @ stack[k].T
        assert gram[i, labels == 1].any()
        got = matcore._spectral_norms(stack, labels)
        want = matcore.op_norm(stack)
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert got.tolist() == matcore._spectral_norms(stack).tolist()
        assert eigvalsh_sizes == [25] * len(eigvalsh_sizes) != []

    def test_a_gram_left_block_diagonal_keeps_the_sectors(self, rng, eigvalsh_sizes):
        # the sectors are checked on G, not on X: an entry across sectors
        # in a column with no other nonzero entry leaves G block diagonal
        stack, labels = self.sector_stack(rng, (3, 2, 2, 2))
        i, j = np.flatnonzero(labels == 0)[0], np.flatnonzero(labels == 1)[0]
        stack[:, :, j] = 0.0
        stack[:, i, j] = 2.0
        got, want = matcore._spectral_norms(stack, labels), matcore.op_norm(stack)
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        assert set(eigvalsh_sizes) <= {2, 3}

    @pytest.mark.parametrize("labels", [np.zeros(24, int), np.zeros(26, int), np.zeros((5, 5), int)])
    def test_labels_must_cover_the_indices(self, labels):
        with pytest.raises(ValueError, match="sectors must label the 25 indices"):
            matcore._spectral_norms(np.zeros((2, 25, 25)), labels)


class TestComponents:
    def test_least_index_of_each_component(self):
        adjacency = np.zeros((6, 6), bool)
        # 0 - 3 - 5 a path, 1 alone, 2 - 4 with the edge one way only
        adjacency[0, 3] = adjacency[5, 3] = adjacency[4, 2] = True
        assert matcore._components(adjacency).tolist() == [0, 1, 2, 0, 2, 0]

    def test_argument_is_not_written(self):
        adjacency = np.eye(3, k=1, dtype=bool)
        kept = adjacency.copy()
        assert matcore._components(adjacency).tolist() == [0, 0, 0]
        assert np.array_equal(adjacency, kept)
