"""Dense complex-matrix kernel used by every other module.

Thin, contract-enforcing fronts over LAPACK-backed numpy/scipy routines:
unitarily invariant norms, the principal matrix square root (Schur method),
linear and Sylvester solves, and the matrix exponential.  All functions are
pure: inputs are never mutated, outputs are freshly allocated ``complex128``
arrays, and every public operation guarantees finite entries on return.
:func:`op_norm` and :func:`numerical_rank` also take stacks of shape
``(..., n, n)`` and act on each matrix of the stack, so many certificate
residuals, or the points of a time grid, are measured in one call.
:func:`expm` takes one matrix A and a grid of times, and is its own
scaling-and-squaring kernel (degree-13 Pade, Al-Mohy & Higham, SIAM J.
Matrix Anal. Appl. 31, 2009).  Since (tA)^j = t^j A^j and the norms that
choose the number of squarings scale with |t|, A's powers are taken once
per call and each time point adds only 14 scalar coefficients, one solve
and its squarings.  Given A's powers, every time point gets the arithmetic
it would get on its own.  :func:`supported_norm` bounds the spectral norm
of a matrix that vanishes off a known r-dimensional row space from an
n x r factor.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .errors import (
    BranchCutError,
    NonFiniteError,
    SingularMatrixError,
    SpectralOverlapError,
)

# Rank cutoff, relative to the largest singular value.
TOL_RANK = 1e-9
# Relative tolerances of principal_sqrt (distance of an eigenvalue from the
# closed negative real axis) and solve_sylvester (separation of the spectra).
_SQRT_AXIS_TOL = 1e-13
_SYLVESTER_SEP_TOL = 1e-10
_GETRF, _GECON, _GETRS = sla.get_lapack_funcs(("getrf", "gecon", "getrs"), dtype=np.complex128)


def as_cmatrix(a) -> np.ndarray:
    """Return ``a`` as a 2-d complex128 array, rejecting non-finite input."""
    m = _as_cstack(a)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    return m


def _as_cstack(a) -> np.ndarray:
    """Return ``a`` as a complex128 matrix or stack of matrices (ndim >= 2)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack, got shape {m.shape}")
    return _ensure_finite(m, "input")


def _ensure_finite(m: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{what} contains NaN or Inf entries")
    return m


def _require_square(m: np.ndarray, op: str) -> None:
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{op} requires square matrices, got shape {m.shape}")


_NORM_KINDS = ("spectral", "trace", "frobenius")


def op_norm(a, kind: str = "spectral") -> float | np.ndarray:
    """Unitarily invariant norm of a matrix, or of each matrix in a stack.

    ``spectral``: largest singular value; ``trace``: sum of singular values;
    ``frobenius``: root-sum-square of moduli.  Returns a ``float`` for one
    matrix and an array of shape ``a.shape[:-2]`` for a stack.
    """
    if kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {_NORM_KINDS}")
    m = _as_cstack(a)
    if kind == "frobenius":
        norms = np.linalg.norm(m, axis=(-2, -1))
    else:
        s = np.linalg.svd(m, compute_uv=False)
        norms = s.max(axis=-1, initial=0.0) if kind == "spectral" else s.sum(axis=-1)
    return float(norms) if m.ndim == 2 else norms


def supported_norm(x, basis) -> float | np.ndarray:
    """Spectral norm of X from its part on the orthonormal columns of ``basis``.

    With V = ``basis`` (n x r) returns sqrt(||X V||_2^2 + ||X - X V V^H||_F^2).
    The two terms of X = X V V^H + X (1 - V V^H) have orthogonal row spaces,
    so this is an upper bound of ||X||_2, equal to it when X = X V V^H.  For
    X = X P, with V spanning range(P^H), it costs an SVD of the n x r matrix
    X V in place of one of X; the left-sided twin, for X = P X, is the same
    bound on X^T with the conjugate of a basis of range(P).  Like
    :func:`op_norm` it takes a stack of X with a stack of bases, and zero
    columns in a basis change nothing, so bases of different ranks stack
    once padded with zeros.
    """
    m = _as_cstack(x)
    v = np.asarray(basis, dtype=np.complex128)
    xv = m @ v
    on = np.linalg.svd(xv, compute_uv=False).max(axis=-1, initial=0.0)
    off = np.linalg.norm(m - xv @ np.swapaxes(v, -1, -2).conj(), axis=(-2, -1))
    norms = np.hypot(on, off)
    return float(norms) if m.ndim == 2 else norms


def expm(a, times=None) -> np.ndarray:
    """Matrix exponential e^A, or the stack of e^{tA} over a grid of times.

    With ``times`` None returns e^A, bit for bit ``expm(a, [1.0])[0]``; with
    a 1-d grid of k finite times, the (k, n, n) stack of e^{tA}.  Scaling and
    squaring with the degree-13 Pade approximant (Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31, 970-989, 2009), by homogeneity in t: with
    A = 2^e B exactly, ||B||_1 in [1/2, 1), B^0..B^13 take 12 matmuls once.
    Time t gets s = max(0, ceil(log2(|2^e t| eta / 4.25))), as d_j(tA) =
    |t| d_j(A) for eta = min(max(d_6, d_8), max(d_8, d_10)), d_j the exact
    ||B^j||_1^(1/j), and theta_13 = 4.25 (scipy's value); plus the
    correction against overscaling, ell = max(0, ceil(log2(alpha / 2^-53)
    / 26)), alpha = |c_27| || |x B|^27 ||_1 / ||x B||_1 at x = 2^(e-s) t,
    where || |x B|^27 ||_1 = |x|^27 || |B|^27 ||_1 takes 27 vector-matrix
    products once and log2 alpha is summed in log space.  At x =
    2^(e-s-ell) t, V + U and V - U are sum_j (+-1)^j b_j x^j B^j, one
    product of the 14 coefficients with the powers per time; each power is
    scaled exactly to unit norm and its coefficient built from exponents,
    so no x^j overflows on a small power, and a zero power gets
    coefficient 0.  One batched solve gives the approximant, squared
    s + ell times.  Overflow raises :class:`NonFiniteError`, without numpy
    warnings.
    """
    m = as_cmatrix(a)
    _require_square(m, "expm")
    grid = np.ones(1) if times is None else np.asarray(times, dtype=np.float64)
    if grid.ndim != 1:
        raise ValueError(f"expm takes a 1-d grid of times, got shape {grid.shape}")
    _ensure_finite(grid, "times")
    if m.size == 0 or grid.size == 0:
        out = np.zeros((grid.size,) + m.shape, dtype=np.complex128)
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = _ensure_finite(_expm_grid(m, grid), "expm result")
    return out[0] if times is None else out


# Coefficients b_0..b_13 of the degree-13 Pade approximant of e^x, over b_0:
# at t = 0 both V + U and V - U are then exactly the identity, and so is the solve.
_PADE13 = np.array((
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)) / 64764752532480000.0
_DEGREES = np.arange(14)
_SIGNS = np.array([np.ones(14), (-1.0) ** _DEGREES])  # rows: V + U, V - U
_THETA13 = 4.25
# log2(1 / |c_27|), where c_27 leads the error series of the degree-13 Pade approximant.
_LOG2_PADE13_ERR_RECIP = np.log2(113250775606021113483283660800000000.0)
# Factors (i, j) of B^(i+j) from B^2 on, with B^8 = B^4 B^4 and B^10 = B^4 B^6.
_POWER_FACTORS = ((1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (6, 1), (4, 4), (8, 1), (4, 6),
                  (10, 1), (6, 6), (12, 1))


def _norm1(x: np.ndarray) -> np.ndarray:
    """1-norm (largest column sum of moduli) of each slice of a stack."""
    return np.abs(x).sum(axis=-2).max(axis=-1)


def _expm_grid(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """e^{tA} of a finite nonempty complex A at each time of a finite 1-d grid."""
    n = a.shape[0]
    a_norm, e = np.frexp(_norm1(a))
    powers = np.empty((14, n, n), dtype=np.complex128)
    powers[0] = np.eye(n)
    # ldexp, as 2^-e overflows for a subnormal A
    powers[1].real, powers[1].imag = np.ldexp(a.real, -e), np.ldexp(a.imag, -e)
    for k, (i, j) in enumerate(_POWER_FACTORS, start=2):
        np.matmul(powers[i], powers[j], out=powers[k])
    power_norms = _norm1(powers)
    d6, d8, d10 = power_norms[[6, 8, 10]] ** (1 / np.array([6, 8, 10]))
    log2_t = np.log2(np.abs(t)) + e
    s = np.fmax(np.ceil(log2_t + np.log2(min(max(d6, d8), max(d8, d10)) / _THETA13)), 0.0)
    v, abs_a = np.ones(n), np.abs(powers[1])
    for _ in range(27):
        v = v @ abs_a
    log2_alpha = 26 * (log2_t - s) + np.log2(v.max()) - np.log2(a_norm) - _LOG2_PADE13_ERR_RECIP
    steps = (s + np.fmax(np.ceil((log2_alpha + 53) / 26), 0.0)).astype(np.int64)
    # b_j x^j B^j = (b_j m^j 2^(j q + f_j)) (2^-f_j B^j), x = m 2^q, ||2^-f_j B^j||_1 in [1/2, 1)
    m, q = np.frexp(np.ldexp(t, e - steps))
    f = np.frexp(power_norms)[1]
    coef = np.ldexp(_PADE13 * m[:, None] ** _DEGREES, q[:, None] * _DEGREES + f)
    coef = np.where(power_norms > 0, coef, 0.0)
    if not np.isfinite(np.abs(coef).sum()):
        raise NonFiniteError("expm: the Pade terms overflow")
    unit = np.ldexp(powers.reshape(14, -1).view(np.float64), -f[:, None])
    # a (2 x 14) product per time, not one gemm over all times, whose rows
    # BLAS rounds unlike a lone row: no time may depend on the others
    sums = ((coef[:, None, :] * _SIGNS) @ unit).view(np.complex128).reshape(len(t), 2, n, n)
    r = np.linalg.solve(sums[:, 1], sums[:, 0])
    del sums
    # square the times in order of steps, so squaring j acts on the suffix with steps > j
    order = np.argsort(steps, kind="stable")
    r, steps = r[order], steps[order]
    for j in range(int(steps[-1])):
        tail = r[np.searchsorted(steps, j, side="right"):]
        tail[...] = tail @ tail
    out = np.empty_like(r)
    out[order] = r
    return out


def principal_sqrt(a) -> np.ndarray:
    """Principal matrix square root: X with X^2 = A, spectrum(X) in Re > 0.

    Raises :class:`BranchCutError` when an eigenvalue of ``A`` lies within
    ``_SQRT_AXIS_TOL`` = 1e-13 (relative) of the closed negative real axis,
    where the principal branch is ambiguous.
    """
    m = as_cmatrix(a)
    _require_square(m, "principal_sqrt")
    if m.size == 0:
        return m.copy()
    scale = max(op_norm(m, "spectral"), 1.0)
    eigs = np.linalg.eigvals(m)
    for lam in eigs:
        if abs(lam) <= _SQRT_AXIS_TOL * scale or (
            lam.real < 0.0 and abs(lam.imag) <= _SQRT_AXIS_TOL * scale
        ):
            raise BranchCutError(
                f"eigenvalue {lam} lies on or near the closed negative real "
                "axis; principal square root is ill-defined"
            )
    x = sla.sqrtm(m)
    return _ensure_finite(np.asarray(x, dtype=np.complex128), "principal_sqrt result")


def solve_linear(a, y) -> np.ndarray:
    """Solve A X = Y for X, rejecting A singular within tolerance.

    LAPACK getrf/getrs, with the reciprocal condition number estimated from
    the LU factors (gecon) and an exactly singular U taken as rcond 0;
    rcond < 10 eps^1.5 (about 3e-23, far below machine epsilon) raises
    :class:`SingularMatrixError` with the estimate.  Newton in :mod:`bloch`
    applies it per column of its Sylvester sweep, to each A + T_jj S: in the
    Schur basis of M the (n r) x (n r) Kronecker system is block-triangular
    with these diagonal blocks, so it is singular exactly when one of them is.
    A 0 x 0 system has the empty solution, returned without calling LAPACK.
    """
    m = as_cmatrix(a)
    _require_square(m, "solve_linear")
    rhs = _ensure_finite(np.asarray(y, dtype=np.complex128), "right-hand side")
    if rhs.shape[0] != m.shape[0]:
        raise ValueError(
            f"incompatible shapes {m.shape} and {rhs.shape} in solve_linear"
        )
    if m.size == 0:
        return rhs.copy()
    lu, piv, info = _GETRF(m)
    rcond, info = _GECON(lu, np.linalg.norm(m, 1)) if info == 0 else (0.0, 0)
    if info != 0 or not np.isfinite(rcond) or rcond < 10 * np.finfo(float).eps**1.5:
        cond = np.inf if rcond == 0 else 1.0 / max(rcond, np.finfo(float).tiny)
        raise SingularMatrixError(
            f"matrix singular to working precision (cond ~ {cond:.3e})",
            cond=cond,
        )
    return _ensure_finite(_GETRS(lu, piv, rhs)[0], "solve result")


def solve_sylvester(a, b, y) -> np.ndarray:
    """Solve A X - X B = Y, requiring spectra of A and B to be disjoint.

    The measured spectral separation min |eig(A) - eig(B)| is checked
    against ``_SYLVESTER_SEP_TOL`` = 1e-10 times the problem scale and
    reported in the :class:`SpectralOverlapError` when too small.
    """
    ma = as_cmatrix(a)
    mb = as_cmatrix(b)
    my = np.asarray(y, dtype=np.complex128)
    _require_square(ma, "solve_sylvester")
    _require_square(mb, "solve_sylvester")
    _ensure_finite(my, "right-hand side")
    ea = np.linalg.eigvals(ma)
    eb = np.linalg.eigvals(mb)
    sep = np.abs(ea[:, None] - eb[None, :]).min()
    scale = max(op_norm(ma, "spectral"), op_norm(mb, "spectral"), 1.0)
    if sep <= _SYLVESTER_SEP_TOL * scale:
        raise SpectralOverlapError(
            f"spectra of the Sylvester operands overlap (separation "
            f"{sep:.3e}, scale {scale:.3e})",
            separation=float(sep),
        )
    # scipy solves A X + X B = Q
    x = sla.solve_sylvester(ma, -mb, my)
    return _ensure_finite(np.asarray(x, dtype=np.complex128), "sylvester result")


def numerical_rank(a, tol: float | None = None) -> int | np.ndarray:
    """Rank from singular values above ``tol`` (default TOL_RANK * sigma_max).

    Returns an ``int`` for one matrix and an array of shape ``a.shape[:-2]``
    for a stack, each matrix ranked against its own sigma_max by default.
    """
    m = _as_cstack(a)
    s = np.linalg.svd(m, compute_uv=False)
    cutoff = TOL_RANK * s.max(axis=-1, initial=0.0)[..., None] if tol is None else tol
    ranks = np.count_nonzero(s > cutoff, axis=-1)
    return int(ranks) if m.ndim == 2 else ranks
