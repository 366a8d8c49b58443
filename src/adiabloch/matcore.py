"""Dense complex-matrix kernel used by every other module.

Thin, contract-enforcing fronts over LAPACK-backed numpy/scipy routines:
unitarily invariant norms, the principal matrix square root (Schur method),
linear and Sylvester solves, and the matrix exponential.  All functions are
pure: inputs are never mutated, outputs are freshly allocated ``complex128``
arrays, and every public operation guarantees finite entries on return.
:func:`op_norm`, :func:`expm` and :func:`numerical_rank` also take stacks of
shape ``(..., n, n)`` and act on each matrix of the stack, so many points of
a time grid are propagated, or many certificate residuals measured, in one
call; every slice gets the same arithmetic it would get on its own.
:func:`expm` is its own batched scaling-and-squaring kernel (degree-13 Pade,
theta_13 = 4.25, with Al-Mohy & Higham's ell correction against
overscaling; SIAM J. Matrix Anal. Appl. 31, 2009): every step, from the
choice of the number of squarings to the squarings themselves, is one
batched matmul, solve or elementwise operation over the whole stack, where
a per-slice loop would pay the interpreter once per matrix.
:func:`supported_norm` bounds the spectral norm of a matrix that vanishes
off a known r-dimensional row space from an n x r factor.
"""

from __future__ import annotations

import warnings

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
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
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


def expm(a) -> np.ndarray:
    """Matrix exponential e^A of a matrix, or of each matrix in a stack.

    Scaling and squaring with the degree-13 Pade approximant (Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 970-989, 2009), evaluated on the
    whole stack at once.  Each slice B is scaled by 2^-s with

        s = max(0, ceil(log2(min(max(d_6, d_8), max(d_8, d_10)) / theta_13)))

    where d_k = ||B^k||_1^(1/k) are exact 1-norms of the powers and
    theta_13 = 4.25 (scipy's value), plus the correction
    ell = max(0, ceil(log2(alpha / u) / 26)), alpha = |c_27| || |2^-s B|^27 ||_1
    / ||2^-s B||_1, that guards against overscaling a nonnormal slice
    (u = 2^-53; c_27 is the leading coefficient of the Pade error series).
    The approximant r_13 = (V - U)^-1 (V + U) is then squared s + ell
    times.  Scaling by a power of two is exact, so the scaled powers are the
    unscaled ones times 2^-ks.  Every step is a batched matmul, solve or
    elementwise operation over the slices, and every slice gets the same
    arithmetic it would get on its own.
    """
    m = _as_cstack(a)
    _require_square(m, "expm")
    n = m.shape[-1]
    if m.size == 0:
        return m.copy()
    out = _expm_stack(m.reshape(-1, n, n)).reshape(m.shape)
    return _ensure_finite(out, "expm result")


# Coefficients b_0..b_13 of the degree-13 Pade approximant of e^x.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 4.25
# 1 / |c_27|, where c_27 leads the error series of the degree-13 Pade approximant.
_PADE13_ERR_RECIP = 113250775606021113483283660800000000.0


def _norm1(x: np.ndarray) -> np.ndarray:
    """1-norm (largest column sum of moduli) of each slice of a stack."""
    return np.abs(x).sum(axis=-2).max(axis=-1)


def _squarings(b: np.ndarray, b2: np.ndarray, b4: np.ndarray, b6: np.ndarray) -> np.ndarray:
    """Number of squarings s + ell of each slice of the (k, n, n) stack b."""
    d6 = _norm1(b6) ** (1 / 6)
    d8 = _norm1(b4 @ b4) ** (1 / 8)
    d10 = _norm1(b4 @ b6) ** (1 / 10)
    eta = np.minimum(np.maximum(d6, d8), np.maximum(d8, d10))
    if not np.all(np.isfinite(eta)):
        raise NonFiniteError("expm: powers of the input overflow")
    with np.errstate(divide="ignore"):  # eta = 0 (nilpotent) gives s = 0
        s = np.maximum(np.ceil(np.log2(eta / _THETA13)), 0.0).astype(np.int64)
    scaled = np.ldexp(np.abs(b), -s[:, None, None])
    v = np.ones((len(b), 1, b.shape[-1]))
    for _ in range(27):
        v = v @ scaled
    power_norm = v.max(axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = power_norm / (_norm1(scaled) * _PADE13_ERR_RECIP)
        ell = np.ceil(np.log2(alpha / 2.0**-53) / 26)
    ell = np.where(power_norm > 0, np.maximum(ell, 0.0), 0.0).astype(np.int64)
    return s + ell


def _pade13(b: np.ndarray):
    """U and V of the degree-13 Pade approximant of each scaled slice 2^-s B
    of a (k, n, n) stack, and the numbers of squarings s."""
    b2 = b @ b
    b4 = b2 @ b2
    b6 = b4 @ b2
    s = _squarings(b, b2, b4, b6)
    col = s[:, None, None]
    for power, x in ((2, b2), (4, b4), (6, b6)):
        x *= np.ldexp(1.0, -power * col)
    c = _PADE13
    ident = np.eye(b.shape[-1])
    u = b6 @ (c[13] * b6 + c[11] * b4 + c[9] * b2) + c[7] * b6 + c[5] * b4 + c[3] * b2
    u = (b * np.ldexp(1.0, -col)) @ (u + c[1] * ident)
    v = b6 @ (c[12] * b6 + c[10] * b4 + c[8] * b2) + c[6] * b6 + c[4] * b4 + c[2] * b2
    return u, v + c[0] * ident, s


def _expm_stack(b: np.ndarray) -> np.ndarray:
    """e^B of each slice of a finite (k, n, n) complex stack."""
    # the powers are freed on return from _pade13, before the solve
    u, v, s = _pade13(b)
    r = np.linalg.solve(v - u, v + u)
    del u, v
    # square the slices in order of s, so squaring j acts on the suffix with s > j
    order = np.argsort(s, kind="stable")
    r, steps = r[order], s[order]
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

    The reciprocal condition number is estimated from the LU factors
    (LAPACK gecon); rcond < 10 eps^1.5 (about 3e-23, far below machine
    epsilon) raises :class:`SingularMatrixError` with the estimate.  Newton
    in :mod:`bloch` applies it to the (n r) x (n r) reduced Jacobian, which
    is singular whenever the derivative on matrices vanishing on
    range(1 - P) is.
    """
    m = as_cmatrix(a)
    _require_square(m, "solve_linear")
    rhs = np.asarray(y, dtype=np.complex128)
    _ensure_finite(rhs, "right-hand side")
    if rhs.shape[0] != m.shape[0]:
        raise ValueError(
            f"incompatible shapes {m.shape} and {rhs.shape} in solve_linear"
        )
    try:
        with warnings.catch_warnings():
            # exactly singular input is detected via rcond below
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(m)
    except (ValueError, np.linalg.LinAlgError) as exc:  # pragma: no cover
        raise SingularMatrixError(f"LU factorization failed: {exc}") from exc
    anorm = np.linalg.norm(m, 1)
    rcond, info = sla.lapack.zgecon(lu, anorm)
    if info != 0 or not np.isfinite(rcond) or rcond < 10 * np.finfo(float).eps**1.5:
        cond = np.inf if rcond == 0 else 1.0 / max(rcond, np.finfo(float).tiny)
        raise SingularMatrixError(
            f"matrix singular to working precision (cond ~ {cond:.3e})",
            cond=cond,
        )
    x = sla.lu_solve((lu, piv), rhs)
    return _ensure_finite(np.asarray(x, dtype=np.complex128), "solve result")


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
