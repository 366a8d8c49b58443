"""Dense complex-matrix kernel used by every other module.

Thin, contract-enforcing fronts over LAPACK-backed numpy/scipy routines:
unitarily invariant norms, the matrix exponential (scaling-and-squaring with
order-13 Pade), the principal matrix square root (Schur method), linear and
Sylvester solves.  All functions are pure: inputs are never mutated, outputs
are freshly allocated ``complex128`` arrays, and every public operation
guarantees finite entries on return.  :func:`op_norm`, :func:`expm` and
:func:`numerical_rank` also take stacks of shape ``(..., n, n)`` and act on
each matrix of the stack, so many points of a time grid are propagated, or
many certificate residuals measured, in one call; every slice gets the same
arithmetic it would get on its own.  :func:`supported_norm` bounds the
spectral norm of a matrix that vanishes off a known r-dimensional row space
from an n x r factor.
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

    Scaling-and-squaring with order-13 Pade (Al-Mohy & Higham 2009).
    """
    m = _as_cstack(a)
    _require_square(m, "expm")
    out = sla.expm(m)
    return _ensure_finite(np.asarray(out, dtype=np.complex128), "expm result")


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
