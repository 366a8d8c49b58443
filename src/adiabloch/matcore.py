"""Dense matrix kernel used by every other module.

Thin, contract-enforcing fronts over LAPACK-backed numpy/scipy routines:
unitarily invariant norms, the principal matrix square root (Schur method),
linear solves, and the matrix exponential.  All functions are
pure: inputs are never mutated, outputs are freshly allocated, and every
public operation rejects non-finite input and guarantees finite entries on
return.  :func:`expm` and :func:`op_norm` (and :func:`supported_norm`)
keep the input's kind: real input is taken as ``float64``, never cast up
to complex, and gives a ``float64`` exponential; complex input is taken as
``complex128``.  Either way the arithmetic is the same.  The square root
and the solves compute in ``complex128``.  :func:`op_norm` also takes
stacks of shape ``(..., n, n)`` and acts on each matrix of the stack, so
many certificate residuals, or the points of a time grid, are measured in
one call.
:func:`expm` takes one matrix A and a grid of times, and is its own
scaling-and-squaring kernel (degree-13 Pade, Al-Mohy & Higham, SIAM J.
Matrix Anal. Appl. 31, 2009).  Since (tA)^j = t^j A^j and the norms that
choose the number of squarings scale with |t|, A's powers are taken once
per call and each time point adds only 14 scalar coefficients, one solve
and its squarings, or, when half its time is on the grid with one squaring
fewer, a single squaring of that point.  Given A's powers, every time point
gets the arithmetic it would get on its own.  The kernel behind it can also
walk a sorted grid in chunks of :func:`_chunk_points` times, sized by a
working-set budget: after each call it keeps the points from half that
call's largest time on, every parent the next chunk can chain onto.  The
argument checks of the package's entry points (:func:`_require_positive`
and :func:`_require_integer`) live here too, so every module applies one
rule for numbers, and so does the operand rule, :func:`as_cmatrix` with a
size n.  :func:`supported_norm` bounds the spectral norm of a
matrix that vanishes off a known r-dimensional row space from an n x r
factor.
:func:`_max_spectral_norm` gives the largest spectral norm of a stack, the
value ``op_norm(stack).max()`` takes, from as few SVDs as it can: since
||X||_2 <= ||X||_F, it takes the SVDs in decreasing Frobenius norm and
stops once its running maximum reaches the next Frobenius norm times the
margin 1 + c eps, c = 8 n for n x n (or n x m, n >= m) matrices.  The
margin covers rounding: a computed sigma_1 is the exact one of X + E with
||E||_2 <= p(n) eps ||X||_2 (p modest, LAPACK's bound), and the computed
Frobenius norm is within a few eps.  On rank-1 real and complex matrices,
where sigma_1 = ||X||_F exactly, the computed sigma_1 exceeded the computed
||X||_F by at most 5 eps for n up to 100, where c eps is 16 eps or more.
A matrix skipped by the rule therefore cannot hold the maximum, and the
result is bit for bit the full stack's.
:func:`_spectral_norms` gives the spectral norm of each real matrix of a
stack, for the distances along a time grid, from its Gram matrix
G = X X^T, scaled exactly by a power of two: lambda_max(G) lies between
||G||_F^2 / tr G and tr G, so where (tr G)^2 <= (1 + c eps) ||G||_F^2, with
the same c = 8 n, tr G is lambda_max to within that margin and no
eigensolve is taken; that is every rank-one difference, such as two
trace-preserving semigroups past their relaxation time, at their
stationary projections.  The other matrices get one symmetric eigensolve
for the stack.  Given labels of invariant sectors, such as the connected
components (:func:`_components`) of a generator's nonzero pattern, it
checks on the stacked G that no entry joins two sectors and then takes
each sector's block on its own, with c = 8 m for a sector of m indices and
one eigensolve per sector: lambda_max of a block-diagonal symmetric matrix
is the largest of its blocks'.  Its values agree with :func:`op_norm`'s to
a few n eps, not bit for bit, so every certificate keeps :func:`op_norm`.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
import scipy.linalg as sla

from .errors import BranchCutError, NonFiniteError, SingularMatrixError

# Relative tolerance of principal_sqrt: distance of an eigenvalue from the
# closed negative real axis.
_SQRT_AXIS_TOL = 1e-13
_GETRF, _GECON, _GETRS = sla.get_lapack_funcs(("getrf", "gecon", "getrs"), dtype=np.complex128)


def as_cmatrix(a, n: int | None = None, name: str = "input") -> np.ndarray:
    """Return ``a`` as a 2-d complex128 array, rejecting non-finite input.

    This is the operand rule of the package: with ``n``, any shape but
    n x n raises a ``ValueError`` naming ``name``, before any work, and so
    does a NaN or Inf entry, as a :class:`NonFiniteError`.  Entry
    points that also take a :class:`~adiabloch.liouville.Superoperator`
    reach it through ``spectral._as_matrix``, which unwraps one.
    """
    m = np.asarray(a, dtype=np.complex128)
    if n is not None and m.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n}, got {m.shape}")
    return _as_matrix(m, name)


def _as_matrix(a, name: str = "input") -> np.ndarray:
    """Return ``a`` as a 2-d float64 (real input) or complex128 array."""
    m = _as_stack(a, name)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    return m


def _as_stack(a, name: str = "input") -> np.ndarray:
    """Return ``a`` as a matrix or stack of matrices (ndim >= 2): float64 for
    real input, complex128 otherwise; a NaN or Inf entry raises
    :class:`NonFiniteError` naming ``name``."""
    m = np.asarray(a)
    m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack, got shape {m.shape}")
    return _ensure_finite(m, name)


def _ensure_finite(m: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{what} contains NaN or Inf entries")
    return m


def _is_number(value) -> bool:
    # a bool is an int to Python, and None or a string has no order with 0
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return _is_number(value) and isinstance(value, (int, np.integer))


def _require_positive(zero_ok: bool = False, **values) -> None:
    """Reject each of ``values``, with a ``ValueError`` naming it, unless it
    is a positive (with ``zero_ok``, non-negative) finite real number: not a
    bool, None or a string."""
    sign = "non-negative" if zero_ok else "positive"
    for name, value in values.items():
        real = _is_number(value)
        if not (real and math.isfinite(value) and (value > 0 or zero_ok and value == 0)):
            raise ValueError(
                f"{name} must be {sign} and finite, got {value if real else repr(value)}"
            )


def _require_integer(name: str, value, least: int) -> None:
    if not (_is_integer(value) and value >= least):
        kind = "positive" if least == 1 else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def _require_square(m: np.ndarray, op: str) -> None:
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{op} requires square matrices, got shape {m.shape}")


_NORM_KINDS = ("spectral", "trace", "frobenius")


def op_norm(a, kind: str = "spectral") -> float | np.ndarray:
    """Unitarily invariant norm of a matrix, or of each matrix in a stack.

    ``spectral``: largest singular value; ``trace``: sum of singular values;
    ``frobenius``: root-sum-square of moduli.  Returns a ``float`` for one
    matrix and an array of shape ``a.shape[:-2]`` for a stack.  A real
    stack is decomposed as it is, not cast up to complex.
    """
    if kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {_NORM_KINDS}")
    m = _as_stack(a)
    if kind == "frobenius":
        norms = np.linalg.norm(m, axis=(-2, -1))
    else:
        s = np.linalg.svd(m, compute_uv=False)
        norms = s.max(axis=-1, initial=0.0) if kind == "spectral" else s.sum(axis=-1)
    return float(norms) if m.ndim == 2 else norms


def _margin(n: int) -> float:
    """The rounding margin 1 + 8 n eps of the module docstring."""
    return 1.0 + 8 * n * np.finfo(float).eps


def _max_spectral_norm(a, floor: float = 0.0, extra=0.0) -> float:
    """``max(floor, float(np.hypot(op_norm(a), extra).max()))``, from as few
    SVDs as the Frobenius norms allow.

    ``a`` is a (k, n, m) stack, n >= m or not; with the defaults this is
    ``float(op_norm(a).max())`` (hypot(x, 0) = x exactly), and 0.0 for an
    empty or all-zero stack.  The whole stack is checked for non-finite
    entries first.  Then the matrices are visited in decreasing
    hypot(||A_k||_F, extra_k), one SVD each through :func:`op_norm`, until
    the running maximum reaches the next such bound times the margin
    1 + c eps, c = 8 max(n, m) (module docstring): no skipped matrix can
    hold the maximum.
    """
    m = _as_stack(a)
    extra = np.zeros(len(m)) + extra
    bounds = np.hypot(np.linalg.norm(m, axis=(-2, -1)), extra) * _margin(max(m.shape[1:]))
    best = floor
    for k in np.argsort(-bounds, kind="stable"):
        if best >= bounds[k]:
            break
        best = max(best, float(np.hypot(op_norm(m[k]), extra[k])))
    return best


def _components(adjacency: np.ndarray) -> np.ndarray:
    """Label each index of a boolean n x n adjacency with the least index of
    its connected component, the edges taken both ways, from the transitive
    closure of the reflexive adjacency (boolean squaring until it is stable)."""
    reach = adjacency | adjacency.T
    np.fill_diagonal(reach, True)
    while not np.array_equal(reach, closure := reach @ reach):
        reach = closure
    return reach.argmax(axis=1)


def _spectral_norms(a, sectors=None) -> np.ndarray:
    """Spectral norm of each real n x n matrix of a stack, from its Gram
    matrix, within a few n eps of :func:`op_norm`'s.

    Each X is scaled exactly to X' = 2^-e X, e from ``np.frexp`` of
    max |X_ij|, so that G = X' X'^T neither underflows nor overflows.
    ``sectors`` labels the n indices (None: all one sector).  Where no G of
    the stack has an entry between two sectors, every G is block diagonal
    up to a permutation, and lambda_max(G) is the largest lambda_max of its
    sector blocks, each taken on its own; an entry that couples two sectors
    makes the whole stack one sector.  As ||G||_F^2 / tr G <= lambda_max(G)
    <= tr G, wherever (tr G)^2 <= (1 + c eps) ||G||_F^2, c = 8 m for a
    sector of m indices (the module docstring's margin), lambda_max is
    taken as tr G: on a rank-one X it is exactly that, and tr G
    overestimates it by a factor of at most 1 + c eps.  The other matrices
    get one ``np.linalg.eigvalsh`` call per sector.  Returns
    2^e sqrt(lambda_max); an all-zero matrix gives 0.0.  ``a`` is never
    written to.  Beside its argument it holds the stacked G, X' a quarter
    of a :func:`_chunk_points` chunk at a time while G is formed, copies of
    the sectors' blocks when there are several (together less than G), and
    a copy of the blocks that take the eigensolve when they are not all.
    """
    m = _as_stack(a)
    if np.iscomplexobj(m):
        raise ValueError("_spectral_norms takes a real stack")
    _require_square(m, "_spectral_norms")
    n = m.shape[-1]
    if sectors is not None and np.shape(sectors) != (n,):
        raise ValueError(f"sectors must label the {n} indices, got shape {np.shape(sectors)}")
    flat = m.reshape(-1, n, n)
    e = np.frexp(np.maximum(flat.max(axis=(-2, -1)), -flat.min(axis=(-2, -1))))[1]
    g = np.empty_like(flat)
    step = max(1, _chunk_points(n) // 4)
    for start in range(0, len(flat), step):
        part = slice(start, start + step)
        x = np.ldexp(flat[part], -e[part, None, None])
        np.matmul(x, np.swapaxes(x, -1, -2), out=g[part])
    parts = [None]
    if sectors is not None:
        labels = np.asarray(sectors)
        found = np.unique(labels)
        if len(found) > 1 and not (g.any(axis=0) & (labels[:, None] != labels)).any():
            parts = [np.flatnonzero(labels == sector) for sector in found]
    lam = 0.0
    for idx in parts:
        block = g if idx is None else g[:, idx[:, None], idx]
        top = np.trace(block, axis1=-2, axis2=-1)
        rest = top * top > _margin(block.shape[-1]) * np.einsum("...ij,...ij->...", block, block)
        if rest.all():
            top = np.linalg.eigvalsh(block)[:, -1]
        elif rest.any():
            top[rest] = np.linalg.eigvalsh(block[rest])[:, -1]
        lam = np.maximum(top, lam)
    return np.ldexp(np.sqrt(lam), e).reshape(m.shape[:-2])


def supported_norm(x, basis) -> float | np.ndarray:
    """Spectral norm of X from its part on the orthonormal columns of ``basis``.

    With V = ``basis`` (n x r) returns sqrt(||X V||_2^2 + ||X - X V V^H||_F^2).
    The two terms of X = X V V^H + X (1 - V V^H) have orthogonal row spaces,
    so this is an upper bound of ||X||_2, equal to it when X = X V V^H.  For
    X = X P, with V spanning range(P^H), it costs an SVD of the n x r matrix
    X V in place of one of X; the left-sided twin, for X = P X, is the same
    bound on X^T with the conjugate of a basis of range(P).  Like
    :func:`op_norm` it takes a stack of X with a stack of bases: an array,
    or a sequence of n x r_k bases of different widths, which it pads with
    zero columns to the widest (zero columns change nothing).
    """
    m = _as_stack(x)
    if isinstance(basis, np.ndarray):
        v = basis.astype(np.complex128, copy=False)
    else:
        v = np.zeros((len(basis), m.shape[-2], max(b.shape[1] for b in basis)), np.complex128)
        for k, b in enumerate(basis):
            v[k, :, : b.shape[1]] = b
    xv = m @ v
    off = np.linalg.norm(m - xv @ np.swapaxes(v, -1, -2).conj(), axis=(-2, -1))
    norms = np.hypot(_tall_norm(xv), off)
    return float(norms) if m.ndim == 2 else norms


def _tall_norm(a: np.ndarray) -> np.ndarray:
    """Spectral norm of each n x k matrix of a stack: a vector norm at k = 1,
    the same alone and in any stack."""
    if a.shape[-1] == 1:
        return _frobenius(a)
    return np.linalg.svd(a, compute_uv=False).max(axis=-1, initial=0.0)


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of a C-ordered matrix, or of each matrix of a stack,
    bit for bit the 2-d ``np.linalg.norm``: the square root of the dot
    products of the real and imaginary parts with themselves, each taken as
    a row times a column (``np.linalg.norm`` with ``axis`` sums in another
    order).  So a matrix gets the same norm alone and in any stack."""
    rows = a.reshape(a.shape[:-2] + (1, -1))
    parts = (rows.real, rows.imag) if np.iscomplexobj(a) else (rows,)
    return np.sqrt(sum(x @ np.swapaxes(x, -1, -2) for x in parts)[..., 0, 0])


def expm(a, times=None) -> np.ndarray:
    """Matrix exponential e^A, or the stack of e^{tA} over a grid of times.

    With ``times`` None returns e^A, bit for bit ``expm(a, [1.0])[0]``; with
    a 1-d grid of k finite times, the (k, n, n) stack of e^{tA}; ``float64``
    for real A and ``complex128`` otherwise.  Scaling and squaring with the
    degree-13 Pade approximant (Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31, 970-989, 2009), by homogeneity in t: with
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
    s + ell times.  A time t whose half is also on the grid, with
    steps(t) = steps(t/2) + 1, has the same x as t/2: it is taken as the
    square of e^{(t/2)A}, the same arithmetic its own solve and squarings
    would do, so every point of any grid (unsorted, negative, repeated or
    zero times included) equals ``expm(a, [t])[0]`` bit for bit.  On an
    octave-aligned grid such as ``bench.default_time_grid()`` all but the
    first octave or so are squarings.  Overflow raises
    :class:`NonFiniteError`, without numpy warnings.
    """
    m = _as_matrix(a)
    _require_square(m, "expm")
    grid = np.ones(1) if times is None else np.asarray(times, dtype=np.float64)
    if grid.ndim != 1:
        raise ValueError(f"expm takes a 1-d grid of times, got shape {grid.shape}")
    _ensure_finite(grid, "times")
    if m.size == 0 or grid.size == 0:
        out = np.zeros((grid.size,) + m.shape, dtype=m.dtype)
    else:
        out = _GridExpm(m)(grid)
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


class _GridExpm:
    """e^{tA} of one finite nonempty float64 or complex128 A over a time grid,
    taken in one call or in consecutive chunks, in A's dtype.

    The norms that choose each time's squarings are taken once, at
    construction.  A's scaled powers serve the first call that needs a Pade
    solve; a later one forms them again, so a generator that chains keeps no
    14 n x n stack between calls.  A call gives each time its own solve,
    unless half that time is on the grid (in this call or kept from an
    earlier one) with one squaring fewer: then both have the same scaled
    argument, and the point is its parent's propagator squared, bit for bit.
    Each generation of such points is squared as one batched product.  After
    each call the kernel keeps the points from half that call's largest time
    on as parents: on a sorted grid walked in chunks, every parent the next
    chunk can use (an octave and one point of the default grid).  Overflow
    raises :class:`NonFiniteError`, without numpy warnings.
    """

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def __init__(self, a: np.ndarray):
        self._a = a
        self._norm, self._e = np.frexp(_norm1(a))
        powers = self._powers()
        self._power_norms = _norm1(powers)
        d6, d8, d10 = self._power_norms[[6, 8, 10]] ** (1 / np.array([6, 8, 10]))
        self._eta = min(max(d6, d8), max(d8, d10))
        v, abs_a = np.ones(a.shape[0]), np.abs(powers[1])
        for _ in range(27):
            v = v @ abs_a
        self._v = v.max()
        self._f = np.frexp(self._power_norms)[1]
        self._first_powers = powers
        self._kept = (np.empty(0), self._stack(0))

    def _stack(self, k: int) -> np.ndarray:
        return np.empty((k,) + self._a.shape, dtype=self._a.dtype)

    def _powers(self) -> np.ndarray:
        """B^0..B^13 of B = 2^-e A, ||B||_1 in [1/2, 1)."""
        powers = self._stack(14)
        powers[0] = np.eye(self._a.shape[0])
        # ldexp on the float64 view (both parts of a complex A), as 2^-e
        # overflows for a subnormal A
        powers[1] = self._a
        scaled = powers[1].view(np.float64)
        np.ldexp(scaled, -self._e, out=scaled)
        for k, (i, j) in enumerate(_POWER_FACTORS, start=2):
            np.matmul(powers[i], powers[j], out=powers[k])
        return powers

    @np.errstate(divide="ignore", invalid="ignore")
    def _steps(self, t: np.ndarray) -> np.ndarray:
        """Squarings s + ell of each time."""
        log2_t = np.log2(np.abs(t)) + self._e
        s = np.fmax(np.ceil(log2_t + np.log2(self._eta / _THETA13)), 0.0)
        log2_alpha = 26 * (log2_t - s) + np.log2(self._v) - np.log2(self._norm) - _LOG2_PADE13_ERR_RECIP
        return (s + np.fmax(np.ceil((log2_alpha + 53) / 26), 0.0)).astype(np.int64)

    def _pade(self, t: np.ndarray, steps: np.ndarray) -> np.ndarray:
        """Each time's approximant at x = 2^(e-steps) t, squared ``steps``
        times, for ``steps`` in ascending order."""
        if not len(t):
            return self._stack(0)
        # b_j x^j B^j = (b_j m^j 2^(j q + f_j)) (2^-f_j B^j), x = m 2^q, ||2^-f_j B^j||_1 in [1/2, 1)
        m, q = np.frexp(np.ldexp(t, self._e - steps))
        coef = np.ldexp(_PADE13 * m[:, None] ** _DEGREES, q[:, None] * _DEGREES + self._f)
        coef = np.where(self._power_norms > 0, coef, 0.0)
        if not np.isfinite(np.abs(coef).sum()):
            raise NonFiniteError("expm: the Pade terms overflow")
        powers = self._powers() if self._first_powers is None else self._first_powers
        self._first_powers = None
        # a (2 x 14) product per time, not one gemm over all times, whose rows
        # BLAS rounds unlike a lone row: no time may depend on the others
        sums = (coef[:, None, :] * _SIGNS) @ np.ldexp(
            powers.reshape(14, -1).view(np.float64), -self._f[:, None]
        )
        del powers
        sums = sums.view(self._a.dtype).reshape((len(t), 2) + self._a.shape)
        r = np.linalg.solve(sums[:, 1], sums[:, 0])
        del sums
        # squaring j acts on the suffix with steps > j
        for j in range(int(steps[-1])):
            tail = r[np.searchsorted(steps, j, side="right"):]
            tail[...] = tail @ tail
        return r

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def __call__(self, t: np.ndarray) -> np.ndarray:
        kept_t, kept = self._kept
        k = len(kept_t)
        # the kept parents and this call's points in one buffer, so that a
        # parent is an index into it
        pool_t = np.concatenate((kept_t, t))
        steps = self._steps(pool_t)
        # the parent of a point: the one at exactly half its time, with one
        # squaring fewer; x = 2^(e-steps) t is then the same
        by_time = np.argsort(pool_t, kind="stable")
        half = 0.5 * pool_t
        parent = by_time[np.minimum(np.searchsorted(pool_t[by_time], half), len(pool_t) - 1)]
        chained = (pool_t[parent] == half) & (2.0 * half == pool_t) & (steps[parent] == steps - 1)
        chained[:k] = False
        own = np.flatnonzero(~chained)[k:]
        own = own[np.argsort(steps[own], kind="stable")]
        pade = self._pade(pool_t[own], steps[own])
        # allocated after the solve, which holds three stacks of its own
        out = self._stack(len(pool_t))
        out[:k] = kept
        out[own] = pade
        del pade
        done = ~chained
        todo = np.flatnonzero(chained)
        while todo.size:
            ready = done[parent[todo]]
            gen, todo = todo[ready], todo[~ready]
            base = out[parent[gen]]
            out[gen] = base @ base
            done[gen] = True
        _ensure_finite(out[k:], "expm result")
        keep = pool_t >= 0.5 * t.max()
        self._kept = (pool_t[keep], out[keep])
        return out[k:]


# Working-set budget of the kernel, in bytes of one stacked (points, n, n)
# float64 array: a caller that walks a grid in chunks (bench._distance_table)
# passes _chunk_points(n) times per call.  A call holds at most about three
# such stacks at once, V + U, V - U and the solution of its Pade solves, and
# allocates its propagators after the solve (A's powers are kept only until
# the first solve); a caller comparing generators holds the true propagators
# beside a target's.  A call whose points all chain solves nothing and holds
# its propagators and one generation's squaring operands; the propagators
# it returns share one buffer with the kept points it started from.  Between
# calls the kernel keeps the points from half the last call's largest time
# on: 16 points of the default grid (80 KB per generator at n = 25, 1.3 MB at
# n = 100).  So a fixed point count makes the working set grow like n^2.  On
# the `paper` workload (Lambda, n = 25; 2-vCPU VM, BLAS on one thread)
# complex chunks of 64 points raised peak RSS from 71.7 to 77.2 MB, and
# 256 KiB per stack (26 complex points) by under 1.2 MB; the same 256 KiB
# holds 52 real points.
# At n = 64 one 401-point stack ran 1.5 times as long as 4-point chunks
# (cache).  Small n gains from long stacks: at n = 4, 64-point chunks took
# 1.2-1.6 times as long as one call for the whole grid, and n <= 9 takes the
# 401-point default grid in one call.
_CHUNK_BYTES = 256 * 1024


def _chunk_points(n: int) -> int:
    """Time points per kernel call for n x n float64 generators."""
    return max(1, _CHUNK_BYTES // (8 * n * n))


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
