"""Solvers for the adiabatic Bloch equations and their perturbative series.

For each eigenspace of the strong generator (projection P, nilpotent N of
index n, reduced resolvent S) and weak perturbation C, the central objects
are the solutions of the quadratic matrix equation

    (1/g) S X^2 - (1 + (1/g) C S) X + S X N + C P = 0,    X (1 - P) = 0,

for the generator amplitude ``omega`` (the block generator is D = P omega),
and of the equivalent wave-operator equation

    U - S U N + (1/g) S (C U - U C U) - P = 0,            U (1 - P) = 0,

related by U = P - S omega / g.  The order-reversed (conjugate) equations
for ``omega_conj`` and ``wave_conj`` are these same equations for the
transposed generator: B^T has spectral data P^T, N^T, S^T with the same
eigenvalue, so omega_conj(B, C) = omega(B^T, C^T)^T.  They are solved, and
expanded, as the primal equations on transposed block data.  So each block
has two sides, each certified once on its primal data: (block, C, X, U)
and, order-reversed, (transposed block, C^T, omega_conj^T, wave_conj^T).
A side's checks (the supports X (1 - P) and U (1 - P), the equation
residuals and the deformation U - P) vanish off range(P^H) of that side's
own block, and ``BlochSolution.residuals`` keys them
``<equation><side>_<kind>``: ``wave_conj_support`` is the wave support of
the order-reversed side.

:func:`solve_equation` is the one entry point for all four equations
(``which`` names the equation); :func:`solve_block` solves the two omega
equations of a block against one shared certificate and derives both wave
operators from them.  :func:`solve_blocks` iterates both sides of every
solved block of one rank and index as one stack (:func:`_solve`): the
iterates, residuals, their norms, the derivatives and the ball radii are
stacks, each pair keeps its own stop, stall, divergence and ball rules,
history and iteration count, and each Newton step is the pair's own column
solve.  The final residuals, the wave operators and the side checks are
then taken once per stack.  :func:`solve_block` is that stack for one block
and :func:`solve_equation` for one pair, and each pair gets the arithmetic
it gets alone, so its result does not depend on its stack.  Every equation
is solved by Newton iteration, whose convergence is certified by computable
Newton-Kantorovich constants (:func:`kantorovich_report`); a Newton step is
rank(P) linear solves of size n (a Sylvester sweep).  Every iterate X
vanishes on range(1 - P), so with P = Q W (r = rank P) the iteration
carries the n x r factor Y = X Q, with X = Y W formed once at the end:
residuals, corrections, ball radii and residual norms are n x r matrices
and their norms, and no step multiplies
two n x n matrices.  The perturbative series of omega is carried on the
same factors, Y^(j) = omega^(j) Q (:func:`_omega_series`), each term a
bracket of an n x r matrix (:func:`_bracket`), and Newton starts at its
first term Y^(0).  Dense coefficients are formed only where the public
series functions return them; the symmetrized (Schrieffer-Wolff) series
takes the factors of both sides as they are.  The closed
forms are written once too: the left-sided bracket sum N^m A S^m is the
bracket :func:`bracket` on the transposed block, so the symmetrized closed
form K^(j) is the one-sided D^(j) averaged over the two sides (plus a
nilpotent term at third order).

A block of conj(b) that the decomposition stores as the F conj(.) F image
of the block of b (``SpectralDecomposition.images``, see :mod:`spectral`)
has the image equations when C preserves Hermiticity too, and the certified
solution is unique.  :func:`solve_blocks` then solves only the first member
of each such orbit and maps omega, omega_conj, both wave operators and the
Kantorovich report to the second (:meth:`BlochSolution.image`), which
records ``mapped_from`` and zero iterations; its four equation residuals are
evaluated anew, as C preserves Hermiticity only to rounding.  For a C that
fails the test, every block is solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla

from . import matcore
from .errors import AdiablochError, BranchEscapeError, ConvergenceError, PreconditionError
from .liouville import _hp_image_of, _preserves_hermiticity
from .matcore import _require_integer, _require_positive
from .spectral import EigenspaceData, SpectralDecomposition, _as_matrix

DEFAULT_TOL = 1e-12
# Iterations in a row that may pass without a new smallest residual before
# the iteration is declared stalled.  Inside a certified ball Newton lowers
# the residual at every step: no benchmark solve and no certified test solve
# went one step without a new minimum.  A residual at its rounding floor
# (below a too small ``tol``) only repeats its minimum, and Newton far below
# the coupling threshold wanders (Lambda at gamma = 0.1, threshold 20: up to
# 16 steps, landing on a branch the CLI rejects).  Four leaves room for brief
# transient growth and stops such runs within a few iterations of their best.
_STALL_STEPS = 4


def bracket(block: EigenspaceData, a) -> np.ndarray:
    """Nilpotent-weighted bracket sum_{m < n} S^m A N^m of an operator on one
    eigenspace; with no nilpotent (n = 1) this is the identity map.

    The left-sided bracket is this one on the transposed block:
    sum_{m < n} N^m A S^m = (sum_{m < n} (S^T)^m A^T (N^T)^m)^T, that is
    ``bracket(block.transposed(), A.T).T``.  It is :func:`_bracket` with
    nil = N, on a copy of A.
    """
    return _bracket(block, _as_matrix(a, len(block.projection), "a").copy(), block.nilpotent)


def _bracket(block: EigenspaceData, y: np.ndarray, nil: np.ndarray) -> np.ndarray:
    """sum_{m < n} S^m Y nil^m, each term the last one as S (.) nil.

    With nil = N this is the bracket of Y.  For A = A P (P = Q W) it also
    gives the n x r factor of the bracket: bracket(A) Q is this sum with
    Y = A Q and nil = W N Q, since N^m Q = Q (W N Q)^m.
    """
    out, term = y, y
    for _m in range(1, block.index):
        term = block.resolvent @ term @ nil
        out = out + term
    return out


@dataclass(frozen=True)
class KantorovichReport:
    """Computable constants certifying solvability of the wave equation.

    ``solvable`` means h <= 1/2, equivalently gamma >= gamma_min; the
    solution then exists within ||X - P|| <= theta and is unique within
    ||X - P|| < xi, with quadratic Newton convergence when h < 1/2.
    """

    ell: int
    mu: float
    beta: float
    nu: float
    lipschitz: float
    h: float
    theta: float
    xi: float
    gamma_min: float
    solvable: bool
    quadratic: bool


def _threshold_constants(block: EigenspaceData, c_norm: float) -> tuple:
    """mu = sum_{m < n} (||S|| ||N||)^m and ||S|| ||C|| ||P|| of one
    eigenspace, in the spectral norm.

    ||C|| is passed in, so a caller looping over blocks takes it once, and
    ||P|| comes from the singular values stored with the block.  At index 1
    mu = 1 whatever ||N|| is, so ||N|| is taken only above it; N = N P, so
    its spectral norm is the supported norm on Z.
    """
    s_norm = matcore.op_norm(block.resolvent, "spectral")
    if block.index <= 1:
        sn = 0.0
    else:
        sn = s_norm * matcore.supported_norm(block.nilpotent, block.factors.z)
    mu = float(block.index) if abs(1.0 - sn) < 1e-12 else (1.0 - sn**block.index) / (1.0 - sn)
    scp = s_norm * c_norm * block.factors.norm()
    return mu, scp


def _gamma_min(block: EigenspaceData, c_norm: float) -> float:
    mu, scp = _threshold_constants(block, c_norm)
    return 4.0 * mu * scp


def block_gamma_min(block: EigenspaceData, c) -> float:
    """Coupling threshold 4 mu ||S|| ||C|| ||P|| of one eigenspace, in the
    spectral norm."""
    c_norm = matcore.op_norm(_as_matrix(c, len(block.projection), "c"), "spectral")
    return _gamma_min(block, c_norm)


def _require_block(dec: SpectralDecomposition, ell) -> None:
    if not (matcore._is_integer(ell) and 0 <= ell < len(dec.blocks)):
        raise ValueError(f"ell must be in range({len(dec.blocks)}), got {ell!r}")


def _series_block(dec: SpectralDecomposition, ell, order) -> EigenspaceData:
    """Block ``ell`` of a series request, once ``ell`` and ``order`` are checked."""
    _require_block(dec, ell)
    _require_integer("order", order, 0)
    return dec.blocks[ell]


def kantorovich_report(
    dec: SpectralDecomposition, c, gamma: float, ell: int
) -> KantorovichReport:
    """Newton-Kantorovich constants of block ``ell`` at coupling ``gamma``,
    in the spectral norm that measures the Newton ball.

    ``gamma`` must be positive and finite and ``ell`` a block index;
    anything else raises ``ValueError`` before any work.
    """
    _require_positive(gamma=gamma)
    _require_block(dec, ell)
    cm = _as_matrix(c, dec.dim, "c")
    return _kantorovich(dec.blocks[ell], matcore.op_norm(cm, "spectral"), gamma, ell)


def _kantorovich(
    block: EigenspaceData, c_norm: float, gamma: float, ell: int
) -> KantorovichReport:
    mu, scp = _threshold_constants(block, c_norm)
    gamma_min = 4.0 * mu * scp
    lipschitz = 2.0 * scp / gamma

    a = 2.0 * mu * scp / gamma
    if a >= 1.0:
        # beta undefined: derivative-inverse bound diverges
        return KantorovichReport(
            ell, mu, math.inf, math.inf, lipschitz, math.inf,
            math.nan, math.nan, gamma_min, False, False,
        )
    beta = mu / (1.0 - a)
    nu = (mu * scp / gamma) / (1.0 - a)
    h = beta * lipschitz * nu
    solvable = h <= 0.5
    quadratic = h < 0.5
    if solvable:
        root = math.sqrt(max(0.0, 1.0 - gamma_min / gamma))
        theta = (1.0 - root) / (1.0 + root)
        xi = math.inf if theta == 0.0 else 1.0 / theta
    else:
        theta = math.nan
        xi = math.nan
    return KantorovichReport(
        ell, mu, beta, nu, lipschitz, h, theta, xi,
        gamma_min, solvable, quadratic,
    )


# ---------------------------------------------------------------------------
# the two quadratic equations: residuals and Frechet derivatives


def omega_residual(blk, c, gamma, x):
    s, nil, p = blk.resolvent, blk.nilpotent, blk.projection
    sx = s @ x
    r = (sx @ x - c @ sx) / gamma - x + c @ p
    return r + sx @ nil if nil.any() else r


def wave_residual(blk, c, gamma, x):
    s, nil, p = blk.resolvent, blk.nilpotent, blk.projection
    cx = c @ x
    r = x + (s @ (cx - x @ cx)) / gamma - p
    return r - s @ x @ nil if nil.any() else r


def _omega_factored(blk, c, gamma):
    """The omega equation on Y = X Q: residual R Q, derivative (A, M), start
    X_0 Q and the n x r factor of U - P (the ball's deformation).

    With n = W N Q, R Q = S Y (W Y)/g - Y - (C S) Y/g + S Y n + C Q; the
    derivative delta -> A delta + S delta F has A = (S Y W - C S)/g - 1 and
    M = W F Q = (W Y)/g + n.  C S, C Q and n are formed once per solve.  The
    start is the first term of the series, Y^(0) = X_0 Q (:func:`_omega_series`).
    On a stacked block (:func:`_stacked`) each of these is the stack of the
    pairs' own, by broadcasting.
    """
    s, q, w = blk.resolvent, blk.factors.q, blk.factors.w
    cs, cq, nil = c @ s, c @ q, w @ blk.nilpotent @ q
    eye = np.eye(s.shape[-1])

    def residual(y):
        sy = s @ y
        return (sy @ (w @ y) - cs @ y) / gamma - y + sy @ nil + cq

    def derivative(y):
        return ((s @ y) @ w - cs) / gamma - eye, (w @ y) / gamma + nil

    return residual, derivative, _omega_series(blk, c, 0)[0], lambda y: (s @ y) / gamma


def _wave_factored(blk, c, gamma):
    """The wave equation on Y = U Q, as :func:`_omega_factored`.

    R Q = Y - S Y n + ((S C) Y - S Y (W C Y))/g - Q, A = 1 + (S C - S Y (W C))/g
    and M = -(n + (W C) Y/g); the iteration starts at U_0 Q = Q.
    """
    s, q, w = blk.resolvent, blk.factors.q, blk.factors.w
    sc, wc, nil = s @ c, w @ c, w @ blk.nilpotent @ q
    eye = np.eye(s.shape[-1])

    def residual(y):
        sy = s @ y
        return y - sy @ nil + (sc @ y - sy @ (wc @ y)) / gamma - q

    def derivative(y):
        return eye + (sc - (s @ y) @ wc) / gamma, -(nil + (wc @ y) / gamma)

    return residual, derivative, q, lambda y: y - q


# dense residual R (for the reported residual of the returned X) and the
# factored system on Y = X Q
_EQUATIONS = {
    "omega": (omega_residual, _omega_factored),
    "wave": (wave_residual, _wave_factored),
}
# order-reversed equation -> the primal equation it becomes on transposed data
_CONJUGATES = {"omega_conj": "omega", "wave_conj": "wave"}
# the two sides of a block: the primal equations, and the order-reversed ones
# solved and checked as the primal ones on transposed data
_SIDES = ("", "_conj")
# BlochSolution.residuals, keyed <equation><side>_<kind>, in this order
_RESIDUAL_KEYS = tuple(
    f"{equation}{side}_{kind}"
    for equation, kinds in (("omega", "eq support"), ("wave", "eq support"), ("wave", "deformation"))
    for side in _SIDES for kind in kinds.split()
)
# Working-set budget, in bytes, of one (pairs, n, n) complex stack of
# solve_blocks: a stack holds at most _STACK_BYTES // (32 n^2) blocks, both
# sides of each, and its iteration and checks hold up to about seventeen
# such arrays at once.  Over the benchmark's six random models (n <= 25;
# 2-vCPU VM, BLAS on one thread) 128 KiB to 512 KiB took the same time,
# 64 KiB a tenth more and 32 KiB a third more, while the largest
# tracemalloc peak of solve_blocks went 6.4, 2.8 and 2.0 MB at 512, 128 and
# 64 KiB (1.35 MB block by block), against 3.2 MB for the decomposition.
# A stack is six blocks at n = 25 and one from n = 46 on.
_STACK_BYTES = 128 * 1024


def _factor_norm(y, wz, w_off) -> np.ndarray:
    """``matcore.supported_norm(Y W, Z)`` of each pair of a stack, from its
    n x r factor Y.

    With W Z and W - W Z Z^H given, this is hypot(||Y (W Z)||_2,
    ||Y (W - W Z Z^H)||_F): products of Y with r x r and r x n matrices,
    and no n x n SVD.  Each value is the one the pair gives alone, bit for
    bit (:func:`matcore._tall_norm` and :func:`matcore._frobenius`, and
    ``math.hypot`` per pair).
    """
    yz = y @ wz
    tall = matcore._tall_norm(yz).ravel()
    off = matcore._frobenius(y @ w_off).ravel()
    return np.reshape(list(map(math.hypot, tall.tolist(), off.tolist())), y.shape[:-2])


def solve_equation(
    dec: SpectralDecomposition,
    c,
    gamma: float,
    ell: int,
    which: str,
    tol: float = DEFAULT_TOL,
    max_iter: int = 200,
    report: KantorovichReport | None = None,
):
    """Solve one of the block equations by Newton iteration; returns
    (solution, info dict).

    ``which`` is ``omega``, ``wave`` or one of their order-reversed
    conjugates ``omega_conj``, ``wave_conj``.  An order-reversed equation
    is the primal one for the transposed generator, so it is solved as the
    primal equation on the transposed block data and C^T, and the solution
    is transposed back.  The Kantorovich report and the uniqueness ball use
    unitarily invariant norms, which transposition leaves unchanged.  The
    solve is the stacked iteration of :func:`solve_blocks` on one pair, so a
    pair gets here the result and iteration count it gets in any stack.

    Every iterate X, its residual R and every correction vanish on
    range(1 - P), as P and N do.  With P = Q W (r = rank P, W Q = 1_r; Q, W
    and the basis Z of range(P^H) are the factors stored on the block,
    ``blk.factors``) the iteration carries the n x r factor Y = X Q, with
    X = Y W, and the residual G = R Q; each term of G is an n x n by n x r
    product.  Each step solves the exact derivative system delta -> A delta
    + S delta F = -R, with F = X/g + N for omega and F = -(N + C X/g) for
    wave, as A dY + S dY M = -G with M = W F Q and delta = dY W.  In the
    Schur basis of M = V T V^H this Sylvester equation is r n x n column
    solves with A + T_jj S (Bartels-Stewart).  The residual norm and the
    ball radius ||U - P|| are :func:`matcore.supported_norm` values of G W
    and of an n x r factor times W, taken from the factors alone: upper
    bounds of the spectral norms, equal to them on such matrices.  X = Y W
    is formed once, at the end, and the reported ``residual`` is the
    supported norm of the dense residual of that returned matrix; when that
    one is above ``tol`` (a ``tol`` below its rounding floor) a stalled
    :class:`ConvergenceError` is raised instead.  The iteration aborts with
    :class:`BranchEscapeError` if an iterate leaves the certified uniqueness
    ball (when one exists), so the returned solution is always the branch
    selected by the perturbative initial guess.

    ``gamma`` and ``tol`` must be positive and finite, ``max_iter`` a
    positive integer and ``ell`` a block index; like an unknown ``which``
    anything else raises ``ValueError`` before any iteration.
    """
    if which not in _EQUATIONS and which not in _CONJUGATES:
        raise ValueError(
            f"unknown equation {which!r}; expected one of "
            f"{sorted(_EQUATIONS) + sorted(_CONJUGATES)}"
        )
    _require_positive(gamma=gamma, tol=tol)
    _require_integer("max_iter", max_iter, 1)
    _require_block(dec, ell)
    cm = _as_matrix(c, dec.dim, "c")
    if report is None:
        report = kantorovich_report(dec, cm, gamma, ell)
    conj = which in _CONJUGATES
    grid = [(dec.blocks[ell].transposed() if conj else dec.blocks[ell],)]
    x, ((outcome,),) = _solve(grid, _stacked(grid), np.array([cm.T if conj else cm]), (which,),
                              gamma, tol, [ell], [report], max_iter)
    if isinstance(outcome, AdiablochError):
        raise outcome
    return (x[0, 0].T if conj else x[0, 0]), outcome


def _stacked(grid) -> EigenspaceData:
    """An (m, s) grid of blocks of one rank and index as one block whose
    arrays, and its factors', are stacks with the leading axes (m, s): the
    block functions of this module act on it pair by pair, by broadcasting,
    each pair with the arithmetic it gets alone."""

    def stack(rows) -> dict:
        names = [name for name, x in vars(rows[0][0]).items() if isinstance(x, np.ndarray)]
        return {name: np.array([[vars(o)[name] for o in row] for row in rows]) for name in names}

    factors = replace(grid[0][0].factors, **stack([[b.factors for b in row] for row in grid]))
    return replace(grid[0][0], factors=factors, **stack(grid))


def _solve(grid, blk, cms, names, gamma, tol, ells, reports, max_iter=200):
    """:func:`solve_equation`'s iteration on an (m, s) grid of pairs at once.

    Row i of ``grid`` holds s sides of block ``ells[i]``, whose report is
    ``reports[i]``; side j is equation ``names[j]`` on the data of its
    primal equation (an order-reversed side on the transposed block, with
    ``cms[j]`` = C^T), and the grid shares one primal equation, rank and
    index.  ``blk`` is the grid stacked (:func:`_stacked`): the iterates,
    residuals, their norms, the derivatives and the ball radii are stacks
    over the grid.  Each pair keeps its own stop, stall, divergence and
    ball rules, history and iteration count; a pair that stops leaves the
    steps, and each Newton step is the pair's own column solve
    (:func:`_range_step`).  Returns X (m, s, n, n), not yet transposed back,
    and each pair's outcome: its info dict, the error its iteration ended
    in, or None when a failed pair before it (in block and side order)
    ended the iteration first.
    """
    residual_fn, factored = _EQUATIONS[_CONJUGATES.get(names[0], names[0])]
    residual, derivative, start, deformation = factored(blk, cms, gamma)
    w, z = blk.factors.w, blk.factors.z
    wz = w @ z
    w_off = w - wz @ np.swapaxes(z, -1, -2).conj()
    xi = np.array([[rep.xi if rep.solvable else math.inf] for rep in reports])
    y, history, outcomes = start.copy(), [], {}
    active = np.ones(y.shape[:-2], dtype=bool)
    stopped = np.full(active.shape, -1)  # the iteration a converged pair stopped at

    def fail(i, j, error):
        # the pair restarts, so that the stack it stays in remains finite
        outcomes[i, j], active[i, j], y[i, j] = error, False, start[i, j]

    for it in range(max_iter):
        g = residual(y)
        res = _factor_norm(g, wz, w_off)
        history.append(res)
        hist = np.array(history)
        done = active & (res <= tol)
        stopped[done], active[done] = it, False
        diverged = active & (~np.isfinite(res) | (res > 1e6 * (1.0 + hist[0])))
        stalled = active & (it - np.argmin(hist, axis=0) >= _STALL_STEPS)
        for i, j in zip(*np.nonzero(diverged | stalled)):
            h = hist[:, i, j]
            fail(i, j, ConvergenceError(
                f"{names[j]} newton iteration diverged on block {ells[i]} "
                f"(residual {res[i, j]:.3e})" if diverged[i, j] else
                f"{names[j]} newton iteration stalled on block {ells[i]}: no residual "
                f"below {h.min():.3e} in the last {_STALL_STEPS} iterations (tol {tol:.1e})",
                residual=float(res[i, j]), iterations=it, history=h.tolist(),
            ))
        # stop once a failed pair precedes every active one: its error is raised
        pending = np.argwhere(active)
        if not len(pending) or outcomes and min(outcomes) < tuple(pending[0]):
            break
        a, m = derivative(y)
        for i, j in zip(*np.nonzero(active)):
            try:
                y[i, j] = y[i, j] + _range_step(grid[i][j], a[i, j], m[i, j], g[i, j])
            except AdiablochError as error:
                fail(i, j, error)
        escaped = active & np.isfinite(xi) & (_factor_norm(deformation(y), wz, w_off) >= xi)
        for i, j in zip(*np.nonzero(escaped)):
            fail(i, j, BranchEscapeError(
                f"{names[j]} iterate on block {ells[i]} left the uniqueness ball "
                f"(radius {xi[i, 0]:.3e}); target branch lost"
            ))
    else:
        for i, j in zip(*np.nonzero(active)):
            h = hist[:, i, j]
            outcomes[i, j] = ConvergenceError(
                f"{names[j]} newton iteration did not reach tol {tol:.1e} on block "
                f"{ells[i]} after {max_iter} iterations (residual {h[-1]:.3e})",
                residual=float(h[-1]), iterations=max_iter, history=h.tolist(),
            )
    x = y @ w
    final = matcore.supported_norm(residual_fn(blk, cms, gamma, x), z)
    for i, j in zip(*np.nonzero(stopped >= 0)):
        it, h = int(stopped[i, j]), hist[: stopped[i, j] + 1, i, j].tolist()
        outcomes[i, j] = ConvergenceError(
            f"{names[j]} newton iteration stalled on block {ells[i]}: the "
            f"factored residual {h[-1]:.3e} is below tol {tol:.1e}, but the "
            f"returned matrix's is at its rounding floor {final[i, j]:.3e}",
            residual=float(final[i, j]), iterations=it, history=h,
        ) if final[i, j] > tol else {"iterations": it, "residual": float(final[i, j]), "history": h,
                                     "certified": reports[i].solvable}
    return x, [[outcomes.get((i, j)) for j in range(len(names))] for i in range(len(ells))]


def _range_step(blk, a, m, g):
    """Newton correction dY of the factor Y = X Q: A dY + S dY M = -G.

    With M = V T V^H (complex Schur), dY' = dY V solves A dY' + S dY' T =
    -G V, whose column j is the n x n system (A + T_jj S) y'_j = g'_j -
    S sum_{k<j} y'_k T_kj, swept for j = 1..r.  It acts on one pair of the
    stacked iteration (:func:`_solve`): A, M and G are that pair's slices,
    and ``blk`` its own block, so every column solve is the pair's own
    LAPACK call with its singularity check (:func:`matcore.solve_linear`).
    """
    s = blk.resolvent
    # a 1 x 1 M is its own Schur form (the frequent rank-1 case, without LAPACK)
    t, v = (m, np.ones((1, 1))) if len(m) == 1 else sla.schur(m, output="complex")
    rhs = -(g @ v)
    y = np.empty_like(rhs)
    for j in range(len(t)):
        y[:, j] = matcore.solve_linear(a + t[j, j] * s, rhs[:, j] - s @ (y[:, :j] @ t[:j, j]))
    return y @ v.conj().T


def wave_from_omega(blk: EigenspaceData, omega, gamma: float) -> np.ndarray:
    _require_positive(gamma=gamma)
    return _wave_from_omega(blk, _as_matrix(omega, len(blk.projection), "omega"), gamma)


def _wave_from_omega(blk, omega, gamma):
    """U = P - S omega / g, of one block or, by broadcasting, of a stack."""
    return blk.projection - (blk.resolvent @ omega) / gamma


def omega_from_wave(blk: EigenspaceData, wave, c, gamma: float) -> np.ndarray:
    p, nil = blk.projection, blk.nilpotent
    _require_positive(gamma=gamma)
    um = _as_matrix(wave, len(p), "wave")
    cm = _as_matrix(c, len(p), "c")
    comp = np.eye(p.shape[0], dtype=np.complex128) - p
    return cm @ um - comp @ um @ (cm @ um + gamma * nil)


@dataclass(frozen=True)
class BlochSolution:
    """Converged per-block solutions and their certification data.

    ``mapped_from`` is the block this solution is the image of (see
    :func:`solve_blocks`), or None for a solved block.
    """

    ell: int
    omega: np.ndarray
    omega_conj: np.ndarray
    wave: np.ndarray
    wave_conj: np.ndarray
    residuals: dict
    iterations: dict
    report: KantorovichReport
    certified: bool
    mapped_from: int | None = None

    def image(self, ell: int) -> BlochSolution:
        """This solution carried to block ``ell`` by X -> F conj(X) F.

        Residuals and Kantorovich constants are unitarily invariant norms,
        which the map keeps, so they are copied (:func:`solve_blocks`
        evaluates the equation residuals anew).
        """
        return _hp_image_of(
            self,
            ell=ell,
            residuals=dict(self.residuals),
            iterations=dict.fromkeys(self.iterations, 0),
            report=replace(self.report, ell=ell),
            mapped_from=self.ell,
        )


def solve_block(
    dec: SpectralDecomposition,
    c,
    gamma: float,
    ell: int,
    tol: float = DEFAULT_TOL,
) -> BlochSolution:
    """Solve both adiabatic Bloch equations on one block by Newton
    iteration and certify.

    ``gamma`` and ``tol`` must be positive and finite and ``ell`` a block
    index; anything else raises ``ValueError`` before any iteration.
    The equation residuals and the deformations ||U - P|| vanish on
    range(1 - P) (on range(1 - P^T) for the order-reversed ones) and are
    taken from the block's factors (:func:`matcore.supported_norm`), and so
    are the four support checks ||X (1 - P)|| and ||(1 - P) X||: with the
    norm of S in the Kantorovich report, no n x n matrix is factorized.
    The two equations are one stack of two pairs (:func:`solve_blocks`).
    """
    _require_positive(gamma=gamma, tol=tol)
    report = kantorovich_report(dec, c, gamma, ell)
    cm = _as_matrix(c, dec.dim, "c")
    (sol,) = _solve_sides(dec, np.array([cm, cm.T]), gamma, [ell], tol, [report])
    if isinstance(sol, AdiablochError):
        raise sol
    return sol


def _check_norms(blk, cms, gamma, x, u, mapped: bool) -> list:
    """Supported norms of the checks of both sides of each block of a stack,
    per block keyed ``<equation><side>_<kind>``, from one
    :func:`matcore.supported_norm` call.

    ``blk`` (:func:`_stacked`), ``cms``, X and U hold the two sides of each
    block, each given on its primal data: (block, C, X, U), and for the
    order-reversed side ``"_conj"`` (transposed block, C^T, X~^T, U~^T),
    whose checks are then the primal ones of the transposed generator.
    Every check vanishes off range(P^H) of its own block, spanned by its Z.
    A solved side gives the supports X (1 - P) and U (1 - P), 1 - P formed
    once for the stack, the wave residual and the deformation U - P (the
    adiabatic branch keeps ||U - P|| <= theta); its omega residual is the
    one its solve reported.  A mapped side gives its omega and wave
    residuals alone.
    """
    if mapped:
        checks = {"omega{}_eq": omega_residual(blk, cms, gamma, x),
                  "wave{}_eq": wave_residual(blk, cms, gamma, u)}
    else:
        comp = np.eye(x.shape[-1], dtype=np.complex128) - blk.projection
        checks = {
            "omega{}_support": x @ comp,
            "wave{}_eq": wave_residual(blk, cms, gamma, u),
            "wave{}_support": u @ comp,
            "wave{}_deformation": u - blk.projection,
        }
    norms = matcore.supported_norm(np.array(list(checks.values())), blk.factors.z).tolist()
    return [
        {key.format(side): norms[k][i][j] for k, key in enumerate(checks)
         for j, side in enumerate(_SIDES)}
        for i in range(len(x))
    ]


def _solve_sides(dec, cms, gamma, ells, tol, reports) -> list:
    """Both omega equations of every block of ``ells`` (one rank and index)
    as one stack, with ``cms`` = (C, C^T), and their checks: per block its
    :class:`BlochSolution`, or the error of its first failing side."""
    # the order-reversed side is the primal one on the transposed block and
    # C^T; its X and U are transposed back at the end
    grid = [(blk, blk.transposed()) for blk in (dec.blocks[ell] for ell in ells)]
    blk = _stacked(grid)
    x, outcomes = _solve(grid, blk, cms, ("omega", "omega_conj"), gamma, tol, ells, reports)
    errors = [next((o for o in infos if isinstance(o, AdiablochError)), None) for infos in outcomes]
    if any(errors):
        return errors
    u = _wave_from_omega(blk, x, gamma)
    sols = []
    for ell, report, infos, values, xs, us in zip(
        ells, reports, outcomes, _check_norms(blk, cms, gamma, x, u, mapped=False), x, u
    ):
        values.update({f"omega{side}_eq": info["residual"] for side, info in zip(_SIDES, infos)})
        sols.append(BlochSolution(
            ell=ell, omega=xs[0], omega_conj=xs[1].T, wave=us[0], wave_conj=us[1].T,
            residuals={key: values[key] for key in _RESIDUAL_KEYS},
            iterations={f"omega{side}": info["iterations"] for side, info in zip(_SIDES, infos)},
            report=report, certified=bool(report.solvable),
        ))
    return sols


def _stacks(dec: SpectralDecomposition, ells) -> list:
    """``ells`` in stacks of one rank and index, in order, each of at most
    ``_STACK_BYTES // (32 n^2)`` blocks."""
    groups = {}
    for ell in ells:
        groups.setdefault((dec.blocks[ell].rank, dec.blocks[ell].index), []).append(ell)
    size = max(1, _STACK_BYTES // (32 * dec.dim**2))
    return [group[i : i + size] for group in groups.values() for i in range(0, len(group), size)]


def solve_blocks(
    dec: SpectralDecomposition,
    c,
    gamma: float,
    tol: float = DEFAULT_TOL,
) -> list[BlochSolution]:
    """Per-block Newton solves, in block order; ||C|| is taken once.

    Both sides of every solved block of one rank and index are one stack,
    iterated together (:func:`_solve`) with each pair's rules, history and
    count its own, and certified together: the dense final residuals, the
    wave operators and the side checks once for the stack.  A stack holds
    at most ``_STACK_BYTES // (32 n^2)`` blocks, which bounds its working
    set.  A pair's result and count do not depend on its stack, and when
    blocks fail, the error raised is that of the first failing block, on
    its first failing side.  When C preserves Hermiticity, the second block
    of each conjugate orbit (``dec.images``) gets the image of the first
    one's solution, with its equation residuals evaluated on its own block
    (module docstring), again one stack per rank and index; otherwise every
    block is solved.  ``gamma`` and ``tol`` are checked as in
    :func:`solve_block`, before any block is solved.
    """
    _require_positive(gamma=gamma, tol=tol)
    cm = _as_matrix(c, dec.dim, "c")
    c_norm = matcore.op_norm(cm, "spectral")
    images = dec.images if dec.images and _preserves_hermiticity(cm) else {}
    # C and C^T, broadcast over the blocks of each stack
    cms = np.array([cm, cm.T])
    solved = [ell for ell in range(len(dec.blocks)) if ell not in images]
    reports = {ell: _kantorovich(dec.blocks[ell], c_norm, gamma, ell) for ell in solved}
    sols = {}
    for ells in _stacks(dec, solved):
        stack = [reports[ell] for ell in ells]
        sols.update(zip(ells, _solve_sides(dec, cms, gamma, ells, tol, stack)))
        # raise as soon as no block left to solve comes before a failed one
        failed = min((ell for ell in sols if isinstance(sols[ell], AdiablochError)), default=None)
        if failed is not None and all(ell > failed for ell in solved if ell not in sols):
            raise sols[failed]
    for ells in _stacks(dec, list(images)):
        # C preserves Hermiticity only to rounding, so the image solves the
        # image equations, not quite the block's own: copied equation
        # residuals could fall below the block's by rounding.  The other
        # entries are norms of the mapped matrices and block data alone,
        # which the map carries exactly, and stay copied.
        mapped = [sols[images[ell]].image(ell) for ell in ells]
        blk = _stacked([(dec.blocks[ell], dec.blocks[ell].transposed()) for ell in ells])
        x = np.array([(sol.omega, sol.omega_conj.T) for sol in mapped])
        u = np.array([(sol.wave, sol.wave_conj.T) for sol in mapped])
        values = _check_norms(blk, cms, gamma, x, u, mapped=True)
        for ell, sol, residuals in zip(ells, mapped, values):
            sols[ell] = replace(sol, residuals={**sol.residuals, **residuals})
    return [sols[ell] for ell in range(len(dec.blocks))]


# ---------------------------------------------------------------------------
# perturbative series


@dataclass(frozen=True)
class SeriesCoefficients:
    """Coefficients of an expansion in inverse powers of the coupling."""

    ell: int
    kind: str
    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncated_sum(self, gamma: float, order: int | None = None) -> np.ndarray:
        """sum_{j <= order} coeffs[j] / gamma^j, every coefficient when ``order``
        is None.  ``gamma`` must be positive and finite and ``order`` a
        non-negative integer; anything else raises ``ValueError``."""
        _require_positive(gamma=gamma)
        if order is not None:
            _require_integer("order", order, 0)
        j_max = self.order if order is None else min(order, self.order)
        out = np.zeros_like(self.coeffs[0])
        for j in range(j_max + 1):
            out = out + self.coeffs[j] / gamma**j
        return out


def omega_series(dec: SpectralDecomposition, c, ell: int, order: int) -> SeriesCoefficients:
    """Coefficients omega^(j) = Y^(j) W of omega from the order-by-order
    recursion, carried on the n x r factors Y^(j) (:func:`_omega_series`).

    A bad ``ell`` or a negative ``order`` raises ``ValueError``.
    """
    blk = _series_block(dec, ell, order)
    ys = _omega_series(blk, _as_matrix(c, dec.dim, "c"), order)
    return SeriesCoefficients(ell, "Omega_series", tuple(y @ blk.factors.w for y in ys))


def _omega_series(blk: EigenspaceData, cm: np.ndarray, order: int) -> list[np.ndarray]:
    """The n x r factors Y^(j) = omega^(j) Q of the omega coefficients, j <= order.

    omega^(0) = bracket(C P) and omega^(j) = bracket(S sum_i omega^(j-1-i)
    omega^(i) - C S omega^(j-1)) all vanish on range(1 - P), so with P = Q W
    and n = W N Q, Y^(0) = _bracket(C Q) and Y^(j) = _bracket(S sum_i
    Y^(j-1-i) (W Y^(i)) - C (S Y^(j-1))), each bracket on the factor with
    nil = n (:func:`_bracket`): no product of two n x n matrices.
    """
    s, q, w = blk.resolvent, blk.factors.q, blk.factors.w
    nil = w @ blk.nilpotent @ q
    ys = [_bracket(blk, cm @ q, nil)]
    for j in range(1, order + 1):
        quad = sum(ys[j - 1 - i] @ (w @ ys[i]) for i in range(j))
        ys.append(_bracket(blk, s @ quad - cm @ (s @ ys[j - 1]), nil))
    return ys


def generator_series(
    dec: SpectralDecomposition,
    c,
    ell: int,
    order: int,
    method: str = "recursion",
) -> SeriesCoefficients:
    """Block-generator coefficients D^(j) = P omega^(j).

    ``recursion`` builds them from the omega recursion for any order, as
    Q (W Y^(j)) W from its n x r factors Y^(j) = omega^(j) Q;
    ``closed`` evaluates the explicit bracket formulas (order <= 3), which
    the recursion must reproduce.  On the transposed block with C^T either
    gives the order-reversed coefficients transposed, D~^(j)^T.  A bad
    ``ell`` or a negative ``order`` raises ``ValueError``.
    """
    blk = _series_block(dec, ell, order)
    cm = _as_matrix(c, dec.dim, "c")
    if method == "recursion":
        q, w = blk.factors.q, blk.factors.w
        coeffs = tuple(q @ (w @ y) @ w for y in _omega_series(blk, cm, order))
        return SeriesCoefficients(ell, "D_series", coeffs)
    if method == "closed":
        if order > 3:
            raise ValueError("closed-form generator coefficients stop at order 3")
        return SeriesCoefficients(
            ell, "D_series", tuple(_d_closed(blk, cm)[: order + 1])
        )
    raise ValueError(f"unknown method {method!r}")


def _d_closed(blk: EigenspaceData, cm: np.ndarray) -> list[np.ndarray]:
    p, s = blk.projection, blk.resolvent

    def rb(a):
        return bracket(blk, a)

    d0 = p @ cm @ p
    d1 = -p @ cm @ s @ rb(cm) @ p
    d2 = p @ cm @ s @ rb(cm @ s @ rb(cm)) @ p - p @ cm @ s @ s @ rb(rb(cm) @ p @ cm) @ p
    d3 = (
        -p @ cm @ s @ rb(cm @ s @ rb(cm @ s @ rb(cm))) @ p
        + p @ cm @ s @ rb(cm @ s @ s @ rb(rb(cm) @ p @ cm)) @ p
        + p @ cm @ s @ s @ rb(rb(cm) @ p @ cm @ s @ rb(cm)) @ p
        + p @ cm @ s @ s @ rb(rb(cm @ s @ rb(cm)) @ p @ cm) @ p
        - p @ cm @ s @ s @ s @ rb(rb(rb(cm) @ p @ cm) @ p @ cm) @ p
    )
    return [d0, d1, d2, d3]


def _sw_closed(blk: EigenspaceData, cm: np.ndarray) -> list[np.ndarray]:
    """Symmetrized generator coefficients through third order.

    K^(j) = (D^(j) + D~^(j))/2, where D~^(j) = _d_closed(B^T block, C^T)^T
    is the order-reversed generator's coefficient, and K^(3) adds the
    nilpotent term in core = L(C) S^2 R(C), with R the bracket and L the
    left one, L(A) = sum_{m < n} N^m A S^m.  This is the printed K^(j)
    term by term: each of its left-bracket terms is a D^(j) term evaluated
    on the transposed block and transposed back, because
    sum N^m A S^m = (sum (S^T)^m A^T (N^T)^m)^T, and transposing reverses
    every product.
    """
    p, s, nil = blk.projection, blk.resolvent, blk.nilpotent
    blk_t, c_t = blk.transposed(), cm.T
    k = [(d + d_t.T) / 2 for d, d_t in zip(_d_closed(blk, cm), _d_closed(blk_t, c_t))]
    core = bracket(blk_t, c_t).T @ s @ s @ bracket(blk, cm)
    k[3] = k[3] + (
        -0.125 * (nil @ core @ p @ core @ p + p @ core @ p @ core @ nil)
        + 0.25 * (p @ core @ nil @ core @ p)
    )
    return k


def _series_mul(a: list, b: list, order: int) -> list:
    shape = a[0].shape
    out = [np.zeros(shape, dtype=np.complex128) for _ in range(order + 1)]
    for j in range(order + 1):
        for i in range(j + 1):
            if i < len(a) and (j - i) < len(b):
                out[j] = out[j] + a[i] @ b[j - i]
    return out


def _binomial_sqrt_series(q: list, alpha: float, order: int) -> list:
    """(1 + Q)^alpha for a series Q with vanishing 0th and 1st coefficients."""
    n = q[0].shape[0]
    eye = np.eye(n, dtype=np.complex128)
    out = [eye.copy()] + [np.zeros((n, n), dtype=np.complex128) for _ in range(order)]
    power = [eye.copy()] + [np.zeros((n, n), dtype=np.complex128) for _ in range(order)]
    coeff = 1.0
    for k in range(1, order // 2 + 1):
        coeff *= (alpha - (k - 1)) / k
        power = _series_mul(power, q, order)
        for j in range(order + 1):
            out[j] = out[j] + coeff * power[j]
    return out


def schrieffer_wolff_series(
    dec: SpectralDecomposition,
    c,
    ell: int,
    order: int,
    method: str = "closed",
) -> SeriesCoefficients:
    """Coefficients of the symmetrized block generator.

    ``closed`` evaluates the explicit formulas (order <= 3),
    (D^(j) + D~^(j))/2 from the closed D^(j) of both sides plus a nilpotent
    term at order 3 (:func:`_sw_closed`).  ``series``
    expands K = g (Y^(1/2) N Y^(-1/2) - N) + Y^(1/2) D Y^(-1/2), Y = 1 +
    omega_conj S^2 omega / g^2, from the omega series with binomial series
    for the roots, at any order.  Every term lives on range(P), so with
    P = Q W it is carried as the r x r matrix W (.) Q, and coefficient j is
    Q k_j W.  omega^(j) Q is the factor Y^(j) of the omega series, and
    W omega_conj^(j) is (W W~^T) Y~^(j)^T, with Y~ the series on the
    transposed block and C^T and W~ that block's W.  A bad ``ell`` or a
    negative ``order`` raises ``ValueError``.
    """
    blk = _series_block(dec, ell, order)
    cm = _as_matrix(c, dec.dim, "c")
    if method == "closed":
        if order > 3:
            raise ValueError(
                "closed-form symmetrized coefficients stop at order 3; "
                "use method='series'"
            )
        coeffs = _sw_closed(blk, cm)[: order + 1]
        return SeriesCoefficients(ell, "K_series", tuple(coeffs))
    if method != "series":
        raise ValueError(f"unknown method {method!r}")

    work = order + 1  # one extra order: the nilpotent term carries a factor gamma
    q, w = blk.factors.q, blk.factors.w
    om_q = _omega_series(blk, cm, work)
    # omega_conj's coefficients: the omega recursion on transposed data, whose
    # factors Y~ give W omega~^(j)^T = (W W~^T) Y~^T
    blk_t = blk.transposed()
    w_wt = w @ blk_t.factors.w.T
    w_omc = [w_wt @ y.T for y in _omega_series(blk_t, cm.T, work)]
    s2_om_q = [blk.resolvent @ (blk.resolvent @ o) for o in om_q]
    zero = np.zeros((blk.rank, blk.rank), dtype=np.complex128)
    y = [zero] * 2 + [
        sum(w_omc[a] @ s2_om_q[j - 2 - a] for a in range(j - 1)) for j in range(2, work + 1)
    ]
    plus = _binomial_sqrt_series(y, 0.5, work)
    minus = _binomial_sqrt_series(y, -0.5, work)

    sym_d = _series_mul(_series_mul(plus, [w @ o for o in om_q], work), minus, work)
    nil_series = [w @ blk.nilpotent @ q] + [zero] * work
    sym_n = _series_mul(_series_mul(plus, nil_series, work), minus, work)
    # gamma * (Y^1/2 N Y^-1/2 - N) shifts the series down one order
    coeffs = [q @ (sym_n[j + 1] + sym_d[j]) @ w for j in range(order + 1)]
    return SeriesCoefficients(ell, "K_series", tuple(coeffs))


# ---------------------------------------------------------------------------
# resummed correction series


@dataclass(frozen=True)
class CorrectionSeries:
    """Partial sum of the iterated-correction series and its diagnostics."""

    ell: int
    matrix: np.ndarray
    terms: int
    last_increment: float
    leakage_free_defect: float


def sum_correction_series(
    dec: SpectralDecomposition,
    c,
    d_block,
    gamma: float,
    ell: int,
    n_max: int = 500,
    tol: float = 1e-14,
) -> CorrectionSeries:
    """Sum the alternating series of iterated corrections on one block.

    The map applied repeatedly is A -> C S A - S A D - gamma S A N.  The
    series converges for couplings above the block threshold
    max(1, [||S|| (||C|| + ||D|| + ||N||)]^n); below it a
    :class:`PreconditionError` is raised.  When D solves the adiabatic
    Bloch equation, the summed correction has no P ... P component, which
    is reported as ``leakage_free_defect``.  ``gamma`` and ``tol`` must be
    positive and finite, ``n_max`` a positive integer and ``ell`` a block
    index; anything else raises ``ValueError`` before any work.
    """
    _require_positive(gamma=gamma, tol=tol)
    _require_integer("n_max", n_max, 1)
    _require_block(dec, ell)
    cm = _as_matrix(c, dec.dim, "c")
    dm = _as_matrix(d_block, dec.dim, "d_block")
    blk = dec.blocks[ell]
    s, nil, p = blk.resolvent, blk.nilpotent, blk.projection
    s_norm = matcore.op_norm(s, "spectral")
    threshold = max(
        1.0,
        (
            s_norm
            * (
                matcore.op_norm(cm, "spectral")
                + matcore.op_norm(dm, "spectral")
                + matcore.op_norm(nil, "spectral")
            )
        )
        ** blk.index,
    )
    if gamma <= threshold:
        raise PreconditionError(
            f"correction series requires gamma > {threshold:.6g} on block "
            f"{ell}, got gamma = {gamma:.6g}"
        )

    term = cm - dm  # holds (-1/gamma)^j K^j (C - D)
    total = term.copy()
    increment = matcore.op_norm(term, "spectral")
    terms = 1
    for _j in range(1, n_max + 1):
        term = (cm @ s @ term - s @ term @ dm - gamma * s @ term @ nil) * (
            -1.0 / gamma
        )
        total = total + term
        increment = matcore.op_norm(term, "spectral")
        terms += 1
        if increment < tol:
            break
    else:
        raise ConvergenceError(
            f"correction series did not converge in {n_max} terms on block "
            f"{ell} (last increment {increment:.3e})",
            residual=float(increment),
            iterations=n_max,
        )
    defect = matcore.op_norm(p @ total @ p, "spectral")
    return CorrectionSeries(
        ell=ell,
        matrix=total,
        terms=terms,
        last_increment=float(increment),
        leakage_free_defect=float(defect),
    )
