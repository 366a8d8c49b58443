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
operators from them.  Solutions are found either by plain fixed-point
iteration of the natural map or by Newton iteration, whose convergence is
certified by computable Newton-Kantorovich constants
(:func:`kantorovich_report`); a Newton step is rank(P) linear solves of
size n (a Sylvester sweep).  Every iterate X vanishes on range(1 - P), so
with P = Q W (r = rank P) the iteration carries the n x r factor Y = X Q,
with X = Y W formed once at the end: residuals, corrections, ball radii and
residual norms are n x r matrices and their norms, and no step multiplies
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
from .errors import BranchEscapeError, ConvergenceError, PreconditionError
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
    norm_kind: str = "spectral"


def _threshold_constants(block: EigenspaceData, c_norm: float, norm_kind: str) -> tuple:
    """mu = sum_{m < n} (||S|| ||N||)^m and ||S|| ||C|| ||P|| of one eigenspace.

    ||C|| is passed in, so a caller looping over blocks takes it once, and
    ||P|| comes from the singular values stored with the block.  At index 1
    mu = 1 whatever ||N|| is, so ||N|| is taken only above it; N = N P, so
    its spectral norm is the supported norm on Z.
    """
    s_norm = matcore.op_norm(block.resolvent, norm_kind)
    if block.index <= 1:
        sn = 0.0
    elif norm_kind == "spectral":
        sn = s_norm * matcore.supported_norm(block.nilpotent, block.factors.z)
    else:
        sn = s_norm * matcore.op_norm(block.nilpotent, norm_kind)
    mu = float(block.index) if abs(1.0 - sn) < 1e-12 else (1.0 - sn**block.index) / (1.0 - sn)
    scp = s_norm * c_norm * block.factors.norm(norm_kind)
    return mu, scp


def _gamma_min(block: EigenspaceData, c_norm: float, norm_kind: str) -> float:
    mu, scp = _threshold_constants(block, c_norm, norm_kind)
    return 4.0 * mu * scp


def block_gamma_min(block: EigenspaceData, c, norm_kind: str = "spectral") -> float:
    """Coupling threshold 4 mu ||S|| ||C|| ||P|| of one eigenspace."""
    c_norm = matcore.op_norm(_as_matrix(c, len(block.projection), "c"), norm_kind)
    return _gamma_min(block, c_norm, norm_kind)


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
    mu, scp = _threshold_constants(block, c_norm, "spectral")
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
    """
    s, q, w = blk.resolvent, blk.factors.q, blk.factors.w
    cs, cq, nil = c @ s, c @ q, w @ blk.nilpotent @ q
    eye = np.eye(len(s))

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
    eye = np.eye(len(s))

    def residual(y):
        sy = s @ y
        return y - sy @ nil + (sc @ y - sy @ (wc @ y)) / gamma - q

    def derivative(y):
        return eye + (sc - (s @ y) @ wc) / gamma, -(nil + (wc @ y) / gamma)

    return residual, derivative, q, lambda y: y - q


# dense residual R (for the reported residual of the returned X), the
# factored system on Y = X Q, and the sign s that makes X + s R the natural
# fixed-point map (omega: R = map - X; wave: R = X - map)
_EQUATIONS = {
    "omega": (omega_residual, _omega_factored, 1.0),
    "wave": (wave_residual, _wave_factored, -1.0),
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
_METHODS = ("newton", "fixed_point")


def _require_solver(method, gamma, tol) -> None:
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {list(_METHODS)}")
    _require_positive(gamma=gamma, tol=tol)


def _factor_norm(y, wz, w_off) -> float:
    """``matcore.supported_norm(Y W, Z)`` from the n x r factor Y.

    With W Z and W - W Z Z^H given, this is hypot(||Y (W Z)||_2,
    ||Y (W - W Z Z^H)||_F): products of Y with r x r and r x n matrices,
    and no n x n SVD.
    """
    return math.hypot(matcore._tall_norm(y @ wz), np.linalg.norm(y @ w_off))


def solve_equation(
    dec: SpectralDecomposition,
    c,
    gamma: float,
    ell: int,
    which: str,
    method: str = "newton",
    tol: float = DEFAULT_TOL,
    max_iter: int = 200,
    report: KantorovichReport | None = None,
):
    """Solve one of the block equations; returns (solution, info dict).

    ``which`` is ``omega``, ``wave`` or one of their order-reversed
    conjugates ``omega_conj``, ``wave_conj``.  An order-reversed equation
    is the primal one for the transposed generator, so it is solved as the
    primal equation on the transposed block data and C^T, and the solution
    is transposed back.  The Kantorovich report and the uniqueness ball use
    unitarily invariant norms, which transposition leaves unchanged.

    Every iterate X, its residual R and every correction vanish on
    range(1 - P), as P and N do.  With P = Q W (r = rank P, W Q = 1_r; Q, W
    and the basis Z of range(P^H) are the factors stored on the block,
    ``blk.factors``) the iteration carries the n x r factor Y = X Q, with
    X = Y W, and the residual G = R Q; each term of G is an n x n by n x r
    product.  Newton steps solve the exact derivative system delta -> A delta
    + S delta F = -R, with F = X/g + N for omega and F = -(N + C X/g) for
    wave, as A dY + S dY M = -G with M = W F Q and delta = dY W.  In the
    Schur basis of M = V T V^H this Sylvester equation is r n x n column
    solves with A + T_jj S (Bartels-Stewart), in place of the (n r) x (n r)
    Kronecker system and the n^2 x n^2 Jacobian.  Fixed-point iteration
    takes unrelaxed steps of the natural map, Y + G or Y - G.  The residual
    norm and the ball radius ||U - P|| are :func:`matcore.supported_norm`
    values of G W and of an n x r factor times W, taken from the factors
    alone: upper bounds of the spectral norms, equal to them on such
    matrices.  X = Y W is formed once, at the end, and the reported
    ``residual`` is the supported norm of the dense residual of that
    returned matrix; when that one is above ``tol`` (a ``tol`` below its
    rounding floor) a stalled :class:`ConvergenceError` is raised instead.
    The iteration aborts with :class:`BranchEscapeError`
    if an iterate leaves the certified uniqueness ball (when one exists), so
    the returned solution is always the branch selected by the perturbative
    initial guess.

    ``gamma`` and ``tol`` must be positive and finite, ``max_iter`` a
    positive integer and ``ell`` a block index; like an unknown ``which``
    or ``method`` anything else raises ``ValueError`` before any iteration.
    """
    if which not in _EQUATIONS and which not in _CONJUGATES:
        raise ValueError(
            f"unknown equation {which!r}; expected one of "
            f"{sorted(_EQUATIONS) + sorted(_CONJUGATES)}"
        )
    _require_solver(method, gamma, tol)
    _require_integer("max_iter", max_iter, 1)
    _require_block(dec, ell)
    cm = _as_matrix(c, dec.dim, "c")
    blk = dec.blocks[ell]
    if report is None:
        report = kantorovich_report(dec, cm, gamma, ell)
    if which in _CONJUGATES:
        x, info = _solve(blk.transposed(), cm.T, gamma, ell, which, method, tol, report, max_iter)
        return x.T, info
    return _solve(blk, cm, gamma, ell, which, method, tol, report, max_iter)


def _solve(blk, cm, gamma, ell, which, method, tol, report, max_iter=200):
    """:func:`solve_equation` on checked arguments and the data of the primal
    equation: for an order-reversed ``which``, ``blk`` is the transposed
    block, ``cm`` is C^T, and the returned X is not yet transposed back."""
    residual_fn, factored, map_sign = _EQUATIONS[_CONJUGATES.get(which, which)]
    residual, derivative, y, deformation = factored(blk, cm, gamma)
    w, z = blk.factors.w, blk.factors.z
    wz = w @ z
    w_off = w - wz @ z.conj().T
    xi = report.xi if report.solvable else math.inf

    history = []
    for it in range(max_iter):
        g = residual(y)
        res = _factor_norm(g, wz, w_off)
        history.append(res)
        if res <= tol:
            x = y @ w
            final = matcore.supported_norm(residual_fn(blk, cm, gamma, x), z)
            if final > tol:
                raise ConvergenceError(
                    f"{which} {method} iteration stalled on block {ell}: the "
                    f"factored residual {res:.3e} is below tol {tol:.1e}, but the "
                    f"returned matrix's is at its rounding floor {final:.3e}",
                    residual=float(final),
                    iterations=it,
                    history=history,
                )
            info = {
                "iterations": it,
                "residual": final,
                "history": history,
                "method": method,
                "certified": report.solvable,
            }
            return x, info
        if not np.isfinite(res) or res > 1e6 * (1.0 + history[0]):
            raise ConvergenceError(
                f"{which} {method} iteration diverged on block {ell} "
                f"(residual {res:.3e})",
                residual=float(res),
                iterations=it,
                history=history,
            )
        if it - int(np.argmin(history)) >= _STALL_STEPS:
            raise ConvergenceError(
                f"{which} {method} iteration stalled on block {ell}: no residual "
                f"below {min(history):.3e} in the last {_STALL_STEPS} iterations "
                f"(tol {tol:.1e})",
                residual=float(res),
                iterations=it,
                history=history,
            )
        if method == "newton":
            y = y + _range_step(blk, *derivative(y), g)
        else:
            y = y + map_sign * g
        if math.isfinite(xi) and _factor_norm(deformation(y), wz, w_off) >= xi:
            raise BranchEscapeError(
                f"{which} iterate on block {ell} left the uniqueness ball "
                f"(radius {xi:.3e}); target branch lost"
            )
    raise ConvergenceError(
        f"{which} {method} iteration did not reach tol {tol:.1e} on block "
        f"{ell} after {max_iter} iterations (residual {history[-1]:.3e})",
        residual=float(history[-1]),
        iterations=max_iter,
        history=history,
    )


def _range_step(blk, a, m, g):
    """Newton correction dY of the factor Y = X Q: A dY + S dY M = -G.

    With M = V T V^H (complex Schur), dY' = dY V solves A dY' + S dY' T =
    -G V, whose column j is the n x n system (A + T_jj S) y'_j = g'_j -
    S sum_{k<j} y'_k T_kj, swept for j = 1..r.
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
    om = _as_matrix(omega, len(blk.projection), "omega")
    return blk.projection - (blk.resolvent @ om) / gamma


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
    method: str
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
    method: str = "newton",
    tol: float = DEFAULT_TOL,
) -> BlochSolution:
    """Solve both adiabatic Bloch equations on one block and certify.

    ``method`` must be one of ``"newton"`` and ``"fixed_point"``, ``gamma``
    and ``tol`` positive and finite and ``ell`` a block index; anything
    else raises ``ValueError`` before any iteration.
    The equation residuals and the deformations ||U - P|| vanish on
    range(1 - P) (on range(1 - P^T) for the order-reversed ones) and are
    taken from the block's factors (:func:`matcore.supported_norm`), and so
    are the four support checks ||X (1 - P)|| and ||(1 - P) X||: with the
    norm of S in the Kantorovich report, no n x n matrix is factorized.
    """
    _require_solver(method, gamma, tol)
    report = kantorovich_report(dec, c, gamma, ell)
    return _solve_block(dec, _as_matrix(c, dec.dim, "c"), gamma, ell, method, tol, report)


def _side_checks(side, blk, cm, gamma, x, u, mapped: bool) -> dict:
    """The check matrices of one side, keyed ``<equation><side>_<kind>``.

    A side is given on its primal data: (block, C, X, U), or for the
    order-reversed side ``"_conj"`` (transposed block, C^T, X~^T, U~^T),
    whose checks are then the primal ones of the transposed generator.
    Every check vanishes off range(P^H) of its own block, spanned by its Z.
    A solved side gives the supports X (1 - P) and U (1 - P), the wave
    residual and the deformation U - P (the adiabatic branch keeps
    ||U - P|| <= theta); its omega residual is the one its solve reported.
    A mapped side gives its omega and wave residuals alone.
    """
    if mapped:
        return {
            f"omega{side}_eq": omega_residual(blk, cm, gamma, x),
            f"wave{side}_eq": wave_residual(blk, cm, gamma, u),
        }
    comp = np.eye(len(x), dtype=np.complex128) - blk.projection
    return {
        f"omega{side}_support": x @ comp,
        f"wave{side}_eq": wave_residual(blk, cm, gamma, u),
        f"wave{side}_support": u @ comp,
        f"wave{side}_deformation": u - blk.projection,
    }


def _check_norms(sides, gamma, mapped: bool) -> dict:
    """Supported norms of the checks of both ``sides`` (:func:`_side_checks`),
    each on its own block's Z, from one :func:`matcore.supported_norm` call."""
    checks, bases = {}, []
    for side, (blk, cm, x, u) in zip(_SIDES, sides):
        mats = _side_checks(side, blk, cm, gamma, x, u, mapped)
        checks.update(mats)
        bases += [blk.factors.z] * len(mats)
    norms = matcore.supported_norm(np.stack(list(checks.values())), np.stack(bases))
    return dict(zip(checks, norms.tolist()))


def _solve_block(dec, cm, gamma, ell, method, tol, report) -> BlochSolution:
    blk = dec.blocks[ell]
    # the order-reversed side is the primal one on the transposed block and
    # C^T; its X and U are transposed back at the end
    sides, infos = [], {}
    for side, (b, c) in zip(_SIDES, ((blk, cm), (blk.transposed(), cm.T))):
        x, infos[f"omega{side}"] = _solve(b, c, gamma, ell, f"omega{side}", method, tol, report)
        sides.append((b, c, x, wave_from_omega(b, x, gamma)))
    values = _check_norms(sides, gamma, mapped=False)
    values.update({f"{which}_eq": info["residual"] for which, info in infos.items()})
    (_, _, omega, wave), (_, _, omega_conj, wave_conj) = sides
    return BlochSolution(
        ell=ell, omega=omega, omega_conj=omega_conj.T, wave=wave, wave_conj=wave_conj.T,
        residuals={key: values[key] for key in _RESIDUAL_KEYS},
        iterations={which: info["iterations"] for which, info in infos.items()},
        method=method, report=report, certified=bool(report.solvable),
    )


def solve_blocks(
    dec: SpectralDecomposition,
    c,
    gamma: float,
    method: str = "newton",
    tol: float = DEFAULT_TOL,
) -> list[BlochSolution]:
    """Per-block solves, in block order; ||C|| is taken once.

    When C preserves Hermiticity, the second block of each conjugate orbit
    (``dec.images``) gets the image of the first one's solution, with its
    equation residuals evaluated on its own block (module docstring);
    otherwise every block is solved.  ``method``, ``gamma`` and ``tol`` are
    checked as in :func:`solve_block`, before any block is solved.
    """
    _require_solver(method, gamma, tol)
    cm = _as_matrix(c, dec.dim, "c")
    c_norm = matcore.op_norm(cm, "spectral")
    images = dec.images if dec.images and _preserves_hermiticity(cm) else {}
    sols = []
    for ell, blk in enumerate(dec.blocks):
        if ell in images:
            # C preserves Hermiticity only to rounding, so the image solves the
            # image equations, not quite the block's own: copied equation
            # residuals could fall below the block's by rounding.  The other
            # entries are norms of the mapped matrices and block data alone,
            # which the map carries exactly, and stay copied.
            sol = sols[images[ell]].image(ell)
            sides = (
                (blk, cm, sol.omega, sol.wave),
                (blk.transposed(), cm.T, sol.omega_conj.T, sol.wave_conj.T),
            )
            residuals = {**sol.residuals, **_check_norms(sides, gamma, mapped=True)}
            sols.append(replace(sol, residuals=residuals))
        else:
            report = _kantorovich(blk, c_norm, gamma, ell)
            sols.append(_solve_block(dec, cm, gamma, ell, method, tol, report))
    return sols


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
