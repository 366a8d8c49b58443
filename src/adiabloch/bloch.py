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
expanded, as the primal equations on transposed block data.

:func:`solve_equation` is the one entry point for all four equations
(``which`` names the equation); :func:`solve_block` solves the two omega
equations of a block against one shared certificate and derives both wave
operators from them.  Solutions are found either by plain fixed-point
iteration of the natural map or by Newton iteration, whose convergence is
certified by computable Newton-Kantorovich constants
(:func:`kantorovich_report`); a Newton step is rank(P) linear solves of
size n (a Sylvester sweep).  The same data feed the perturbative coefficient
recursions and the symmetrized (Schrieffer-Wolff) series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import matcore
from .errors import BranchEscapeError, ConvergenceError, PreconditionError
from .spectral import EigenspaceData, SpectralDecomposition

DEFAULT_TOL = 1e-12


def bracket(block: EigenspaceData, a, orientation: str = "right") -> np.ndarray:
    """Nilpotent-weighted bracket of an operator on one eigenspace.

    ``right``: sum_{m < n} S^m A N^m;  ``left``: sum_{m < n} N^m A S^m.
    With no nilpotent (n = 1) this is the identity map.  Any other
    ``orientation`` raises ``ValueError``.
    """
    if orientation not in ("right", "left"):
        raise ValueError(f"unknown orientation {orientation!r}")
    mat = matcore.as_cmatrix(a)
    s, nil = block.resolvent, block.nilpotent
    left, right = (s, nil) if orientation == "right" else (nil, s)
    out = mat.copy()
    left_fac = np.eye(mat.shape[0], dtype=np.complex128)
    right_fac = np.eye(mat.shape[0], dtype=np.complex128)
    for _m in range(1, block.index):
        left_fac = left_fac @ left
        right_fac = right_fac @ right
        out = out + left_fac @ mat @ right_fac
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
    mu = 1 whatever ||N|| is, so ||N|| is taken only above it.
    """
    s_norm = matcore.op_norm(block.resolvent, norm_kind)
    sn = s_norm * matcore.op_norm(block.nilpotent, norm_kind) if block.index > 1 else 0.0
    mu = float(block.index) if abs(1.0 - sn) < 1e-12 else (1.0 - sn**block.index) / (1.0 - sn)
    scp = s_norm * c_norm * block.factors.norm(norm_kind)
    return mu, scp


def _gamma_min(block: EigenspaceData, c_norm: float, norm_kind: str) -> float:
    mu, scp = _threshold_constants(block, c_norm, norm_kind)
    return 4.0 * mu * scp


def block_gamma_min(block: EigenspaceData, c, norm_kind: str = "spectral") -> float:
    """Coupling threshold 4 mu ||S|| ||C|| ||P|| of one eigenspace."""
    return _gamma_min(block, matcore.op_norm(c, norm_kind), norm_kind)


def _require_positive(**values) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _weak_matrix(dec: SpectralDecomposition, c) -> np.ndarray:
    """C as a complex matrix, rejected unless it is n x n like B."""
    cm = matcore.as_cmatrix(c)
    if cm.shape != (dec.dim, dec.dim):
        raise ValueError(f"c must be {dec.dim}x{dec.dim} like the decomposition, got {cm.shape}")
    return cm


def _require_block(dec: SpectralDecomposition, ell) -> None:
    if not (isinstance(ell, (int, np.integer)) and 0 <= ell < len(dec.blocks)):
        raise ValueError(f"ell must be in range({len(dec.blocks)}), got {ell!r}")


def _series_block(dec: SpectralDecomposition, ell, order) -> EigenspaceData:
    """Block ``ell`` of a series request, once ``ell`` and ``order`` are checked."""
    _require_block(dec, ell)
    if not (isinstance(order, (int, np.integer)) and order >= 0):
        raise ValueError(f"order must be a non-negative integer, got {order!r}")
    return dec.blocks[ell]


def kantorovich_report(
    dec: SpectralDecomposition,
    c,
    gamma: float,
    ell: int,
    norm_kind: str = "spectral",
) -> KantorovichReport:
    """Newton-Kantorovich constants of block ``ell`` at coupling ``gamma``.

    ``gamma`` must be positive and finite, ``ell`` a block index and C an
    n x n matrix; anything else raises ``ValueError`` before any work.
    """
    _require_positive(gamma=gamma)
    _require_block(dec, ell)
    cm = _weak_matrix(dec, c)
    return _kantorovich(dec.blocks[ell], matcore.op_norm(cm, norm_kind), gamma, ell, norm_kind)


def _kantorovich(
    block: EigenspaceData, c_norm: float, gamma: float, ell: int, norm_kind: str
) -> KantorovichReport:
    mu, scp = _threshold_constants(block, c_norm, norm_kind)
    gamma_min = 4.0 * mu * scp
    lipschitz = 2.0 * scp / gamma

    a = 2.0 * mu * scp / gamma
    if a >= 1.0:
        # beta undefined: derivative-inverse bound diverges
        return KantorovichReport(
            ell, mu, math.inf, math.inf, lipschitz, math.inf,
            math.nan, math.nan, gamma_min, False, False, norm_kind,
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
        gamma_min, solvable, quadratic, norm_kind,
    )


# ---------------------------------------------------------------------------
# the two quadratic equations: residuals and Frechet derivatives


def omega_residual(blk, c, gamma, x):
    s, nil, p = blk.resolvent, blk.nilpotent, blk.projection
    return (s @ x @ x) / gamma - x - (c @ s @ x) / gamma + s @ x @ nil + c @ p


def wave_residual(blk, c, gamma, x):
    s, nil, p = blk.resolvent, blk.nilpotent, blk.projection
    return x - s @ x @ nil + (s @ (c @ x - x @ c @ x)) / gamma - p


def _omega_derivative(blk, c, gamma, x):
    """A, F of the Frechet derivative delta -> A delta + S delta F."""
    s, nil = blk.resolvent, blk.nilpotent
    return (s @ x - c @ s) / gamma - np.eye(len(s)), x / gamma + nil


def _wave_derivative(blk, c, gamma, x):
    s, nil = blk.resolvent, blk.nilpotent
    return np.eye(len(s)) + (s @ c - s @ x @ c) / gamma, -(nil + c @ x / gamma)


# residual R, derivative, and the sign s that makes X + s R the natural
# fixed-point map (omega: R = map - X; wave: R = X - map)
_EQUATIONS = {
    "omega": (omega_residual, _omega_derivative, 1.0),
    "wave": (wave_residual, _wave_derivative, -1.0),
}
# order-reversed equation -> the primal equation it becomes on transposed data
_CONJUGATES = {"omega_conj": "omega", "wave_conj": "wave"}
_METHODS = ("newton", "fixed_point")


def initial_guess(blk: EigenspaceData, c, which: str) -> np.ndarray:
    """Zeroth-order perturbative solution used to select the branch."""
    if which == "omega":
        return bracket(blk, c @ blk.projection, "right")
    if which == "wave":
        return blk.projection.copy()
    raise ValueError(f"unknown equation {which!r}")


def _ball_radius(blk, gamma, which, x, x0):
    """Distance of the iterate from the certified center, in wave variables.

    Iterate and center vanish on range(1 - P), so the norm is taken from
    the n x r factor on range(P^H) (:func:`matcore.supported_norm`).
    """
    if which == "omega":
        return matcore.supported_norm(blk.resolvent @ (x - x0), blk.factors.z) / gamma
    return matcore.supported_norm(x - x0, blk.factors.z)


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

    Newton steps solve the exact derivative system delta -> A delta +
    S delta F = -R, with F = X/g + N for omega and F = -(N + C X/g) for wave.
    F and the residual R vanish on range(1 - P) as X and N do, so every
    iterate and correction does too.  With P = Q W (r = rank P, W Q = 1_r;
    Q and W are the factors stored on the block, ``blk.factors``) the
    correction is delta = Y W with A Y + S Y M = -R Q and M = W F Q.  In
    the Schur basis of M = Z T Z^H this Sylvester equation is r n x n column
    solves with A + T_jj S (Bartels-Stewart), in place of the (n r) x (n r)
    Kronecker system and the n^2 x n^2 Jacobian.  Residual and ball-radius
    norms are taken from the n x r factor on range(P^H)
    (:func:`matcore.supported_norm`), an upper bound of the spectral norm
    equal to it on such matrices.  The iteration aborts with
    :class:`BranchEscapeError` if an iterate leaves the certified uniqueness
    ball (when one exists), so the returned solution is always the branch
    selected by the perturbative initial guess.  Fixed-point iteration takes
    unrelaxed steps of the natural map.

    ``gamma`` and ``tol`` must be positive and finite, ``ell`` a block
    index and C an n x n matrix; like an unknown ``which`` or ``method``
    anything else raises ``ValueError`` before any iteration.
    """
    if which not in _EQUATIONS and which not in _CONJUGATES:
        raise ValueError(
            f"unknown equation {which!r}; expected one of "
            f"{sorted(_EQUATIONS) + sorted(_CONJUGATES)}"
        )
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {list(_METHODS)}")
    _require_positive(gamma=gamma, tol=tol)
    _require_block(dec, ell)
    cm = _weak_matrix(dec, c)
    blk = dec.blocks[ell]
    if report is None:
        report = kantorovich_report(dec, cm, gamma, ell)
    primal = _CONJUGATES.get(which, which)
    if primal != which:
        blk, cm = blk.transposed(), cm.T
    residual_fn, derivative_fn, map_sign = _EQUATIONS[primal]
    x0 = initial_guess(blk, cm, primal)
    # the certified ball is centered on the wave-equation initial guess
    center = blk.projection if primal == "wave" else np.zeros_like(x0)
    xi = report.xi if report.solvable else math.inf

    x = x0.copy()
    history = []
    res0 = None
    for it in range(max_iter):
        r = residual_fn(blk, cm, gamma, x)
        res = matcore.supported_norm(r, blk.factors.z)
        history.append(res)
        if res0 is None:
            res0 = res
        if res <= tol:
            info = {
                "iterations": it,
                "residual": res,
                "history": history,
                "method": method,
                "certified": report.solvable,
            }
            return (x if primal == which else x.T), info
        if not np.isfinite(res) or res > 1e6 * (1.0 + res0):
            raise ConvergenceError(
                f"{which} {method} iteration diverged on block {ell} "
                f"(residual {res:.3e})",
                residual=float(res),
                iterations=it,
            )
        if method == "newton":
            x = x + _range_step(blk, *derivative_fn(blk, cm, gamma, x), r)
        else:
            x = x + map_sign * r
        if math.isfinite(xi) and _ball_radius(blk, gamma, primal, x, center) >= xi:
            raise BranchEscapeError(
                f"{which} iterate on block {ell} left the uniqueness ball "
                f"(radius {xi:.3e}); target branch lost"
            )
    raise ConvergenceError(
        f"{which} {method} iteration did not reach tol {tol:.1e} on block "
        f"{ell} after {max_iter} iterations (residual {history[-1]:.3e})",
        residual=float(history[-1]),
        iterations=max_iter,
    )


def _range_step(blk, a, f, r):
    """Newton correction Y W, where A Y + S Y M = -R Q with M = W F Q.

    With M = Z T Z^H (complex Schur), Y' = Y Z solves A Y' + S Y' T =
    -R Q Z, whose column j is the n x n system (A + T_jj S) y'_j = g'_j -
    S sum_{k<j} y'_k T_kj, swept for j = 1..r.
    """
    q, w, s = blk.factors.q, blk.factors.w, blk.resolvent
    m = w @ f @ q
    t, z = sla.schur(m, output="complex")
    g = -(r @ q @ z)
    y = np.empty_like(g)
    for j in range(len(t)):
        y[:, j] = matcore.solve_linear(a + t[j, j] * s, g[:, j] - s @ (y[:, :j] @ t[:j, j]))
    return y @ (z.conj().T @ w)


def wave_from_omega(blk: EigenspaceData, omega, gamma: float) -> np.ndarray:
    return blk.projection - (blk.resolvent @ omega) / gamma


def omega_from_wave(blk: EigenspaceData, wave, c, gamma: float) -> np.ndarray:
    p, nil = blk.projection, blk.nilpotent
    cm = matcore.as_cmatrix(c)
    comp = np.eye(p.shape[0], dtype=np.complex128) - p
    return cm @ wave - comp @ wave @ (cm @ wave + gamma * nil)


@dataclass(frozen=True)
class BlochSolution:
    """Converged per-block solutions and their certification data."""

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


def solve_block(
    dec: SpectralDecomposition,
    c,
    gamma: float,
    ell: int,
    method: str = "newton",
    tol: float = DEFAULT_TOL,
) -> BlochSolution:
    """Solve both adiabatic Bloch equations on one block and certify.

    ``ell`` must be a block index and C an n x n matrix (``ValueError``).
    The equation residuals and the deformations ||U - P|| vanish on
    range(1 - P) (on range(1 - P^T) for the order-reversed ones) and are
    taken from the block's factors (:func:`matcore.supported_norm`); the
    four support checks ||X (1 - P)|| are n x n norms of one stack.
    """
    report = kantorovich_report(dec, c, gamma, ell)
    return _solve_block(dec, _weak_matrix(dec, c), gamma, ell, method, tol, report)


def _solve_block(dec, cm, gamma, ell, method, tol, report) -> BlochSolution:
    blk = dec.blocks[ell]
    omega, info_o = solve_equation(dec, cm, gamma, ell, "omega", method, tol, report=report)
    omega_conj, info_oc = solve_equation(
        dec, cm, gamma, ell, "omega_conj", method, tol, report=report
    )
    # the order-reversed quantities are the primal ones on transposed data
    blk_t = blk.transposed()
    wave = wave_from_omega(blk, omega, gamma)
    wave_conj = wave_from_omega(blk_t, omega_conj.T, gamma).T

    comp = np.eye(dec.dim, dtype=np.complex128) - blk.projection
    support = matcore.op_norm(
        np.stack([omega @ comp, comp @ omega_conj, wave @ comp, comp @ wave_conj])
    ).tolist()
    residuals = {
        "omega_eq": info_o["residual"],
        "omega_support": support[0],
        "omega_conj_eq": info_oc["residual"],
        "omega_conj_support": support[1],
        "wave_eq": matcore.supported_norm(
            wave_residual(blk, cm, gamma, wave), blk.factors.z
        ),
        "wave_support": support[2],
        "wave_conj_eq": matcore.supported_norm(
            wave_residual(blk_t, cm.T, gamma, wave_conj.T), blk_t.factors.z
        ),
        "wave_conj_support": support[3],
        # deformation sizes: the adiabatic branch satisfies ||U - P|| <= theta
        "wave_deformation": matcore.supported_norm(wave - blk.projection, blk.factors.z),
        "wave_conj_deformation": matcore.supported_norm(
            (wave_conj - blk.projection).T, blk_t.factors.z
        ),
    }
    return BlochSolution(
        ell=ell,
        omega=omega,
        omega_conj=omega_conj,
        wave=wave,
        wave_conj=wave_conj,
        residuals=residuals,
        iterations={"omega": info_o["iterations"], "omega_conj": info_oc["iterations"]},
        method=method,
        report=report,
        certified=bool(report.solvable),
    )


def solve_blocks(
    dec: SpectralDecomposition,
    c,
    gamma: float,
    method: str = "newton",
    tol: float = DEFAULT_TOL,
) -> list[BlochSolution]:
    """Independent per-block solves, in block order; ||C|| is taken once."""
    _require_positive(gamma=gamma)
    cm = _weak_matrix(dec, c)
    c_norm = matcore.op_norm(cm, "spectral")
    return [
        _solve_block(
            dec, cm, gamma, ell, method, tol, _kantorovich(blk, c_norm, gamma, ell, "spectral")
        )
        for ell, blk in enumerate(dec.blocks)
    ]


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
        j_max = self.order if order is None else min(order, self.order)
        out = np.zeros_like(self.coeffs[0])
        for j in range(j_max + 1):
            out = out + self.coeffs[j] / gamma**j
        return out


def omega_series(dec: SpectralDecomposition, c, ell: int, order: int) -> SeriesCoefficients:
    """Coefficients of omega from the order-by-order recursion.

    A bad ``ell`` or a negative ``order`` raises ``ValueError``.
    """
    return _omega_series(_series_block(dec, ell, order), matcore.as_cmatrix(c), ell, order)


def _omega_series(blk: EigenspaceData, cm: np.ndarray, ell: int, order: int) -> SeriesCoefficients:
    s = blk.resolvent
    coeffs = [bracket(blk, cm @ blk.projection, "right")]
    for j in range(1, order + 1):
        quad = sum(coeffs[j - 1 - i] @ coeffs[i] for i in range(j))
        rhs = -cm @ s @ coeffs[j - 1] + s @ quad
        coeffs.append(bracket(blk, rhs, "right"))
    return SeriesCoefficients(ell, "Omega_series", tuple(coeffs))


def generator_series(
    dec: SpectralDecomposition,
    c,
    ell: int,
    order: int,
    method: str = "recursion",
) -> SeriesCoefficients:
    """Block-generator coefficients D^(j) = P omega^(j).

    ``recursion`` builds them from the omega recursion for any order;
    ``closed`` evaluates the explicit bracket formulas (order <= 3), which
    the recursion must reproduce.  A bad ``ell`` or a negative ``order``
    raises ``ValueError``.
    """
    blk = _series_block(dec, ell, order)
    cm = matcore.as_cmatrix(c)
    if method == "recursion":
        om = omega_series(dec, c, ell, order)
        coeffs = tuple(blk.projection @ o for o in om.coeffs)
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
        return bracket(blk, a, "right")

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
    """Symmetrized generator coefficients through third order."""
    p, s, nil = blk.projection, blk.resolvent, blk.nilpotent

    def rb(a):
        return bracket(blk, a, "right")

    def lb(a):
        return bracket(blk, a, "left")

    s2 = s @ s
    s3 = s2 @ s
    k0 = p @ cm @ p
    k1 = -0.5 * (p @ cm @ s @ rb(cm) @ p + p @ lb(cm) @ s @ cm @ p)
    k2 = 0.5 * (
        p @ cm @ s @ rb(cm @ s @ rb(cm)) @ p
        + p @ lb(lb(cm) @ s @ cm) @ s @ cm @ p
        - p @ cm @ s2 @ rb(rb(cm) @ p @ cm) @ p
        - p @ lb(cm @ p @ lb(cm)) @ s2 @ cm @ p
    )
    core = lb(cm) @ s2 @ rb(cm)
    k3 = 0.5 * (
        -p @ cm @ s @ rb(cm @ s @ rb(cm @ s @ rb(cm))) @ p
        - p @ lb(lb(lb(cm) @ s @ cm) @ s @ cm) @ s @ cm @ p
        + p @ cm @ s @ rb(cm @ s2 @ rb(rb(cm) @ p @ cm)) @ p
        + p @ lb(lb(cm @ p @ lb(cm)) @ s2 @ cm) @ s @ cm @ p
        + p @ cm @ s2 @ rb(rb(cm) @ p @ cm @ s @ rb(cm)) @ p
        + p @ lb(lb(cm) @ s @ cm @ p @ lb(cm)) @ s2 @ cm @ p
        + p @ cm @ s2 @ rb(rb(cm @ s @ rb(cm)) @ p @ cm) @ p
        + p @ lb(cm @ p @ lb(lb(cm) @ s @ cm)) @ s2 @ cm @ p
        - p @ cm @ s3 @ rb(rb(rb(cm) @ p @ cm) @ p @ cm) @ p
        - p @ lb(cm @ p @ lb(cm @ p @ lb(cm))) @ s3 @ cm @ p
    ) + (
        -0.125 * (nil @ core @ p @ core @ p + p @ core @ p @ core @ nil)
        + 0.25 * (p @ core @ nil @ core @ p)
    )
    return [k0, k1, k2, k3]


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

    ``closed`` evaluates the explicit formulas (order <= 3).  ``series``
    expands K = g (Y^(1/2) N Y^(-1/2) - N) + Y^(1/2) D Y^(-1/2), Y = 1 +
    omega_conj S^2 omega / g^2, from the omega series with binomial series
    for the roots, at any order.  Every term lives on range(P), so with
    P = Q W it is carried as the r x r matrix W (.) Q, and coefficient j is
    Q k_j W.  A bad ``ell`` or a negative ``order`` raises ``ValueError``.
    """
    blk = _series_block(dec, ell, order)
    cm = matcore.as_cmatrix(c)
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
    om_q = [o @ q for o in omega_series(dec, c, ell, work).coeffs]
    # omega_conj's coefficients: the omega recursion on transposed data
    w_omc = [w @ o.T for o in _omega_series(blk.transposed(), cm.T, ell, work).coeffs]
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
    is reported as ``leakage_free_defect``.
    """
    blk = dec.blocks[ell]
    cm = matcore.as_cmatrix(c)
    dm = matcore.as_cmatrix(d_block)
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
