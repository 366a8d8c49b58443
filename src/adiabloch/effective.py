"""Assembly of the global effective generators and their error bounds.

From the per-block solutions of the adiabatic Bloch equations this module
builds the three effective generators sharing the block structure of the
strong part: the one-sided generators D = sum_l P_l omega_l and its
conjugate, and the symmetrized generator K obtained from the direct
rotation W_l = (Ptilde_l P_l)^(1/2), where Ptilde_l is the perturbed
spectral projection of the full generator; K_l, W_l and Ptilde_l are built
on the r x r factors of P_l.  It also verifies the similarity/intertwining
relations and evaluates the uniform-in-time (eternal) error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import matcore
from .bloch import BlochSolution, _gamma_min, _require_positive
from .errors import ConvergenceError
from .liouville import Superoperator
from .spectral import SpectralDecomposition


@dataclass(frozen=True)
class BlockEffective:
    """Per-eigenspace effective data: generators, rotation, projection."""

    ell: int
    d_block: np.ndarray
    d_conj_block: np.ndarray
    k_block: np.ndarray
    rotation: np.ndarray
    rotation_inv: np.ndarray
    projection_perturbed: np.ndarray


@dataclass(frozen=True)
class EffectiveGenerators:
    """Global effective generators and similarity transforms."""

    dim: int
    gamma: float
    adiabatic: Superoperator        # D: one-sided resummed generator
    adiabatic_conj: Superoperator   # conjugate counterpart
    schrieffer_wolff: Superoperator # K: symmetrized generator
    transform: np.ndarray           # U  with (gB + C) U = U (gB + D)
    transform_conj: np.ndarray      # Utilde
    rotation: np.ndarray            # W  = sum_l W_l
    rotation_inv: np.ndarray
    blocks: tuple = ()


def build_effective(
    dec: SpectralDecomposition,
    c,
    gamma: float,
    solutions: list[BlochSolution],
) -> EffectiveGenerators:
    """Assemble D, its conjugate, K, and the transforms U, Utilde, W.

    Requires one converged solution per spectral block.  With Y = 1 +
    omega_conj S^2 omega / g^2, W_l = U Y^(-1/2) P, W_l^-1 = Y^(-1/2) Utilde,
    Ptilde_l = U Y^-1 Utilde, and K_l takes the cancellation-free form
    g (Y^(1/2) N Y^(-1/2) - N) P + Y^(1/2) D_l Y^(-1/2) P, identical to
    W_l^-1 (g B + C) W_l - g B_l (cross-checked by :func:`verify_similarity`)
    without the large-g subtraction.  omega = omega P and omega_conj =
    P omega_conj, so Y - 1 = P (Y - 1) P, and with P = Q W (W Q = 1_r)
    Y^(1/2) = (1 - P) + Q M W for the r x r root M = (1_r + W (Y - 1) Q)^(1/2).
    With d = W omega Q, so that D_l = Q d W, and n = W N Q:

        K_l = Q [g (M n M^-1 - n) + M d M^-1] W,
        W_l = (U Q) M^-1 W,    W_l^-1 = Q M^-1 (W Utilde),
        Ptilde_l = (U Q) M^-2 (W Utilde).

    The root and the solves are r x r, and K_l = Q k W keeps the block
    structure by construction, so no rounding leaks off the block and no
    entrywise cut is needed.
    """
    if len(solutions) != len(dec.blocks):
        raise ValueError(
            f"need one solution per block: got {len(solutions)} for "
            f"{len(dec.blocks)} blocks"
        )
    for sol in solutions:
        if not all(np.isfinite(v) for v in sol.residuals.values()):
            raise ConvergenceError(f"block {sol.ell} solution has non-finite residuals")
    n = dec.dim
    dim = int(round(math.sqrt(n)))
    if dim * dim != n:
        raise ValueError(
            f"effective generators act on vectorized density operators; "
            f"matrix size {n} is not a squared Hilbert-space dimension"
        )
    blocks = []
    for ell, (blk, sol) in enumerate(zip(dec.blocks, solutions)):
        s, q, w = blk.resolvent, blk.factors.q, blk.factors.w
        om_q, w_omc = sol.omega @ q, w @ sol.omega_conj
        d_core = w @ om_q
        eye = np.eye(blk.rank, dtype=np.complex128)
        core = eye + w_omc @ (s @ (s @ om_q)) / gamma**2
        root = matcore.principal_sqrt(core)
        root_inv = matcore.solve_linear(root, eye)
        nil = w @ blk.nilpotent @ q
        k_core = gamma * (root @ nil @ root_inv - nil) + root @ d_core @ root_inv
        u_q, w_uc = sol.wave @ q, w @ sol.wave_conj
        blocks.append(
            BlockEffective(
                ell=ell,
                d_block=q @ d_core @ w,
                d_conj_block=q @ (w_omc @ q) @ w,
                k_block=q @ k_core @ w,
                rotation=u_q @ root_inv @ w,
                rotation_inv=q @ root_inv @ w_uc,
                projection_perturbed=u_q @ matcore.solve_linear(core, w_uc),
            )
        )
    return EffectiveGenerators(
        dim=dim,
        gamma=gamma,
        adiabatic=Superoperator(dim, sum(b.d_block for b in blocks), "effective_D"),
        adiabatic_conj=Superoperator(dim, sum(b.d_conj_block for b in blocks), "effective_Dt"),
        schrieffer_wolff=Superoperator(dim, sum(b.k_block for b in blocks), "effective_K"),
        transform=sum(sol.wave for sol in solutions),
        transform_conj=sum(sol.wave_conj for sol in solutions),
        rotation=sum(b.rotation for b in blocks),
        rotation_inv=sum(b.rotation_inv for b in blocks),
        blocks=tuple(blocks),
    )


def verify_similarity(
    gen: EffectiveGenerators,
    dec: SpectralDecomposition,
    b,
    c,
    gamma: float,
    solutions: list[BlochSolution],
) -> dict:
    """Residuals of all intertwining/similarity relations, spectral norm."""
    bm = b.matrix if isinstance(b, Superoperator) else matcore.as_cmatrix(b)
    cm = c.matrix if isinstance(c, Superoperator) else matcore.as_cmatrix(c)
    total = gamma * bm + cm
    intertwine = 0.0
    intertwine_conj = 0.0
    rotation_sq = 0.0
    conj_consistency = 0.0
    proj_idem = 0.0
    proj_commut = 0.0
    for blk, sol, eff in zip(dec.blocks, solutions, gen.blocks):
        p, nil = blk.projection, blk.nilpotent
        b_block = blk.eigenvalue * p + nil
        d_full = gamma * bm + eff.d_block
        dc_full = gamma * bm + eff.d_conj_block
        intertwine = max(
            intertwine,
            matcore.op_norm(total @ sol.wave - sol.wave @ d_full, "spectral"),
        )
        intertwine_conj = max(
            intertwine_conj,
            matcore.op_norm(sol.wave_conj @ total - dc_full @ sol.wave_conj, "spectral"),
        )
        pt = eff.projection_perturbed
        rotation_sq = max(
            rotation_sq,
            matcore.op_norm(eff.rotation @ eff.rotation - pt @ p, "spectral"),
        )
        proj_idem = max(proj_idem, matcore.op_norm(pt @ pt - pt, "spectral"))
        proj_commut = max(proj_commut, matcore.op_norm(total @ pt - pt @ total, "spectral"))
        # direct Schrieffer-Wolff similarity as an independent route to K
        k_direct = eff.rotation_inv @ total @ eff.rotation - gamma * b_block
        conj_consistency = max(
            conj_consistency, matcore.op_norm(k_direct - eff.k_block, "spectral")
        )
    k_full = gamma * bm + gen.schrieffer_wolff.matrix
    global_sim = matcore.op_norm(
        total @ gen.rotation - gen.rotation @ k_full, "spectral"
    )
    spec_dist = multiset_spectral_distance(
        np.linalg.eigvals(total), np.linalg.eigvals(k_full)
    )
    return {
        "intertwine": float(intertwine),
        "intertwine_conj": float(intertwine_conj),
        "global_similarity": float(global_sim),
        "rotation_square": float(rotation_sq),
        "projection_idempotency": float(proj_idem),
        "projection_commutation": float(proj_commut),
        "direct_vs_symmetric_k": float(conj_consistency),
        "spectral_distance": float(spec_dist),
    }


def multiset_spectral_distance(e1, e2) -> float:
    """Greedy nearest-neighbor matching distance between eigenvalue multisets."""
    a = sorted(np.asarray(e1, dtype=np.complex128), key=lambda z: (z.real, z.imag))
    b = list(np.asarray(e2, dtype=np.complex128))
    if len(a) != len(b):
        raise ValueError("spectra have different sizes")
    worst = 0.0
    for z in a:
        dist = [abs(z - w) for w in b]
        j = int(np.argmin(dist))
        worst = max(worst, dist[j])
        del b[j]
    return float(worst)


@dataclass(frozen=True)
class BoundReport:
    """Uniform-in-time error bounds for the effective evolutions."""

    gamma: float
    gamma_blocks: tuple
    loose_bound: float
    tight_bound_d: float
    tight_bound_k: float
    applicable: bool
    norm_kind: str
    semigroup_bound: float
    unitary_bound: float | None = None


def eternal_bound(
    dec: SpectralDecomposition,
    c,
    gamma: float,
    norm_kind: str = "spectral",
    unitary: bool = False,
    semigroup_bound: float = 1.0,
) -> BoundReport:
    """Evaluate the per-block thresholds and the explicit eternal bounds.

    The loose bound (1/g) sum_l gamma_l ||P_l|| is stated for the norm
    induced by the operator trace norm and requires g >= 2 max gamma_l
    (``applicable``); the tight bounds hold in any unitarily invariant
    norm once multiplied by the semigroup bound M >= sup_t ||e^(t(gB+C))||
    measured in that same norm.  The optional unitary-case bound uses the
    spectral gap of the strong generator.  ``gamma`` must be positive and
    finite (``ValueError``).  ||C|| is taken once per call and ||P_l|| is
    read from the singular values stored with each block.
    """
    _require_positive(gamma=gamma)
    cm = c.matrix if isinstance(c, Superoperator) else matcore.as_cmatrix(c)
    c_norm = matcore.op_norm(cm, norm_kind)
    gamma_blocks = tuple(_gamma_min(blk, c_norm, norm_kind) for blk in dec.blocks)
    report = _bounds_at(dec, gamma_blocks, gamma, norm_kind, semigroup_bound)
    if not unitary:
        return report
    eigs = dec.eigenvalues
    gaps = [
        abs(eigs[i] - eigs[j])
        for i in range(len(eigs))
        for j in range(i + 1, len(eigs))
    ]
    eta = min(gaps) if gaps else math.inf
    x = 4.0 * c_norm / (gamma * eta)
    if x < 1.0:
        unitary_bound = 2.0 * math.sqrt(len(dec.blocks)) * ((1.0 - x) ** -0.25 - 1.0)
    else:
        unitary_bound = math.inf
    return replace(report, unitary_bound=unitary_bound)


def _bounds_at(
    dec: SpectralDecomposition,
    gamma_blocks: tuple,
    gamma: float,
    norm_kind: str,
    semigroup_bound: float,
) -> BoundReport:
    """The eternal bounds at a positive ``gamma`` from thresholds already taken.

    The thresholds gamma_l do not depend on the coupling, so a caller that
    holds them (``eternal_bound(...).gamma_blocks`` at any coupling) gets the
    bounds at another coupling without a norm of S_l, N_l or C.  No
    unitary-case bound is formed.
    """
    p_norms = [blk.factors.norm(norm_kind) for blk in dec.blocks]
    loose = sum(gl * pn for gl, pn in zip(gamma_blocks, p_norms)) / gamma
    applicable = gamma >= 2.0 * max(gamma_blocks) if gamma_blocks else True

    tight_d = 0.0
    tight_k = 0.0
    for gl, pn in zip(gamma_blocks, p_norms):
        x = gl / gamma
        if x >= 1.0:
            tight_d = tight_k = math.inf
            break
        root = math.sqrt(1.0 - x)
        quarter = (1.0 - x) ** 0.25
        tight_d += (1.0 / root - 1.0) * pn
        tight_k += (1.0 / root + 1.0) * (1.0 / quarter - 1.0) * pn
    tight_d *= semigroup_bound
    tight_k *= semigroup_bound
    return BoundReport(
        gamma=float(gamma),
        gamma_blocks=gamma_blocks,
        loose_bound=float(loose),
        tight_bound_d=float(tight_d),
        tight_bound_k=float(tight_k),
        applicable=bool(applicable),
        norm_kind=norm_kind,
        semigroup_bound=float(semigroup_bound),
    )
