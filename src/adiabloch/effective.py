"""Assembly of the global effective generators and their error bounds.

From the per-block solutions of the adiabatic Bloch equations this module
builds the three effective generators sharing the block structure of the
strong part: the one-sided generators D = sum_l P_l omega_l and its
conjugate, and the symmetrized generator K obtained from the direct
rotation W_l = (Ptilde_l P_l)^(1/2), where Ptilde_l is the perturbed
spectral projection of the full generator; K_l, W_l and Ptilde_l are built
on the r x r factors of P_l.  It also verifies the similarity/intertwining
relations and evaluates the uniform-in-time (eternal) error bounds.

The block data of a solution mapped from another block (the second member
of a conjugate orbit, see :mod:`bloch`) are the images X -> F conj(X) F of
that block's D_l, its conjugate, K_l, W_l, W_l^-1 and Ptilde_l, and the
threshold gamma_l is taken once per orbit.  :func:`verify_similarity`
checks every block, mapped or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import matcore
from .bloch import BlochSolution, _gamma_min
from .errors import ConvergenceError
from .liouville import Superoperator, _hp_image_of
from .spectral import SpectralDecomposition, _as_matrix


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

    def image(self, ell: int) -> BlockEffective:
        """This block's data carried to block ``ell`` by X -> F conj(X) F."""
        return _hp_image_of(self, ell=ell)


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
    entrywise cut is needed.  A mapped solution gets its block's data mapped.
    ``gamma`` must be positive and finite (``ValueError``).
    """
    matcore._require_positive(gamma=gamma)
    _require_one_per_block(dec, solutions, "solution")
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
        if sol.mapped_from is not None:
            blocks.append(blocks[sol.mapped_from].image(ell))
            continue
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
        adiabatic=Superoperator(dim, sum(b.d_block for b in blocks)),
        adiabatic_conj=Superoperator(dim, sum(b.d_conj_block for b in blocks)),
        schrieffer_wolff=Superoperator(dim, sum(b.k_block for b in blocks)),
        transform=sum(sol.wave for sol in solutions),
        transform_conj=sum(sol.wave_conj for sol in solutions),
        rotation=sum(b.rotation for b in blocks),
        rotation_inv=sum(b.rotation_inv for b in blocks),
        blocks=tuple(blocks),
    )


def _require_one_per_block(dec: SpectralDecomposition, items, what: str) -> None:
    if len(items) != len(dec.blocks):
        raise ValueError(
            f"need one {what} per block: got {len(items)} for {len(dec.blocks)} blocks"
        )


def verify_similarity(
    gen: EffectiveGenerators,
    dec: SpectralDecomposition,
    b,
    c,
    gamma: float,
    solutions: list[BlochSolution],
) -> dict:
    """Residuals of all intertwining/similarity relations, spectral norm.

    Each per-block relation X is formed as an n x n matrix from the stored
    data, and its norm is :func:`matcore.supported_norm` on a basis V of the
    space its rows should lie in: sqrt(||X V||_2^2 + ||X - X V V^H||_F^2),
    an upper bound of ||X||_2, equal to it when the relation holds on that
    support.  A matrix pushed off its support is still seen, through the
    Frobenius term, and no n x n SVD is taken per block.  The bases are

    * Z, the basis of range(P^H) on the block: the intertwining relation
      (g B + C) U - U (g B + D_l), the rotation square W_l^2 - Ptilde_l P and
      the direct against the symmetric K_l, which all end in P;
    * conj(Q) for the transpose of the conjugate intertwining relation
      Utilde (g B + C) - (g B + Dtilde_l) Utilde, which starts with P;
    * an orthonormal basis of range(Ptilde^H), the rows of W Utilde, for
      the idempotency Ptilde^2 - Ptilde;
    * one of range(Ptilde^H) + range((g B + C)^H Ptilde^H) for the
      commutation (g B + C) Ptilde - Ptilde (g B + C).

    The global similarity and the spectral distance are taken once, on the
    n x n generators.  It needs one solution and one block generator per
    block, and a positive finite ``gamma``; anything else raises
    ``ValueError`` before any work.
    """
    matcore._require_positive(gamma=gamma)
    _require_one_per_block(dec, solutions, "solution")
    _require_one_per_block(dec, gen.blocks, "block generator")
    bm = _as_matrix(b, dec.dim, "b")
    cm = _as_matrix(c, dec.dim, "c")
    total = gamma * bm + cm
    # in the order returned; the per-block relations are the stack below,
    # and the global two are set once, after it
    report = dict.fromkeys(
        ("intertwine", "intertwine_conj", "global_similarity", "rotation_square",
         "projection_idempotency", "projection_commutation", "direct_vs_symmetric_k",
         "spectral_distance"), 0.0
    )
    per_block = [key for key in report if key not in ("global_similarity", "spectral_distance")]
    for blk, sol, eff in zip(dec.blocks, solutions, gen.blocks):
        p, nil, f = blk.projection, blk.nilpotent, blk.factors
        b_block = blk.eigenvalue * p + nil
        d_full = gamma * bm + eff.d_block
        dc_full = gamma * bm + eff.d_conj_block
        pt = eff.projection_perturbed
        # direct Schrieffer-Wolff similarity as an independent route to K
        k_direct = eff.rotation_inv @ total @ eff.rotation - gamma * b_block
        rows = np.linalg.qr((f.w @ sol.wave_conj).conj().T)[0]
        bases = (
            f.z, f.q.conj(), f.z, rows,
            np.linalg.qr(np.hstack([rows, total.conj().T @ rows]))[0], f.z,
        )
        values = matcore.supported_norm(
            np.stack([
                total @ sol.wave - sol.wave @ d_full,
                (sol.wave_conj @ total - dc_full @ sol.wave_conj).T,
                eff.rotation @ eff.rotation - pt @ p,
                pt @ pt - pt,
                total @ pt - pt @ total,
                k_direct - eff.k_block,
            ]),
            bases,
        )
        report.update({key: max(report[key], float(val)) for key, val in zip(per_block, values)})
    k_full = gamma * bm + gen.schrieffer_wolff.matrix
    report["global_similarity"] = float(
        matcore.op_norm(total @ gen.rotation - gen.rotation @ k_full, "spectral")
    )
    report["spectral_distance"] = float(
        multiset_spectral_distance(np.linalg.eigvals(total), np.linalg.eigvals(k_full))
    )
    return report


def multiset_spectral_distance(e1, e2) -> float:
    """Greedy nearest-neighbor matching distance between eigenvalue multisets.
    Each must be 1-d (``ValueError`` naming ``e1`` or ``e2``); a NaN or
    infinite eigenvalue raises :class:`NonFiniteError`."""
    a, b = (matcore._ensure_finite(np.asarray(e, dtype=np.complex128), "spectrum") for e in (e1, e2))
    for name, e in (("e1", a), ("e2", b)):
        if e.ndim != 1:
            raise ValueError(f"{name} must be a 1-d array of eigenvalues, got shape {e.shape}")
    a = sorted(a, key=lambda z: (z.real, z.imag))
    b = list(b)
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
    semigroup_bound: float
    unitary_bound: float | None = None


def eternal_bound(
    dec: SpectralDecomposition,
    c,
    gamma: float,
    *,
    unitary: bool = False,
    semigroup_bound: float = 1.0,
) -> BoundReport:
    """Evaluate the per-block thresholds and the explicit eternal bounds.

    Every figure is in the spectral norm, the one in which the
    Newton-Kantorovich ball and the similarity are certified: the
    thresholds gamma_l = 4 mu_l ||S_l|| ||C|| ||P_l|| and the block norms
    ||P_l|| are spectral norms.  The loose bound (1/g) sum_l gamma_l ||P_l||
    requires g >= 2 max gamma_l (``applicable``) and carries no factor M.
    The paper states it in the norm induced by the trace norm, in which a
    CPTP semigroup is a contraction; in the spectral norm the semigroup
    norm can exceed 1 (M = 1.52 on Lambda at the coupling of
    ``bench.bound_check``).  The tight bounds are multiplied by the
    semigroup bound M >= sup_t ||e^(t(gB+C))||_2 (``semigroup_bound``).
    The optional unitary-case bound uses ||C||_2 and the spectral gap of
    the strong generator.  ``gamma`` and ``semigroup_bound`` must be
    positive and finite (``ValueError``); ``unitary`` and
    ``semigroup_bound`` are keyword-only.  ||C|| is taken once per call and
    ||P_l|| is read from the singular values stored with each block.
    gamma_l is taken once per conjugate orbit: its norms are unchanged by
    the map.
    """
    matcore._require_positive(gamma=gamma, semigroup_bound=semigroup_bound)
    c_norm = matcore.op_norm(_as_matrix(c, dec.dim, "c"), "spectral")
    gamma_blocks = []
    for ell, blk in enumerate(dec.blocks):
        first = dec.images.get(ell)
        gamma_blocks.append(_gamma_min(blk, c_norm) if first is None else gamma_blocks[first])
    gamma_blocks = tuple(gamma_blocks)
    report = _bounds_at(dec, gamma_blocks, gamma, semigroup_bound)
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
    semigroup_bound: float,
) -> BoundReport:
    """The eternal bounds at a positive ``gamma`` from thresholds already taken.

    The thresholds gamma_l do not depend on the coupling, so a caller that
    holds them (``eternal_bound(...).gamma_blocks`` at any coupling) gets the
    bounds at another coupling without a norm of S_l, N_l or C.  No
    unitary-case bound is formed.
    """
    p_norms = [blk.factors.norm() for blk in dec.blocks]
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
        semigroup_bound=float(semigroup_bound),
    )
