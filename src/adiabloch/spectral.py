"""Canonical spectral data of the strong generator.

A square matrix B is decomposed as B = sum_l (b_l P_l + N_l) with distinct
eigenvalues b_l, (generally non-Hermitian) spectral projections P_l,
nilpotents N_l of index n_l, and reduced resolvents

    S_l = sum_{k != l} (b_k - b_l + N_k)^{-1} P_k,

which satisfy P_l S_l = S_l P_l = 0 and (B - b_l) S_l = 1 - P_l.

The numerical route avoids explicit Jordan forms: a complex Schur form is
reordered so equal-eigenvalue clusters are contiguous, then the coupling
between clusters is removed with Sylvester solves, giving a well-conditioned
block-diagonalizing similarity.  The inverse in S_l is evaluated as a finite
Neumann series in the nilpotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from . import matcore
from .errors import ClusterAmbiguityError, SingularMatrixError
from .liouville import Superoperator

# Entries of computed nilpotents below this (times max(1, ||B||)) are zeroed:
# strict enough to keep reconstruction residuals at rounding level, loose
# enough to remove Schur/Sylvester noise on diagonalizable blocks.
NILPOTENT_CUT = 1e-12


@dataclass(frozen=True)
class EigenspaceData:
    """Spectral data of one distinct eigenvalue of the decomposed matrix."""

    eigenvalue: complex
    projection: np.ndarray
    nilpotent: np.ndarray
    index: int
    resolvent: np.ndarray
    rank: int

    def transposed(self) -> EigenspaceData:
        """The same eigenspace of the transposed matrix.

        B^T = sum_l (b_l P_l^T + N_l^T) with S_l^T as reduced resolvents:
        transposition reverses products and keeps ranks, so it preserves
        idempotency, mutual annihilation, the nilpotency index and the rank,
        and the eigenvalue is unchanged.
        """
        return replace(
            self,
            projection=self.projection.T,
            nilpotent=self.nilpotent.T,
            resolvent=self.resolvent.T,
        )


@dataclass(frozen=True)
class SpectralDecomposition:
    dim: int
    blocks: tuple
    residuals: dict = field(default_factory=dict)
    cluster_tol: float = 0.0

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([b.eigenvalue for b in self.blocks])

    def block(self, ell: int) -> EigenspaceData:
        return self.blocks[ell]

    def identity_minus(self, ell: int) -> np.ndarray:
        return np.eye(self.dim, dtype=np.complex128) - self.blocks[ell].projection

    def transposed(self) -> SpectralDecomposition:
        """Decomposition of the transposed matrix, block by block."""
        return replace(
            self, blocks=tuple(blk.transposed() for blk in self.blocks)
        )


def _as_matrix(b) -> np.ndarray:
    m = b.matrix if isinstance(b, Superoperator) else matcore.as_cmatrix(b)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"decompose requires a square matrix, got {m.shape}")
    return np.asarray(m, dtype=np.complex128)


def _cluster_eigenvalues(eigs: np.ndarray, tol: float) -> list[list[int]]:
    """Single-linkage clusters of eigenvalues at threshold ``tol``."""
    order = np.lexsort((eigs.imag, eigs.real))
    clusters: list[list[int]] = []
    for idx in order:
        for members in clusters:
            if any(abs(eigs[idx] - eigs[j]) <= tol for j in members):
                members.append(idx)
                break
        else:
            clusters.append([idx])
    # single linkage: merge clusters that touch through chains
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if any(
                    abs(eigs[a] - eigs[b]) <= tol
                    for a in clusters[i]
                    for b in clusters[j]
                ):
                    clusters[i].extend(clusters[j])
                    del clusters[j]
                    merged = True
                    break
            if merged:
                break
    return clusters


def _swap_adjacent(t: np.ndarray, z: np.ndarray, i: int) -> None:
    """Unitary swap of diagonal entries i and i+1 of triangular t, in place."""
    a = t[i, i]
    b = t[i + 1, i + 1]
    c = t[i, i + 1]
    v = np.array([c, b - a], dtype=np.complex128)
    nv = np.linalg.norm(v)
    if nv == 0.0:  # already decoupled and equal; nothing to do
        return
    v /= nv
    g = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])
    t[:, i : i + 2] = t[:, i : i + 2] @ g
    t[i : i + 2, :] = g.conj().T @ t[i : i + 2, :]
    z[:, i : i + 2] = z[:, i : i + 2] @ g
    t[i + 1, i] = 0.0


def _default_cluster_tol(norm_b: float) -> float:
    """Cluster tolerance 1e-8 * max(||B||, 1) used when none is given."""
    return 1e-8 * max(norm_b, 1.0)


def decompose(b, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Full spectral decomposition of a square matrix.

    Eigenvalues closer than ``cluster_tol`` (default 1e-8 * max(||B||, 1))
    are treated as one degenerate eigenvalue, represented by their mean; the
    gap between distinct clusters must exceed 10 * cluster_tol, otherwise a
    :class:`ClusterAmbiguityError` reports the offending gap.
    """
    mat = _as_matrix(b)
    n = mat.shape[0]
    norm_b = matcore.op_norm(mat, "spectral")
    if cluster_tol is None:
        cluster_tol = _default_cluster_tol(norm_b)

    t, z = sla.schur(mat, output="complex")
    eigs = np.diag(t).copy()
    clusters = _cluster_eigenvalues(eigs, cluster_tol)
    reps = [np.mean([eigs[i] for i in members]) for members in clusters]

    if len(clusters) > 1:
        gaps = [
            abs(reps[i] - reps[j])
            for i in range(len(clusters))
            for j in range(i + 1, len(clusters))
        ]
        min_gap = min(gaps)
        if min_gap <= 10 * cluster_tol:
            raise ClusterAmbiguityError(
                f"eigenvalue clusters separated by {min_gap:.3e} <= "
                f"10 * cluster_tol = {10 * cluster_tol:.3e}; decomposition "
                "is ambiguous at this tolerance",
                gap=float(min_gap),
            )

    # deterministic cluster order: decreasing real part, then imaginary part
    rank_of = np.empty(len(clusters), dtype=int)
    order = sorted(
        range(len(clusters)), key=lambda k: (-reps[k].real, reps[k].imag)
    )
    for pos, k in enumerate(order):
        rank_of[k] = pos

    label = np.empty(n, dtype=int)
    for k, members in enumerate(clusters):
        for i in members:
            label[i] = rank_of[k]

    # bubble equal labels together with unitary adjacent swaps
    labels = [label[i] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if labels[i] > labels[i + 1]:
                _swap_adjacent(t, z, i)
                labels[i], labels[i + 1] = labels[i + 1], labels[i]
                changed = True

    sizes = [labels.count(k) for k in range(len(clusters))]
    starts = np.concatenate(([0], np.cumsum(sizes)))
    reps_ordered = [reps[order[k]] for k in range(len(clusters))]

    # remove coupling of each leading block to everything after it
    v = z.copy()
    for k in range(len(clusters) - 1):
        i0, i1 = starts[k], starts[k + 1]
        t11 = t[i0:i1, i0:i1]
        t22 = t[i1:, i1:]
        t12 = t[i0:i1, i1:]
        x = matcore.solve_sylvester(t11, t22, -t12)
        # similarity by Y = [[I, X], [0, I]] on the trailing subspace
        t[i0:i1, i1:] = 0.0
        t[:i0, i1:] += t[:i0, i0:i1] @ x
        v[:, i1:] += v[:, i0:i1] @ x

    vinv = matcore.solve_linear(v, np.eye(n, dtype=np.complex128))
    blocks = _assemble_blocks(mat, v, vinv, starts, reps_ordered, cluster_tol, norm_b)
    dec = SpectralDecomposition(
        dim=n,
        blocks=tuple(blocks),
        residuals={},
        cluster_tol=float(cluster_tol),
    )
    object.__setattr__(dec, "residuals", validate(dec, mat))
    return dec


def robust_decompose(matrix, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Spectral decomposition with cluster-tolerance escalation.

    When the clustering is ambiguous (degenerate eigenvalues of the strong
    part split by rounding, e.g. around Jordan blocks) the tolerance is
    escalated by factors of 100, at most twice; the tolerance actually used
    is recorded on the returned decomposition.
    """
    tol_try = cluster_tol
    last_exc = None
    for _attempt in range(3):
        try:
            return decompose(matrix, tol_try)
        except ClusterAmbiguityError as exc:
            last_exc = exc
            base = tol_try if tol_try is not None else _default_cluster_tol(
                matcore.op_norm(_as_matrix(matrix), "spectral")
            )
            tol_try = 100.0 * base
    raise last_exc


def _assemble_blocks(mat, v, vinv, starts, reps, cluster_tol, norm_b):
    n = mat.shape[0]
    cut = NILPOTENT_CUT * max(norm_b, 1.0)
    blocks = []
    raw = []
    for k, b_k in enumerate(reps):
        i0, i1 = starts[k], starts[k + 1]
        proj = v[:, i0:i1] @ vinv[i0:i1, :]
        nil = (mat - b_k * np.eye(n)) @ proj
        nil[np.abs(nil) < cut] = 0.0
        raw.append((complex(b_k), proj, nil, int(i1 - i0)))

    idx_tol = 10.0 * cluster_tol
    indices = []
    for b_k, proj, nil, rank in raw:
        idx = 1
        power = nil.copy()
        while matcore.op_norm(power, "spectral") > idx_tol and idx < rank:
            power = power @ nil
            idx += 1
        if matcore.op_norm(power, "spectral") > idx_tol:
            idx = rank  # defect shows up in the validation residuals
        indices.append(idx)

    for ell, (b_l, proj_l, nil_l, rank_l) in enumerate(raw):
        resolvent = np.zeros((n, n), dtype=np.complex128)
        for k, (b_k, proj_k, nil_k, _rank) in enumerate(raw):
            if k == ell:
                continue
            gap = b_k - b_l
            term = proj_k / gap
            power = proj_k
            for _m in range(1, indices[k]):
                power = (-1.0 / gap) * (nil_k @ power)
                term += power / gap
            resolvent += term
        blocks.append(
            EigenspaceData(
                eigenvalue=b_l,
                projection=proj_l,
                nilpotent=nil_l,
                index=indices[ell],
                resolvent=resolvent,
                rank=rank_l,
            )
        )
    return blocks


def validate(dec: SpectralDecomposition, b) -> dict:
    """Residual report certifying a decomposition against its matrix.

    All norms are spectral.  ``rank_consistent`` cross-checks the nilpotent
    index against numerical ranks of the nilpotent powers.
    """
    mat = _as_matrix(b)
    n = mat.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    norm_b = max(matcore.op_norm(mat, "spectral"), 1.0)

    proj_sum = np.zeros_like(mat)
    recon = np.zeros_like(mat)
    idem = 0.0
    ortho = 0.0
    commut = 0.0
    resolvent_defect = 0.0
    nilpotency = 0.0
    annihilation = 0.0
    rank_ok = True
    total_rank = 0
    for i, blk in enumerate(dec.blocks):
        p, nil, s = blk.projection, blk.nilpotent, blk.resolvent
        proj_sum += p
        recon += blk.eigenvalue * p + nil
        idem = max(idem, matcore.op_norm(p @ p - p, "spectral"))
        commut = max(commut, matcore.op_norm(mat @ p - p @ mat, "spectral"))
        for j, other in enumerate(dec.blocks):
            if i != j:
                ortho = max(ortho, matcore.op_norm(p @ other.projection, "spectral"))
        resolvent_defect = max(
            resolvent_defect,
            matcore.op_norm((mat - blk.eigenvalue * eye) @ s - (eye - p), "spectral"),
            matcore.op_norm(s @ (mat - blk.eigenvalue * eye) - (eye - p), "spectral"),
        )
        annihilation = max(
            annihilation,
            matcore.op_norm(p @ s, "spectral"),
            matcore.op_norm(s @ p, "spectral"),
        )
        power = np.linalg.matrix_power(nil, blk.index) if blk.index > 0 else nil
        nilpotency = max(nilpotency, matcore.op_norm(power, "spectral"))
        if matcore.numerical_rank(power, tol=1e-7 * norm_b) != 0:
            rank_ok = False
        if blk.index > 1:
            prev = np.linalg.matrix_power(nil, blk.index - 1)
            if matcore.numerical_rank(prev, tol=1e-7 * norm_b) == 0:
                rank_ok = False
        total_rank += blk.rank

    return {
        "identity_defect": matcore.op_norm(proj_sum - eye, "spectral"),
        "idempotency_defect": float(idem),
        "orthogonality_defect": float(ortho),
        "commutation_defect": float(commut),
        "reconstruction_defect": matcore.op_norm(recon - mat, "spectral"),
        "resolvent_defect": float(resolvent_defect),
        "annihilation_defect": float(annihilation),
        "nilpotency_defect": float(nilpotency),
        "rank_consistent": bool(rank_ok),
        "rank_total": int(total_rank),
    }


def decompose_from_user(
    b, similarity, layout, cluster_tol: float = 1e-10
) -> SpectralDecomposition:
    """Decomposition from a user-supplied similarity and eigenvalue layout.

    ``layout`` is a sequence of (eigenvalue, size) pairs matching contiguous
    column groups of ``similarity``; projections are built exactly as
    R E_l R^{-1}, nilpotents as (B - b_l) P_l, so the validation residuals
    are limited only by the accuracy of the linear solves.
    """
    mat = _as_matrix(b)
    n = mat.shape[0]
    r = matcore.as_cmatrix(similarity)
    if r.shape != (n, n):
        raise ValueError(f"similarity must be {n}x{n}, got {r.shape}")
    sizes = [int(size) for _e, size in layout]
    if sum(sizes) != n:
        raise ValueError(f"layout sizes sum to {sum(sizes)}, expected {n}")
    try:
        rinv = matcore.solve_linear(r, np.eye(n, dtype=np.complex128))
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"user similarity is singular: {exc}", cond=exc.cond
        ) from exc
    starts = np.concatenate(([0], np.cumsum(sizes)))
    reps = [complex(e) for e, _size in layout]
    norm_b = matcore.op_norm(mat, "spectral")
    blocks = _assemble_blocks(mat, r, rinv, starts, reps, cluster_tol, norm_b)
    dec = SpectralDecomposition(
        dim=n,
        blocks=tuple(blocks),
        residuals={},
        cluster_tol=float(cluster_tol),
    )
    object.__setattr__(dec, "residuals", validate(dec, mat))
    return dec
