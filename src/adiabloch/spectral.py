"""Canonical spectral data of the strong generator.

A square matrix B is decomposed as B = sum_l (b_l P_l + N_l) with distinct
eigenvalues b_l, (generally non-Hermitian) spectral projections P_l,
nilpotents N_l of index n_l, and reduced resolvents

    S_l = sum_{k != l} (b_k - b_l + N_k)^{-1} P_k,

which satisfy P_l S_l = S_l P_l = 0 and (B - b_l) S_l = 1 - P_l.

The numerical route avoids explicit Jordan forms.  The eigenvalues on the
diagonal of a complex Schur form are clustered by single linkage, as the
connected components of the graph joining eigenvalues at most
``cluster_tol`` apart.  LAPACK ZTRSEN reorders the Schur form so that each
cluster is contiguous, then the coupling between clusters is removed with
Sylvester solves, giving a well-conditioned block-diagonalizing similarity.
The inverse in S_l is evaluated as a finite Neumann series in the
nilpotent.  :func:`validate` certifies the result; it stacks the P_l, N_l
and S_l of all blocks and measures each defect with one batched norm call.

Each block also carries the factors of its projection from one SVD
P_l = U diag(sigma) V^H of rank r_l (:class:`ProjectionFactors`): Q_l and
Z_l, the first r_l columns of U and V, span range(P_l) and range(P_l^H),
W_l = Q_l^H P_l, and the tail sigma_{r_l + 1} = ||P_l - Q_l W_l||.  A norm
taken from these n x r_l factors in place of an n x n SVD is always an
upper bound of the norm it replaces, equal to it (to rounding) when the
matrix vanishes on range(1 - P_l), so no certificate gets weaker:
orthogonality is measured as ||P_i P_j|| <= hypot(||W_i P_j||,
sigma_{r_i + 1}(P_i) ||P_j||), and matrices X = X P_l (Bloch residuals,
S_l P_l) through :func:`matcore.supported_norm` with Z_l.
"""

from __future__ import annotations

import math
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
class ProjectionFactors:
    """Factors of a rank-r projection P from one SVD P = U diag(sigma) V^H.

    ``q`` = U[:, :r] is an orthonormal basis of range(P), ``z`` = V[:, :r]
    one of range(P^H), and ``w`` = Q^H P, so P = Q W + T with
    ||T|| = ``tail`` = sigma_{r+1} (0 when r = n), at rounding level for a
    computed projection of rank r.  ``singular_values`` gives ||P|| in any
    unitarily invariant norm without another SVD.
    """

    q: np.ndarray
    z: np.ndarray
    w: np.ndarray
    singular_values: np.ndarray

    @classmethod
    def of(cls, projection: np.ndarray, rank: int) -> ProjectionFactors:
        u, sigma, vh = np.linalg.svd(projection)
        q = u[:, :rank]
        return cls(q=q, z=vh[:rank].conj().T, w=q.conj().T @ projection, singular_values=sigma)

    @property
    def tail(self) -> float:
        rank = self.q.shape[1]
        return float(self.singular_values[rank]) if rank < len(self.singular_values) else 0.0

    def norm(self, kind: str = "spectral") -> float:
        """||P|| in the norm ``kind`` of :func:`matcore.op_norm`."""
        sigma = self.singular_values
        if kind == "spectral":
            return float(sigma[0])
        if kind == "trace":
            return float(sigma.sum())
        if kind == "frobenius":
            return float(np.linalg.norm(sigma))
        raise ValueError(f"unknown norm kind {kind!r}")

    def transposed(self, projection_t: np.ndarray) -> ProjectionFactors:
        """Factors of P^T = conj(V) diag(sigma) conj(U)^H: Q and Z swap and
        are conjugated, and W = Q^H P^T is formed from the new Q."""
        q = self.z.conj()
        return replace(self, q=q, z=self.q.conj(), w=self.z.T @ projection_t)


@dataclass(frozen=True)
class EigenspaceData:
    """Spectral data of one distinct eigenvalue of the decomposed matrix.

    ``factors`` is derived data: when not given it is computed from
    ``projection`` and ``rank`` with one SVD, so a hand-built instance needs
    only the six spectral fields.
    """

    eigenvalue: complex
    projection: np.ndarray
    nilpotent: np.ndarray
    index: int
    resolvent: np.ndarray
    rank: int
    factors: ProjectionFactors | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.factors is None:
            object.__setattr__(
                self, "factors", ProjectionFactors.of(self.projection, self.rank)
            )

    def transposed(self) -> EigenspaceData:
        """The same eigenspace of the transposed matrix.

        B^T = sum_l (b_l P_l^T + N_l^T) with S_l^T as reduced resolvents:
        transposition reverses products and keeps ranks, so it preserves
        idempotency, mutual annihilation, the nilpotency index and the rank,
        and the eigenvalue is unchanged.  The factors of P^T are read off
        those of P, without a second SVD.
        """
        projection = self.projection.T
        return replace(
            self,
            projection=projection,
            nilpotent=self.nilpotent.T,
            resolvent=self.resolvent.T,
            factors=self.factors.transposed(projection),
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

    def transposed(self) -> SpectralDecomposition:
        """Decomposition of the transposed matrix, block by block."""
        return replace(
            self, blocks=tuple(blk.transposed() for blk in self.blocks)
        )


def _as_matrix(b) -> np.ndarray:
    m = b.matrix if isinstance(b, Superoperator) else matcore.as_cmatrix(b)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"decompose requires a square matrix, got {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("decompose requires a non-empty matrix, got shape (0, 0)")
    return np.asarray(m, dtype=np.complex128)


def _default_cluster_tol(norm_b: float) -> float:
    """Cluster tolerance 1e-8 * max(||B||, 1) used when none is given."""
    return 1e-8 * max(norm_b, 1.0)


def decompose(b, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Full spectral decomposition of a square matrix.

    Eigenvalues closer than ``cluster_tol`` (default 1e-8 * max(||B||, 1))
    are treated as one degenerate eigenvalue, represented by their mean; the
    gap between distinct clusters must exceed 10 * cluster_tol, otherwise a
    :class:`ClusterAmbiguityError` reports the offending gap.  A given
    ``cluster_tol`` must be finite and non-negative (0 clusters only exactly
    equal eigenvalues); anything else raises ``ValueError`` up front.
    """
    if cluster_tol is not None and not (math.isfinite(cluster_tol) and cluster_tol >= 0):
        raise ValueError(f"cluster_tol must be non-negative and finite, got {cluster_tol}")
    mat = _as_matrix(b)
    n = mat.shape[0]
    norm_b = matcore.op_norm(mat, "spectral")
    if cluster_tol is None:
        cluster_tol = _default_cluster_tol(norm_b)

    t, v = sla.schur(mat, output="complex")
    eigs = np.diag(t).copy()
    # single linkage: the clusters are the connected components of the graph
    # joining eigenvalues at most cluster_tol apart, read off the transitive
    # closure of its reflexive adjacency (boolean squaring until it is stable)
    reach = np.abs(eigs[:, None] - eigs[None, :]) <= cluster_tol
    np.fill_diagonal(reach, True)
    while not np.array_equal(reach, closure := reach @ reach):
        reach = closure
    firsts, label = np.unique(reach.argmax(axis=1), return_inverse=True)
    count = len(firsts)
    reps = np.array([eigs[label == k].mean() for k in range(count)])

    if count > 1:
        min_gap = np.abs(reps[:, None] - reps[None, :])[np.triu_indices(count, 1)].min()
        if min_gap <= 10 * cluster_tol:
            raise ClusterAmbiguityError(
                f"eigenvalue clusters separated by {min_gap:.3e} <= "
                f"10 * cluster_tol = {10 * cluster_tol:.3e}; decomposition "
                "is ambiguous at this tolerance",
                gap=float(min_gap),
            )

    # deterministic cluster order: decreasing real part, then imaginary part
    order = np.lexsort((reps.imag, -reps.real))
    position = np.argsort(order)[label]
    # ZTRSEN moves the selected diagonal entries to the front and keeps the
    # relative order of both the selected and the other entries, so moving
    # the clusters forward last one first leaves each contiguous and in order
    for k in range(count - 1, -1, -1):
        selected = position == k
        t, v, _w, _m, _s, _sep, info = sla.lapack.ztrsen(selected, t, v, job="N")
        if info != 0:
            raise ValueError(f"ztrsen rejected argument {-info}")
        position = np.concatenate((position[selected], position[~selected]))
    starts = np.concatenate(([0], np.cumsum(np.bincount(position, minlength=count))))

    # remove coupling of each leading block to everything after it
    for k in range(count - 1):
        i0, i1 = starts[k], starts[k + 1]
        x = matcore.solve_sylvester(t[i0:i1, i0:i1], t[i1:, i1:], -t[i0:i1, i1:])
        # similarity by Y = [[I, X], [0, I]] on the trailing subspace
        t[i0:i1, i1:] = 0.0
        t[:i0, i1:] += t[:i0, i0:i1] @ x
        v[:, i1:] += v[:, i0:i1] @ x

    vinv = matcore.solve_linear(v, np.eye(n, dtype=np.complex128))
    return _assemble(mat, v, vinv, starts, reps[order], cluster_tol, norm_b)


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


def _assemble(mat, v, vinv, starts, reps, cluster_tol, norm_b) -> SpectralDecomposition:
    """Certified decomposition from a block-diagonalizing V: block k has
    eigenvalue ``reps[k]`` and projection V E_k V^{-1}, where E_k selects
    columns ``starts[k]:starts[k + 1]``.
    """
    n = mat.shape[0]
    cut = NILPOTENT_CUT * max(norm_b, 1.0)
    idx_tol = 10.0 * cluster_tol
    blocks = []
    raw = []
    for k, b_k in enumerate(reps):
        i0, i1 = starts[k], starts[k + 1]
        proj = v[:, i0:i1] @ vinv[i0:i1, :]
        nil = (mat - b_k * np.eye(n)) @ proj
        nil[np.abs(nil) < cut] = 0.0
        # capped at the rank: a power still above idx_tol there shows up as
        # the nilpotency defect of the validation residuals.  An exactly
        # zero power (every index-1 block) stops the loop without an SVD.
        idx = 1
        power = nil.copy()
        while (
            idx < i1 - i0
            and power.any()
            and matcore.op_norm(power, "spectral") > idx_tol
        ):
            power = power @ nil
            idx += 1
        raw.append((complex(b_k), proj, nil, idx, int(i1 - i0)))

    for ell, (b_l, proj_l, nil_l, idx_l, rank_l) in enumerate(raw):
        resolvent = np.zeros((n, n), dtype=np.complex128)
        for k, (b_k, proj_k, nil_k, idx_k, _rank) in enumerate(raw):
            if k == ell:
                continue
            gap = b_k - b_l
            term = proj_k / gap
            power = proj_k
            for _m in range(1, idx_k):
                power = (-1.0 / gap) * (nil_k @ power)
                term += power / gap
            resolvent += term
        blocks.append(
            EigenspaceData(
                eigenvalue=b_l,
                projection=proj_l,
                nilpotent=nil_l,
                index=idx_l,
                resolvent=resolvent,
                rank=rank_l,
            )
        )
    dec = SpectralDecomposition(
        dim=n, blocks=tuple(blocks), cluster_tol=float(cluster_tol)
    )
    return replace(dec, residuals=validate(dec, mat))


def validate(dec: SpectralDecomposition, b) -> dict:
    """Residual report certifying a decomposition against its matrix.

    All norms are spectral, and each defect is the largest over the blocks
    (or block pairs, for orthogonality).  ``rank_consistent`` cross-checks
    the nilpotent index against numerical ranks of the nilpotent powers.
    Orthogonality and annihilation are taken from the projection factors
    (see the module docstring): upper bounds of ||P_i P_j||, ||P S|| and
    ||S P||, equal to them for exact projections.  They cost b^2 SVDs of
    r_i x n matrices (vector norms for rank 1) and 2b of n x r_max ones, in
    place of b^2 + 2b SVDs of n x n matrices.  The other defects do not
    vanish on range(1 - P) and keep their O(b) n x n SVDs.
    """
    mat = _as_matrix(b)
    n = mat.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    norm_b = max(matcore.op_norm(mat, "spectral"), 1.0)
    rank_tol = 1e-7 * norm_b

    def worst(stack) -> float:
        return float(matcore.op_norm(stack, "spectral").max())

    p = np.array([blk.projection for blk in dec.blocks])
    nil = np.array([blk.nilpotent for blk in dec.blocks])
    s = np.array([blk.resolvent for blk in dec.blocks])
    eigs = dec.eigenvalues[:, None, None]
    shifted = mat - eigs * eye
    p_norms = np.array([blk.factors.norm() for blk in dec.blocks])
    ortho = 0.0
    for i, blk in enumerate(dec.blocks):
        f = blk.factors
        # P_i P_j = Q_i W_i P_j + T_i P_j with orthogonal ranges and
        # ||T_i|| = tail_i, so ||P_i P_j|| <= hypot(||W_i P_j||, tail_i ||P_j||):
        # one (b, r_i, n) stack per i
        pair = np.hypot(matcore.op_norm(f.w @ p, "spectral"), f.tail * p_norms)
        pair[i] = 0.0
        ortho = max(ortho, float(pair.max()))
    # S P vanishes on range(1 - P), and so does (P S)^T on range(1 - P^T);
    # the bases are padded with zero columns to the largest rank
    z = np.zeros((len(p), n, max(blk.rank for blk in dec.blocks)), dtype=np.complex128)
    q = z.copy()
    for k, blk in enumerate(dec.blocks):
        z[k, :, : blk.rank] = blk.factors.z
        q[k, :, : blk.rank] = blk.factors.q.conj()
    annihilation = max(
        float(matcore.supported_norm(s @ p, z).max()),
        float(matcore.supported_norm(np.swapaxes(p @ s, -1, -2), q).max()),
    )
    # an index below 1 is certified on the nilpotent itself
    powers = np.array(
        [np.linalg.matrix_power(blk.nilpotent, max(blk.index, 1)) for blk in dec.blocks]
    )
    # the power one below the index must not vanish yet
    below = [
        np.linalg.matrix_power(blk.nilpotent, blk.index - 1)
        for blk in dec.blocks
        if blk.index > 1
    ]
    rank_ok = not matcore.numerical_rank(powers, tol=rank_tol).any() and (
        not below or matcore.numerical_rank(np.array(below), tol=rank_tol).all()
    )

    return {
        "identity_defect": matcore.op_norm(p.sum(axis=0) - eye, "spectral"),
        "idempotency_defect": worst(p @ p - p),
        "orthogonality_defect": ortho,
        "commutation_defect": worst(mat @ p - p @ mat),
        "reconstruction_defect": matcore.op_norm(
            (eigs * p + nil).sum(axis=0) - mat, "spectral"
        ),
        "resolvent_defect": max(
            worst(shifted @ s - (eye - p)), worst(s @ shifted - (eye - p))
        ),
        "annihilation_defect": annihilation,
        "nilpotency_defect": worst(powers),
        "rank_consistent": bool(rank_ok),
        "rank_total": int(sum(blk.rank for blk in dec.blocks)),
    }


def decompose_from_user(b, similarity, layout) -> SpectralDecomposition:
    """Decomposition from a user-supplied similarity and eigenvalue layout.

    ``layout`` is a sequence of (eigenvalue, size) pairs, sizes positive
    integers, matching contiguous column groups of ``similarity``;
    projections are built exactly as R E_l R^{-1}, nilpotents as
    (B - b_l) P_l, so the validation residuals are limited only by the
    accuracy of the linear solves.  Nothing is clustered; the recorded
    ``cluster_tol`` is 1e-10, and the nilpotent index counts the powers
    above 10 * cluster_tol.
    """
    mat = _as_matrix(b)
    n = mat.shape[0]
    r = matcore.as_cmatrix(similarity)
    if r.shape != (n, n):
        raise ValueError(f"similarity must be {n}x{n}, got {r.shape}")
    for entry in layout:
        if not isinstance(entry[1], (int, np.integer)) or entry[1] < 1:
            raise ValueError(f"layout entry {entry!r}: size must be a positive integer")
    sizes = [size for _e, size in layout]
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
    return _assemble(mat, r, rinv, starts, reps, 1e-10, norm_b)
