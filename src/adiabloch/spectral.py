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
cluster is contiguous, then the coupling between clusters is removed by
LAPACK ZTRSYL on its triangular diagonal blocks (Bartels-Stewart), giving
a well-conditioned block-diagonalizing similarity V with block form
T = V^{-1} B V.  S_l is read off that form: S_l = V E_l V^{-1}, where E_l
holds (T_kk - b_l)^{-1} on every other block k and 0 on block l, one
linear solve per block.  :func:`validate` certifies the result; it stacks
the P_l, N_l and S_l of all blocks and takes the largest norm of each
defect's stack from as few SVDs as its Frobenius norms allow.

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

Conjugate orbits.  A matrix B of size d^2 that preserves Hermiticity
satisfies F conj(B) F = B, F the vec-transpose permutation (F vec(rho) =
vec(rho^T)), to within 64 eps ||B||_1 (:func:`liouville._preserves_hermiticity`).
Then X -> F conj(X) F maps the spectral data of b onto those of conj(b).
The blocks form orbits {b, conj(b)}, decided once from the cluster
eigenvalues and sizes, before any block is assembled.  The partner of a
block is the block nearest the conjugate of its eigenvalue.  A pair is
accepted when the two blocks are each other's partners within
``cluster_tol`` and have the same rank.  Every other block, each one with
real b among them, is its own orbit.  The second member of a pair is stored
as the exact image of the first, with no projection, nilpotent, index, SVD
or resolvent of its own: it carries the first member's index exactly, and
``images`` records the pairs.  :func:`validate` still checks every block
against B, mapped ones included.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from . import matcore
from .errors import (
    ClusterAmbiguityError, NonFiniteError, SingularMatrixError, SpectralOverlapError
)
from .liouville import (
    Superoperator, _hp_image_of, _map_arrays, _preserves_hermiticity, _vec_transpose
)

# Entries of computed nilpotents below this (times max(1, ||B||)) are zeroed:
# strict enough to keep reconstruction residuals at rounding level, loose
# enough to remove Schur/Sylvester noise on diagonalizable blocks.
NILPOTENT_CUT = 1e-12
# Least distance (times max(1, ||B||)) between eigenvalues of different clusters.
_OVERLAP_TOL = 1e-10


@dataclass(frozen=True)
class ProjectionFactors:
    """Factors of a rank-r projection P from one SVD P = U diag(sigma) V^H.

    ``q`` = U[:, :r] is an orthonormal basis of range(P), ``z`` = V[:, :r]
    one of range(P^H), and ``w`` = Q^H P, so P = Q W + T with
    ||T|| = ``tail`` = sigma_{r+1} (0 when r = n), at rounding level for a
    computed projection of rank r.  ``singular_values`` gives ||P||_2
    (:meth:`norm`) without another SVD.
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

    def norm(self) -> float:
        """||P||_2, the largest singular value."""
        return float(self.singular_values[0])

    def transposed(self, projection_t: np.ndarray) -> ProjectionFactors:
        """Factors of P^T = conj(V) diag(sigma) conj(U)^H: Q and Z swap and
        are conjugated, and W = Q^H P^T is formed from the new Q."""
        q = self.z.conj()
        return replace(self, q=q, z=self.q.conj(), w=self.z.T @ projection_t)

    def image(self) -> ProjectionFactors:
        """Factors of F conj(P) F (F the vec-transpose permutation):
        Q -> F conj(Q), Z -> F conj(Z), W -> conj(W) F, same singular values."""
        flip = _vec_transpose(len(self.q))
        return replace(
            self, q=self.q[flip].conj(), z=self.z[flip].conj(), w=self.w[:, flip].conj()
        )


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
        return _map_arrays(self, np.transpose, factors=self.factors.transposed(self.projection.T))

    def image(self) -> EigenspaceData:
        """The eigenspace of conj(b) of a Hermiticity-preserving matrix
        (module docstring), mapped exactly, without an SVD."""
        return _hp_image_of(
            self, eigenvalue=self.eigenvalue.conjugate(), factors=self.factors.image()
        )


@dataclass(frozen=True)
class SpectralDecomposition:
    """Blocks in a fixed order, with their residual report.

    ``images`` maps the second block of each conjugate orbit to the first,
    whose :meth:`EigenspaceData.image` it is (see the module docstring).
    """

    dim: int
    blocks: tuple
    residuals: dict = field(default_factory=dict)
    cluster_tol: float = 0.0
    images: dict = field(default_factory=dict)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([b.eigenvalue for b in self.blocks])


def _as_matrix(x, n: int | None = None, name: str = "b") -> np.ndarray:
    """The operand ``name`` as a finite complex matrix, by the one operand
    rule of the package: ``x`` is a :class:`Superoperator` or an array,
    finite, and n x n like the decomposition (:func:`matcore.as_cmatrix`
    raises a ``ValueError`` naming it otherwise).  Every entry point that
    takes B, C, a block generator D_l or a similarity reads it here.  With
    ``n`` None ``x`` is the strong part itself, which sets n: any non-empty
    square matrix.
    """
    m = matcore.as_cmatrix(x.matrix if isinstance(x, Superoperator) else x, n, name)
    if n is None and not 0 < m.shape[0] == m.shape[1]:
        raise ValueError(f"{name} must be a non-empty square matrix, got {m.shape}")
    return m


def _default_cluster_tol(norm_b: float) -> float:
    """Cluster tolerance 1e-8 * max(||B||, 1) used when none is given."""
    return 1e-8 * max(norm_b, 1.0)


def decompose(b, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Full spectral decomposition of a square matrix.

    Eigenvalues closer than ``cluster_tol`` (default 1e-8 * max(||B||, 1))
    are treated as one degenerate eigenvalue, represented by their mean; the
    gap between distinct clusters must exceed 10 * cluster_tol, otherwise a
    :class:`ClusterAmbiguityError` reports the offending gap.  Eigenvalues
    of different clusters at most 1e-10 * max(||B||_2, 1) apart (only for a
    smaller ``cluster_tol``) raise :class:`SpectralOverlapError` with their
    distance as ``separation``, as does a reordering (ZTRSEN) or decoupling
    (ZTRSYL) that LAPACK reports as failed for eigenvalues too close to
    separate.  A given ``cluster_tol`` must be finite and
    non-negative (0 clusters only exactly equal eigenvalues); anything else
    raises ``ValueError`` up front.
    """
    return _decompose(b, cluster_tol, escalations=0)


def robust_decompose(matrix, cluster_tol: float | None = None) -> SpectralDecomposition:
    """Spectral decomposition with cluster-tolerance escalation.

    When the clustering is ambiguous (degenerate eigenvalues of the strong
    part split by rounding, e.g. around Jordan blocks) the tolerance is
    escalated by factors of 100, at most twice, and the diagonal of the one
    Schur form is clustered again; the tolerance actually used is recorded
    on the returned decomposition.  The overlap check of :func:`decompose`
    applies to the final clustering.
    """
    return _decompose(matrix, cluster_tol, escalations=2)


def _decompose(b, cluster_tol, escalations: int) -> SpectralDecomposition:
    """:func:`decompose`, escalating ``cluster_tol`` up to ``escalations`` times."""
    if cluster_tol is not None:
        matcore._require_positive(zero_ok=True, cluster_tol=cluster_tol)
    mat = _as_matrix(b)
    n = mat.shape[0]
    norm_b = matcore.op_norm(mat, "spectral")
    if cluster_tol is None:
        cluster_tol = _default_cluster_tol(norm_b)

    t, v = sla.schur(mat, output="complex")
    eigs = np.diag(t).copy()
    dist = np.abs(eigs[:, None] - eigs[None, :])
    for attempt in range(escalations + 1):
        # single linkage: the clusters are the connected components of the graph
        # joining eigenvalues at most cluster_tol apart
        firsts, label = np.unique(matcore._components(dist <= cluster_tol), return_inverse=True)
        count = len(firsts)
        reps = np.array([eigs[label == k].mean() for k in range(count)])
        gaps = np.abs(reps[:, None] - reps[None, :])[np.triu_indices(count, 1)]
        min_gap = gaps.min(initial=np.inf)
        if min_gap > 10 * cluster_tol:
            break
        if attempt == escalations:
            raise ClusterAmbiguityError(
                f"eigenvalue clusters separated by {min_gap:.3e} <= "
                f"10 * cluster_tol = {10 * cluster_tol:.3e}; decomposition "
                "is ambiguous at this tolerance",
                gap=float(min_gap),
            )
        cluster_tol *= 100.0

    separation = _separation(dist, label, norm_b)

    # deterministic cluster order: decreasing real part, then imaginary part
    order = np.lexsort((reps.imag, -reps.real))
    position = np.argsort(order)[label]
    # ZTRSEN moves the selected diagonal entries to the front and keeps the
    # relative order of both the selected and the other entries, so moving
    # the clusters forward last one first leaves each contiguous and in order
    for k in range(count - 1, -1, -1):
        selected = position == k
        t, v, _w, _m, _s, _sep, info = sla.lapack.ztrsen(selected, t, v, job="N")
        if info < 0:
            raise ValueError(f"ztrsen rejected argument {-info}")
        if info > 0:
            raise SpectralOverlapError(
                f"ztrsen could not move cluster {k} forward: eigenvalues too close "
                f"to reorder (info {info})",
                separation=separation,
            )
        position = np.concatenate((position[selected], position[~selected]))
    starts = np.concatenate(([0], np.cumsum(np.bincount(position, minlength=count))))

    # remove coupling of each leading block to everything after it:
    # T_kk X - X T_rest = -T_k,rest, solved as scaled by ZTRSYL
    for k in range(count - 1):
        i0, i1 = starts[k], starts[k + 1]
        x, scale, info = sla.lapack.ztrsyl(t[i0:i1, i0:i1], t[i1:, i1:], -t[i0:i1, i1:], isgn=-1)
        if info != 0:
            raise SpectralOverlapError(
                f"ztrsyl found cluster {k} near the ones after it (info {info})",
                separation=separation,
            )
        x /= scale
        # similarity by Y = [[I, X], [0, I]] on the trailing subspace: it
        # zeroes this cluster's coupling, which _assemble drops, and leaves
        # every diagonal block of T as it is
        v[:, i1:] += v[:, i0:i1] @ x

    vinv = matcore.solve_linear(v, np.eye(n, dtype=np.complex128))
    return _assemble(mat, v, vinv, t, starts, reps[order], cluster_tol, norm_b)


def _separation(dist, label, norm_b) -> float:
    """Least distance ``dist`` between eigenvalues of different clusters
    (``label``); at most 1e-10 * max(||B||, 1) raises SpectralOverlapError."""
    separation = float(dist[label[:, None] != label[None, :]].min(initial=np.inf))
    if separation <= _OVERLAP_TOL * max(norm_b, 1.0):
        raise SpectralOverlapError(
            f"eigenvalues of different clusters lie {separation:.3e} apart, "
            f"at most {_OVERLAP_TOL:.0e} * max(||B||, 1)",
            separation=separation,
        )
    return separation


def _assemble(mat, v, vinv, form, starts, reps, cluster_tol, norm_b) -> SpectralDecomposition:
    """Certified decomposition from a block-diagonalizing V with block form
    ``form`` = V^{-1} B V, whose couplings between blocks are dropped.

    Block k has eigenvalue ``reps[k]`` and projection V E_k V^{-1}, where
    E_k selects columns ``starts[k]:starts[k + 1]``.  Its reduced resolvent
    is the full inverse S_l = V E_l V^{-1}, E_l = (F - b_l)^{-1} on the
    other blocks of the block-diagonal F and 0 on block l: one solve with
    F - b_l restricted to the other blocks, between the matching columns
    of V and rows of V^{-1}.  The nilpotent cut and the index do not enter
    it.  The second block of a conjugate orbit is the image of the first
    (:func:`_conjugate_pairs`, decided before any block is formed).
    """
    n = mat.shape[0]
    cut = NILPOTENT_CUT * max(norm_b, 1.0)
    idx_tol = 10.0 * cluster_tol
    ranks = np.diff(starts)
    label = np.repeat(np.arange(len(reps)), ranks)
    form = np.where(label[:, None] == label[None, :], form, 0.0)
    images = _conjugate_pairs(reps, ranks, cluster_tol) if _preserves_hermiticity(mat) else {}
    blocks = []
    for k, b_k in enumerate(reps):
        if k in images:
            blocks.append(blocks[images[k]].image())
            continue
        other = label != k
        proj = v[:, ~other] @ vinv[~other]
        nil = (mat - b_k * np.eye(n)) @ proj
        nil[np.abs(nil) < cut] = 0.0
        # capped at the rank: a power still above idx_tol there shows up as
        # the nilpotency defect of the validation residuals.  An exactly
        # zero power (every index-1 block) stops the loop without an SVD.
        idx = 1
        power = nil.copy()
        while (
            idx < ranks[k]
            and power.any()
            and matcore.op_norm(power, "spectral") > idx_tol
        ):
            power = power @ nil
            idx += 1
        rest = np.eye(n - ranks[k], dtype=np.complex128)
        inverse = matcore.solve_linear(form[np.ix_(other, other)] - b_k * rest, rest)
        blocks.append(
            EigenspaceData(
                eigenvalue=complex(b_k),
                projection=proj,
                nilpotent=nil,
                index=idx,
                resolvent=v[:, other] @ inverse @ vinv[other],
                rank=int(ranks[k]),
            )
        )
    dec = SpectralDecomposition(
        dim=n, blocks=tuple(blocks), cluster_tol=float(cluster_tol), images=images
    )
    return replace(dec, residuals=validate(dec, mat))


def _conjugate_pairs(eigs, ranks, cluster_tol: float) -> dict:
    """Conjugate orbits {b_i, b_j}, i < j, as {j: i}, from the cluster
    eigenvalues ``eigs`` and sizes ``ranks`` alone (rule in the module
    docstring)."""
    dist = np.abs(eigs[:, None] - eigs.conj()[None, :])
    nearest = dist.argmin(axis=1)
    return {
        int(j): i
        for i, j in enumerate(nearest)
        if i < j
        and nearest[j] == i
        and dist[i, j] <= cluster_tol
        and ranks[i] == ranks[j]
    }


def validate(dec: SpectralDecomposition, b) -> dict:
    """Residual report certifying a decomposition against its matrix.

    All norms are spectral, and each defect is the largest over the blocks
    (or block pairs, for orthogonality).  ``rank_consistent`` cross-checks
    the nilpotent index against the numerical ranks, at 1e-7 max(||B||, 1),
    of the nilpotent powers: the index-th powers must have rank 0, read off
    the singular values already taken for ``nilpotency_defect``, and the
    powers one below the index rank at least 1.
    Orthogonality and annihilation are taken from the projection factors
    (see the module docstring): upper bounds of ||P_i P_j||, ||P S|| and
    ||S P||, equal to them for exact projections.  Annihilation costs 2b
    SVDs of n x r_max matrices (vector norms for rank 1).  Every other
    per-block maximum is taken by :func:`matcore._max_spectral_norm`, the
    value of the full stack of SVDs from the few whose Frobenius norm can
    still reach it: the idempotency, commutation and nilpotency stacks, the
    two resolvent relations as one running maximum, and orthogonality.  Its
    b^2 - b pairs are stacked by the rank r_i, one stack per rank with the
    maximum carried over the ranks, and pruned on hypot(||W_i P_j||_F,
    tail_i ||P_j||), which bounds the reported hypot(||W_i P_j||_2,
    tail_i ||P_j||) from above.  On random d = 4 (b = n = 16) ``validate``
    takes 9 n x n SVDs, three of them for ||B||, the identity and the
    reconstruction defects, and one of a 1 x n row.
    """
    mat = _as_matrix(b, dec.dim)
    n = dec.dim
    eye = np.eye(n, dtype=np.complex128)
    norm_b = max(matcore.op_norm(mat, "spectral"), 1.0)
    rank_tol = 1e-7 * norm_b

    worst = matcore._max_spectral_norm
    p = np.array([blk.projection for blk in dec.blocks])
    nil = np.array([blk.nilpotent for blk in dec.blocks])
    s = np.array([blk.resolvent for blk in dec.blocks])
    eigs = dec.eigenvalues[:, None, None]
    shifted = mat - eigs * eye
    p_norms = np.array([blk.factors.norm() for blk in dec.blocks])
    ortho = 0.0
    for rank in sorted({blk.rank for blk in dec.blocks}):
        # P_i P_j = Q_i W_i P_j + T_i P_j with orthogonal ranges and
        # ||T_i|| = tail_i, so ||P_i P_j|| <= hypot(||W_i P_j||, tail_i ||P_j||):
        # the (r, n) products W_i P_j of every i of rank r and every j, as one
        # broadcast product, of which the pairs j != i are kept
        group = [i for i, blk in enumerate(dec.blocks) if blk.rank == rank]
        w = np.array([dec.blocks[i].factors.w for i in group])[:, None]
        tails = np.array([dec.blocks[i].factors.tail for i in group])[:, None] * p_norms
        others = np.array(group)[:, None] != np.arange(len(p))
        ortho = worst((w @ p)[others], ortho, tails[others])
    # S P vanishes on range(1 - P), and so does (P S)^T on range(1 - P^T)
    annihilation = max(
        float(matcore.supported_norm(s @ p, [blk.factors.z for blk in dec.blocks]).max()),
        float(matcore.supported_norm(
            np.swapaxes(p @ s, -1, -2), [blk.factors.q.conj() for blk in dec.blocks]
        ).max()),
    )
    # an index below 1 is certified on the nilpotent itself
    powers = np.array(
        [np.linalg.matrix_power(blk.nilpotent, max(blk.index, 1)) for blk in dec.blocks]
    )
    nilpotency = worst(powers)
    # the power one below the index must not vanish yet; a matrix has
    # numerical rank 0 exactly when its spectral norm is at most rank_tol
    below = [
        np.linalg.matrix_power(blk.nilpotent, blk.index - 1)
        for blk in dec.blocks
        if blk.index > 1
    ]
    rank_ok = nilpotency <= rank_tol and (
        not below or matcore.op_norm(np.array(below), "spectral").min() > rank_tol
    )

    return {
        "identity_defect": matcore.op_norm(p.sum(axis=0) - eye, "spectral"),
        "idempotency_defect": worst(p @ p - p),
        "orthogonality_defect": ortho,
        "commutation_defect": worst(mat @ p - p @ mat),
        "reconstruction_defect": matcore.op_norm(
            (eigs * p + nil).sum(axis=0) - mat, "spectral"
        ),
        "resolvent_defect": worst(
            s @ shifted - (eye - p), worst(shifted @ s - (eye - p))
        ),
        "annihilation_defect": annihilation,
        "nilpotency_defect": nilpotency,
        "rank_consistent": bool(rank_ok),
        "rank_total": int(sum(blk.rank for blk in dec.blocks)),
    }


def decompose_from_user(b, similarity, layout) -> SpectralDecomposition:
    """Decomposition from a user-supplied similarity and eigenvalue layout.

    ``layout`` is a sequence of (eigenvalue, size) pairs, eigenvalues finite
    numbers and sizes positive integers, matching contiguous column groups
    of ``similarity``; each entry is checked before any work, a bad one
    raising ``ValueError`` and a NaN or Inf eigenvalue
    :class:`NonFiniteError`, both naming the entry.  Projections are built
    exactly as R E_l R^{-1}, nilpotents as (B - b_l) P_l and resolvents
    from the block form R^{-1} B R, its couplings between groups dropped,
    so the validation residuals are limited only by the accuracy of the
    linear solves.  Nothing is clustered; the recorded ``cluster_tol`` is
    1e-10, and the nilpotent index counts the powers above 10 *
    cluster_tol.  Layout eigenvalues at most 1e-10 * max(||B||_2, 1) apart
    raise :class:`SpectralOverlapError`, as clusters that close do in
    :func:`decompose`, before any solve.
    """
    mat = _as_matrix(b)
    n = mat.shape[0]
    r = _as_matrix(similarity, n, "similarity")
    for entry in layout:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
            raise ValueError(f"layout entry {entry!r} is not an (eigenvalue, size) pair")
        value, size = entry
        if isinstance(value, bool) or not isinstance(value, numbers.Number):
            raise ValueError(f"layout entry {entry!r}: eigenvalue must be a number, got {value!r}")
        if not np.isfinite(complex(value)):
            raise NonFiniteError(f"layout entry {entry!r}: eigenvalue is not finite")
        matcore._require_integer(f"layout entry {entry!r}: size", size, 1)
    sizes = [size for _e, size in layout]
    if sum(sizes) != n:
        raise ValueError(f"layout sizes sum to {sum(sizes)}, expected {n}")
    reps = np.array([complex(e) for e, _size in layout])
    norm_b = matcore.op_norm(mat, "spectral")
    _separation(np.abs(reps[:, None] - reps[None, :]), np.arange(len(reps)), norm_b)
    try:
        rinv = matcore.solve_linear(r, np.eye(n, dtype=np.complex128))
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"user similarity is singular: {exc}", cond=exc.cond
        ) from exc
    starts = np.concatenate(([0], np.cumsum(sizes)))
    return _assemble(mat, r, rinv, rinv @ mat @ r, starts, reps, 1e-10, norm_b)
