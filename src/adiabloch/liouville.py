"""Superoperators on vectorized density matrices and their physical structure.

Everything uses the column-stacking convention vec(A rho B) = (B^T kron A)
vec(rho), so a generator of GKLS form

    L(rho) = -i [H, rho] - (1/2) sum_i g_i (L_i^dag L_i rho + rho L_i^dag L_i
                                            - 2 L_i rho L_i^dag)

becomes the d^2 x d^2 matrix built by :func:`build_superop`.  The module also
provides the real coherence-vector representation in a Hermitian operator
basis (identity plus generalized Gell-Mann matrices), the trace-preservation
(TP) / Hermiticity-preservation (HP) / conditional-complete-positivity (CCP)
checks, and the extraction of the GKLS form (Hamiltonian, Kossakowski matrix,
rates, jump operators) from a generator's matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import matcore
from .errors import PhysicalityError

HERMITICITY_TOL = 1e-12


def vec(rho) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=np.complex128).reshape(-1, order="F")


def unvec(v, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=np.complex128).reshape((dim, dim), order="F")


def hamiltonian_superop(h) -> np.ndarray:
    """Matrix of -i[H, .] in the vectorized representation."""
    hm = matcore.as_cmatrix(h)
    d = hm.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    return -1j * (np.kron(eye, hm) - np.kron(hm.T, eye))


def dissipator_superop(jump) -> np.ndarray:
    """Matrix of L . L^dag - (1/2){L^dag L, .} in the vectorized representation."""
    lm = matcore.as_cmatrix(jump)
    d = lm.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    ldl = lm.conj().T @ lm
    return (
        np.kron(lm.conj(), lm)
        - 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
    )


@dataclass(frozen=True)
class Superoperator:
    """A d^2 x d^2 matrix acting on vectorized d x d density operators."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        n = self.dim * self.dim
        m = matcore.as_cmatrix(self.matrix, n, f"superoperator for dim {self.dim}")
        object.__setattr__(self, "matrix", m)

    def apply(self, rho) -> np.ndarray:
        """Action on a d x d operator, read by the operand rule
        (:func:`matcore.as_cmatrix`): anything but a finite d x d matrix
        raises before any work."""
        return unvec(self.matrix @ vec(matcore.as_cmatrix(rho, self.dim, "rho")), self.dim)


# The two GKLS parts of a model; part p is the fields p_hamiltonian and
# p_dissipators, and the JSON entry p.
_PARTS = ("strong", "weak")


@dataclass(frozen=True)
class LindbladModel:
    """Physical model split into a strong part and a weak part.

    The strong part (Hamiltonian ``strong_hamiltonian`` plus dissipators,
    each a ``(rate, jump)`` pair) enters the total generator multiplied by
    the coupling ``gamma``; the weak part enters with weight one.  A
    Hamiltonian given as None is zero.
    """

    dim: int
    gamma: float
    strong_hamiltonian: np.ndarray
    strong_dissipators: tuple = ()
    weak_hamiltonian: np.ndarray = None
    weak_dissipators: tuple = ()

    def __post_init__(self):
        d = _check_dim(self.dim)
        object.__setattr__(self, "dim", d)
        for part in _PARTS:
            h, dissipators = _part(self, part)
            object.__setattr__(
                self, f"{part}_hamiltonian", _check_hamiltonian(h, d, f"{part}_hamiltonian")
            )
            object.__setattr__(
                self, f"{part}_dissipators", _check_dissipators(dissipators, d, part)
            )
        matcore._require_positive(gamma=self.gamma)

    def to_dict(self) -> dict:
        data = {"dim": self.dim, "gamma": float(self.gamma)}
        for part in _PARTS:
            h, dissipators = _part(self, part)
            data[part] = {
                "H": _matrix_to_json(h),
                "dissipators": [{"rate": r, "L": _matrix_to_json(l)} for r, l in dissipators],
            }
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "LindbladModel":
        # the keys to_dict writes, and no others
        data = _json_entry(data, "model", dict, ("dim", "gamma"), _PARTS)
        d = _check_dim(data["dim"])
        fields = {"dim": d, "gamma": _read_num(data["gamma"], "gamma")}
        for part in _PARTS:
            entry = _json_entry(data.get(part, {}), part, dict, (), ("H", "dissipators"))
            fields[f"{part}_hamiltonian"] = _matrix_from_json(entry.get("H"), f"{part} H")
            dissipators = _json_entry(entry.get("dissipators", []), f"{part} dissipators", list)
            fields[f"{part}_dissipators"] = tuple(
                _dissipator_from_json(t, f"{part} dissipator {i}")
                for i, t in enumerate(dissipators)
            )
        return cls(**fields)

    @classmethod
    def from_json(cls, text: str) -> "LindbladModel":
        return cls.from_dict(json.loads(text))


def _part(model: LindbladModel, part: str) -> tuple:
    """The (Hamiltonian, dissipators) of ``part``, one of ``_PARTS``."""
    return getattr(model, f"{part}_hamiltonian"), getattr(model, f"{part}_dissipators")


def _check_dim(d):
    matcore._require_integer("dim", d, 1)
    return int(d)


def _check_hamiltonian(h, d, name) -> np.ndarray:
    """``h`` (None for zero) as a Hermitian d x d matrix."""
    m = matcore.as_cmatrix(np.zeros((d, d)) if h is None else h, d, name)
    defect = np.abs(m - m.conj().T).max()
    scale = max(1.0, np.abs(m).max())
    if defect > HERMITICITY_TOL * scale:
        raise ValueError(f"{name} is not Hermitian (defect {defect:.3e})")
    return m


def _check_dissipators(dissipators, d, which) -> tuple:
    out = []
    for i, (rate, jump) in enumerate(dissipators):
        matcore._require_positive(zero_ok=True, **{f"{which} dissipator {i} rate": rate})
        out.append((float(rate), matcore.as_cmatrix(jump, d, f"{which} dissipator {i} jump")))
    return tuple(out)


def _json_entry(x, name: str, kind: type = dict, keys: tuple = (), optional: tuple = ()):
    """``x``, a JSON object (``kind`` dict) holding ``keys``, and no keys but
    those and ``optional``, or a JSON array (``kind`` list); anything else
    raises a ``ValueError`` naming ``name`` (and a stray key)."""
    stray = [key for key in x if key not in keys + optional] if isinstance(x, dict) else []
    if stray and kind is dict:
        allowed = ", ".join(map(json.dumps, keys + optional))
        raise ValueError(f'{name} has unknown key "{stray[0]}"; it may hold only {allowed}')
    if isinstance(x, kind) and all(key in x for key in keys):
        return x
    what = "object" if kind is dict else "array"
    with_keys = " with " + " and ".join(f'"{key}"' for key in keys) if keys else ""
    got = f"keys {list(x)}" if isinstance(x, kind) else type(x).__name__
    raise ValueError(f"{name} must be a JSON {what}{with_keys}, got {got}")


def _dissipator_from_json(entry, name: str) -> tuple:
    """The (rate, jump) pair of the dissipator ``name`` of a model file."""
    entry = _json_entry(entry, name, dict, ("rate", "L"))
    return _read_num(entry["rate"], f"{name} rate"), _matrix_from_json(entry["L"], f"{name} L")


def _read_num(x, name: str) -> float:
    """The number ``name`` of a model file: a JSON number (not true or
    false), or a string as float.hex() writes it."""
    if not isinstance(x, str):
        if not matcore._is_number(x):
            raise ValueError(f"{name} must be a number, got {x!r}")
        return float(x)
    if not x.lstrip("+-").startswith("0x"):
        raise ValueError(f"{name} string {x!r} is not in float.hex() form")
    return float.fromhex(x)


def _matrix_to_json(m) -> list:
    """``m`` as rows of [re, im] pairs of Python floats; ``json`` writes each
    float's repr, which reads back exactly."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def _matrix_from_json(rows, name: str) -> np.ndarray | None:
    """The matrix ``name`` of ``rows``, None for a JSON null.  Anything but
    equal rows of [re, im] pairs raises a ``ValueError``; the model checks
    the shape: a null Hamiltonian is zero, a null jump has the wrong shape."""
    if rows is None:
        return None
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == len(rows[0])
        and all(isinstance(z, list) and len(z) == 2 for z in row)
        for row in rows
    ):
        raise ValueError(f"{name} must be equal rows of [re, im] pairs")
    entry = f"{name} entry"
    return np.array(
        [[complex(_read_num(re, entry), _read_num(im, entry)) for re, im in row] for row in rows],
        dtype=np.complex128,
    )


def build_superop(model: LindbladModel, part: str = "total") -> Superoperator:
    """Assemble the generator matrix for the strong, weak, or total part.

    ``total`` returns gamma * strong + weak.
    """
    if part == "total":
        strong, weak = (build_superop(model, p).matrix for p in _PARTS)
        return Superoperator(model.dim, model.gamma * strong + weak)
    if part not in _PARTS:
        raise ValueError(f"unknown part {part!r}")
    return Superoperator(model.dim, _gkls_matrix(*_part(model, part)))


def _gkls_matrix(h, dissipators) -> np.ndarray:
    """Matrix of -i[H, .] + sum rate D[jump] over the (rate, jump) pairs."""
    mat = hamiltonian_superop(h)
    for rate, jump in dissipators:
        mat = mat + rate * dissipator_superop(jump)
    return mat


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Identity plus generalized Gell-Mann matrices.

    Ordering: identity, then symmetric off-diagonal E_jk + E_kj (j < k,
    lexicographic), then antisymmetric -i(E_jk - E_kj), then the d-1
    diagonal matrices.  The traceless elements are normalized to
    tr(tau_i tau_j) = 2 delta_ij.
    """
    basis = [np.eye(d, dtype=np.complex128)]
    sym, asym = [], []
    for j in range(d):
        for k in range(j + 1, d):
            s = np.zeros((d, d), dtype=np.complex128)
            s[j, k] = s[k, j] = 1.0
            sym.append(s)
            a = np.zeros((d, d), dtype=np.complex128)
            a[j, k] = -1j
            a[k, j] = 1j
            asym.append(a)
    diag = []
    for k in range(1, d):
        h = np.zeros((d, d), dtype=np.complex128)
        h[:k, :k] = np.eye(k)
        h[k, k] = -k
        diag.append(np.sqrt(2.0 / (k * (k + 1))) * h)
    return basis + sym + asym + diag


def _unit_frame(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Unitary U with columns vec(tau_a) / |tau_a|, and the norms |tau_a|.

    |tau_a| is the Hilbert-Schmidt norm: sqrt(d) for the identity, sqrt(2)
    for the rest, so column 0 of U is vec(1)/sqrt(d).  Cached per dimension,
    read-only.
    """
    cached = _unit_frame._cache.get(d)
    if cached is None:
        norms = np.sqrt(np.r_[float(d), np.full(d * d - 1, 2.0)])
        frame = np.column_stack([vec(t) for t in hermitian_basis(d)]) / norms
        frame.flags.writeable = norms.flags.writeable = False
        cached = _unit_frame._cache[d] = (frame, norms)
    return cached


_unit_frame._cache = {}


def _unit_frame_rep(matrix: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A generator G in the unit frame U of :func:`_unit_frame`.

    Returns (|tau_a|, Re G_u, Im G_u) for G_u = U^H G U.  G preserves
    Hermiticity exactly when G_u is real, so Im G_u is its Hermiticity
    defect; row 0 of G_u holds tr G(u_b) / sqrt(d), which vanishes exactly
    when G preserves the trace, so that row is its trace defect.  In the
    unnormalized frame the same generator is the diagonal similarity
    diag(1/|tau|) G_u diag(|tau|).
    """
    frame, norms = _unit_frame(d)
    g = frame.conj().T @ matrix @ frame
    return norms, g.real.copy(), g.imag


# Bound on the Hermiticity and trace defects of a generator G, as a multiple
# c of eps ||G||_1 (see :func:`_defect_tol`).  Over the benchmark models and
# random d = 8 and 10 at their certified couplings, rounding gave at most
# 0.24 eps ||G||_1 for the largest entry of Im(U^H G U) and of its row 0
# (orders 0, 1, 2 and infinity, K and D), and at most 0.53 eps ||G||_1 for
# ||F conj(G) F - G||_1 of B and C (0 on the paper models).  c = 64 leaves
# more than 100 times that.  What is dropped below it moves e^{tG} by at most
# 64 eps t ||G||_1, a small multiple of the propagation kernel's own accuracy
# class (8 eps t ||G||_1), and the conjugate orbits it admits are checked by
# ``spectral.validate`` and ``effective.verify_similarity``.
_FRAME_DEFECT_TOL = 64


def _defect_tol(matrix: np.ndarray) -> float:
    """``_FRAME_DEFECT_TOL`` eps ||G||_1: the largest defect read as rounding."""
    return _FRAME_DEFECT_TOL * np.finfo(float).eps * float(np.linalg.norm(matrix, 1))


def _vec_transpose(n: int) -> np.ndarray:
    """Index permutation of F, F vec(rho) = vec(rho^T), for n = d^2."""
    d = math.isqrt(n)
    return np.arange(n).reshape(d, d).T.ravel()


def _hp_image(matrix: np.ndarray) -> np.ndarray:
    """F conj(X) F for X of size d^2 x d^2: the Hermiticity symmetry.

    G preserves Hermiticity exactly when F conj(G) F = G.  F swaps the two
    indices of vec(rho) = rho[i, j] at row i + d j, so the map is an axis
    permutation of X seen as a d x d x d x d array, and conjugation: exact.
    """
    d = math.isqrt(matrix.shape[0])
    out = np.empty(matrix.shape, dtype=matrix.dtype)
    np.conjugate(matrix.reshape(d, d, d, d).transpose(1, 0, 3, 2), out=out.reshape(d, d, d, d))
    return out


def _map_arrays(obj, fn, **changes):
    """The dataclass ``obj`` with ``fn`` applied to every array field and its
    other fields replaced by ``changes``."""
    arrays = {name: fn(x) for name, x in vars(obj).items() if isinstance(x, np.ndarray)}
    return replace(obj, **arrays, **changes)


def _hp_image_of(obj, **changes):
    """``obj`` with every array field X replaced by F conj(X) F
    (:func:`_hp_image`) and its other fields by ``changes``: the one rule
    that reads the second member of a conjugate orbit off the first, for
    blocks, Bloch solutions and block generators alike."""
    return _map_arrays(obj, _hp_image, **changes)


def _preserves_hermiticity(matrix: np.ndarray) -> bool:
    """Whether an n x n G, n = d^2, preserves Hermiticity to rounding:
    ||F conj(G) F - G||_1 <= ``_FRAME_DEFECT_TOL`` eps ||G||_1."""
    n = matrix.shape[0]
    if math.isqrt(n) ** 2 != n:
        return False
    return bool(np.linalg.norm(_hp_image(matrix) - matrix, 1) <= _defect_tol(matrix))


def coherence_rep(sop: Superoperator) -> tuple[np.ndarray, float]:
    """Real matrix of the generator on coherence vectors, plus HP defect.

    Element (i, j) is (tau_i | L(tau_j)) / (tau_i | tau_i); the generator is
    Hermiticity-preserving exactly when all elements are real, so the
    maximum imaginary modulus is returned as the HP defect.
    """
    norms, re, im = _unit_frame_rep(sop.matrix, sop.dim)
    scale = norms / norms[:, None]
    defect = float(np.abs(im * scale).max()) if im.size else 0.0
    return re * scale, defect


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    defect: float


def check_tp(sop: Superoperator, tol: float = 1e-12) -> CheckResult:
    """Trace preservation: the identity row of the generator must vanish.
    ``tol`` must be positive and finite (``ValueError``)."""
    matcore._require_positive(tol=tol)
    row = vec(np.eye(sop.dim)).conj() @ sop.matrix
    defect = float(np.linalg.norm(row))
    return CheckResult(defect <= tol, defect)


def check_hp(sop: Superoperator, tol: float = 1e-12) -> CheckResult:
    """Hermiticity preservation: reality of the coherence representation.
    ``tol`` as in :func:`check_tp`."""
    matcore._require_positive(tol=tol)
    _, defect = coherence_rep(sop)
    return CheckResult(defect <= tol, defect)


@dataclass(frozen=True)
class GKLSForm:
    """GKLS data of a generator: -i[H, .] + sum_i rates[i] D[jumps[i]].

    ``kossakowski`` is expressed in the orthonormal traceless Hermitian
    basis tau_i / sqrt(2), so its eigenvalues are the ``rates`` and the
    corresponding ``jumps`` are traceless with unit Hilbert-Schmidt norm.
    """

    dim: int
    hamiltonian: np.ndarray
    kossakowski: np.ndarray
    rates: tuple
    jumps: tuple
    verdicts: dict = field(default_factory=dict)

    def assemble(self) -> Superoperator:
        """Rebuild the generator matrix from (H, rates, jumps)."""
        return Superoperator(self.dim, _gkls_matrix(self.hamiltonian, zip(self.rates, self.jumps)))


def gkls_decompose(sop: Superoperator, tol: float = 1e-9) -> GKLSForm:
    """Extract the unique GKLS form of an HP, TP generator.

    The generator is expanded as L(rho) = sum_ab x_ab F_a rho F_b over the
    orthonormal Hermitian frame F_0 = 1/sqrt(d), F_i = tau_i/sqrt(2); the
    traceless-traceless block of x is the Kossakowski matrix, and the
    Hamiltonian is the anti-Hermitian part of the F_i rho F_0 column.  The
    gauge is fixed by tr H = 0 and by jumps that are traceless, mutually
    orthonormal, with the first nonvanishing eigenvector component made
    real positive.  ``tol`` must be positive and finite (``ValueError``,
    from :func:`check_tp`).
    """
    tp = check_tp(sop, tol)
    hp = check_hp(sop, tol)
    if not (tp.passed and hp.passed):
        raise PhysicalityError(
            "generator is not HP/TP within tolerance "
            f"(hp defect {hp.defect:.3e}, tp defect {tp.defect:.3e}); "
            "GKLS decomposition would be meaningless"
        )
    d = sop.dim
    n = d * d
    g = _unit_frame(d)[0]
    frame = g.T.reshape(n, d, d).swapaxes(1, 2)  # frame[a] = unvec(g[:, a])
    # L = sum_ab x_ab (F_b^T kron F_a); the reshuffle R[(i,k),(l,j)] =
    # L[(i,j),(k,l)] turns this into R = G x G^T with G = [vec(F_a)] unitary.
    tens = sop.matrix.reshape(d, d, d, d, order="F")
    reshuffled = np.transpose(tens, (0, 2, 3, 1)).reshape(n, n, order="F")
    x = g.conj().T @ reshuffled @ g.conj()
    x = 0.5 * (x + x.conj().T)  # HP makes x Hermitian; symmetrize rounding

    koss = x[1:, 1:].copy()
    a_op = np.tensordot(x[1:, 0], frame[1:], axes=1)
    ham = 1j / (2.0 * np.sqrt(d)) * (a_op - a_op.conj().T)

    evals, evecs = np.linalg.eigh(koss)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    for i in range(n - 1):
        v = evecs[:, i]
        nz = np.flatnonzero(np.abs(v) > 1e-12)
        if nz.size:
            evecs[:, i] = v * (np.abs(v[nz[0]]) / v[nz[0]])
    jumps = np.tensordot(evecs.T, frame[1:], axes=1)

    form = GKLSForm(
        dim=d,
        hamiltonian=ham,
        kossakowski=koss,
        rates=tuple(float(r) for r in evals),
        jumps=tuple(jumps),
        verdicts={
            "hp": hp.passed,
            "tp": tp.passed,
            "ccp": bool(evals.min() >= -tol) if evals.size else True,
        },
    )
    return form


def check_ccp(form: GKLSForm, tol: float = 1e-10) -> CheckResult:
    """Conditional complete positivity: Kossakowski spectrum >= -tol.
    ``tol`` as in :func:`check_tp`."""
    matcore._require_positive(tol=tol)
    min_rate = float(min(form.rates)) if form.rates else 0.0
    return CheckResult(min_rate >= -tol, min_rate)
