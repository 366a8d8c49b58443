"""Built-in example models: the dissipative Lambda system, a qubit whose
strong generator carries a nilpotent, the three-level system used to show
that no fully physical effective generator exists, random GKLS models for
the invariant suites, and a strong Hamiltonian with two degenerate levels,
whose eigenspaces have large rank."""

from __future__ import annotations

import numpy as np

from .liouville import LindbladModel

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def lambda_model(
    gamma: float,
    omega: float = 1.0,
    delta: float = 1.0,
    g1: complex = 1.0,
    g2: complex = 1.0,
    kappa: float = 1.0,
    kappa0: float = 1.0,
) -> LindbladModel:
    """Dissipative five-level Lambda system in dimensionless units.

    Levels 1, 2, 3 form the Lambda; level 4 decays strongly to level 2 at
    rate kappa0 (strong part, weight gamma), level 0 decays weakly to
    levels 1 and 2 at rate kappa.  The strong Hamiltonian is
    diag(0, 0, 0, 1, 2).
    """
    d = 5
    h0 = np.diag([0.0, 0.0, 0.0, 1.0, 2.0]).astype(np.complex128)
    l0 = np.zeros((d, d), dtype=np.complex128)
    l0[2, 4] = 1.0
    hi = np.zeros((d, d), dtype=np.complex128)
    hi[0, 0] = omega
    hi[1, 1] = -delta / 2.0
    hi[2, 2] = delta / 2.0
    hi[1, 3] = np.conj(g1) / 2.0
    hi[3, 1] = g1 / 2.0
    hi[2, 3] = np.conj(g2) / 2.0
    hi[3, 2] = g2 / 2.0
    l1 = np.zeros((d, d), dtype=np.complex128)
    l1[1, 0] = 1.0
    l2 = np.zeros((d, d), dtype=np.complex128)
    l2[2, 0] = 1.0
    return LindbladModel(
        dim=d,
        gamma=gamma,
        strong_hamiltonian=h0,
        strong_dissipators=((kappa0, l0),),
        weak_hamiltonian=hi,
        weak_dissipators=((kappa, l1), (kappa, l2)),
    )


def qubit_nilpotent_model(gamma: float) -> LindbladModel:
    """Qubit with strong part -(i/2)[X, .] - (1 - Z . Z) and weak -i[X+Y, .].

    The strong generator has eigenvalues {0, -1, -2} with a rank-2,
    index-2 nilpotent block at -1.
    """
    return LindbladModel(
        dim=2,
        gamma=gamma,
        strong_hamiltonian=PAULI_X / 2.0,
        strong_dissipators=((1.0, PAULI_Z),),
        weak_hamiltonian=PAULI_X + PAULI_Y,
        weak_dissipators=(),
    )


def counterexample_model(gamma: float) -> LindbladModel:
    """Three-level model whose effective generator cannot be made CP.

    Strong part -i[H0, .] with H0 = diag(0, 1, 3)/3; the weak part is a
    pure dissipator with the swap-like jump |0><2| + |2><0| at unit rate.
    """
    d = 3
    h0 = np.diag([0.0, 1.0 / 3.0, 1.0]).astype(np.complex128)
    jump = np.zeros((d, d), dtype=np.complex128)
    jump[0, 2] = 1.0
    jump[2, 0] = 1.0
    return LindbladModel(
        dim=d,
        gamma=gamma,
        strong_hamiltonian=h0,
        strong_dissipators=(),
        weak_hamiltonian=np.zeros((d, d), dtype=np.complex128),
        weak_dissipators=((1.0, jump),),
    )


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def random_model(
    dim: int,
    rng: np.random.Generator,
    gamma: float = 10.0,
    dissipative: bool = True,
) -> LindbladModel:
    """Random GKLS strong and weak parts for invariant sweeps.

    With ``dissipative=False`` both parts are purely Hamiltonian, giving a
    unitary (skew-Hermitian superoperator) model.
    """
    strong_d = ()
    weak_d = ()
    if dissipative:
        strong_d = (
            (
                float(rng.uniform(0.5, 1.5)),
                rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
            ),
        )
        weak_d = (
            (
                float(rng.uniform(0.1, 0.5)),
                rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
            ),
        )
    return LindbladModel(
        dim=dim,
        gamma=gamma,
        strong_hamiltonian=_random_hermitian(dim, rng),
        strong_dissipators=strong_d,
        weak_hamiltonian=_random_hermitian(dim, rng) * 0.5,
        weak_dissipators=weak_d,
    )


def degenerate_model(gamma: float, dim: int = 8, fold: int = 4) -> LindbladModel:
    """Strong Hamiltonian with two ``fold``-fold levels, random weak GKLS part.

    The strong part is -i[H0, .] with H0 = diag(0 (``fold`` times), 1
    (``fold`` times), 2, 3, ...) on ``dim`` levels.  At dim = 2 fold its
    eigenvalues 0, -i and i have ranks 2 fold^2, fold^2 and fold^2 (32, 16,
    16 at dim = 8): the adiabatic-elimination regime, where the eigenspace
    projections have large rank.  The weak Hamiltonian and dissipator are
    those of ``random_model(dim, default_rng(0))``.
    """
    if not 1 <= fold <= dim // 2:
        raise ValueError(f"fold must be in 1..dim/2 = {dim // 2}, got {fold}")
    levels = np.concatenate((np.zeros(fold), np.ones(fold), np.arange(2.0, dim - 2 * fold + 2)))
    weak = random_model(dim, np.random.default_rng(0))
    return LindbladModel(
        dim=dim,
        gamma=gamma,
        strong_hamiltonian=np.diag(levels).astype(np.complex128),
        strong_dissipators=(),
        weak_hamiltonian=weak.weak_hamiltonian,
        weak_dissipators=weak.weak_dissipators,
    )


def unitary_part(model: LindbladModel) -> LindbladModel:
    """The model with all dissipators dropped (purely Hamiltonian parts)."""
    return LindbladModel(
        dim=model.dim,
        gamma=model.gamma,
        strong_hamiltonian=model.strong_hamiltonian,
        strong_dissipators=(),
        weak_hamiltonian=model.weak_hamiltonian,
        weak_dissipators=(),
    )


def qubit_nilpotent_similarity() -> tuple[np.ndarray, list]:
    """Exact similarity and layout for the qubit-with-nilpotent strong part.

    Columns are the vectorized X, (Y - Z), -Y, identity, ordered as blocks
    (-2; -1, -1; 0); the middle pair carries the index-2 nilpotent.
    """
    from .liouville import vec

    eye = np.eye(2, dtype=np.complex128)
    cols = [
        vec(PAULI_X),
        vec(PAULI_Y) - vec(PAULI_Z),
        -vec(PAULI_Y),
        vec(eye),
    ]
    r = np.column_stack(cols)
    layout = [(-2.0 + 0j, 1), (-1.0 + 0j, 2), (0.0 + 0j, 1)]
    return r, layout


def counterexample_similarity() -> tuple[np.ndarray, list]:
    """Exact (permutation) similarity for the three-level strong part.

    The strong generator is diagonal on matrix units; columns collect them
    into the seven blocks 0 (rank 3), -i/3, i/3, -2i/3, 2i/3, -i, i.
    """
    from .liouville import vec

    def unit(a, b):
        e = np.zeros((3, 3), dtype=np.complex128)
        e[a, b] = 1.0
        return e

    ordering = [
        (0, 0), (1, 1), (2, 2),   # eigenvalue 0
        (1, 0),                    # -i/3
        (0, 1),                    # +i/3
        (2, 1),                    # -2i/3
        (1, 2),                    # +2i/3
        (2, 0),                    # -i
        (0, 2),                    # +i
    ]
    r = np.column_stack([vec(unit(a, b)) for a, b in ordering])
    layout = [
        (0.0 + 0j, 3),
        (-1j / 3.0, 1),
        (1j / 3.0, 1),
        (-2j / 3.0, 1),
        (2j / 3.0, 1),
        (-1j, 1),
        (1j, 1),
    ]
    return r, layout
