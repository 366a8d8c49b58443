"""Effective adiabatic generators for strongly driven open quantum systems.

Given a generator g*B + C with a strong part B and weak part C, the package
computes the spectral data of B, solves the adiabatic Bloch equations
nonperturbatively, assembles leakage-free effective generators (one-sided
and symmetrized) with Newton-Kantorovich existence certificates, checks
their physical structure (HP/TP/CCP, GKLS form), and verifies the
uniform-in-time error bounds against exact propagation.
"""

from .bloch import (
    BlochSolution,
    KantorovichReport,
    SeriesCoefficients,
    bracket,
    generator_series,
    kantorovich_report,
    omega_from_wave,
    schrieffer_wolff_series,
    solve_block,
    solve_blocks,
    sum_correction_series,
    wave_from_omega,
)
from .effective import (
    BoundReport,
    EffectiveGenerators,
    build_effective,
    eternal_bound,
    multiset_spectral_distance,
    verify_similarity,
)
from .errors import AdiablochError
from .liouville import (
    GKLSForm,
    LindbladModel,
    Superoperator,
    build_superop,
    check_hp,
    check_tp,
    gkls_decompose,
    vec,
)
from .spectral import (
    EigenspaceData,
    SpectralDecomposition,
    decompose,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AdiablochError",
    "BlochSolution",
    "BoundReport",
    "EffectiveGenerators",
    "EigenspaceData",
    "GKLSForm",
    "KantorovichReport",
    "LindbladModel",
    "SeriesCoefficients",
    "SpectralDecomposition",
    "Superoperator",
    "bracket",
    "build_effective",
    "build_superop",
    "check_hp",
    "check_tp",
    "decompose",
    "eternal_bound",
    "generator_series",
    "gkls_decompose",
    "kantorovich_report",
    "multiset_spectral_distance",
    "omega_from_wave",
    "schrieffer_wolff_series",
    "solve_block",
    "solve_blocks",
    "sum_correction_series",
    "validate",
    "vec",
    "wave_from_omega",
]
