import adiabloch

# The public surface, spelled out: a name joins or leaves it only by an edit here.
PUBLIC = [
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


def test_all_is_the_sorted_public_list():
    assert PUBLIC == sorted(PUBLIC)
    assert adiabloch.__all__ == PUBLIC


def test_all_has_no_duplicates():
    assert len(set(adiabloch.__all__)) == len(adiabloch.__all__)


def test_every_public_name_resolves():
    for name in adiabloch.__all__:
        assert getattr(adiabloch, name) is not None, name
