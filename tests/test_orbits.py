"""Conjugate orbits {b, conj(b)}: the second member is mapped, not solved.

Both parts of every GKLS generator preserve Hermiticity, so X -> F conj(X) F
(F the vec-transpose permutation) carries the block of b onto the block of
conj(b), and every solved quantity with it.  These tests compare each mapped
quantity with the same quantity solved directly.
"""

import dataclasses

import numpy as np
import pytest

from adiabloch import bench, bloch, effective, liouville, spectral
from adiabloch.effective import build_effective, eternal_bound, verify_similarity
from adiabloch.liouville import Superoperator, build_superop
from adiabloch.models import (
    counterexample_model,
    lambda_model,
    qubit_nilpotent_model,
    random_model,
)

MAP_TOL = 1e-13


def _certified(model):
    """The model at 2 max gamma_l, the coupling of the benchmark's random models."""
    strong, weak = build_superop(model, "strong"), build_superop(model, "weak")
    dec = spectral.robust_decompose(strong.matrix)
    gamma = 2.0 * max(eternal_bound(dec, weak.matrix, 1.0).gamma_blocks)
    return dataclasses.replace(model, gamma=gamma)


def _random_models():
    draw = np.random.default_rng(0)
    return {f"random_d{d}_{i}": random_model(d, draw) for d in (3, 4, 5) for i in range(2)}


# the benchmark's 15 cases; its random models are drawn from the same seed,
# here without the workload's change of Hilbert-space basis
BENCHMARK_CASES = {
    "lambda_g10": lambda: lambda_model(10.0),
    "counterexample_g5": lambda: counterexample_model(5.0),
    **{
        name: (lambda name=name: _certified(_random_models()[name]))
        for name in _random_models()
    },
    **{f"qubit_g{g}": (lambda g=g: qubit_nilpotent_model(float(g))) for g in (10, 20, 40)},
    **{
        f"counterexample_g{g}": (lambda g=g: counterexample_model(float(g)))
        for g in (10, 20, 40)
    },
}


def _rel(got, want) -> float:
    return float(np.linalg.norm(got - want, 2) / max(1.0, np.linalg.norm(want, 2)))


def _check_against_direct_solves(pipe):
    dec, c, gamma = pipe.decomposition, pipe.weak.matrix, pipe.model.gamma
    # every non-real block is in an orbit of two; a real one is alone
    assert len(dec.images) == int(np.sum(dec.eigenvalues.imag > 10 * dec.cluster_tol))
    for second, first in dec.images.items():
        assert first < second
        assert dec.blocks[second].eigenvalue == dec.blocks[first].eigenvalue.conjugate()

    direct = [bloch.solve_block(dec, c, gamma, ell) for ell in range(len(dec.blocks))]
    gen = build_effective(dec, c, gamma, direct)
    gamma_blocks = eternal_bound(dec, c, gamma).gamma_blocks
    for ell, (sol, want) in enumerate(zip(pipe.solutions, direct)):
        assert sol.mapped_from == dec.images.get(ell)
        if sol.mapped_from is None:
            # a solved member is the direct solve itself
            assert sol.iterations == want.iterations
            assert np.array_equal(sol.omega, want.omega)
            continue
        assert set(sol.iterations.values()) == {0}
        assert sol.report.ell == ell
        got_eff, want_eff = pipe.generators.blocks[ell], gen.blocks[ell]
        for got, ref in (
            (sol.omega, want.omega),
            (sol.omega_conj, want.omega_conj),
            (got_eff.k_block, want_eff.k_block),
            (got_eff.d_block, want_eff.d_block),
            (got_eff.d_conj_block, want_eff.d_conj_block),
        ):
            assert _rel(got, ref) <= MAP_TOL
        want_gamma = bloch.block_gamma_min(dec.blocks[ell], c)
        assert abs(gamma_blocks[ell] - want_gamma) <= MAP_TOL * want_gamma

    series = sum(
        bloch.schrieffer_wolff_series(dec, c, ell, 2, method="series").truncated_sum(gamma)
        for ell in range(len(dec.blocks))
    )
    assert _rel(pipe.k_eff(2), series) <= MAP_TOL


@pytest.mark.parametrize("name", list(BENCHMARK_CASES))
def test_mapped_blocks_match_direct_solves(name):
    _check_against_direct_solves(bench.compute_effective(BENCHMARK_CASES[name]()))


def test_mapped_blocks_match_direct_solves_random_d8(random_d8_certified):
    assert len(random_d8_certified.decomposition.images) == 28
    _check_against_direct_solves(random_d8_certified)


def test_orbits_need_a_hermiticity_preserving_matrix(lambda_pipe):
    b = lambda_pipe.strong.matrix
    assert spectral.decompose(b).images == lambda_pipe.decomposition.images
    bent = b.copy()
    bent[3, 7] += 1e-6j * np.abs(b).max()
    assert spectral.decompose(bent).images == {}


@pytest.mark.parametrize("name", ["lambda_g10", "random_d4_0"])
def test_non_hp_weak_part_is_solved_block_by_block(name):
    pipe = bench.compute_effective(BENCHMARK_CASES[name]())
    dec, gamma = pipe.decomposition, pipe.model.gamma
    assert dec.images
    c = pipe.weak.matrix.copy()
    c[3, 7] += 1e-6j * np.abs(c).max()
    sols = bloch.solve_blocks(dec, c, gamma)
    for ell, sol in enumerate(sols):
        want = bloch.solve_block(dec, c, gamma, ell)
        assert sol.mapped_from is None
        assert sol.iterations == want.iterations and sol.residuals == want.residuals
        for field in ("omega", "omega_conj", "wave", "wave_conj"):
            assert np.array_equal(getattr(sol, field), getattr(want, field))
    gen = build_effective(dec, c, gamma, sols)
    perturbed = dataclasses.replace(
        pipe, weak=Superoperator(pipe.weak.dim, c), solutions=tuple(sols), generators=gen
    )
    series = np.zeros_like(c)
    for ell in range(len(dec.blocks)):
        series = series + bloch.schrieffer_wolff_series(
            dec, c, ell, 1, method="series"
        ).truncated_sum(gamma, 1)
    assert np.array_equal(perturbed.k_eff(1), series)


def _worst_similarity(pipe) -> float:
    sim = verify_similarity(
        pipe.generators,
        pipe.decomposition,
        pipe.strong.matrix,
        pipe.weak.matrix,
        pipe.model.gamma,
        list(pipe.solutions),
    )
    return max(sim.values())


def _array_fields(obj) -> set:
    return {
        f.name for f in dataclasses.fields(obj) if isinstance(getattr(obj, f.name), np.ndarray)
    }


def _without_conjugation(obj, **changes):
    """The orbit map with its conjugation left out: F X F on every array field."""
    conj = {name: getattr(obj, name).conj() for name in _array_fields(obj)}
    return liouville._hp_image_of(dataclasses.replace(obj, **conj), **changes)


def test_wrong_block_map_is_flagged_by_validate(monkeypatch):
    b = build_superop(lambda_model(10.0), "strong").matrix
    assert max(v for v in spectral.decompose(b).residuals.values() if isinstance(v, float)) < 1e-13
    monkeypatch.setattr(spectral, "_hp_image_of", _without_conjugation)
    residuals = spectral.decompose(b).residuals
    assert max(v for v in residuals.values() if isinstance(v, float)) > 1e-3


@pytest.mark.parametrize("module", [bloch, effective], ids=["solution_map", "block_map"])
def test_wrong_solution_map_is_flagged_by_verify_similarity(monkeypatch, module):
    model = lambda_model(10.0)
    assert _worst_similarity(bench.compute_effective(model)) < 1e-11
    monkeypatch.setattr(module, "_hp_image_of", _without_conjugation)
    assert _worst_similarity(bench.compute_effective(model)) > 1e-3


@pytest.mark.parametrize(
    "eigs, ranks, tol, pairs",
    [
        # mutual nearest conjugates only: block 0's nearest is block 1, whose is block 2
        ([1j, -1.0000001j, 1.0000001j + 1e-9], [1, 1, 1], 1e-6, {2: 1}),
        ([2 + 1j, -1, 2 - 1j, 3j, -3j], [1, 1, 1, 2, 2], 1e-8, {2: 0, 4: 3}),
        # within the cluster tolerance, and only within it
        ([1j, -1j + 1e-6], [1, 1], 1e-5, {1: 0}),
        ([1j, -1j + 1e-6], [1, 1], 1e-7, {}),
        # ranks must agree
        ([1j, -1j], [2, 1], 1e-8, {}),
        # a real eigenvalue is its own partner, so alone
        ([0.0, -1.0], [3, 3], 1e-8, {}),
    ],
    ids=["mutual", "two-orbits", "within-tol", "beyond-tol", "rank-mismatch", "real-alone"],
)
def test_conjugate_pairs_from_eigenvalues_and_ranks(eigs, ranks, tol, pairs):
    assert spectral._conjugate_pairs(np.array(eigs, dtype=complex), np.array(ranks), tol) == pairs


def test_each_image_maps_exactly_its_array_fields(lambda_pipe):
    first, second = next(iter(lambda_pipe.decomposition.images.items()))[::-1]
    blk = lambda_pipe.decomposition.blocks[first]
    sol = lambda_pipe.solutions[first]
    eff = lambda_pipe.generators.blocks[first]
    cases = [
        (blk, blk.image(), {"projection", "nilpotent", "resolvent"}),
        (sol, sol.image(second), {"omega", "omega_conj", "wave", "wave_conj"}),
        (eff, eff.image(second), {"d_block", "d_conj_block", "k_block", "rotation",
                                  "rotation_inv", "projection_perturbed"}),
    ]
    for obj, image, arrays in cases:
        assert _array_fields(obj) == arrays
        for name in arrays:
            assert np.array_equal(getattr(image, name), liouville._hp_image(getattr(obj, name)))
    # the other fields: each one set by its own rule or kept
    assert blk.image().eigenvalue == blk.eigenvalue.conjugate()
    assert (blk.image().index, blk.image().rank) == (blk.index, blk.rank)
    assert np.array_equal(blk.image().factors.q, blk.factors.image().q)
    mapped = sol.image(second)
    assert (mapped.ell, mapped.mapped_from, mapped.report.ell) == (second, first, second)
    assert mapped.residuals == sol.residuals and mapped.residuals is not sol.residuals
    assert set(mapped.iterations.values()) == {0}
    assert mapped.certified == sol.certified
    assert eff.image(second).ell == second
