import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from adiabloch import bench, bloch, effective, liouville, matcore, spectral
from adiabloch.effective import (
    build_effective,
    eternal_bound,
    multiset_spectral_distance,
    verify_similarity,
)
from adiabloch.liouville import build_superop, check_hp, check_tp
from adiabloch.models import (
    PAULI_X,
    counterexample_model,
    degenerate_model,
    lambda_model,
    qubit_nilpotent_model,
    random_model,
    unitary_part,
)


def similarity_report(pipe):
    return verify_similarity(
        pipe.generators,
        pipe.decomposition,
        pipe.strong.matrix,
        pipe.weak.matrix,
        pipe.model.gamma,
        list(pipe.solutions),
    )


@pytest.fixture(scope="module")
def lambda_degenerate_pipe():
    """delta = 0 variant, where closed-form spectra are available."""
    return bench.compute_effective(
        lambda_model(10.0, omega=1.0, delta=0.0, g1=1.0, g2=1.0, kappa=0.1, kappa0=1.0)
    )


class TestBuildEffective:
    def test_zero_weak_part(self, lambda_pipe):
        dec = lambda_pipe.decomposition
        zero = np.zeros((25, 25))
        sols = bloch.solve_blocks(dec, zero, 10.0)
        gen = build_effective(dec, zero, 10.0, sols)
        eye = np.eye(25)
        assert np.abs(gen.adiabatic.matrix).max() == 0.0
        assert np.abs(gen.adiabatic_conj.matrix).max() == 0.0
        assert np.abs(gen.schrieffer_wolff.matrix).max() < 1e-13
        for mat in (gen.transform, gen.transform_conj, gen.rotation, gen.rotation_inv):
            assert np.abs(mat - eye).max() < 1e-13

    @pytest.mark.parametrize("gamma", [2.0, 10.0, 100.0])
    def test_qubit_closed_form(self, gamma):
        pipe = bench.compute_effective(qubit_nilpotent_model(gamma))
        coeff = math.sqrt(gamma**2 + 4 * gamma + 8) - gamma
        expected = 0.5 * coeff * liouville.hamiltonian_superop(PAULI_X)
        assert np.abs(pipe.generators.schrieffer_wolff.matrix - expected).max() < 1e-10

    def test_block_structure(self, lambda_pipe):
        gen = lambda_pipe.generators
        for blk in lambda_pipe.decomposition.blocks:
            p = blk.projection
            for sop in (gen.adiabatic, gen.adiabatic_conj, gen.schrieffer_wolff):
                comm = sop.matrix @ p - p @ sop.matrix
                assert matcore.op_norm(comm, "spectral") < 1e-10

    def test_physicality(self, lambda_pipe):
        gen = lambda_pipe.generators
        for sop in (gen.adiabatic, gen.adiabatic_conj, gen.schrieffer_wolff):
            assert check_tp(sop, 1e-10).passed
            assert check_hp(sop, 1e-10).passed

    def test_rotation_square_identity(self, lambda_pipe):
        # W_l^2 = Ptilde_l P_l, the defining property of the direct rotation
        for eff, blk in zip(lambda_pipe.generators.blocks, lambda_pipe.decomposition.blocks):
            lhs = eff.rotation @ eff.rotation
            rhs = eff.projection_perturbed @ blk.projection
            assert matcore.op_norm(lhs - rhs, "spectral") < 1e-10

    def test_rotation_intertwines_projections(self, lambda_pipe):
        for eff, blk in zip(lambda_pipe.generators.blocks, lambda_pipe.decomposition.blocks):
            w = eff.rotation
            assert matcore.op_norm(w @ blk.projection - w, "spectral") < 1e-11
            assert matcore.op_norm(eff.projection_perturbed @ w - w, "spectral") < 1e-10
            winv = eff.rotation_inv
            assert matcore.op_norm(winv @ w - blk.projection, "spectral") < 1e-10
            assert matcore.op_norm(w @ winv - eff.projection_perturbed, "spectral") < 1e-10

    def test_unitary_k_skew_hermitian(self):
        pipe = bench.compute_effective(unitary_part(lambda_model(10.0)))
        k = pipe.generators.schrieffer_wolff.matrix
        assert np.abs(k + k.conj().T).max() < 1e-10
        rep, defect = liouville.coherence_rep(pipe.generators.schrieffer_wolff)
        assert defect < 1e-10
        assert np.abs(rep + rep.T).max() < 1e-10

    def test_rotation_near_identity_bound(self, lambda_pipe_certified):
        pipe = lambda_pipe_certified
        bound = sum(
            math.sqrt((1 + s.report.theta) / (1 - s.report.theta)) - 1
            for s in pipe.solutions
        )
        w_dev = matcore.op_norm(pipe.generators.rotation - np.eye(25), "spectral")
        assert w_dev <= bound + 1e-12


def _dense_block_effective(pipe):
    """Per block (K_l, W_l, W_l^-1, Ptilde_l) from the n x n formula.

    The n x n square root of Y = 1 + omega_conj S^2 omega / g^2, K_l
    projected as P K_l P, and no entrywise cut: the r x r assembly of
    :func:`build_effective` must reproduce these to rounding.
    """
    dec, gamma = pipe.decomposition, pipe.model.gamma
    eye = np.eye(dec.dim)
    for blk, sol in zip(dec.blocks, pipe.solutions):
        p, nil, s = blk.projection, blk.nilpotent, blk.resolvent
        core = eye + sol.omega_conj @ s @ s @ sol.omega / gamma**2
        root = sla.sqrtm(core)
        root_inv = np.linalg.inv(root)
        k = gamma * (root @ nil @ root_inv - nil) + root @ p @ sol.omega @ p @ root_inv
        yield (
            p @ k @ p,
            sol.wave @ root_inv @ p,
            root_inv @ sol.wave_conj,
            sol.wave @ np.linalg.solve(core, sol.wave_conj),
        )


def _dense_sw_series(dec, c, ell, order):
    """The symmetrized series composed on n x n coefficients, each taken as P k_j P."""
    blk = dec.blocks[ell]
    work = order + 1
    om = bloch.omega_series(dec, c, ell, work).coeffs
    omc = [o.T for o in bloch._omega_series(blk.transposed(), c.T, ell, work).coeffs]
    s2 = blk.resolvent @ blk.resolvent
    zero = np.zeros((dec.dim, dec.dim), dtype=complex)
    y = [zero, zero] + [
        sum(omc[a] @ s2 @ om[j - 2 - a] for a in range(j - 1)) for j in range(2, work + 1)
    ]
    plus = bloch._binomial_sqrt_series(y, 0.5, work)
    minus = bloch._binomial_sqrt_series(y, -0.5, work)
    p = blk.projection
    sym_d = bloch._series_mul(bloch._series_mul(plus, [p @ o for o in om], work), minus, work)
    nil = [blk.nilpotent] + [zero] * work
    sym_n = bloch._series_mul(bloch._series_mul(plus, nil, work), minus, work)
    return [p @ (sym_n[j + 1] + sym_d[j]) @ p for j in range(order + 1)]


def _certified(model):
    """The model at gamma = 2 max_l gamma_l, where every block is certified."""
    dec = spectral.decompose(build_superop(model, "strong").matrix)
    report = eternal_bound(dec, build_superop(model, "weak").matrix, 1.0)
    return replace(model, gamma=2.0 * max(report.gamma_blocks))


# Lambda has a rank-10 block and the degenerate model one of rank 8, so the
# r x r cores are exercised beyond scalars; the qubit carries an index-2
# nilpotent.  The random model sits at its certified coupling: at gamma = 10
# it has blocks with ||P|| ~ 12 and ||X|| ~ 5, where a 40-digit reference
# puts both routes ~1e-13 off (the dense one further), so their difference
# there measures the conditioning, not the assembly.
_ORACLE_MODELS = {
    "lambda": lambda: lambda_model(10.0),
    "qubit": lambda: qubit_nilpotent_model(10.0),
    "counterexample": lambda: counterexample_model(5.0),
    "degenerate": lambda: degenerate_model(20.0, dim=4, fold=2),
    "random": lambda: _certified(random_model(3, np.random.default_rng(3))),
}


@pytest.fixture(scope="module", params=sorted(_ORACLE_MODELS))
def oracle_pipe(request):
    return bench.compute_effective(_ORACLE_MODELS[request.param]())


def _assert_close(got, want):
    scale = max(1.0, matcore.op_norm(want, "spectral"))
    assert matcore.op_norm(got - want, "spectral") <= 1e-13 * scale


class TestFactoredAssembly:
    def test_matches_dense_assembly(self, oracle_pipe):
        for eff, ref in zip(oracle_pipe.generators.blocks, _dense_block_effective(oracle_pipe)):
            got = (eff.k_block, eff.rotation, eff.rotation_inv, eff.projection_perturbed)
            for g, r in zip(got, ref):
                _assert_close(g, r)

    def test_series_matches_dense_series(self, oracle_pipe):
        dec, c = oracle_pipe.decomposition, oracle_pipe.weak.matrix
        for ell in range(len(dec.blocks)):
            got = bloch.schrieffer_wolff_series(dec, c, ell, 3, method="series").coeffs
            for g, r in zip(got, _dense_sw_series(dec, c, ell, 3), strict=True):
                _assert_close(g, r)


class TestPerturbedProjection:
    def test_zero_weak_part(self, lambda_pipe):
        dec = lambda_pipe.decomposition
        zero = np.zeros((25, 25))
        sols = bloch.solve_blocks(dec, zero, 10.0)
        gen = build_effective(dec, zero, 10.0, sols)
        for sol in sols:
            pt = gen.blocks[sol.ell].projection_perturbed
            assert np.abs(pt - dec.blocks[sol.ell].projection).max() < 1e-13

    def test_idempotent_and_commuting(self, lambda_pipe):
        total = 10.0 * lambda_pipe.strong.matrix + lambda_pipe.weak.matrix
        for sol in lambda_pipe.solutions:
            pt = lambda_pipe.generators.blocks[sol.ell].projection_perturbed
            assert matcore.op_norm(pt @ pt - pt, "spectral") < 1e-10
            assert matcore.op_norm(total @ pt - pt @ total, "spectral") < 1e-9

    def test_ranks_preserved(self, lambda_pipe):
        for sol, blk in zip(lambda_pipe.solutions, lambda_pipe.decomposition.blocks):
            pt = lambda_pipe.generators.blocks[sol.ell].projection_perturbed
            assert round(np.trace(pt).real) == blk.rank


class TestSimilarity:
    def test_lambda_residuals(self, lambda_pipe):
        rep = similarity_report(lambda_pipe)
        for key, value in rep.items():
            assert value < 1e-9, (key, value)

    def test_qubit_residuals(self, qubit_pipe):
        rep = similarity_report(qubit_pipe)
        for key, value in rep.items():
            assert value < 1e-9, (key, value)

    def test_isospectrality(self, lambda_pipe):
        total = 10.0 * lambda_pipe.strong.matrix + lambda_pipe.weak.matrix
        total_k = 10.0 * lambda_pipe.strong.matrix + lambda_pipe.generators.schrieffer_wolff.matrix
        dist = multiset_spectral_distance(
            np.linalg.eigvals(total), np.linalg.eigvals(total_k)
        )
        assert dist < 1e-8

    def test_multiset_distance_conjugate_pairs(self):
        # near-equal real parts must not confuse the matcher
        a = [1.0 + 1e-12 + 5j, 1.0 - 1e-12 - 5j]
        b = [1.0 - 0.9e-12 + 5j, 1.0 + 1.1e-12 - 5j]
        assert multiset_spectral_distance(a, b) < 1e-11

    def test_degenerate_lambda_effective_total_spectrum(self, lambda_degenerate_pipe):
        # the symmetrized effective total must carry the same closed-form
        # spectrum as the true generator
        pipe = lambda_degenerate_pipe
        _, expected = bench._table1_spectra(10.0, 1.0, 1.0, 0.1, 1.0, 1.0)
        total_k = pipe.effective_total(None)
        dist = multiset_spectral_distance(np.linalg.eigvals(total_k), expected)
        assert dist < 1e-10


class TestEternalBound:
    def test_zero_weak_part(self, lambda_pipe):
        report = eternal_bound(
            lambda_pipe.decomposition, np.zeros((25, 25)), 10.0
        )
        assert report.loose_bound == 0.0
        assert report.tight_bound_d == 0.0
        assert report.tight_bound_k == 0.0
        assert report.applicable

    def test_unitary_block_threshold(self):
        model = unitary_part(lambda_model(10.0))
        strong = build_superop(model, "strong")
        weak = build_superop(model, "weak")
        dec = spectral.decompose(strong.matrix)
        report = eternal_bound(dec, weak.matrix, 40.0, unitary=True)
        c_norm = matcore.op_norm(weak.matrix, "spectral")
        for gl, blk in zip(report.gamma_blocks, dec.blocks):
            s_norm = matcore.op_norm(blk.resolvent, "spectral")
            assert_allclose(gl, 4.0 * s_norm * c_norm, rtol=1e-12)
        assert report.unitary_bound is not None and report.unitary_bound > 0

    def test_tight_d_below_tight_k(self, lambda_pipe, rng):
        report = eternal_bound(lambda_pipe.decomposition, lambda_pipe.weak.matrix, 50.0)
        assert report.tight_bound_d <= report.tight_bound_k

    def test_applicability_flag(self, lambda_pipe):
        dec = lambda_pipe.decomposition
        c = lambda_pipe.weak.matrix
        report_low = eternal_bound(dec, c, 10.0)
        report_high = eternal_bound(dec, c, 2.0 * max(report_low.gamma_blocks))
        assert not report_low.applicable
        assert report_high.applicable

    def test_measured_distance_below_loose_bound(self):
        # short grid is enough: the bound is uniform in time
        model = lambda_model(10.0)
        times = np.concatenate(([0.0], np.logspace(-2, 3, 60)))
        result = bench.bound_check(model, gamma_factor=2.0, times=times)
        assert result["applicable"]
        assert result["sup_distance_k"] <= result["tight_bound_k"]
        assert result["sup_distance_d"] <= result["tight_bound_d"]
        assert result["tight_bound_d"] <= result["tight_bound_k"]
        # diagnostic only: the loose bound is stated for the norm induced by
        # the operator trace norm, compared here against the spectral-norm
        # distance
        assert result["sup_distance_k"] <= result["loose_bound"]
        assert result["sup_distance_d"] <= result["loose_bound"]


class TestBoundArguments:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_bad_coupling_rejected(self, gamma):
        # a zero coupling divides by zero and a negative one gives negative
        # "bounds": both must be rejected as arguments
        dec = spectral.decompose(np.diag([0.0, -1.0]))
        with pytest.raises(ValueError, match="gamma"):
            eternal_bound(dec, np.ones((2, 2)), gamma)

    @pytest.mark.parametrize("unitary", [False, True])
    def test_weak_norm_taken_once(self, lambda_pipe, monkeypatch, unitary):
        dec, c = lambda_pipe.decomposition, lambda_pipe.weak.matrix
        calls = []
        op_norm = matcore.op_norm

        def counting_norm(a, kind="spectral"):
            if np.shape(a) == c.shape and np.array_equal(a, c):
                calls.append(kind)
            return op_norm(a, kind)

        monkeypatch.setattr(matcore, "op_norm", counting_norm)
        eternal_bound(dec, c, 40.0, unitary=unitary)
        assert calls == ["spectral"]

    def test_bound_check_reuses_the_thresholds(self, monkeypatch):
        # the thresholds at gamma = 1 serve the bounds at the chosen gamma:
        # ||C|| is taken there and once in solve_blocks, not a third time
        model = lambda_model(10.0)
        c = build_superop(model, "weak").matrix
        calls = []
        op_norm = matcore.op_norm

        def counting_norm(a, kind="spectral"):
            if np.shape(a) == c.shape and np.array_equal(a, c):
                calls.append(kind)
            return op_norm(a, kind)

        monkeypatch.setattr(matcore, "op_norm", counting_norm)
        times = np.array([0.0, 1.0, 10.0])
        result = bench.bound_check(model, times=times)
        assert calls == ["spectral", "spectral"]
        dec = spectral.decompose(build_superop(model, "strong").matrix)
        fresh = eternal_bound(
            dec, c, result["gamma"], semigroup_bound=result["semigroup_bound"]
        )
        for key in ("tight_bound_k", "tight_bound_d", "loose_bound", "applicable"):
            assert result[key] == getattr(fresh, key), key
