import numpy as np
import pytest
from numpy.testing import assert_allclose

from adiabloch import matcore, spectral
from adiabloch.errors import ClusterAmbiguityError, SingularMatrixError
from adiabloch.models import (
    counterexample_model,
    counterexample_similarity,
    qubit_nilpotent_model,
    qubit_nilpotent_similarity,
)
from adiabloch.liouville import build_superop
from adiabloch.spectral import (
    decompose,
    decompose_from_user,
    robust_decompose,
    validate,
)


def find_block(dec, eigenvalue, tol=1e-6):
    for blk in dec.blocks:
        if abs(blk.eigenvalue - eigenvalue) < tol:
            return blk
    raise AssertionError(f"no block with eigenvalue {eigenvalue}")


class TestDiagonalCase:
    def test_two_distinct_eigenvalues(self):
        b = np.diag([0.0, -2.0j])
        dec = decompose(b)
        assert len(dec.blocks) == 2
        blk0 = find_block(dec, 0.0)
        blk1 = find_block(dec, -2.0j)
        assert_allclose(blk0.projection, np.diag([1.0, 0.0]), atol=1e-14)
        assert_allclose(blk1.projection, np.diag([0.0, 1.0]), atol=1e-14)
        assert np.abs(blk0.nilpotent).max() == 0.0
        # S at eigenvalue 0 is (b1 - b0)^(-1) P1 = diag(0, i/2)
        assert_allclose(blk0.resolvent, np.diag([0.0, 0.5j]), atol=1e-14)
        assert blk0.index == blk1.index == 1

    def test_exact_hand_built_decomposition_validates_to_zero(self):
        b = np.diag([0.0, -2.0j])
        dec = decompose_from_user(b, np.eye(2), [(0.0, 1), (-2.0j, 1)])
        for key, value in dec.residuals.items():
            if isinstance(value, float):
                assert value == 0.0, (key, value)

    def test_identity_similarity_matches_auto(self):
        b = np.diag([1.0, -1.0, 3.0j])
        auto = decompose(b)
        user = decompose_from_user(
            b, np.eye(3), [(1.0, 1), (-1.0, 1), (3.0j, 1)]
        )
        for blk_u in user.blocks:
            blk_a = find_block(auto, blk_u.eigenvalue)
            assert np.abs(blk_u.projection - blk_a.projection).max() < 1e-14
            assert np.abs(blk_u.resolvent - blk_a.resolvent).max() < 1e-14


class TestQubitNilpotent:
    def test_block_structure(self):
        strong = build_superop(qubit_nilpotent_model(10.0), "strong")
        dec = decompose(strong.matrix, cluster_tol=1e-6)
        assert sorted(round(b.eigenvalue.real) for b in dec.blocks) == [-2, -1, 0]
        blk = find_block(dec, -1.0)
        assert blk.rank == 2
        assert blk.index == 2
        nil_norm = matcore.op_norm(blk.nilpotent, "spectral")
        assert nil_norm > 0.1
        assert matcore.op_norm(blk.nilpotent @ blk.nilpotent, "spectral") < 1e-9

    def test_default_tolerance_flags_ambiguity(self):
        # rounding splits the defective eigenvalue by ~sqrt(eps), which the
        # default clustering correctly refuses to resolve
        strong = build_superop(qubit_nilpotent_model(10.0), "strong")
        with pytest.raises(ClusterAmbiguityError) as err:
            decompose(strong.matrix)
        assert err.value.gap is not None

    def test_robust_decompose_escalates_past_ambiguity(self):
        # the default tolerance 1e-8 * max(||B||, 1) is refused (above); one
        # escalation by 100 clusters the defective eigenvalue
        strong = build_superop(qubit_nilpotent_model(10.0), "strong")
        default = 1e-8 * max(matcore.op_norm(strong.matrix, "spectral"), 1.0)
        dec = robust_decompose(strong.matrix)
        assert_allclose(dec.cluster_tol, 100.0 * default, rtol=1e-14)
        assert find_block(dec, -1.0).index == 2
        assert dec.residuals["nilpotency_defect"] < 1e-12

    def test_user_similarity_route_agrees(self):
        strong = build_superop(qubit_nilpotent_model(10.0), "strong")
        sim, layout = qubit_nilpotent_similarity()
        user = decompose_from_user(strong.matrix, sim, layout)
        auto = decompose(strong.matrix, cluster_tol=1e-6)
        for blk_u in user.blocks:
            blk_a = find_block(auto, blk_u.eigenvalue)
            assert np.abs(blk_u.projection - blk_a.projection).max() < 1e-10
            assert np.abs(blk_u.nilpotent - blk_a.nilpotent).max() < 1e-8
            assert np.abs(blk_u.resolvent - blk_a.resolvent).max() < 1e-8
            assert blk_u.index == blk_a.index

    def test_user_route_residuals(self):
        strong = build_superop(qubit_nilpotent_model(10.0), "strong")
        sim, layout = qubit_nilpotent_similarity()
        dec = decompose_from_user(strong.matrix, sim, layout)
        for key in ("identity_defect", "resolvent_defect", "nilpotency_defect"):
            assert dec.residuals[key] < 1e-12


class TestCounterexample:
    def test_seven_blocks(self):
        strong = build_superop(counterexample_model(5.0), "strong")
        dec = decompose(strong.matrix)
        assert len(dec.blocks) == 7
        assert find_block(dec, 0.0).rank == 3
        for value in (1j / 3, -1j / 3, 2j / 3, -2j / 3, 1j, -1j):
            assert find_block(dec, value).rank == 1

    def test_user_permutation_similarity(self):
        strong = build_superop(counterexample_model(5.0), "strong")
        sim, layout = counterexample_similarity()
        dec = decompose_from_user(strong.matrix, sim, layout)
        assert len(dec.blocks) == 7
        assert dec.blocks[0].rank == 3
        assert all(v < 1e-12 for v in dec.residuals.values() if isinstance(v, float))


class TestValidate:
    def test_lambda_residuals(self, lambda_pipe):
        res = validate(lambda_pipe.decomposition, lambda_pipe.strong.matrix)
        for key in (
            "identity_defect",
            "idempotency_defect",
            "reconstruction_defect",
            "resolvent_defect",
            "nilpotency_defect",
        ):
            assert res[key] < 1e-9, (key, res[key])
        assert res["rank_consistent"]
        assert res["rank_total"] == 25

    def test_perturbed_projection_detected(self):
        b = np.diag([0.0, -2.0j])
        dec = decompose(b)
        bad = spectral.EigenspaceData(
            eigenvalue=dec.blocks[0].eigenvalue,
            projection=dec.blocks[0].projection + 1e-3 * np.eye(2),
            nilpotent=dec.blocks[0].nilpotent,
            index=1,
            resolvent=dec.blocks[0].resolvent,
            rank=dec.blocks[0].rank,
        )
        tampered = spectral.SpectralDecomposition(
            dim=2, blocks=(bad, dec.blocks[1]), cluster_tol=dec.cluster_tol
        )
        res = validate(tampered, b)
        assert 1e-4 < res["identity_defect"] < 1e-2


class TestInvariants:
    def test_transposed_decomposes_the_transpose(self, lambda_pipe):
        # P^T, N^T, S^T with the same eigenvalue, index and rank are the
        # spectral data of B^T, including an index-2 nilpotent
        qubit = build_superop(qubit_nilpotent_model(10.0), "strong").matrix
        for b, dec in (
            (qubit, decompose(qubit, cluster_tol=1e-6)),
            (lambda_pipe.strong.matrix, lambda_pipe.decomposition),
        ):
            dec_t = dec.transposed()
            res = validate(dec_t, b.T)
            for key, value in dec.residuals.items():
                if isinstance(value, bool):
                    assert res[key] == value, key
                else:
                    assert res[key] <= value + 1e-14, key
            for blk, blk_t in zip(dec.blocks, dec_t.blocks):
                assert blk_t.eigenvalue == blk.eigenvalue
                assert (blk_t.index, blk_t.rank) == (blk.index, blk.rank)

    def test_rank_sum_and_resolvent_support(self, lambda_pipe):
        dec = lambda_pipe.decomposition
        n = dec.dim
        assert sum(b.rank for b in dec.blocks) == n
        eye = np.eye(n)
        for blk in dec.blocks:
            s = blk.resolvent
            assert matcore.op_norm(s @ (eye - blk.projection) - s, "spectral") < 1e-10

    def test_diagonalizable_resolvent_formula(self, lambda_pipe):
        # all indices are 1 here, so S must equal sum (b_k - b_l)^(-1) P_k
        dec = lambda_pipe.decomposition
        for ell, blk in enumerate(dec.blocks):
            expected = np.zeros_like(blk.resolvent)
            for k, other in enumerate(dec.blocks):
                if k != ell:
                    expected += other.projection / (other.eigenvalue - blk.eigenvalue)
            assert matcore.op_norm(blk.resolvent - expected, "spectral") < 1e-10

    def test_singular_similarity_rejected(self):
        b = np.diag([0.0, 1.0])
        sim = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            decompose_from_user(b, sim, [(0.0, 1), (1.0, 1)])
