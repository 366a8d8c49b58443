import math
import sys
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose
from scipy.sparse.csgraph import connected_components

from adiabloch import matcore, spectral
from adiabloch.errors import (
    ClusterAmbiguityError,
    NonFiniteError,
    SingularMatrixError,
    SpectralOverlapError,
)
from adiabloch.models import (
    counterexample_model,
    counterexample_similarity,
    qubit_nilpotent_model,
    qubit_nilpotent_similarity,
    random_model,
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


def validate_per_pair(dec, b):
    """Reference certificate: one op_norm per block and per block pair."""
    mat = np.asarray(b, dtype=np.complex128)
    n = mat.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    norm_b = max(matcore.op_norm(mat, "spectral"), 1.0)

    proj_sum = np.zeros_like(mat)
    recon = np.zeros_like(mat)
    idem = ortho = commut = resolvent_defect = nilpotency = annihilation = 0.0
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
        if matcore.op_norm(power, "spectral") > 1e-7 * norm_b:
            rank_ok = False
        if blk.index > 1:
            prev = np.linalg.matrix_power(nil, blk.index - 1)
            if matcore.op_norm(prev, "spectral") <= 1e-7 * norm_b:
                rank_ok = False
        total_rank += blk.rank

    return {
        "identity_defect": matcore.op_norm(proj_sum - eye, "spectral"),
        "idempotency_defect": idem,
        "orthogonality_defect": ortho,
        "commutation_defect": commut,
        "reconstruction_defect": matcore.op_norm(recon - mat, "spectral"),
        "resolvent_defect": resolvent_defect,
        "annihilation_defect": annihilation,
        "nilpotency_defect": nilpotency,
        "rank_consistent": rank_ok,
        "rank_total": total_rank,
    }


def tampered_diagonal():
    """diag(0, -2i) with the first projection perturbed by 1e-3."""
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
    return tampered, b


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

    def test_escalation_clusters_one_schur_form_again(self, monkeypatch):
        # one Schur factorization of B whatever the escalations; up to the
        # assembly the only SVD is ||B||, and no eigenvalues are recomputed
        strong = build_superop(qubit_nilpotent_model(10.0), "strong")
        default = 1e-8 * max(matcore.op_norm(strong.matrix, "spectral"), 1.0)
        calls = {"schur": 0, "svd": 0, "eigvals": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(spectral.sla, "schur", counting("schur", sla.schur))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "eigvals", counting("eigvals", np.linalg.eigvals))
        at_assembly = []
        assemble = spectral._assemble

        def recording_assemble(*args):
            at_assembly.append(dict(calls))
            return assemble(*args)

        monkeypatch.setattr(spectral, "_assemble", recording_assemble)
        dec = robust_decompose(strong.matrix)
        assert_allclose(dec.cluster_tol, 100.0 * default, rtol=1e-14)
        assert len(dec.blocks) == 3
        assert at_assembly == [{"schur": 1, "svd": 1, "eigvals": 0}]
        assert calls["schur"] == 1

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
        res = validate(*tampered_diagonal())
        assert 1e-4 < res["identity_defect"] < 1e-2

    @pytest.mark.parametrize("case", ["lambda", "qubit", "random3", "tampered"])
    def test_stacked_matches_per_pair_reference(self, case, lambda_pipe):
        if case == "lambda":
            dec, b = lambda_pipe.decomposition, lambda_pipe.strong.matrix
        elif case == "qubit":
            b = build_superop(qubit_nilpotent_model(10.0), "strong").matrix
            dec = decompose(b, cluster_tol=1e-6)
            assert max(blk.index for blk in dec.blocks) == 2
        elif case == "random3":
            model = random_model(3, np.random.default_rng(5))
            b = build_superop(model, "strong").matrix
            dec = robust_decompose(b)
        else:
            dec, b = tampered_diagonal()
        got, want = validate(dec, b), validate_per_pair(dec, b)
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, (bool, int)):
                assert got[key] == value, key
            else:
                assert abs(got[key] - value) <= 1e-14 * max(1.0, abs(value)), key


    def test_orthogonality_takes_order_b_square_svds(self, monkeypatch):
        # ||P_i P_j|| comes from r_i x n factors: the n x n SVDs grow like the
        # number of blocks b, where measuring every P_i P_j took b^2 of them
        b = build_superop(random_model(4, np.random.default_rng(3)), "strong").matrix
        dec = robust_decompose(b)
        n, blocks = dec.dim, len(dec.blocks)
        assert blocks == n == 16
        square = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            a = np.asarray(a)
            if a.shape[-2:] == (n, n):
                square.append(int(np.prod(a.shape[:-2])))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        validate(dec, b)
        # identity, reconstruction and ||B||; per block idempotency,
        # commutation, two resolvent defects, the nilpotent power and its rank
        assert sum(square) <= 6 * blocks + 3 < blocks * blocks

    def test_pruned_maxima_take_fewer_than_b_square_svds(self, monkeypatch):
        # the largest norm of each stack comes from the few matrices whose
        # Frobenius norm can still reach it: fewer n x n SVDs than blocks
        b = build_superop(random_model(4, np.random.default_rng(3)), "strong").matrix
        dec = robust_decompose(b)
        n, blocks = dec.dim, len(dec.blocks)
        square, every = [], []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            a = np.asarray(a)
            count = int(np.prod(a.shape[:-2]))
            every.append(count)
            if a.shape[-2:] == (n, n):
                square.append(count)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        validate(dec, b)
        assert sum(square) < blocks
        assert sum(every) < 2 * blocks

    @pytest.mark.parametrize("case", ["lambda", "qubit", "random4", "tampered"])
    def test_pruned_maxima_equal_the_full_stacks(self, case, lambda_pipe, monkeypatch):
        if case == "lambda":
            dec, b = lambda_pipe.decomposition, lambda_pipe.strong.matrix
        elif case == "qubit":
            b = build_superop(qubit_nilpotent_model(10.0), "strong").matrix
            dec = decompose(b, cluster_tol=1e-6)
        elif case == "random4":
            b = build_superop(random_model(4, np.random.default_rng(3)), "strong").matrix
            dec = robust_decompose(b)
        else:
            dec, b = tampered_diagonal()
        got = validate(dec, b)

        def full_stack(a, floor=0.0, extra=0.0):
            return max(floor, float(np.hypot(matcore.op_norm(a, "spectral"), extra).max()))

        monkeypatch.setattr(matcore, "_max_spectral_norm", full_stack)
        assert got == validate(dec, b)


class TestNilpotentIndex:
    @pytest.fixture(scope="class")
    def strong_matrices(self, lambda_pipe):
        qubit = build_superop(qubit_nilpotent_model(10.0), "strong").matrix
        model = random_model(3, np.random.default_rng(5))
        return {
            "lambda": (lambda_pipe.strong.matrix, lambda_pipe.decomposition.cluster_tol, 1),
            "qubit": (qubit, 1e-6, 2),
            "random": (build_superop(model, "strong").matrix, None, 1),
        }

    @pytest.mark.parametrize("case", ["lambda", "qubit", "random"])
    def test_index_loop_measures_no_zero_power(self, case, strong_matrices, monkeypatch):
        matrix, tol, max_index = strong_matrices[case]
        op_norm = matcore.op_norm
        zero_args = []

        def counting_op_norm(a, kind="spectral"):
            a = np.asarray(a)
            caller = sys._getframe(1).f_code.co_name
            if caller == "_assemble" and not a.any():
                zero_args.append(a.shape)
            return op_norm(a, kind)

        monkeypatch.setattr(matcore, "op_norm", counting_op_norm)
        dec = decompose(matrix, tol)
        monkeypatch.undo()
        assert zero_args == []
        # the index of every block is the one the power loop finds when it
        # takes the norm of each power, zero or not
        for blk in dec.blocks:
            idx, power = 1, blk.nilpotent
            while op_norm(power, "spectral") > 10.0 * dec.cluster_tol and idx < blk.rank:
                power = power @ blk.nilpotent
                idx += 1
            assert blk.index == idx
        assert max(blk.index for blk in dec.blocks) == max_index


class TestProjectionFactors:
    @pytest.fixture(scope="class")
    def decompositions(self, lambda_pipe):
        qubit = build_superop(qubit_nilpotent_model(10.0), "strong").matrix
        model = random_model(3, np.random.default_rng(5))
        return (
            lambda_pipe.decomposition,
            decompose(qubit, cluster_tol=1e-6),
            robust_decompose(build_superop(model, "strong").matrix),
        )

    def test_factors_of_computed_projections(self, decompositions):
        for dec in decompositions:
            for blk in dec.blocks:
                f, p = blk.factors, blk.projection
                scale = max(1.0, f.norm())
                assert f.q.shape == f.z.shape == (dec.dim, blk.rank)
                assert f.tail <= 1e-13 * scale
                assert_allclose(f.q @ f.w, p, atol=1e-13 * scale)
                assert_allclose(f.w @ f.q, np.eye(blk.rank), atol=1e-13 * scale)
                assert_allclose(f.w, f.w @ f.z @ f.z.conj().T, atol=1e-13 * scale)
                assert_allclose(f.norm(), matcore.op_norm(p), rtol=1e-13)

    def test_transposed_factors_match_a_fresh_svd(self, decompositions):
        # column phases (and rotations within repeated singular values) are
        # arbitrary, so compare the phase-free products Q Q^H, Z Z^H and Q W
        for dec in decompositions:
            for blk in dec.blocks:
                got = blk.transposed().factors
                fresh = spectral.ProjectionFactors.of(blk.projection.T, blk.rank)
                scale = max(1.0, fresh.norm())
                assert_allclose(got.singular_values, fresh.singular_values, atol=1e-14 * scale)
                for a, b in ((got.q, fresh.q), (got.z, fresh.z)):
                    assert_allclose(a @ a.conj().T, b @ b.conj().T, atol=1e-12)
                assert_allclose(got.q @ got.w, fresh.q @ fresh.w, atol=1e-13 * scale)

    def test_hand_built_block_derives_its_factors(self):
        # P = diag(1.001, 0.001) up to order: rank 1 with a 1e-3 tail
        dec, _b = tampered_diagonal()
        p = dec.blocks[0].projection
        f = dec.blocks[0].factors
        assert_allclose(f.singular_values, [1.001, 0.001])
        assert f.tail == pytest.approx(1e-3)
        assert_allclose(np.abs(f.q.ravel()), np.abs(np.diag(p)) > 0.5)


class TestClusteringAndReordering:
    @pytest.mark.parametrize("tol", [-1.0, -1e-300, np.nan, np.inf, "1", True])
    def test_bad_cluster_tol_rejected(self, tol):
        # a negative or NaN tolerance had made every eigenvalue its own
        # cluster and failed later with a misleading SpectralOverlapError;
        # "1" escaped as a raw TypeError and True ran as 1.0
        b = np.diag([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="cluster_tol"):
            decompose(b, tol)
        with pytest.raises(ValueError, match="cluster_tol"):
            robust_decompose(b, tol)

    @pytest.mark.parametrize(
        "b",
        [np.diag([0.0, 1e-12, 1.0]), np.array([[0.0, 1.0, 0.0], [0.0, 1e-12, 1.0], [0.0, 0.0, 1.0]])],
        ids=["diagonal", "jordan"],
    )
    def test_overlapping_clusters_rejected(self, b):
        # clusters 1e-12 apart, below 1e-10 * max(||B||, 1): the decoupling
        # Sylvester equation is singular, and ZTRSYL alone would perturb it
        # and return a decomposition (diagonal) or a singular V (jordan)
        for decomposer in (decompose, robust_decompose):
            with pytest.raises(SpectralOverlapError) as err:
                decomposer(b, 0.0)
            assert err.value.separation == 1e-12

    def test_ztrsen_argument_error_stays_a_value_error(self, monkeypatch):
        # INFO < 0 names an argument LAPACK rejected: a programming error, not
        # the numerical failure of INFO = 1 (tests/test_cli.py)
        real = sla.lapack.ztrsen
        monkeypatch.setattr(
            spectral.sla.lapack, "ztrsen", lambda *args, **kwargs: (*real(*args, **kwargs)[:-1], -3)
        )
        with pytest.raises(ValueError, match="ztrsen rejected argument 3"):
            decompose(np.diag([0.0, 1.0]))

    def test_zero_cluster_tol_groups_only_equal_eigenvalues(self):
        dec = decompose(np.diag([0.0, 1.0, 0.0, 1e-9]), 0.0)
        assert dec.cluster_tol == 0.0
        assert sorted(blk.rank for blk in dec.blocks) == [1, 1, 2]

    def test_chain_of_close_eigenvalues_is_one_cluster(self):
        # 0 and 1.2 tol are farther apart than tol but linked through 0.6 tol
        tol = 1e-6
        dec = decompose(np.diag([0.0, 1.0, 1.2 * tol, 0.6 * tol]), cluster_tol=tol)
        assert [blk.rank for blk in dec.blocks] == [1, 3]
        assert_allclose(dec.blocks[1].eigenvalue, 0.6 * tol, rtol=1e-12)
        assert_allclose(dec.blocks[1].projection, np.diag([1.0, 0.0, 1.0, 1.0]), atol=1e-14)

    def test_clusters_are_the_graph_components(self):
        # shuffled chains of 1 to 5 eigenvalues, steps below tol, far apart
        rng = np.random.default_rng(3)
        tol = 1e-6
        eigs = np.concatenate(
            [
                center + tol * np.cumsum(rng.uniform(0.1, 0.9, size=size))
                for center, size in zip((0.0, 1.0, 2.0j, -1.0 + 1.0j, 3.0), range(1, 6))
            ]
        )
        rng.shuffle(eigs)
        dec = decompose(np.diag(eigs), cluster_tol=tol)
        count, label = connected_components(
            np.abs(eigs[:, None] - eigs[None, :]) <= tol, directed=False
        )
        assert len(dec.blocks) == count == 5
        for k in range(count):
            blk = find_block(dec, eigs[label == k].mean(), tol=1e-12)
            assert blk.rank == np.count_nonzero(label == k)

    def test_interleaved_jordan_blocks_are_gathered(self):
        # upper triangular, so its Schur form keeps the diagonal 1, 2, 1, 2:
        # each defective eigenvalue must be made contiguous before decoupling
        b = np.array(
            [
                [1.0, 1.0, 0.5, 0.2],
                [0.0, 2.0, 1.0, 0.3],
                [0.0, 0.0, 1.0, 0.7],
                [0.0, 0.0, 0.0, 2.0],
            ]
        )
        assert_allclose(np.diag(sla.schur(b, output="complex")[0]), [1.0, 2.0, 1.0, 2.0])
        dec = decompose(b)
        assert [(blk.eigenvalue, blk.rank, blk.index) for blk in dec.blocks] == [
            (2.0, 2, 2),
            (1.0, 2, 2),
        ]
        # reference: generalized eigenspaces ker (B - b_l)^2 as the similarity
        sim = np.hstack(
            [sla.null_space(np.linalg.matrix_power(b - e * np.eye(4), 2)) for e in (2.0, 1.0)]
        )
        ref = decompose_from_user(b, sim, [(2.0, 2), (1.0, 2)])
        for blk, blk_ref in zip(dec.blocks, ref.blocks):
            assert_allclose(blk.projection, blk_ref.projection, atol=1e-12)
            assert_allclose(blk.nilpotent, blk_ref.nilpotent, atol=1e-12)
            assert_allclose(blk.resolvent, blk_ref.resolvent, atol=1e-12)
        assert all(v < 1e-14 for v in dec.residuals.values() if isinstance(v, float))


class TestInvariants:
    def test_transposed_decomposes_the_transpose(self, lambda_pipe):
        # P^T, N^T, S^T with the same eigenvalue, index and rank are the
        # spectral data of B^T, including an index-2 nilpotent
        qubit = build_superop(qubit_nilpotent_model(10.0), "strong").matrix
        for b, dec in (
            (qubit, decompose(qubit, cluster_tol=1e-6)),
            (lambda_pipe.strong.matrix, lambda_pipe.decomposition),
        ):
            dec_t = replace(dec, blocks=tuple(blk.transposed() for blk in dec.blocks))
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

    @pytest.mark.parametrize(
        "layout",
        [
            [(0.0, 3), (1.0, -1)],
            [(0.0, 2), (1.0, 0)],
            [(0.0, 1.0), (1.0, 1)],
            [(0.0, 1.5), (1.0, 0.5)],
            [(0.0, 1), (1.0, True)],
            # these had escaped as a raw IndexError, TypeError and unpacking
            # ValueError, and as a NonFiniteError naming "input"
            [(0.0,), (1.0, 1)],
            [(None, 1), (1.0, 1)],
            [(0.0, 1, 5), (1.0, 1)],
            [(0.0, 1), (math.nan, 1)],
            [(0.0, 1), (complex(1.0, math.inf), 1)],
        ],
    )
    def test_layout_sizes_must_be_positive_integers(self, layout):
        # every entry is checked before any work: a NaN or Inf eigenvalue is
        # a NonFiniteError, any other bad entry a ValueError, both naming it
        with pytest.raises((ValueError, NonFiniteError), match="^layout entry") as err:
            decompose_from_user(np.diag([0.0, 1.0]), np.eye(2), layout)
        assert any(repr(entry) in str(err.value) for entry in layout)
        nonfinite = any(
            isinstance(e, (float, complex)) and not np.isfinite(e) for e, *_ in layout
        )
        assert isinstance(err.value, NonFiniteError) == nonfinite

    def test_layout_sizes_must_sum_to_n(self):
        with pytest.raises(ValueError, match="layout sizes sum to 3, expected 2"):
            decompose_from_user(np.diag([0.0, 1.0]), np.eye(2), [(0.0, 1), (1.0, 2)])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            decompose(np.zeros((0, 0)))

    def test_singular_similarity_rejected(self):
        b = np.diag([0.0, 1.0])
        sim = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            decompose_from_user(b, sim, [(0.0, 1), (1.0, 1)])


class TestReducedResolvent:
    def test_user_route_matches_inverse_of_each_jordan_block(self):
        # S_l = R blockdiag_{k != l}((J_k - b_l)^{-1}) R^{-1}, independent of
        # the similarity's block form; an index-3 block among them
        jordan = [
            0.5 * np.eye(3) + np.diag([1.0, 1.0], 1),
            np.array([[-1.0]]),
            np.array([[1j, 0.0], [0.0, 1j]]),
        ]
        eigenvalues = [0.5, -1.0, 1j]
        r = np.random.default_rng(7).normal(size=(6, 6))
        b = r @ sla.block_diag(*jordan) @ np.linalg.inv(r)
        dec = decompose_from_user(b, r, [(e, len(j)) for e, j in zip(eigenvalues, jordan)])
        assert [blk.index for blk in dec.blocks] == [3, 1, 1]
        for ell, blk in enumerate(dec.blocks):
            inverses = [
                np.zeros_like(j) if k == ell else np.linalg.inv(j - eigenvalues[ell] * np.eye(len(j)))
                for k, j in enumerate(jordan)
            ]
            want = r @ sla.block_diag(*inverses) @ np.linalg.inv(r)
            err = matcore.op_norm(blk.resolvent - want, "spectral")
            assert err <= 1e-12 * matcore.op_norm(want, "spectral"), (ell, err)

    def test_spread_inside_a_cluster_is_inverted(self):
        # {0, 1e-9} is one index-1 cluster at 5e-10; a series truncated at the
        # index drops that spread and left a resolvent defect of 5e-10
        dec = decompose(np.diag([0.0, 1e-9, 1.0]), 1e-8)
        assert [(blk.rank, blk.index) for blk in dec.blocks] == [(1, 1), (2, 1)]
        assert dec.residuals["resolvent_defect"] <= 1e-14

    @pytest.mark.parametrize("gap", [0.0, 1e-11])
    def test_user_layout_eigenvalues_must_be_distinct(self, gap):
        b = np.diag([0.0, gap, 1.0])
        with pytest.raises(SpectralOverlapError) as err:
            decompose_from_user(b, np.eye(3), [(0.0, 1), (gap, 1), (1.0, 1)])
        assert err.value.separation == gap
