import json
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adiabloch import liouville
from adiabloch.errors import NonFiniteError, PhysicalityError
from adiabloch.liouville import (
    LindbladModel,
    Superoperator,
    build_superop,
    check_ccp,
    check_hp,
    check_tp,
    coherence_rep,
    gkls_decompose,
    hermitian_basis,
    unvec,
    vec,
)
from adiabloch.models import (
    PAULI_Z,
    counterexample_model,
    lambda_model,
    qubit_nilpotent_model,
    random_model,
)


def gkls_action(h, dissipators, rho):
    """Direct entrywise evaluation of the GKLS right-hand side."""
    out = -1j * (h @ rho - rho @ h)
    for rate, jump in dissipators:
        jdj = jump.conj().T @ jump
        out = out + rate * (
            jump @ rho @ jump.conj().T - 0.5 * (jdj @ rho + rho @ jdj)
        )
    return out


def random_density(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestBuildSuperop:
    def test_zero_model(self):
        m = LindbladModel(dim=3, gamma=1.0, strong_hamiltonian=np.zeros((3, 3)))
        assert np.abs(build_superop(m, "total").matrix).max() == 0.0

    def test_unknown_part_rejected(self):
        m = LindbladModel(dim=2, gamma=1.0, strong_hamiltonian=None)
        with pytest.raises(ValueError, match="unknown part 'bogus'"):
            build_superop(m, "bogus")

    def test_lambda_strong_spectrum(self, lambda_pipe):
        # eigenvalues 0, +-i, -1/2 +- i, -1/2 +- 2i, -1 with multiplicities
        # 10, 3, 3, 1, 1, 3, 3, 1
        eigs = np.linalg.eigvals(lambda_pipe.strong.matrix)
        expected = {
            0.0: 10, 1j: 3, -1j: 3,
            -0.5 + 1j: 1, -0.5 - 1j: 1,
            -0.5 + 2j: 3, -0.5 - 2j: 3,
            -1.0: 1,
        }
        for value, mult in expected.items():
            count = int(np.sum(np.abs(eigs - value) < 1e-9))
            assert count == mult, (value, count)

    def test_matches_direct_gkls_evaluation(self, rng):
        m = random_model(3, rng)
        sop = build_superop(m, "total")
        h = m.gamma * m.strong_hamiltonian + m.weak_hamiltonian
        dissipators = [
            (m.gamma * r, L) for r, L in m.strong_dissipators
        ] + list(m.weak_dissipators)
        for _ in range(5):
            rho = random_density(3, rng)
            direct = gkls_action(h, dissipators, rho)
            assert np.abs(sop.apply(rho) - direct).max() < 1e-12

    @pytest.mark.parametrize(
        "rho, error, message",
        [(np.eye(3), ValueError, "rho must be 2x2, got (3, 3)"),
         (np.full((2, 2), math.nan), NonFiniteError, "rho contains NaN or Inf entries")],
        ids=["wrong-shape", "nan"],
    )
    def test_apply_reads_rho_by_the_operand_rule(self, rho, error, message):
        # a 3 x 3 rho had escaped as a raw matmul error, a NaN one had
        # returned a NaN matrix
        sop = Superoperator(2, liouville.hamiltonian_superop(PAULI_Z))
        with pytest.raises(error, match=re.escape(message)):
            sop.apply(rho)

    def test_built_parts_are_hp_tp(self, rng):
        m = random_model(4, rng)
        for part in ("strong", "weak", "total"):
            sop = build_superop(m, part)
            assert check_tp(sop, 1e-12).passed
            assert check_hp(sop, 1e-12).passed


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_orthogonality_and_trace(self, d):
        basis = hermitian_basis(d)
        assert len(basis) == d * d
        assert_allclose(basis[0], np.eye(d))
        for i, tau in enumerate(basis):
            assert np.abs(tau - tau.conj().T).max() < 1e-15
            if i > 0:
                assert abs(np.trace(tau)) < 1e-14
                assert_allclose(np.trace(tau.conj().T @ tau), 2.0, atol=1e-13)
        for i in range(1, d * d):
            for j in range(i + 1, d * d):
                assert abs(np.trace(basis[i].conj().T @ basis[j])) < 1e-14


class TestCoherenceRep:
    def test_qubit_z_rotation(self):
        sop = Superoperator(2, liouville.hamiltonian_superop(PAULI_Z))
        mat, defect = coherence_rep(sop)
        assert defect < 1e-14
        # basis order (I, X, Y, Z): rotation about z in the (X, Y) plane
        expected = np.zeros((4, 4))
        expected[1, 2] = -2.0
        expected[2, 1] = 2.0
        assert_allclose(mat, expected, atol=1e-14)

    def test_constructed_hp_defect(self, lambda_pipe):
        mat = lambda_pipe.strong.matrix.copy()
        eps = 3e-4
        mat[2, 3] += 1j * eps
        _, defect = coherence_rep(Superoperator(5, mat))
        assert 0.1 * eps < defect < 10 * eps

    def test_lambda_total_is_hp(self, lambda_pipe):
        total = Superoperator(
            5, 10.0 * lambda_pipe.strong.matrix + lambda_pipe.weak.matrix
        )
        _, defect = coherence_rep(total)
        assert defect < 1e-12

    def test_is_a_diagonal_similarity_of_the_unit_frame(self, lambda_pipe, rng):
        # the normalised Gell-Mann frame of coherence_rep: (tau_i|L tau_j)/(tau_i|tau_i)
        sops = [lambda_pipe.strong, lambda_pipe.weak, Superoperator(5, lambda_pipe.total_matrix)]
        sops += [build_superop(random_model(d, rng), "total") for d in (2, 3, 4)]
        mat = lambda_pipe.strong.matrix.copy()
        mat[2, 3] += 3e-4j
        for sop in sops + [Superoperator(5, mat)]:
            frame = np.column_stack([vec(t) for t in hermitian_basis(sop.dim)])
            norms = np.real(np.sum(frame.conj() * frame, axis=0))
            ref = frame.conj().T @ sop.matrix @ frame / norms[:, None]
            rep, defect = coherence_rep(sop)
            scale = max(1.0, np.abs(ref).max())
            assert np.abs(rep - ref.real).max() <= 1e-15 * scale
            assert abs(defect - np.abs(ref.imag).max()) <= 1e-15 * scale

    def test_homomorphism(self, rng):
        m1 = random_model(3, rng)
        m2 = random_model(3, rng)
        a = build_superop(m1, "total")
        b = build_superop(m2, "total")
        ma, _ = coherence_rep(a)
        mb, _ = coherence_rep(b)
        mab, _ = coherence_rep(Superoperator(3, a.matrix @ b.matrix))
        assert np.abs(mab - ma @ mb).max() < 1e-11


class TestChecks:
    def test_tp_of_built(self, lambda_pipe):
        assert check_tp(lambda_pipe.strong, 1e-13).passed

    def test_tp_violation_detected(self, lambda_pipe):
        mat = lambda_pipe.strong.matrix.copy()
        mat[0, 0] += 1e-3  # feeds trace growth from rho_00
        assert not check_tp(Superoperator(5, mat), 1e-6).passed

    def test_hp_violation_scale(self, rng):
        m = random_model(2, rng)
        sop = build_superop(m, "total")
        mat = sop.matrix + 1j * 2e-3 * np.ones_like(sop.matrix.real)
        result = check_hp(Superoperator(2, mat), 1e-9)
        assert not result.passed
        assert result.defect > 1e-4

    def test_ccp_zero_kossakowski(self):
        sop = Superoperator(2, liouville.hamiltonian_superop(PAULI_Z))
        form = gkls_decompose(sop)
        result = check_ccp(form, 1e-10)
        assert result.passed
        assert abs(result.defect) < 1e-12

    @pytest.mark.parametrize(
        "tol, shown",
        [(math.nan, "nan"), (-1.0, "-1.0"), (math.inf, "inf"), ("1e-12", "'1e-12'"), (None, "None")],
    )
    @pytest.mark.parametrize("check", ["tp", "hp", "ccp"])
    def test_tol_must_be_positive_and_finite(self, check, tol, shown):
        # NaN and -1 had given passed=False, inf passed any generator, and a
        # string or None escaped as a raw TypeError
        sop = Superoperator(2, liouville.hamiltonian_superop(PAULI_Z))
        checked = gkls_decompose(sop) if check == "ccp" else sop
        message = f"tol must be positive and finite, got {shown}"
        with pytest.raises(ValueError, match=re.escape(message)):
            getattr(liouville, f"check_{check}")(checked, tol)


class TestGKLSDecompose:
    def test_pure_hamiltonian(self, rng):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = (h + h.conj().T) / 2
        h -= np.trace(h) / 3 * np.eye(3)
        sop = Superoperator(3, liouville.hamiltonian_superop(h))
        form = gkls_decompose(sop)
        assert np.abs(form.kossakowski).max() < 1e-12
        assert_allclose(form.hamiltonian, h, atol=1e-12)
        assert form.verdicts["ccp"]

    def test_roundtrip_random_model(self, rng):
        m = random_model(3, rng)
        sop = build_superop(m, "total")
        form = gkls_decompose(sop)
        rebuilt = form.assemble()
        assert np.abs(rebuilt.matrix - sop.matrix).max() < 1e-10
        assert check_ccp(form, 1e-10).passed  # built from nonnegative rates

    def test_jumps_traceless_orthonormal(self, rng):
        m = random_model(3, rng)
        form = gkls_decompose(build_superop(m, "total"))
        jumps = [j for r, j in zip(form.rates, form.jumps) if abs(r) > 1e-10]
        for i, a in enumerate(jumps):
            assert abs(np.trace(a)) < 1e-10
            for j, b in enumerate(jumps):
                expected = 1.0 if i == j else 0.0
                assert abs(np.vdot(a, b) - expected) < 1e-10

    def test_rejects_unphysical(self, rng):
        mat = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        with pytest.raises(PhysicalityError):
            gkls_decompose(Superoperator(3, mat))

    def test_one_level_system(self):
        # d = 1: the frame has no traceless element, so H = 0 and no rates
        form = gkls_decompose(Superoperator(1, np.zeros((1, 1))))
        assert np.array_equal(form.hamiltonian, np.zeros((1, 1)))
        assert form.rates == () and form.jumps == ()
        assert form.verdicts["ccp"]
        assert check_ccp(form).defect == 0.0

    def test_rates_sorted_descending(self, rng):
        form = gkls_decompose(build_superop(random_model(4, rng), "total"))
        rates = np.array(form.rates)
        assert np.all(np.diff(rates) <= 1e-15)


class TestModelSerialization:
    def test_roundtrip_exact(self, rng):
        m = random_model(3, rng, gamma=12.5)
        restored = LindbladModel.from_json(m.to_json())
        assert restored.dim == m.dim and restored.gamma == m.gamma
        assert np.array_equal(restored.strong_hamiltonian, m.strong_hamiltonian)
        assert np.array_equal(restored.weak_hamiltonian, m.weak_hamiltonian)
        for (r1, l1), (r2, l2) in zip(restored.weak_dissipators, m.weak_dissipators):
            assert r1 == r2 and np.array_equal(l1, l2)

    def test_hex_mode_exact(self, rng):
        # a model file may give any number as a float.hex() string
        def hexed(value):
            if isinstance(value, float):
                return value.hex()
            if isinstance(value, dict):
                return {key: hexed(item) for key, item in value.items()}
            return [hexed(item) for item in value] if isinstance(value, list) else value

        m = random_model(2, rng, gamma=np.pi)
        text = json.dumps(hexed(m.to_dict()))
        assert json.loads(text)["strong"]["H"][0][1][0].startswith(("0x", "-0x"))
        restored = LindbladModel.from_json(text)
        assert restored.dim == m.dim and restored.gamma == m.gamma
        for part in ("strong", "weak"):
            assert np.array_equal(
                getattr(restored, f"{part}_hamiltonian"), getattr(m, f"{part}_hamiltonian")
            )
            pairs = zip(
                getattr(restored, f"{part}_dissipators"),
                getattr(m, f"{part}_dissipators"),
                strict=True,
            )
            for (r1, l1), (r2, l2) in pairs:
                assert r1 == r2 and np.array_equal(l1, l2)

    def test_no_hamiltonian_means_zero(self):
        # the strong part had raised "strong_hamiltonian must be 2x2, got ()"
        m = LindbladModel(dim=2, gamma=1.0, strong_hamiltonian=None)
        for h in (m.strong_hamiltonian, m.weak_hamiltonian):
            assert h.dtype == np.complex128 and np.array_equal(h, np.zeros((2, 2)))

    @pytest.mark.parametrize("where", ["null", "missing"])
    def test_null_or_missing_hamiltonian_in_a_file_is_zero(self, rng, where):
        data = random_model(2, rng).to_dict()
        if where == "null":
            data["weak"]["H"] = None
        else:
            del data["weak"]["H"]
        h = LindbladModel.from_dict(data).weak_hamiltonian
        assert h.dtype == np.complex128 and np.array_equal(h, np.zeros((2, 2)))

    @pytest.mark.parametrize("part", ["strong", "weak"])
    def test_null_jump_in_a_file_rejected(self, rng, part):
        # a null "L" had loaded as a zero jump
        data = random_model(2, rng).to_dict()
        data[part]["dissipators"][0]["L"] = None
        with pytest.raises(ValueError, match=rf"{part} dissipator 0 jump must be 2x2, got \(\)"):
            LindbladModel.from_dict(data)

    @pytest.mark.parametrize(
        "part, entry, kind",
        [
            ("strong", [], "list"),
            ("weak", "x", "str"),
            ("weak", None, "NoneType"),
            ("strong", 1, "int"),
        ],
    )
    def test_part_must_be_an_object(self, rng, part, entry, kind):
        # .get on a list or string had ended in a raw AttributeError
        data = random_model(2, rng).to_dict()
        data[part] = entry
        with pytest.raises(ValueError, match=f"{part} must be a JSON object, got {kind}"):
            LindbladModel.from_dict(data)

    @pytest.mark.parametrize(
        "where, entry, message",
        [
            ("dissipators", [[1.0]],
             'strong dissipator 0 must be a JSON object with "rate" and "L", got list'),
            ("dissipators", {"rate": 1.0}, "strong dissipators must be a JSON array, got dict"),
            ("dissipators", [{"rate": 1.0}],
             'strong dissipator 0 must be a JSON object with "rate" and "L", '
             "got keys ['rate']"),
            ("dissipators", [{"L": None}],
             'strong dissipator 0 must be a JSON object with "rate" and "L", '
             "got keys ['L']"),
            ("H", [[1.0, 2.0]], "strong H must be equal rows of [re, im] pairs"),
            ("H", 5, "strong H must be equal rows of [re, im] pairs"),
            ("H", [[[1.0, 0.0, 3.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
             "strong H must be equal rows of [re, im] pairs"),
            ("H", [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]],
             "strong H must be equal rows of [re, im] pairs"),
            ("L", [[1.0, 2.0]], "strong dissipator 0 L must be equal rows"),
        ],
        ids=["dissipator-list", "dissipators-object", "L-missing", "rate-missing",
             "H-row-of-numbers", "H-number", "entry-triple", "ragged-rows", "L-row-of-numbers"],
    )
    def test_malformed_entry_is_named(self, rng, where, entry, message):
        # each had raised raw Python text that named no field
        data = random_model(2, rng).to_dict()
        if where == "L":
            data["strong"]["dissipators"][0]["L"] = entry
        else:
            data["strong"][where] = entry
        with pytest.raises(ValueError, match=re.escape(message)):
            LindbladModel.from_dict(data)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data.update(Strong=data.pop("strong")),
             'model has unknown key "Strong"; it may hold only "dim", "gamma", "strong", "weak"'),
            (lambda data: data["strong"].update(dissipator=data["strong"].pop("dissipators")),
             'strong has unknown key "dissipator"; it may hold only "H", "dissipators"'),
            (lambda data: data["weak"]["dissipators"][0].update(Rate=1.0),
             'weak dissipator 0 has unknown key "Rate"; it may hold only "rate", "L"'),
        ],
        ids=["model", "part", "dissipator"],
    )
    def test_unknown_key_is_named(self, rng, edit, message):
        # a misspelt key had dropped its part silently: "Strong" loaded a
        # zero strong generator, "dissipator" no strong dissipators
        data = random_model(2, rng).to_dict()
        edit(data)
        with pytest.raises(ValueError, match=re.escape(message)):
            LindbladModel.from_dict(data)

    @pytest.mark.parametrize(
        "model",
        [lambda_model(10.0), qubit_nilpotent_model(40.0), counterexample_model(5.0)]
        + [random_model(d, np.random.default_rng(0)) for d in (3, 4, 5)],
        ids=["lambda", "qubit", "counterexample", "random3", "random4", "random5"],
    )
    def test_every_key_to_dict_writes_reads_back(self, model):
        # the benchmark's model kinds: each file from to_json loads as it was written
        restored = LindbladModel.from_json(model.to_json())
        assert restored.to_dict() == model.to_dict()

    @pytest.mark.parametrize("data", [[], [{"dim": 2, "gamma": 1.0}], {"dim": 2}, 1.0])
    def test_model_must_be_an_object_with_dim_and_gamma(self, data):
        with pytest.raises(ValueError, match='model must be a JSON object with "dim" and "gamma"'):
            LindbladModel.from_dict(data)

    @pytest.mark.parametrize("text", ["10", "0.5", "1e1", " 0x1p3", "inf", "nan"])
    def test_number_string_not_in_hex_form_rejected(self, rng, text):
        # float.fromhex would read "10" as 16.0 and "0.5" as 0.3125
        data = random_model(2, rng).to_dict()
        data["gamma"] = text
        with pytest.raises(ValueError, match="float.hex"):
            LindbladModel.from_dict(data)

    @pytest.mark.parametrize("dim", [0, -1, 2.5, 2.0, "2", True, None])
    def test_dim_must_be_a_positive_integer(self, dim):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            LindbladModel(dim=dim, gamma=1.0, strong_hamiltonian=np.zeros((2, 2)))

    def test_numpy_integer_dim_is_stored_as_int(self):
        m = LindbladModel(dim=np.int64(2), gamma=1.0, strong_hamiltonian=np.zeros((2, 2)))
        assert type(m.dim) is int
        assert LindbladModel.from_json(m.to_json()).dim == 2

    @pytest.mark.parametrize("dim", [0, 2.5])
    def test_dim_checked_before_the_matrices_are_read(self, rng, dim):
        data = random_model(2, rng).to_dict()
        data["dim"] = dim
        with pytest.raises(ValueError, match=f"dim must be a positive integer, got {dim}"):
            LindbladModel.from_dict(data)

    @pytest.mark.parametrize("gamma, shown", [(True, "True"), ("2", "'2'"), (None, "None")])
    def test_gamma_must_be_a_number(self, gamma, shown):
        # True was stored as True, and "2" or None escaped as a raw TypeError
        with pytest.raises(ValueError, match=f"gamma must be positive and finite, got {shown}"):
            LindbladModel(dim=2, gamma=gamma, strong_hamiltonian=np.zeros((2, 2)))

    @pytest.mark.parametrize("rate, shown", [("1", "'1'"), (True, "True"), (None, "None")])
    def test_rate_must_be_a_number(self, rate, shown):
        # "1" and True went through float() as 1.0
        with pytest.raises(
            ValueError, match=f"weak dissipator 0 rate must be non-negative and finite, got {shown}"
        ):
            LindbladModel(
                dim=2,
                gamma=1.0,
                strong_hamiltonian=np.zeros((2, 2)),
                weak_dissipators=((rate, np.eye(2)),),
            )

    @pytest.mark.parametrize("field", ["gamma", "rate", "entry"])
    def test_json_true_is_not_a_number(self, rng, field):
        # a JSON true had been read as 1.0
        data = random_model(2, rng).to_dict()
        if field == "gamma":
            data["gamma"] = True
        elif field == "rate":
            data["strong"]["dissipators"][0]["rate"] = True
        else:
            data["strong"]["H"][0][0][0] = True
        with pytest.raises(ValueError, match=f"{field} must be a number, got True"):
            LindbladModel.from_dict(data)

    def test_validation(self):
        with pytest.raises(ValueError):
            LindbladModel(dim=2, gamma=1.0, strong_hamiltonian=np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValueError):
            LindbladModel(
                dim=2,
                gamma=-1.0,
                strong_hamiltonian=np.zeros((2, 2)),
            )
        with pytest.raises(ValueError):
            LindbladModel(
                dim=2,
                gamma=1.0,
                strong_hamiltonian=np.zeros((2, 2)),
                strong_dissipators=((-0.5, np.eye(2)),),
            )

    def test_vec_unvec_roundtrip(self, rng):
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(unvec(vec(rho), 4), rho)
        # column stacking: vec stacks columns
        e01 = np.zeros((2, 2))
        e01[0, 1] = 1.0
        assert_allclose(vec(e01), np.array([0, 0, 1, 0]))


def test_lambda_effective_generators_pass_checks(lambda_pipe):
    gen = lambda_pipe.generators
    for sop in (gen.adiabatic, gen.adiabatic_conj, gen.schrieffer_wolff):
        assert check_tp(sop, 1e-10).passed
        assert check_hp(sop, 1e-10).passed


def test_lambda_total_effective_ccp_failure(lambda_pipe):
    # the strong decay leaves one strictly negative Kossakowski eigenvalue
    total = Superoperator(
        5, 10.0 * lambda_pipe.strong.matrix + lambda_pipe.generators.schrieffer_wolff.matrix
    )
    form = gkls_decompose(total, tol=1e-8)
    result = check_ccp(form, 1e-10)
    assert not result.passed
    assert abs(result.defect - (-6.22e-5)) < 1e-7
