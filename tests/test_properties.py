"""Property-based checks on the algebraic invariants of the kernels."""

import numpy as np
from hypothesis import given, settings, strategies as st

from adiabloch import liouville, matcore
from adiabloch.liouville import Superoperator, build_superop, gkls_decompose
from adiabloch.models import random_model
from conftest import random_unitary


def seeds():
    return st.integers(min_value=0, max_value=10_000)


def dims():
    return st.integers(min_value=2, max_value=4)


@settings(max_examples=25, deadline=None)
@given(seed=seeds(), dim=dims())
def test_norms_unitarily_invariant(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u = random_unitary(dim, rng)
    v = random_unitary(dim, rng)
    norm = matcore.op_norm(a, "spectral")
    assert abs(matcore.op_norm(u @ a @ v, "spectral") - norm) <= 1e-12 * max(1.0, norm)


@settings(max_examples=20, deadline=None)
@given(seed=seeds(), s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
def test_expm_one_parameter_group(seed, s, t):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lhs = matcore.expm((s + t) * a)
    rhs = matcore.expm(s * a) @ matcore.expm(t * a)
    assert matcore.op_norm(lhs - rhs, "spectral") < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=seeds(), dim=dims())
def test_built_generators_are_physical(seed, dim):
    rng = np.random.default_rng(seed)
    model = random_model(dim, rng)
    for part in ("strong", "weak", "total"):
        sop = build_superop(model, part)
        assert liouville.check_tp(sop, 1e-12).passed
        assert liouville.check_hp(sop, 1e-12).passed


@settings(max_examples=15, deadline=None)
@given(seed=seeds(), dim=dims())
def test_gkls_roundtrip(seed, dim):
    rng = np.random.default_rng(seed)
    sop = build_superop(random_model(dim, rng), "total")
    form = gkls_decompose(sop)
    assert np.abs(form.kossakowski - form.kossakowski.conj().T).max() < 1e-12
    assert np.abs(form.hamiltonian - form.hamiltonian.conj().T).max() < 1e-12
    assert abs(np.trace(form.hamiltonian)) < 1e-12
    rebuilt = form.assemble()
    assert np.abs(rebuilt.matrix - sop.matrix).max() < 1e-10


@settings(max_examples=15, deadline=None)
@given(seed=seeds(), dim=dims())
def test_coherence_rep_homomorphism(seed, dim):
    rng = np.random.default_rng(seed)
    a = build_superop(random_model(dim, rng), "total")
    b = build_superop(random_model(dim, rng), "total")
    ma, da = liouville.coherence_rep(a)
    mb, db = liouville.coherence_rep(b)
    mab, _ = liouville.coherence_rep(Superoperator(dim, a.matrix @ b.matrix))
    scale = max(1.0, np.abs(ma).max() * np.abs(mb).max())
    assert da < 1e-12 and db < 1e-12
    assert np.abs(mab - ma @ mb).max() < 1e-11 * scale


@settings(max_examples=20, deadline=None)
@given(seed=seeds(), dim=dims())
def test_vec_convention(seed, dim):
    # vec(A rho B) = (B^T kron A) vec(rho)
    rng = np.random.default_rng(seed)
    a, b, rho = (
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(3)
    )
    lhs = liouville.vec(a @ rho @ b)
    rhs = np.kron(b.T, a) @ liouville.vec(rho)
    assert np.abs(lhs - rhs).max() < 1e-12
