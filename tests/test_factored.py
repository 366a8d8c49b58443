"""The Bloch layer on n x r factors, and certificates without n x n SVDs.

Newton iteration carries the factor Y = X Q of each iterate
(see ``bloch.solve_equation``), and the perturbative series the factors
Y^(j) = omega^(j) Q of its coefficients.  These tests compare them with
copies of the n x n iteration and recursion they replaced, check that
every ``verify_similarity`` value bounds the n x n norm of its relation and
still sees a matrix pushed off its support, and count the n x n SVDs left
in ``solve_blocks`` and ``verify_similarity``.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from adiabloch import bench, bloch, matcore
from adiabloch.effective import verify_similarity
from adiabloch.models import degenerate_model, random_model
from test_effective import _dense_omega_series, _dense_sw_series
from test_orbits import BENCHMARK_CASES, _certified

ORACLE_TOL = 1e-13
RELATIONS = (
    "intertwine",
    "intertwine_conj",
    "rotation_square",
    "projection_idempotency",
    "projection_commutation",
    "direct_vs_symmetric_k",
)
ORACLE_CASES = [*BENCHMARK_CASES, "random_d8", "degenerate_d4"]
SERIES_CASES = [
    "lambda_g10", "qubit_g10", "counterexample_g5", "degenerate_d4", "random_d6", "random_d8",
]


@pytest.fixture(scope="module")
def pipes(request):
    cache = {}

    def get(name):
        if name not in cache:
            if name == "random_d8":
                cache[name] = request.getfixturevalue("random_d8_certified")
            elif name == "degenerate_d4":
                cache[name] = bench.compute_effective(degenerate_model(20.0, dim=4, fold=2))
            elif name == "random_d6":
                model = _certified(random_model(6, np.random.default_rng(11)))
                cache[name] = bench.compute_effective(model)
            else:
                cache[name] = bench.compute_effective(BENCHMARK_CASES[name]())
        return cache[name]

    return get


def _rel(got, want) -> float:
    return float(np.linalg.norm(got - want, 2) / max(1.0, np.linalg.norm(want, 2)))


def _dense_loop(blk, c, gamma, which, tol=bloch.DEFAULT_TOL, max_iter=200):
    """The n x n iteration the factored one replaced: (X, iterations).

    Iterate, residual and step are n x n matrices.  The Newton step is the
    same Sylvester column sweep, on R Q, mapped back by (.) W.  The stop
    rule is the supported residual norm on Z.
    """
    s, nil, p = blk.resolvent, blk.nilpotent, blk.projection
    q, w, z = blk.factors.q, blk.factors.w, blk.factors.z
    eye = np.eye(len(s))
    x = bloch.bracket(blk, c @ blk.projection) if which == "omega" else blk.projection
    for it in range(max_iter):
        if which == "omega":
            r = (s @ x @ x) / gamma - x - (c @ s @ x) / gamma + s @ x @ nil + c @ p
            a, f = (s @ x - c @ s) / gamma - eye, x / gamma + nil
        else:
            r = x - s @ x @ nil + (s @ (c @ x - x @ c @ x)) / gamma - p
            a, f = eye + (s @ c - s @ x @ c) / gamma, -(nil + c @ x / gamma)
        if matcore.supported_norm(r, z) <= tol:
            return x, it
        t, v = sla.schur(w @ f @ q, output="complex")
        g = -(r @ q @ v)
        y = np.empty_like(g)
        for j in range(len(t)):
            y[:, j] = np.linalg.solve(a + t[j, j] * s, g[:, j] - s @ (y[:, :j] @ t[:j, j]))
        x = x + y @ (v.conj().T @ w)
    raise AssertionError(f"dense {which} newton iteration did not converge")


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_factored_newton_matches_the_dense_loop(case, pipes):
    pipe = pipes(case)
    dec, c, gamma = pipe.decomposition, pipe.weak.matrix, pipe.model.gamma
    solved = [sol for sol in pipe.solutions if sol.mapped_from is None]
    assert solved
    for sol in solved:
        blk = dec.blocks[sol.ell]
        omega, it_o = _dense_loop(blk, c, gamma, "omega")
        omega_conj, it_oc = _dense_loop(blk.transposed(), c.T, gamma, "omega")
        assert sol.iterations == {"omega": it_o, "omega_conj": it_oc}, (case, sol.ell)
        assert _rel(sol.omega, omega) <= ORACLE_TOL, (case, sol.ell)
        assert _rel(sol.omega_conj, omega_conj.T) <= ORACLE_TOL, (case, sol.ell)
        assert _rel(sol.wave, bloch.wave_from_omega(blk, omega, gamma)) <= ORACLE_TOL
        # the wave equation, solved on its own factor U Q
        wave, it_w = _dense_loop(blk, c, gamma, "wave")
        u, info = bloch.solve_equation(dec, c, gamma, sol.ell, "wave", report=sol.report)
        assert info["iterations"] == it_w, (case, sol.ell)
        assert _rel(u, wave) <= ORACLE_TOL, (case, sol.ell)


@pytest.mark.parametrize("case", SERIES_CASES)
def test_factored_series_match_the_dense_recursion(case, pipes):
    # orders 0-3 of omega, D and K, each to 1e-13 of its largest |entry| on
    # the model: the first two against the n x n recursion, K against the
    # symmetrized series composed on it
    pipe = pipes(case)
    dec, c = pipe.decomposition, pipe.weak.matrix
    pairs = {"omega": [], "generator": [], "schrieffer_wolff": []}
    for sol in pipe.solutions:
        if sol.mapped_from is not None:
            continue
        blk = dec.blocks[sol.ell]
        assert all(y.shape == (dec.dim, blk.rank) for y in bloch._omega_series(blk, c, 3))
        om = _dense_omega_series(blk, c, 3)
        for kind, got, want in (
            ("omega", bloch.omega_series(dec, c, sol.ell, 3), om),
            (
                "generator",
                bloch.generator_series(dec, c, sol.ell, 3),
                [blk.projection @ o for o in om],
            ),
            (
                "schrieffer_wolff",
                bloch.schrieffer_wolff_series(dec, c, sol.ell, 3, method="series"),
                _dense_sw_series(dec, c, sol.ell, 3),
            ),
        ):
            pairs[kind] += zip(got.coeffs, want, strict=True)
    for kind, kind_pairs in pairs.items():
        scale = max(np.abs(want).max() for _, want in kind_pairs)
        assert scale > 0.0, (case, kind)
        error = max(np.abs(got - want).max() for got, want in kind_pairs)
        assert error <= 1e-13 * scale, (case, kind, error / scale)


def _similarity(pipe, solutions=None) -> dict:
    return verify_similarity(
        pipe.generators,
        pipe.decomposition,
        pipe.strong.matrix,
        pipe.weak.matrix,
        pipe.model.gamma,
        list(pipe.solutions if solutions is None else solutions),
    )


def _dense_relations(pipe) -> dict:
    """The six per-block relations of verify_similarity as n x n spectral norms."""
    dec, gen, gamma = pipe.decomposition, pipe.generators, pipe.model.gamma
    bm = pipe.strong.matrix
    total = gamma * bm + pipe.weak.matrix
    worst = dict.fromkeys(RELATIONS, 0.0)
    for blk, sol, eff in zip(dec.blocks, pipe.solutions, gen.blocks):
        p, pt = blk.projection, eff.projection_perturbed
        b_block = blk.eigenvalue * p + blk.nilpotent
        mats = {
            "intertwine": total @ sol.wave - sol.wave @ (gamma * bm + eff.d_block),
            "intertwine_conj": sol.wave_conj @ total
            - (gamma * bm + eff.d_conj_block) @ sol.wave_conj,
            "rotation_square": eff.rotation @ eff.rotation - pt @ p,
            "projection_idempotency": pt @ pt - pt,
            "projection_commutation": total @ pt - pt @ total,
            "direct_vs_symmetric_k": eff.rotation_inv @ total @ eff.rotation
            - gamma * b_block
            - eff.k_block,
        }
        for key, mat in mats.items():
            worst[key] = max(worst[key], matcore.op_norm(mat, "spectral"))
    return worst


@pytest.mark.parametrize("case", list(BENCHMARK_CASES))
def test_similarity_values_bound_the_dense_norms(case, pipes):
    # each value is an upper bound of the n x n norm of the same matrix, and
    # above rounding level at most twice it (measured: at most 1.27 times)
    pipe = pipes(case)
    got, want = _similarity(pipe), _dense_relations(pipe)
    gamma = pipe.model.gamma
    floor = np.finfo(float).eps * max(
        1.0, matcore.op_norm(gamma * pipe.strong.matrix + pipe.weak.matrix, "spectral")
    )
    above = 0
    for key in RELATIONS:
        assert got[key] >= want[key] * (1.0 - 1e-12), (case, key)
        if want[key] > floor:
            above += 1
            assert got[key] <= 2.0 * want[key], (case, key, got[key], want[key])
    assert above or case.startswith("counterexample")


@pytest.mark.parametrize("case", list(BENCHMARK_CASES))
def test_wave_pushed_off_its_support_is_reported(case, pipes, monkeypatch):
    # U + delta (1 - P) is no longer U P: the Frobenius term of the supported
    # norms sees it, in verify_similarity and in the solver's support checks
    delta = 1e-4
    pipe = pipes(case)
    dec, c, gamma = pipe.decomposition, pipe.weak.matrix, pipe.model.gamma
    eye = np.eye(dec.dim)
    pushed = [
        replace(sol, wave=sol.wave + delta * (eye - blk.projection))
        for blk, sol in zip(dec.blocks, pipe.solutions)
    ]
    assert _similarity(pipe)["intertwine"] < 1e-2 * delta
    assert _similarity(pipe, pushed)["intertwine"] >= delta / 2

    # the solver forms the wave operators of a whole stack at once; its
    # blocks' projections broadcast against the identity
    wave_from_omega = bloch._wave_from_omega

    def pushed_wave(blk, omega, g):
        return wave_from_omega(blk, omega, g) + delta * (eye - blk.projection)

    monkeypatch.setattr(bloch, "_wave_from_omega", pushed_wave)
    for sol in bloch.solve_blocks(dec, c, gamma):
        assert sol.residuals["wave_support"] >= delta / 2, (case, sol.ell)
        assert sol.residuals["wave_conj_support"] >= delta / 2, (case, sol.ell)


@pytest.mark.parametrize("case", ["lambda_g10", "qubit_g10", "random_d4_0"])
def test_solve_blocks_square_svds(case, pipes, monkeypatch):
    pipe = pipes(case)
    dec, c, gamma = pipe.decomposition, pipe.weak.matrix, pipe.model.gamma
    square = _count_square_svds(monkeypatch, dec.dim)
    sols = bloch.solve_blocks(dec, c, gamma)
    # ||C|| once, and ||S_l|| once per solved block; the qubit's index-2
    # nilpotent is measured on its n x r factor
    assert sum(square) == 1 + sum(sol.mapped_from is None for sol in sols)


@pytest.mark.parametrize("case", ["lambda_g10", "random_d4_0", "random_d8"])
def test_verify_similarity_square_svds(case, pipes, monkeypatch):
    # the commutation basis has 2 r columns, so n > 2 r keeps it n x r (the
    # qubit's rank-2 block of n = 4 spans all of C^n)
    pipe = pipes(case)
    dec = pipe.decomposition
    assert 2 * max(blk.rank for blk in dec.blocks) < dec.dim
    square = _count_square_svds(monkeypatch, dec.dim)
    _similarity(pipe)
    # the global similarity; every per-block norm is supported
    assert sum(square) == 1


def _count_square_svds(monkeypatch, n) -> list:
    """Patch np.linalg.svd to record the stack size of every n x n call."""
    square = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        a = np.asarray(a)
        if a.shape[-2:] == (n, n):
            square.append(int(np.prod(a.shape[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return square
