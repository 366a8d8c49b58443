import ctypes
import dataclasses
import os
from pathlib import Path

# One BLAS thread: the suite's products are small, and on a shared or loaded
# host the default thread count made the random d=8 fixture of test_bench.py
# several times slower (6.0 s against 1.7 s on a 2-vCPU VM).  The variables
# reach every subprocess a test starts.  pytest imports numpy and scipy, and
# with them their OpenBLAS builds, while it resolves the warning categories of
# pyproject.toml, before this file runs, so the libraries already loaded are
# set to one thread as well.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest
import scipy

for _pkg in (np, scipy):
    for _lib in (Path(_pkg.__file__).parent.parent / f"{_pkg.__name__}.libs").glob("*openblas*"):
        _blas = ctypes.CDLL(str(_lib))
        for _name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                      "openblas_set_num_threads"):
            if hasattr(_blas, _name):
                getattr(_blas, _name)(1)
                break

from adiabloch import bench, spectral
from adiabloch.effective import eternal_bound
from adiabloch.liouville import build_superop
from adiabloch.models import lambda_model, qubit_nilpotent_model, random_model


@pytest.fixture(scope="session")
def lambda_pipe():
    """Dissipative Lambda system, all parameters 1, gamma = 10."""
    return bench.compute_effective(lambda_model(10.0))


@pytest.fixture(scope="session")
def lambda_pipe_certified():
    """Same model at a coupling where every block certificate applies."""
    return bench.compute_effective(lambda_model(81.0))


@pytest.fixture(scope="session")
def qubit_pipe():
    """Qubit whose strong generator carries an index-2 nilpotent."""
    return bench.compute_effective(qubit_nilpotent_model(10.0))


@pytest.fixture(scope="session")
def random_d8_certified():
    """Random d=8 model (n = 64) at its certified coupling 2 max gamma_l."""
    model = random_model(8, np.random.default_rng(11))
    strong, weak = build_superop(model, "strong"), build_superop(model, "weak")
    dec = spectral.decompose(strong.matrix)
    gamma = 2.0 * max(eternal_bound(dec, weak.matrix, 1.0).gamma_blocks)
    return bench._solve_and_assemble(dataclasses.replace(model, gamma=gamma), strong, weak, dec)


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(7)
