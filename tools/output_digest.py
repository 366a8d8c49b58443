"""Print a digest of every output the package gives on a benchmark workload,
one line per output leaf, so that two source trees can be compared bit for
bit with a plain ``diff``.

    PYTHONPATH=src python tools/output_digest.py paper --seed 1 > a.txt
    PYTHONPATH=other/src python tools/output_digest.py paper --seed 1 > b.txt
    diff a.txt b.txt

A line reads ``path dtype shape sha256``, the hash taken over the leaf's
bytes in C order.  Each case of the workload (``perfbench/workloads.py``,
imported as it is) gives the leaves of:

* ``effective``: the pipeline of ``bench.compute_effective`` (the
  decomposition with its ``validate`` residuals, the solutions with their
  Newton iteration counts, K, D and D-tilde and the transforms),
  ``verify_similarity`` and ``k_eff`` of orders 0, 1 and 2;
* ``curves``: ``bench.distance_curves`` of orders 0, 1, 2 and infinity;
* ``bound``: ``bench.bound_check``.

An operation that raises gives one line with the error's type and the hash
of its message.  Run BLAS on one thread (``OPENBLAS_NUM_THREADS=1``) on
both sides: threaded reductions need not repeat their rounding.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from adiabloch import bench, effective
from adiabloch.errors import AdiablochError

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def _load(name: str):
    """perfbench/<name>.py as a module, leaving no bytecode cache there."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    cached, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = cached
    return module


def leaves(obj, path: str = ""):
    """(path, dtype, shape, bytes) of every leaf of nested dataclasses,
    dicts, sequences, arrays and scalars, in a fixed order."""
    if isinstance(obj, (dict, list, tuple)) and not obj:
        yield path, type(obj).__name__, "(0,)", b""
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from leaves(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from leaves(value, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for k, value in enumerate(obj):
            yield from leaves(value, f"{path}[{k}]")
    elif obj is None or isinstance(obj, str):
        yield path, type(obj).__name__, "()", repr(obj).encode()
    else:
        arr = np.asarray(obj)
        yield path, str(arr.dtype), str(arr.shape).replace(" ", ""), arr.tobytes()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(obj, path: str) -> list:
    return [f"{p} {dtype} {shape} {_sha(data)}" for p, dtype, shape, data in leaves(obj, path)]


def _effective(case):
    # the benchmark's Newton tolerance
    pipe = bench.compute_effective(case.model, tol=_load("ops").NEWTON_TOL)
    sim = effective.verify_similarity(
        pipe.generators,
        pipe.decomposition,
        pipe.strong.matrix,
        pipe.weak.matrix,
        case.model.gamma,
        list(pipe.solutions),
    )
    k_eff = [pipe.k_eff(k) for k in (0, 1, 2)]
    return pipe, {"pipe": pipe, "verify_similarity": sim, "k_eff": k_eff}


def case_lines(case, times) -> list:
    """The digest lines of one workload case, each operation once."""
    lines, pipe = [], None
    for op in dict.fromkeys(case.ops):
        path = f"{case.name}.{op}"
        try:
            if op == "effective":
                pipe, out = _effective(case)
            elif op == "curves":
                # a workload lists ``effective`` before ``curves``
                out = bench.distance_curves(pipe, list(_load("ops").ORDERS), times)
            else:
                out = bench.bound_check(case.model, times=times)
        except AdiablochError as exc:
            lines.append(f"{path} raises {type(exc).__name__} {_sha(str(exc).encode())}")
            continue
        lines += digest_lines(out, path)
    return lines


def main(argv=None) -> int:
    workloads = _load("workloads")
    parser = argparse.ArgumentParser(description="Digest the outputs of a benchmark workload.")
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    work = workloads.WORKLOADS[args.workload](args.seed)
    for case in work.cases:
        for line in case_lines(case, work.times):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
