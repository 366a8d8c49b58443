"""Print a digest of every output the package gives on a benchmark workload,
one line per output leaf, so that two source trees can be compared bit for
bit with a plain ``diff``.

    PYTHONPATH=src python tools/output_digest.py paper --seed 1 > a.txt
    PYTHONPATH=other/src python tools/output_digest.py paper --seed 1 > b.txt
    diff a.txt b.txt

With ``--save FILE.npz`` it also writes every leaf to ``FILE.npz``, keyed
by its path, so that the leaves that differ can be measured with
``tools/leaf_deviation.py a.npz b.npz``.

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
of its message (``--save`` keeps the message, as bytes).  Run BLAS on one thread (``OPENBLAS_NUM_THREADS=1``) on
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
    """(path, dtype, shape, data) of every leaf of nested dataclasses,
    dicts, sequences, arrays and scalars, in a fixed order: ``data`` is the
    leaf as an array, or the bytes of the repr of None and of a string."""
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
        yield path, str(arr.dtype), str(arr.shape).replace(" ", ""), arr


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _line(path, dtype, shape, data) -> str:
    data = data.tobytes() if isinstance(data, np.ndarray) else data
    return f"{path} {dtype} {shape} {_sha(data)}"


def digest_lines(obj, path: str) -> list:
    return [_line(*leaf) for leaf in leaves(obj, path)]


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


def case_leaves(case, times) -> list:
    """The leaves of one workload case, each operation once."""
    found, pipe = [], None
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
            found.append((path, "raises", type(exc).__name__, str(exc).encode()))
            continue
        found += leaves(out, path)
    return found


def main(argv=None) -> int:
    workloads = _load("workloads")
    parser = argparse.ArgumentParser(description="Digest the outputs of a benchmark workload.")
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--save", metavar="FILE.npz", help="also write every leaf to FILE.npz")
    args = parser.parse_args(argv)
    work = workloads.WORKLOADS[args.workload](args.seed)
    found = [leaf for case in work.cases for leaf in case_leaves(case, work.times)]
    for leaf in found:
        print(_line(*leaf))
    if args.save:
        np.savez(args.save, **{path: np.asarray(data) for path, _, _, data in found})
    return 0


if __name__ == "__main__":
    sys.exit(main())
