"""Print how far each differing output leaf of two ``--save`` files of
``tools/output_digest.py`` moved, so that "moved by rounding" is measured.

    PYTHONPATH=src python tools/output_digest.py paper --save a.npz > a.txt
    PYTHONPATH=other/src python tools/output_digest.py paper --save b.npz > b.txt
    python tools/leaf_deviation.py a.npz b.npz

A leaf that differs prints as ``path elementwise largest``: the largest
|a - b| / max(|a|, |b|) over its entries (0 where both are equal, zeros
included) and the largest |a - b| over the largest entry of either, the
deviation relative to the leaf's scale.  A leaf whose dtype or shape differs,
or that is not numeric (an error, a string), prints ``path differs``; a
leaf on one side only prints ``path only in A`` (or ``B``).  Bit-identical
leaves print nothing.  The last line counts the differing leaves; the exit
status is 1 when any differs, else 0.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def deviation(a: np.ndarray, b: np.ndarray) -> tuple[float, float] | None:
    """(elementwise, largest) relative deviation of two numeric arrays of one
    dtype and shape, or None when they cannot be compared entry by entry."""
    if a.dtype != b.dtype or a.shape != b.shape or a.dtype.kind not in "biufc":
        return None
    a, b = (np.asarray(x, dtype=np.complex128) for x in (a, b))
    diff, size = np.abs(a - b), np.maximum(np.abs(a), np.abs(b))
    elementwise = np.divide(diff, size, out=np.zeros(diff.shape), where=diff > 0)
    largest = diff.max() / size.max() if diff.any() else 0.0
    return float(elementwise.max(initial=0.0)), float(largest)


def compare(a, b) -> list:
    """The report lines of two mappings from leaf paths to arrays."""
    lines = []
    for path in dict.fromkeys([*a, *b]):
        if path not in b or path not in a:
            lines.append(f"{path} only in {'A' if path in a else 'B'}")
            continue
        x, y = a[path], b[path]
        if x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes():
            continue
        dev = deviation(x, y)
        lines.append(f"{path} differs" if dev is None else f"{path} {dev[0]:.3e} {dev[1]:.3e}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Measure the leaves that differ between two digests.")
    parser.add_argument("a", metavar="A.npz")
    parser.add_argument("b", metavar="B.npz")
    args = parser.parse_args(argv)
    with np.load(args.a) as a, np.load(args.b) as b:
        lines = compare({k: a[k] for k in a.files}, {k: b[k] for k in b.files})
    for line in lines:
        print(line)
    print(f"{len(lines)} differing leaves")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
