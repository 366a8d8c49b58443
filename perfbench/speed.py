"""Machine-speed reference for the benchmark's timings.

On a shared host the speed of this machine drifts by tens of percent over
minutes, and the package's operations slow down and speed up with it: in a
quarter of an hour of ``propagation`` passes on a 2-vCPU VM, the slowest pass
of ``effective``, ``curves`` and ``bound`` took 2.6 to 3.1 times as long as
the fastest, and the three moved together.  A fixed chunk of small dense
linear algebra, which never calls the package, is timed right before each
operation and at the end of each pass.  ``run.py`` divides each pass's times
by the slow-down of that pass's median chunk against ``NOMINAL_S``, so that a
reported time is the time on a machine on which one chunk takes
``NOMINAL_S``; the wall-clock times are kept beside them in the run's record.

The chunk mimics the package's per-call pattern (``expm``, SVD, solves and
eigendecompositions of 4x4 to 16x16 matrices driven from Python) on one
thread.  Over those passes, the spread (IQR / median) of medians over six
passes was 0.12-0.17 for the wall times and 0.04-0.06 when each pass was
scaled by its mean chunk.  A chunk of ``expm`` and SVD mapped over a
two-thread pool, as the package's propagation is, over-reacted to the host's
slow phases: largest over smallest scaled median 1.31-1.35, against
1.15-1.20 for this one.  Over 67 ``paper`` passes, the median chunk of a pass
tracked better than the mean, which single slow chunks pull up: largest over
smallest median of four passes 1.16-1.18 with the median chunk, 1.38-1.48
with the mean, 1.55-1.60 unscaled.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

# median chunk time on a 2-vCPU x86-64 VM with numpy 2.4.6, scipy 1.17.1 and
# OpenBLAS pinned to one thread.  It only sets the scale: changing it changes
# every reported operation time, so it stays fixed between commits.
NOMINAL_S = 0.0079
REPEATS = 8


def _inputs():
    rng = np.random.default_rng(20201109)
    return tuple(rng.normal(size=(n, n)) / np.sqrt(n) for n in (4, 9, 16))


INPUTS = _inputs()


def reference() -> float:
    """Run the reference chunk once; return its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        for a in INPUTS:
            for t in (0.1, 1.0):
                np.linalg.svd(scipy.linalg.expm(t * a), compute_uv=False)
            np.linalg.solve(np.eye(len(a)) * 4.0 + a, a)
            np.linalg.eig(a)
    return time.perf_counter() - t0
