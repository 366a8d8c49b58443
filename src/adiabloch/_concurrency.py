"""Thread-pool helper honoring the ADIABLOCH_THREADS cap.

Time-grid propagation is embarrassingly parallel over read-only inputs;
BLAS-backed work releases the GIL, so a thread pool is enough.  Results
come back in input order, so parallel runs are bit-identical to serial.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def worker_count(n_tasks: int) -> int:
    env = os.environ.get("ADIABLOCH_THREADS")
    if env is not None:
        try:
            cap = max(1, int(env))
        except ValueError:
            cap = 1
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def parallel_map(fn, items) -> list:
    items = list(items)
    workers = worker_count(len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
