"""Layered benchmark of adiabloch, driven through the package's public functions.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A workload (see ``workloads.py``) is a fixed list of models; each model gets
some of three operations:

* ``effective``: ``bench.compute_effective``, ``gkls_decompose`` of K and
  ``verify_similarity``, as ``adiabloch effective`` does;
* ``curves``: ``bench.distance_curves`` for orders 0, 1, 2 and infinity;
* ``bound``: ``bench.bound_check``.

A pass runs every operation of the workload once, in model order (a model
may list an operation more than once).  Passes start until ``--seconds``
have elapsed, at least three of them.  With ``--trace 0`` the run reports,
by name and unit, the end-to-end metrics: ``setup_s`` (median of several
fresh processes, each timed from start to the point where the first
operation would begin), the seconds one call of each operation takes on
every model that gets it (per model the median over its calls, summed over
the models) and the peak resident memory.

Operation times are reported at reference machine speed: a fixed chunk of
linear algebra (``speed.py``) is timed before each operation and at the end
of each pass, and every call is scaled by how much slower than nominal its
pass's median chunk ran.  The wall-clock medians are printed and recorded
beside them.  ``setup_s`` stays wall-clock: process start-up and imports did
not follow the chunk, and scaling made it less steady.

With ``--trace 1`` each operation runs plain and then step by step inside
spans, and the run reports per-layer self times and counts, plus the
tracing overhead.

Every operation's output is checked; an operation that raises or fails its
check counts as failed, and the run prints the failed ratio with each
failure's operation, model and error type.  The last line of standard output is a JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``correct`` is false when an output failed its check or an operation raised
something other than an ``AdiablochError``.  The full record (metadata,
samples, failures and, when traced, the spans) is written to
``.bench_out/`` at the repository root.

BLAS is pinned to one thread before numpy is imported; the package's own
thread pool keeps its default (``ADIABLOCH_THREADS`` unset).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("paper", "random", "propagation")
SETUP_RUNS = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# traced and plain K must agree to this (max abs entry)
SAME_PROGRAM_TOL = 1e-13


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all", "tiny"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_threads() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ADIABLOCH_THREADS", None)


def import_package():
    """Import adiabloch from this checkout's ``src``, never from elsewhere."""
    init = SRC / "adiabloch" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import adiabloch

    if Path(adiabloch.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported adiabloch from {adiabloch.__file__}, not {init}")


def set_up(name: str, seed: int):
    """Everything before the first timed operation: imports, models, warm-up."""
    pin_threads()
    import_package()
    import ops
    import speed
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    # first calls pay lazy initialisation (LAPACK dispatch, the thread pool)
    warm = workloads.tiny(seed)
    pipe, _ = ops.effective_plain(warm.cases[0])
    ops.curves_plain(pipe, warm.times[:3])
    speed.reference()
    return workload


def time_setup(args) -> list:
    """Wall time of fresh processes that set up the workload and exit."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{proc.stderr}")
    return samples


def git_commit():
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, workload) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "pool_threads": f"ADIABLOCH_THREADS unset: min(os.cpu_count()={os.cpu_count()}, tasks)",
        "models": [
            {"case": c.name, "d": c.model.dim, "n": c.model.dim**2, "gamma": c.model.gamma,
             "ops": list(c.ops)}
            for c in workload.cases
        ],
    }


class Run:
    """Operations of one benchmark run, their outcomes and their timings."""

    def __init__(self, workload, trace: bool):
        # imported only after pin_threads(): all of them import numpy
        from adiabloch.errors import AdiablochError
        import ops
        import speed

        self.ops = ops
        self.speed = speed
        self.known_errors = AdiablochError
        self.workload = workload
        self.trace = trace
        self.tracer = ops.Tracer()
        self.outcomes = []     # one record per operation attempted
        self.pass_seconds = []  # per pass: {op: plain seconds}
        self.pass_slowdown = []  # per pass: median reference chunk time / nominal
        self.pass_counts = []   # per pass: count metrics of the traced run
        self.n_ops = 0

    def attempt(self, pass_no, case, op, traced, fn):
        """Run one operation; record its time, error and failed checks."""
        t0 = time.perf_counter()
        output, problems, error, known = None, [], None, True
        try:
            output, problems = fn()
        except (self.known_errors, NoInput) as exc:
            error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # an unexpected error is a wrong output
            error, known = f"{type(exc).__name__}: {exc}", False
        seconds = time.perf_counter() - t0
        self.outcomes.append({
            "pass": pass_no, "case": case.name, "op": op, "traced": traced,
            "seconds": seconds, "error": error, "known_error": known, "problems": problems,
        })
        return output, seconds

    def run_pass(self, pass_no: int) -> None:
        ops, times = self.ops, self.workload.times
        totals = {}
        counts = {}
        chunks = []
        for case in self.workload.cases:
            plain = traced = None      # the case's effective outputs
            for op in case.ops:
                if op == "effective":
                    fn = lambda: ops.effective_plain(case)
                elif op == "curves":
                    fn = _needs(plain, lambda p: ops.curves_plain(p, times))
                else:
                    fn = lambda: ops.bound_plain(case, times)
                chunks.append(self.speed.reference())
                output, seconds = self.attempt(pass_no, case, op, False, fn)
                totals[op] = totals.get(op, 0.0) + seconds
                if op == "effective":
                    plain = output
                if not self.trace:
                    continue
                output = self._traced(pass_no, case, op, traced)
                if op == "effective":
                    traced = output
                    self._same_program(plain, traced)
                    if traced is not None:
                        _add_counts(counts, ops.effective_counts(traced))
        chunks.append(self.speed.reference())
        self.pass_seconds.append(totals)
        self.pass_slowdown.append(statistics.median(chunks) / self.speed.NOMINAL_S)
        self.pass_counts.append(counts)

    def _traced(self, pass_no, case, op, pipe):
        ops, tracer, times = self.ops, self.tracer, self.workload.times
        op_id = self.n_ops
        self.n_ops += 1
        if op == "effective":
            fn = lambda: ops.effective_traced(case, tracer, op_id)
        elif op == "curves":
            fn = _needs(pipe, lambda p: ops.curves_traced(p, times, tracer, op_id))
        else:
            fn = lambda: ops.bound_traced(case, pipe, times, tracer, op_id)
        with tracer.span(op, op_id, case=case.name, pass_no=pass_no):
            output, _ = self.attempt(pass_no, case, op, True, fn)
        return output

    def _same_program(self, plain, traced) -> None:
        """The stepwise pipeline must reproduce compute_effective exactly.

        A mismatch is charged to the traced operation, the last one recorded.
        """
        import numpy as np

        if plain is None or traced is None:
            return
        dev = float(np.abs(
            plain.generators.schrieffer_wolff.matrix - traced.generators.schrieffer_wolff.matrix
        ).max())
        if dev > SAME_PROGRAM_TOL:
            self.outcomes[-1]["problems"].append(
                f"traced K differs from compute_effective's by {dev:.3e}"
            )
        if [s.iterations for s in plain.solutions] != [s.iterations for s in traced.solutions]:
            self.outcomes[-1]["problems"].append(
                "traced Newton iteration counts differ from compute_effective's"
            )

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        while len(self.pass_seconds) < MIN_PASSES or time.perf_counter() - start < seconds:
            self.run_pass(len(self.pass_seconds))

    @property
    def failures(self) -> list:
        return [o for o in self.outcomes if o["error"] or o["problems"]]

    @property
    def correct(self) -> bool:
        return all(o["known_error"] and not o["problems"] for o in self.outcomes)


class NoInput(Exception):
    """An operation could not run because the one it depends on failed."""


def _needs(pipe, fn):
    """``fn(pipe)``, failing when the case's ``effective`` gave no output."""

    def run():
        if pipe is None:
            raise NoInput("no effective output to propagate")
        return fn(pipe)

    return run


# count metrics taken as the maximum over a pass's models; the rest are summed
MAX_COUNTS = {"spectral.n", "spectral.max_rank", "spectral.max_index", "bloch.max_block_iterations"}


def _add_counts(acc: dict, counts: dict) -> None:
    for key, value in counts.items():
        if key in MAX_COUNTS:
            acc[key] = max(acc.get(key, 0), value)
        else:
            acc[key] = acc.get(key, 0) + value


def _median_metric(samples, unit):
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "samples": len(samples),
        "min": min(samples),
        "max": max(samples),
    }


def _op_metric(run: Run, op: str):
    """Seconds of one ``op`` call on every model that gets it, at reference speed.

    Per model the median over its plain calls, each divided by its pass's
    slow-down; summed over the models.  ``wall`` is the same sum unscaled.
    """
    calls = {}
    for o in run.outcomes:
        if o["op"] == op and not o["traced"]:
            calls.setdefault(o["case"], []).append((o["seconds"], run.pass_slowdown[o["pass"]]))
    if not calls:
        return None
    return {
        "value": sum(statistics.median(s / f for s, f in c) for c in calls.values()),
        "unit": "s",
        "samples": min(len(c) for c in calls.values()),
        "wall": sum(statistics.median(s for s, _ in c) for c in calls.values()),
        "slowdown": statistics.median(run.pass_slowdown),
    }


def end_to_end_metrics(run: Run, setup_samples: list) -> dict:
    """Operation times at reference speed, with the wall-clock medians beside them."""
    metrics = {"setup_s": _median_metric(setup_samples, "s")}
    for op in ("effective", "curves", "bound"):
        metric = _op_metric(run, op)
        if metric is not None:
            metrics[f"{op}_s"] = metric
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB", "samples": 1}
    return metrics


LAYER_SPANS = (
    "liouville.build_superop",
    "liouville.gkls_decompose",
    "spectral.decompose",
    "spectral.validate",
    "bloch.solve_blocks",
    "bloch.series",
    "effective.build",
    "effective.verify_similarity",
    "effective.eternal_bound",
    "bench.distance_curves",
    "bench.bound_check",
)
CPU_SPANS = ("bloch.solve_blocks", "bench.distance_curves")


def per_layer_metrics(run: Run) -> dict:
    spans = run.tracer.spans
    own = run.tracer.self_times()
    n_passes = len(run.pass_seconds)
    per_pass = [dict() for _ in range(n_passes)]
    op_pass = {s["op"]: s["pass_no"] for s in spans if s["parent"] is None}
    for span, self_s in zip(spans, own):
        acc = per_pass[op_pass[span["op"]]]
        name = span["name"]
        if span["parent"] is None:
            # tracing overhead: traced op minus its extra calls, less the plain op
            acc["trace.overhead_s"] = acc.get("trace.overhead_s", 0.0) + span["end"] - span["start"]
            continue
        if span["extra"]:
            acc["trace.overhead_s"] = acc.get("trace.overhead_s", 0.0) - (span["end"] - span["start"])
        acc[f"{name}_s"] = acc.get(f"{name}_s", 0.0) + self_s
        if name in CPU_SPANS:
            acc[f"{name}_cpu_s"] = acc.get(f"{name}_cpu_s", 0.0) + span["cpu_s"]
        if name == "bench.distance_curves":
            acc["bench.time_points"] = acc.get("bench.time_points", 0) + span["time_points"]
            acc["bench.expm_count"] = acc.get("bench.expm_count", 0) + span["time_points"] * (
                span["targets"] + 1
            )
    for p, acc in enumerate(per_pass):
        acc["trace.overhead_s"] = acc.get("trace.overhead_s", 0.0) - sum(run.pass_seconds[p].values())
        acc.update(run.pass_counts[p])
    names = [f"{s}_s" for s in LAYER_SPANS] + [f"{s}_cpu_s" for s in CPU_SPANS] + [
        "bench.time_points", "bench.expm_count", "trace.overhead_s",
    ] + sorted({k for counts in run.pass_counts for k in counts})
    metrics = {}
    for name in names:
        samples = [acc.get(name, 0) for acc in per_pass]
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = _median_metric(samples, unit)
    return metrics


def report(run: Run, meta: dict, metrics: dict, setup_samples: list) -> dict:
    attempted = len(run.outcomes)
    failures = run.failures
    print(f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
          f"passes {len(run.pass_seconds)}  set-ups {len(setup_samples)}")
    for name, m in metrics.items():
        if "wall" in m:
            spread = (f"  (n={m['samples']} per model, wall {m['wall']:.6g} {m['unit']}"
                      f" at slow-down {m['slowdown']:.3f})")
        elif m["samples"] > 1:
            spread = f"  (n={m['samples']}, min {m['min']:.6g}, max {m['max']:.6g})"
        else:
            spread = ""
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}{spread}")
    print(f"  {'failed_ratio':32s} {len(failures) / attempted:14.6g} ({len(failures)}/{attempted})")
    seen = {}
    for f in failures:
        key = (f["case"], f["op"], f["error"].split(":")[0] if f["error"] else "; ".join(f["problems"]))
        seen[key] = seen.get(key, 0) + 1
    for (case, op, why), count in seen.items():
        print(f"    failed {op} on {case} x{count}: {why}")
    print("meta " + json.dumps(meta))
    result = {
        "correct": run.correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "meta": meta, "result": result, "metrics": metrics,
        "setup_samples": setup_samples,
        "pass_seconds": run.pass_seconds, "pass_slowdown": run.pass_slowdown,
        "outcomes": run.outcomes,
        "spans": run.tracer.spans,
    }
    path = OUT_DIR / f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return result


def run_all(args) -> int:
    """Each workload in a fresh process, so that peak memory is its own."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=4 * CHILD_TIMEOUT_S, check=False,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = set_up(args.workload, args.seed)
    if args.setup_only:
        return 0
    setup_samples = [] if args.trace else time_setup(args)
    run = Run(workload, trace=bool(args.trace))
    run.measure(args.seconds)
    if args.trace:
        metrics = per_layer_metrics(run)
    else:
        metrics = end_to_end_metrics(run, setup_samples)
    result = report(run, metadata(args, workload), metrics, setup_samples)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
