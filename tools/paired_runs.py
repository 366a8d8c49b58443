"""Run the benchmark in two checkouts as alternating pairs and compare them.

    python tools/paired_runs.py PARENT_ROOT CHANGE_ROOT --workload random --pairs 10
    python tools/paired_runs.py PARENT_ROOT CHANGE_ROOT --workload paper --pairs 10 \\
        --save runs.json

Pair k (k = 1..N) runs ``perfbench/run.py --workload W --seed k --seconds 25
--trace 0`` in each checkout, the parent first when k is odd and the change
first when it is even, and reads the last JSON line each run prints.  For
each end-to-end metric the summary gives the median of both sides, the
parent's quartiles (their distance is its IQR) and the number of pairs in
which the change read lower; for each side, the share of failed operations
over all its runs and whether every run was ``correct``.  Quartiles are
``numpy.percentile`` (linear) over the runs of one side.  ``--save FILE``
writes the raw records, one per pair, with the summary, as JSON.

The runs go one after another, so that no two share the machine.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
# the run length BENCHMARK.json fixes for every run
SECONDS = 25


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One benchmark run in checkout ``root``: its verdict and metric values."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: metric["value"] for name, metric in result["metrics"].items()},
    }


def run_pairs(roots: dict, workload: str, pairs: int, log=print) -> list:
    """``pairs`` records {seed, first, parent, change}, seeds 1..pairs."""
    records = []
    for seed in range(1, pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        record = {"seed": seed, "first": order[0]}
        for side in order:
            record[side] = run_once(roots[side], workload, seed)
        log(f"pair {seed}/{pairs} done ({order[0]} first)")
        records.append(record)
    return records


def summarise(records: list) -> dict:
    """Medians, the parent's quartiles and the pairs where the change read
    lower, per metric; the failed share and ``correct`` per side."""
    runs = {side: [record[side] for record in records] for side in SIDES}
    verdict = ("correct", "attempted", "failed")
    metrics = {}
    for name in (key for key in runs["parent"][0] if key not in verdict):
        values = {side: np.array([run[name] for run in runs[side]]) for side in SIDES}
        q1, median, q3 = np.percentile(values["parent"], [25, 50, 75])
        metrics[name] = {
            "parent_q1_median_q3": [float(q1), float(median), float(q3)],
            "change_median": float(np.median(values["change"])),
            "change_lower": int(np.sum(values["change"] < values["parent"])),
            "pairs": len(records),
        }
    sides = {
        side: {
            "failed": sum(run["failed"] for run in runs[side]),
            "attempted": sum(run["attempted"] for run in runs[side]),
            "correct_all": all(run["correct"] for run in runs[side]),
        }
        for side in SIDES
    }
    return {"metrics": metrics, "sides": sides}


def format_summary(summary: dict) -> str:
    lines = [f"{'metric':14s} {'parent':>12s} {'change':>12s} {'ratio':>8s} "
             f"{'parent IQR':>25s} {'lower':>7s}"]
    for name, m in summary["metrics"].items():
        q1, median, q3 = m["parent_q1_median_q3"]
        ratio = m["change_median"] / median if median else float("nan")
        lines.append(f"{name:14s} {median:12.6g} {m['change_median']:12.6g} {ratio:8.4f} "
                     f"{f'{q1:.6g}-{q3:.6g}':>25s} {m['change_lower']:>3d}/{m['pairs']:<3d}")
    for side, s in summary["sides"].items():
        share = s["failed"] / s["attempted"] if s["attempted"] else float("nan")
        lines.append(f"{side}: failed {s['failed']}/{s['attempted']} ({share:.4f}), "
                     f"correct in every run: {s['correct_all']}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", required=True, choices=("paper", "random", "propagation"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--save", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    records = run_pairs(roots, args.workload, args.pairs,
                        log=lambda line: print(line, file=sys.stderr))
    summary = summarise(records)
    print(format_summary(summary))
    if args.save is not None:
        args.save.write_text(json.dumps(
            {"workload": args.workload, "pairs": records, "summary": summary}, indent=1
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
