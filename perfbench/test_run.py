"""Self-test of the benchmark on a tiny input (the nilpotent qubit, 21 times).

    python3 -m pytest perfbench/test_run.py -q

Checks the result schema, that every metric is declared in BENCHMARK.json
with the same unit, that the failure count matches the recorded outcomes,
and that count metrics repeat exactly across two traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(trace: int, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny", "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".bench_out" / f"tiny-seed{seed}-trace{trace}.json").read_text()
    )
    return result, record


@pytest.fixture(scope="module")
def traced_pair():
    return run_tiny(1, 1), run_tiny(1, 2)


def check_schema(result: dict, record: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    failed = [o for o in record["outcomes"] if o["error"] or o["problems"]]
    assert result["failed"] == len(failed)
    assert result["attempted"] == len(record["outcomes"])
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_end_to_end_schema():
    result, record = run_tiny(0, 1)
    check_schema(result, record, DECLARED["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["meta"]["models"] == [
        {"case": "qubit_g10", "d": 2, "n": 4, "gamma": 10.0, "ops": ["effective", "curves", "bound"]}
    ]


def test_per_layer_schema_and_counts_repeat(traced_pair):
    (first, rec1), (second, rec2) = traced_pair
    check_schema(first, rec1, DECLARED["per_layer"])
    check_schema(second, rec2, DECLARED["per_layer"])
    counts = [m["name"] for m in DECLARED["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["bench.time_points"]["value"] == 21
    assert first["metrics"]["bench.expm_count"]["value"] == 21 * 5


def test_spans_nest_within_operations(traced_pair):
    (_, record), _ = traced_pair
    spans = record["spans"]
    assert spans
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["op"] == span["op"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
