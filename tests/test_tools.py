"""The repository's own tools."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
leaf_deviation = _load("leaf_deviation")
output_digest = _load("output_digest")
paired_runs = _load("paired_runs")
untested_lines = _load("untested_lines")

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
class Thing:
    """Class docstring."""

    size = 3

    def area(self, x):
        """Function docstring,

        with a blank line inside.
        """
        # comment inside a body
        total = math.hypot(
            x,
            self.size,
        )
        return total


async def fetch():
    """Async docstring."""
    text = """not a docstring:
    every line counts"""
    return text
'''

# code lines of SAMPLE: import, class, size, def area, the four lines of the
# hypot call, return total, async def, the two lines of text, return text
SAMPLE_CODE_LINES = 13


def test_counts_only_code_lines():
    assert code_lines.code_lines(SAMPLE) == SAMPLE_CODE_LINES


def test_empty_and_comment_only_sources_have_no_code():
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_cli_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    result = subprocess.run(
        [sys.executable, str(TOOLS / "code_lines.py"), str(tmp_path / "pkg")],
        capture_output=True,
        text=True,
        check=True,
    )
    rows = [line.split() for line in result.stdout.splitlines()]
    assert rows == [
        [str(SAMPLE_CODE_LINES), str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        [str(SAMPLE_CODE_LINES + 1), "total"],
    ]


def test_digest_of_two_runs_is_the_same(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(TOOLS.parent / "src"), "OPENBLAS_NUM_THREADS": "1"}
    runs = [
        subprocess.run(
            [sys.executable, str(TOOLS / "output_digest.py"), "tiny"],
            capture_output=True, text=True, check=True, env=env, cwd=tmp_path,
        ).stdout
        for _ in range(2)
    ]
    lines = runs[0].splitlines()
    assert runs[0] == runs[1]
    # the qubit's decomposition, solutions, K, D, D-tilde, verify_similarity,
    # k_eff(0..2) and four curves; its bound_check raises
    for part in ("decomposition.residuals['orthogonality_defect']", "iterations['omega']",
                 "schrieffer_wolff.matrix", "adiabatic.matrix", "adiabatic_conj.matrix",
                 "['verify_similarity']['global_similarity']", "['k_eff'][2]",
                 "curves[None].distances"):
        assert any(part in line for line in lines), part
    assert lines[-1].startswith("qubit_g10.bound raises ClusterAmbiguityError ")
    assert not list(tmp_path.iterdir())


def test_one_perturbed_leaf_gives_one_differing_line():
    work = output_digest._load("workloads").WORKLOADS["tiny"](1)
    _pipe, out = output_digest._effective(work.cases[0])
    before = output_digest.digest_lines(out, "qubit")
    k1 = out["k_eff"][1]
    k1[0, 1] = np.nextafter(k1[0, 1].real, np.inf) + 1j * k1[0, 1].imag
    after = output_digest.digest_lines(out, "qubit")
    assert len(after) == len(before)
    changed = [(a, b) for a, b in zip(before, after) if a != b]
    assert len(changed) == 1
    assert changed[0][1].startswith("qubit['k_eff'][1] complex128 (4,4) ")


def test_saved_leaves_measure_what_moved(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(TOOLS.parent / "src"), "OPENBLAS_NUM_THREADS": "1"}
    saved = tmp_path / "a.npz"
    digest = subprocess.run(
        [sys.executable, str(TOOLS / "output_digest.py"), "tiny", "--save", str(saved)],
        capture_output=True, text=True, check=True, env=env, cwd=tmp_path,
    ).stdout.splitlines()
    with np.load(saved) as a:
        leaves = {key: a[key] for key in a.files}
    # one saved leaf per digest line, in its order, and the raising bound
    # as its message
    assert list(leaves) == [line.split()[0] for line in digest]
    assert leaves["qubit_g10.bound"].item().startswith(b"eigenvalue clusters separated by ")
    moved = dict(leaves)
    key = "qubit_g10.curves[0].distances"
    moved[key] = leaves[key] * (1.0 + 3e-15)
    moved["qubit_g10.bound"] = np.asarray(b"another message")
    del moved["qubit_g10.effective['k_eff'][0]"]
    np.savez(tmp_path / "b.npz", **moved)

    def run(a, b):
        result = subprocess.run(
            [sys.executable, str(TOOLS / "leaf_deviation.py"), str(a), str(b)],
            capture_output=True, text=True, env=env,
        )
        return result.returncode, result.stdout.splitlines()

    assert run(saved, saved) == (0, ["0 differing leaves"])
    status, lines = run(saved, tmp_path / "b.npz")
    assert status == 1
    assert lines[0] == "qubit_g10.effective['k_eff'][0] only in A"
    path, elementwise, largest = lines[1].split()
    assert path == key and 2e-15 < float(elementwise) < 4e-15 and float(largest) < 4e-15
    assert lines[2:] == ["qubit_g10.bound differs", "3 differing leaves"]


def test_deviation_is_relative_entry_by_entry():
    a = np.array([1.0, -2.0, 0.0, 4.0])
    b = np.array([1.0, -2.0 * (1 + 1e-12), 0.0, 4.0 + 1e-12])
    elementwise, largest = leaf_deviation.deviation(a, b)
    assert np.isclose(elementwise, 1e-12 / (2 + 2e-12), rtol=1e-3)
    assert np.isclose(largest, 2e-12 / 4.0, rtol=1e-3)
    # a zero that becomes nonzero moves by all of itself
    assert leaf_deviation.deviation(np.zeros(2), np.array([0.0, 1e-300]))[0] == 1.0
    assert leaf_deviation.deviation(np.zeros((2, 2)), np.zeros(4)) is None
    assert leaf_deviation.deviation(np.asarray(b"a"), np.asarray(b"b")) is None
    assert leaf_deviation.compare({"x": a}, {"x": a.copy(), "y": a}) == ["y only in B"]


TRACED_SAMPLE = '''"""A sample module: its docstring and comments are never listed."""


def sign(x):
    """Function docstring."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    # zero has no sign
    return 0


class Box:
    """Class docstring."""

    def __init__(self, size):
        self.size = size

    def grown(self):
        return Box(
            self.size
            + 1,
        )
'''


def test_untested_lines_lists_what_no_test_ran(tmp_path):
    (tmp_path / "pkg").mkdir()
    sample = tmp_path / "pkg" / "sample.py"
    sample.write_text(TRACED_SAMPLE)
    (tmp_path / "test_some.py").write_text(
        "from pkg.sample import Box, sign\n\n\n"
        "def test_sign():\n    assert sign(2) == 1 and sign(-2) == -1\n\n\n"
        "def test_box():\n    assert Box(3).size == 3\n"
    )
    (tmp_path / "test_zero.py").write_text(
        "from pkg.sample import sign\n\n\ndef test_zero():\n    assert sign(0) == 1\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}

    def run(*tests):
        result = subprocess.run(
            [sys.executable, str(TOOLS / "untested_lines.py"), "--src", "pkg", "--",
             "-q", "-p", "no:cacheprovider", *tests],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        listed = [line for line in result.stdout.splitlines() if line.startswith(str(sample))]
        return result.returncode, listed, result.stdout.splitlines()[-1]

    # every line of the multi-line return is listed; docstrings, comments,
    # the closing parenthesis and lines run at import are not
    status, listed, summary = run("test_some.py")
    assert status == 0
    assert listed == [
        f"{sample}:11: return 0",
        f"{sample}:21: return Box(",
        f"{sample}:22: self.size",
        f"{sample}:23: + 1,",
    ]
    assert summary == "4 untested lines in 1 files"
    # a failing test still counts the lines it ran, and the exit status is pytest's
    status, listed, summary = run("test_some.py", "test_zero.py")
    assert status == 1
    assert [line.split(": ")[0] for line in listed] == [f"{sample}:{k}" for k in (21, 22, 23)]
    assert summary == "3 untested lines in 1 files"


def test_executable_lines_skip_docstrings_and_comments(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(TRACED_SAMPLE)
    lines = untested_lines.executable_lines(path)
    # module and class docstrings are stored as __doc__, at import; a function
    # docstring carries no code, nor do comments, blank lines and a lone
    # closing parenthesis
    assert {5, 10, 12, 16, 24} & lines == set()
    assert {1, 4, 6, 7, 8, 9, 11, 14, 15, 17, 18, 20, 21, 22, 23} <= lines


def _run(correct=True, attempted=10, failed=1, **metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed, **metrics}


def test_paired_summary_of_synthetic_records():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 4.5]
    records = [
        {"seed": k + 1, "first": "parent" if k % 2 == 0 else "change",
         "parent": _run(curves_s=p, peak_rss_mb=70.0),
         "change": _run(correct=k != 3, failed=k % 2, curves_s=c, peak_rss_mb=70.0)}
        for k, (p, c) in enumerate(zip(parent, change))
    ]
    summary = paired_runs.summarise(records)
    curves = summary["metrics"]["curves_s"]
    assert curves["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert curves["change_median"] == 2.5
    # lower in pairs 1, 3, 4 and 5; an equal reading is not lower
    assert (curves["change_lower"], curves["pairs"]) == (4, 5)
    assert summary["metrics"]["peak_rss_mb"]["change_lower"] == 0
    assert list(summary["metrics"]) == ["curves_s", "peak_rss_mb"]
    assert summary["sides"] == {
        "parent": {"failed": 5, "attempted": 50, "correct_all": True},
        "change": {"failed": 2, "attempted": 50, "correct_all": False},
    }
    text = paired_runs.format_summary(summary).splitlines()
    assert text[1].split() == ["curves_s", "3", "2.5", "0.8333", "2-4", "4/5"]
    assert text[-2] == "parent: failed 5/50 (0.1000), correct in every run: True"
    assert text[-1] == "change: failed 2/50 (0.0400), correct in every run: False"


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def fake_run(root, workload, seed):
        calls.append((root, seed))
        return _run(curves_s=float(seed))

    monkeypatch.setattr(paired_runs, "run_once", fake_run)
    roots = {"parent": Path("a"), "change": Path("b")}
    records = paired_runs.run_pairs(roots, "paper", 3, log=lambda line: None)
    assert calls == [(Path("a"), 1), (Path("b"), 1), (Path("b"), 2), (Path("a"), 2),
                     (Path("a"), 3), (Path("b"), 3)]
    assert [r["first"] for r in records] == ["parent", "change", "parent"]
    assert [r["seed"] for r in records] == [1, 2, 3]


def test_a_run_is_read_off_its_last_json_line(tmp_path):
    # a stand-in benchmark that prints a report and then its JSON result
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import json, pathlib, sys\n"
        "pathlib.Path('argv.json').write_text(json.dumps(sys.argv[1:]))\n"
        "print('report line')\n"
        "print(json.dumps({'correct': True, 'attempted': 9, 'failed': 1,\n"
        "                  'metrics': {'bound_s': {'value': 0.5, 'unit': 's'}}}))\n"
    )
    run = paired_runs.run_once(tmp_path, "paper", 3)
    assert run == {"correct": True, "attempted": 9, "failed": 1, "bound_s": 0.5}
    # run in the checkout, with the benchmark's own options
    assert json.loads((tmp_path / "argv.json").read_text()) == [
        "--workload", "paper", "--seed", "3", "--seconds", "25", "--trace", "0"
    ]
