"""The repository's own tools."""

import importlib.util
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
output_digest = _load("output_digest")

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
