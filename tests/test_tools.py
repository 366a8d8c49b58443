"""The repository's own tools."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

_spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

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
