"""Statements of ``src/ptchain`` that no test executes, found without a coverage tool.

Runs the test suite in this interpreter under a line tracer
(``sys.settrace``) that follows only frames of ``src/ptchain``, then prints,
file by file, every line that holds bytecode and never ran, and the tests
that failed under tracing. The tracer slows every Python call, so a test that
times itself can fail here and pass without it; its lines still count. Lines
that only a subprocess runs (``python -m ptchain`` in a test) count as not
executed. It exits 0 whatever it finds: it is a report, not a gate.

    python scripts/unreached.py                        # the whole suite, from the repo root
    python scripts/unreached.py tests/test_poles.py    # any pytest arguments
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ptchain"


def code_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold bytecode, over all its nested code objects."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class _Failures:
    """A pytest plugin that keeps the node ids of failed tests, in order."""

    def __init__(self) -> None:
        self.nodeids: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed and report.nodeid not in self.nodeids:
            self.nodeids.append(report.nodeid)


def traced_run(pytest_args: list[str]) -> tuple[dict[Path, set[int]], list[str], int]:
    """Run pytest under the tracer: lines executed per package file, failed tests, exit code."""
    import pytest

    executed: dict[Path, set[int]] = {}
    ours: dict[str, set[int] | None] = {}  # co_filename -> its executed lines, None if not ours

    def lines_of(filename: str) -> set[int] | None:
        if filename not in ours:
            path = Path(filename).resolve()
            ours[filename] = executed.setdefault(path, set()) if path.parent == PACKAGE else None
        return ours[filename]

    def tracer(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    failures = _Failures()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args, plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return executed, failures.nodeids, int(status)


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    executed, failed, status = traced_run(["-q", "-p", "no:cacheprovider", "--tb=line", *argv])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missing = sorted(code_lines(path) - executed.get(path, set()))
        if not missing:
            continue
        total += len(missing)
        source = path.read_text().splitlines()
        print(f"\n{path.relative_to(ROOT)}: {len(missing)} lines no test executes")
        for line in missing:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"\n{total} lines in src/ptchain that no test executes (pytest exit status {status})")
    print(f"{len(failed)} tests failed under tracing" + (":" if failed else ""))
    for nodeid in failed:
        print(f"  {nodeid}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
