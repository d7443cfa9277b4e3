"""List the statements of ``src/fdgtool`` that no test executes.

    python3 tools/untested_lines.py [PYTEST_ARG ...]

Runs pytest in this process, with the arguments given (by default the
``tests`` directory of this checkout), under a ``sys.settrace`` line tracer
that records only the lines of ``src/fdgtool``.  Then it prints, for each
module, how many of its statements no test executed and where they are,
then the totals.  A docstring is not a statement
(``code_lines.docstring_lines``), nor is ``global`` or ``nonlocal``.  A
simple statement counts as executed when any of its lines ran; a compound
one (``if``, ``for``, ``def``, ...) when a line of its header ran, its
decorators included.  Exits with pytest's exit code.

Not traced, so counted as untested: code that tests run in a subprocess
(``python -m fdgtool``, a fresh interpreter), and the search function that
``algebra`` generates and compiles at run time, which has no file under
``src``.  The tracer slows the suite several times over: the full suite
takes several minutes under it.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", _ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def statements(source: str) -> list[tuple[int, int]]:
    """The statements of ``source`` as (first, last) line spans, by first
    line: a simple statement's lines, or a compound statement's header
    from its first decorator to the line before its body."""
    tree = ast.parse(source)
    docs = code_lines.docstring_lines(tree)
    spans = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)) \
                or node.lineno in docs:
            continue
        first = min([node.lineno, *[d.lineno for d in getattr(node, "decorator_list", ())]])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans.add((first, last))
    return sorted(spans)


def report(hits: dict, paths) -> list[str]:
    """One line per module of ``paths``, then the totals: the statements that
    none of the lines in ``hits`` (file path -> set of line numbers) ran.
    A run of such statements, each next to the last in line order, is
    printed as the span of lines from its first to its last."""
    lines, missed, total = [], 0, 0
    for path in paths:
        ran = hits.get(str(path), set())
        spans = statements(Path(path).read_text(encoding="utf-8"))
        runs = []  # [first, last] positions in ``spans`` of adjacent untested statements
        for k, (first, last) in enumerate(spans):
            if not any(line in ran for line in range(first, last + 1)):
                if runs and runs[-1][1] == k - 1:
                    runs[-1][1] = k
                else:
                    runs.append([k, k])
        count = sum(b - a + 1 for a, b in runs)
        missed += count
        total += len(spans)
        where = ", ".join(f"{spans[a][0]}" if spans[a][0] == spans[b][1]
                          else f"{spans[a][0]}-{spans[b][1]}" for a, b in runs)
        lines.append(f"{Path(path).stem} {count} of {len(spans)} untested"
                     + (f": {where}" if where else ""))
    lines.append(f"total {missed} of {total} untested")
    return lines


def main(argv: list[str]) -> int:
    package = _ROOT / "src" / "fdgtool"
    prefix = str(package) + os.sep
    hits, ours = {}, {}  # file -> lines run; code file name -> its path under src, or None

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[ours[frame.f_code.co_filename]].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = os.path.realpath(name)
            ours[name] = path if path.startswith(prefix) else None
            if ours[name]:
                hits.setdefault(path, set())
        return trace_lines if ours[name] else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(argv or [str(_ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\n".join(report(hits, sorted(package.glob("*.py")))))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
