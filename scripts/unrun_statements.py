#!/usr/bin/env python3
"""List every statement of ``src/ambicalc`` that the tier-1 tests never run.

Runs the tier-1 suite (``tests/``) in this process under a line tracer,
``sys.settrace`` and ``threading.settrace``, that records only code in
``src/ambicalc``.  A simple statement counts as run when any of its lines
runs, a compound one (``if``, ``for``, ``try``, ``def`` ...) when any line of
its header runs.  Docstrings are not statements, and code that a test runs
in a subprocess is not seen.

Prints each never-run statement as ``file:line: text`` and exits 1 if there
is one, 0 if there is none.  If a test fails, it says so and exits with
pytest's code.  Arguments are passed on to pytest.  Traced, the suite runs
about four times slower than it does untraced.

    python scripts/unrun_statements.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "ambicalc"


def statements(path: Path) -> list[tuple[int, range]]:
    """(first line, lines of which one must run) of every statement in the
    file, docstrings left out."""
    out = []

    def visit(body):
        for node in body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue
            children = getattr(node, "body", None)
            if not children:
                out.append((node.lineno, range(node.lineno, node.end_lineno + 1)))
                continue
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            out.append((node.lineno, range(start, max(start, children[0].lineno - 1) + 1)))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, ()))
            for clause in [*getattr(node, "handlers", ()), *getattr(node, "cases", ())]:
                visit(clause.body)

    visit(ast.parse(path.read_text(encoding="utf-8")).body)
    return out


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 under the tracer: pytest's exit code, and the lines run in
    each file of the package."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    tracers = {}  # file name -> the line tracer of its frames, None outside

    def line_tracer(lines: set[int]):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace

        return trace

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            inside = name.startswith(prefix)
            tracers[name] = line_tracer(hits.setdefault(name, set())) if inside else None
        return tracers[name]

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    code, hits = run_traced(argv)
    if code != 0:
        print(f"the tests failed (pytest exit code {code}); no statements listed")
        return code
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        run = hits.get(str(path), set())
        text = path.read_text(encoding="utf-8").splitlines()
        for line, lines in statements(path):
            if run.isdisjoint(lines):
                unrun.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    for entry in unrun:
        print(entry)
    print(f"{len(unrun)} statements never run")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
