"""List the function-body statements of ``src/moe_lens`` that the test suite never runs.

Usage: python tests/coverage_listing.py [extra pytest arguments]

It runs the suite in this process under ``sys.settrace``, with the standard
library alone, and hypothesis derandomized so that a rerun lists the same
statements.  A statement counts as run when any line it spans raised a line
event; docstrings raise none and are not counted.  Code that only
subprocesses run would be listed as never run, since the tracer does not
follow them; ``cli.main`` is run in process too, by the ``main_in_process``
tests.  pytest does not collect this file, since its name does not start
with ``test_``.
"""

from __future__ import annotations

import ast
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "moe_lens"


def function_statements(path: Path) -> list[tuple[str, ast.stmt]]:
    """``(function name, statement)`` of each statement inside a function or
    method body, nested blocks included, docstrings left out."""
    found = []

    def visit(body: list[ast.stmt], owner: str) -> None:
        for index, node in enumerate(body):
            if (index == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            found.append((owner, node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, f"{owner}.{node.name}")
                continue
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), owner)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, owner)

    def top(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, prefix + node.name)
            elif isinstance(node, ast.ClassDef):
                top(node.body, f"{prefix}{node.name}.")

    top(ast.parse(path.read_text(encoding="utf-8")).body, "")
    return found


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    sys.path.insert(0, str(ROOT / "tests"))
    import pytest
    from hypothesis import settings
    settings.register_profile("coverage-listing", derandomize=True, database=None)
    settings.load_profile("coverage-listing")

    package = str(PACKAGE)
    executed: dict[str, set[int]] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package):
            return None
        executed.setdefault(filename, set())
        return trace_lines

    start = time.perf_counter()
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        # hypothesis is imported above to set its profile, so pytest cannot
        # rewrite it; that is expected.
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            "-W", "ignore::pytest.PytestAssertRewriteWarning",
                            str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    elapsed = time.perf_counter() - start

    total = ran = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executed.get(str(path), set())
        for owner, node in function_statements(path):
            total += 1
            if lines.intersection(range(node.lineno, node.end_lineno + 1)):
                ran += 1
                continue
            source = ast.get_source_segment(path.read_text(encoding="utf-8"), node) or ""
            print(f"{path.relative_to(ROOT)}:{node.lineno}: {owner}: "
                  f"{source.splitlines()[0].strip() if source else type(node).__name__}")
    print(f"ran {ran} of {total} function-body statements; "
          f"suite exit code {int(code)}; {elapsed:.1f} s under the tracer")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
