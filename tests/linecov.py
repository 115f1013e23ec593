"""List the statements of ``src/qat8`` that no tier-1 test runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` hook that
records the lines run in frames of ``src/qat8``, then prints each statement
of a function body that never ran, as ``file:line: source``. Module-level
and class-level statements and docstrings are left out: importing runs
them. Only the standard library is used; the name does not match
``test_*.py``, so pytest does not collect this file. From the repo root:

    python tests/linecov.py [extra pytest arguments]

It exits with pytest's status. Tracing makes the suite about 1.7 times as
slow.
"""

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qat8"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _blocks(stmt):
    """The statement lists nested directly in a statement."""
    blocks = [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
    blocks += [part.body for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", [])]
    return [block for block in blocks if isinstance(block, list)]


def _own_lines(stmt) -> set[int]:
    """The lines of a statement that belong to none of its nested statements:
    its header, or all of it for a simple statement."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
    for block in _blocks(stmt):
        for child in block:
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def _walk(stmts):
    for stmt in stmts:
        yield stmt
        if not isinstance(stmt, _DEFS):  # a nested def's body is a function body too
            for block in _blocks(stmt):
                yield from _walk(block)


def function_statements(tree):
    """Every statement in a function body, its docstring left out."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            yield from _walk(body)


def run_traced(args) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args``; return its status and the lines run per file."""
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.settrace(call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return status, ran


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # the tier-1 command: pytest collects the configured testpaths
    status, ran = run_traced(["-q", "--continue-on-collection-errors", *argv])
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        run_here = ran.get(str(path), set())
        for stmt in sorted(function_statements(ast.parse(source)), key=lambda s: s.lineno):
            total += 1
            if not _own_lines(stmt) & run_here:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{stmt.lineno}: {lines[stmt.lineno - 1].strip()}")
    print(f"{missed} of {total} statements in the function bodies of src/qat8 ran in no test")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
