"""Checks on the package source itself."""

import ast
from pathlib import Path

import qat8


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so no invariant may rest on one
    found = []
    for path in sorted(Path(qat8.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_has_no_function_level_imports():
    # the modules import each other at the top only: an import cycle (say
    # layers and runtime) is solved by where the code sits, not deferred
    found = []
    for path in sorted(Path(qat8.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []
