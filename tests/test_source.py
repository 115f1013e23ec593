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
