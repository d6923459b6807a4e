"""Checks on the package source itself."""

import ast
from pathlib import Path

import psrewrite

SOURCES = sorted(Path(psrewrite.__file__).parent.glob("*.py"))


def test_no_bare_asserts_in_package():
    # `assert` vanishes under `python -O`; invariants raise RewritingErrors.
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, f"bare assert statements: {found}"
