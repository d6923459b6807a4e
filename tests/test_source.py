"""Checks on the package source itself."""

import ast
import sys
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


def test_package_imports_only_the_standard_library():
    # The runtime is stdlib-only: relative imports, `__future__` and the
    # standard library's top-level modules are all the package may import.
    def outside(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names
                    if a.name.partition(".")[0] not in sys.stdlib_module_names]
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.partition(".")[0] not in sys.stdlib_module_names:
                return [node.module]
        return []

    found = [f"{path.name}:{node.lineno} {name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in outside(node)]
    assert SOURCES and not found, f"imports outside the standard library: {found}"
