"""Module layering: every import in the package sits at module level, so
the import graph between its modules is the one their headers show, and
a cycle fails at import time instead of hiding in a function body."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "matphi").glob("*.py"))


def _nested_imports(tree: ast.AST) -> list[int]:
    """Line numbers of the imports inside function bodies."""
    return sorted({
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_the_package_sources_are_found():
    assert {"concentration.py", "fourier.py", "suites.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_import_inside_a_function(path):
    lines = _nested_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, f"{path.name} imports inside a function at lines {lines}"
