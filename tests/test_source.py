"""Rules the library's own source keeps."""

import ast
from pathlib import Path

import lobfluid


def test_library_checks_invariants_without_assert():
    # python -O strips assert statements, so an invariant checked by one
    # goes unchecked there; the library raises typed errors instead
    package = Path(lobfluid.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    asserts = [f"{path.name}:{node.lineno}" for path in sources
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []
