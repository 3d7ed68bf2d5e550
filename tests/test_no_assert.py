"""Invariant checks in the package must survive ``python -O``, which strips ``assert``."""

import ast
import pathlib

import psidiff

SOURCES = sorted(pathlib.Path(psidiff.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"contfrac.py", "imf.py", "theorems.py"}


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under -O: {', '.join(found)}"
