"""Checks on the library source itself."""

import ast
import pathlib

import fflv

SOURCES = sorted(pathlib.Path(fflv.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # invariants must be explicit checks: python -O strips every assert
    assert len(SOURCES) >= 7
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
