"""Checks on the library source itself."""

import ast
import pathlib
import sys

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


def test_library_imports_only_the_standard_library():
    # pyproject.toml declares no runtime dependencies
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno}:{name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"fflv"}
            ]
    assert found == []


def test_library_does_not_import_dataclasses():
    # importing dataclasses loads inspect, and each class execs generated
    # code at import: value types here are NamedTuples or __slots__ classes
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_only_polytope_defines_value_methods():
    # value classes are NamedTuples or take equality, hash and repr from
    # polytope._Value: an __eq__ or __hash__ written elsewhere is a second copy
    found = [
        f"{path.name}:{node.lineno}:{node.name}"
        for path in SOURCES
        if path.name != "polytope.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name in ("__eq__", "__hash__")
    ]
    assert found == []


def _names_run(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Name) and node.id == "_RUN"
        or isinstance(node, ast.Attribute) and node.attr == "_RUN"
        or isinstance(node, ast.alias) and node.name == "_RUN"
    )


def test_only_polytope_reads_the_run_memo():
    # everything memoises through polytope._once, which already computes
    # without storing outside a run: a branch on _RUN elsewhere is a second path
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "polytope.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _names_run(node)
    ]
    assert found == []
    # inside polytope.py only the run itself and _once read it; the
    # assignment that defines it stores
    path = pathlib.Path(fflv.__file__).parent / "polytope.py"
    readers = {
        getattr(stmt, "name", f"line {stmt.lineno}")
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(stmt)
        if _names_run(node) and not isinstance(getattr(node, "ctx", None), ast.Store)
    }
    assert readers == {"_one_run", "_once"}


# the text of each input rule's error; fflv.roots checks each rule once
_RULE_TEXTS = ("rank must be >= 1", "weight must be dominant", "entries, expected", "need 1 <= k <= n")


def test_only_roots_writes_the_input_rules():
    # a rank, weight or k checked anywhere else is a second copy, which can
    # drift from the first in what it accepts and in what it says
    found = [
        f"{path.name}:{text}"
        for path in SOURCES
        for text in _RULE_TEXTS
        if text in path.read_text() and path.name != "roots.py"
    ]
    assert found == []
    roots = (pathlib.Path(fflv.__file__).parent / "roots.py").read_text()
    assert [roots.count(text) for text in _RULE_TEXTS] == [1, 1, 1, 1]


def test_cli_adds_arguments_in_one_place():
    # the command table declares every argument and _add_args adds them all:
    # an add_argument call anywhere else is a second way to declare a flag
    path = pathlib.Path(fflv.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        f"{getattr(stmt, 'name', 'module')}:{node.lineno}"
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
    ]
    assert found and all(f.startswith("_add_args:") for f in found), found
