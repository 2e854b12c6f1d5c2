"""Checks on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "prevtrop"


def test_library_has_no_assert_statements():
    # assert vanishes under python -O; internal invariants raise real
    # exceptions instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) > 5
    assert found == []


def _int_calls(node, where):
    """(function name, line) of every int(...) call under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "int"):
        yield where, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _int_calls(child, where)


def test_library_applies_int_only_to_strings():
    # int() truncates a float or Fraction silently; input entries go through
    # exactla._integer_entry instead, and only these parse decimal strings
    parsers = {("troppre.py", "_index"), ("cli.py", "cmd_refine")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d in %s" % (path.name, line, name)
                  for name, line in _int_calls(tree, None)
                  if (path.name, name) not in parsers]
    assert found == []


def test_library_does_not_import_dataclasses():
    # importing dataclasses pulls in inspect, ast, dis and tokenize, a large
    # share of a command line call's start-up; value classes are slotted
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
