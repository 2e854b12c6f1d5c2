"""Checks on the library source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "prevtrop"


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


def test_the_command_line_decodes_no_payload():
    # each document kind has one decoder, in the module that owns its type;
    # the command line reads envelopes, dispatches and emits
    decoders = {"_json_field", "_json_objects", "_json_typed", "_json_rows",
                "_json_number", "chart_entries_from_data",
                "valued_scalar_from_data", "class_from_data"}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert "DocumentError" in names
    assert sorted(names & decoders) == []


def test_the_benchmark_tracer_wraps_the_lazily_loaded_names():
    # perfbench's tracer reads every spanned name from its module's __dict__
    # and replaces each binding of it; the names that cone and exactla load
    # on first use must be bound there once the library is imported the way
    # the benchmark imports it, and calls through them must be counted
    script = (
        "import json, sys\n"
        "from prevtrop import cli, cone, multiproj, sysfan, tropembed, troppre\n"
        "from prevtrop import exactla, monoid\n"
        "import tracer\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "cone.hilbert_basis(cone.Cone.from_rays([(1, 0), (1, 2)], 2))\n"
        "cone.Cone.from_rays([(1, 1)], 2).span_quotient()\n"
        "t.uninstall()\n"
        "print(json.dumps([t.calls, cone.hilbert_basis is monoid.hilbert_basis,\n"
        "                  exactla.smith_normal_form.__module__]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=120)
    calls, restored, smith_home = json.loads(child.stdout)
    assert calls["cone.hilbert_basis"] == 1
    assert calls["cone.lattice_quotient"] == 1
    assert calls["exactla.smith_normal_form"] >= 1
    assert restored and smith_home == "prevtrop.smith"
