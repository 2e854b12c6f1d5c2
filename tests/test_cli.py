"""End-to-end checks of the JSON command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from prevtrop.cli import main
from prevtrop.monoid import ENUMERATION_LIMIT
from prevtrop.sysfan import system_to_data, system_from_data
from prevtrop.tropembed import POWER_LIMIT

from systems import affine_plane, line_two_origins, projective_line_two_charts


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def system_doc(system):
    doc = {"schema": 1, "kind": "system_of_fans"}
    doc.update(system_to_data(system))
    return doc


def grading_doc(degrees, free_rank=1, torsion=()):
    return {"schema": 1, "kind": "grading", "n": len(degrees),
            "free_rank": free_rank, "torsion": list(torsion),
            "degrees": [list(d) for d in degrees]}


def test_omega_report_on_the_doubled_line(tmp_path, capsys):
    path = write_doc(tmp_path, "sys.json", system_doc(line_two_origins()))
    code, out, _ = run_cli(capsys, "omega", path)
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "report" and report["schema"] == 1
    assert len(report["classes"]) == 3
    assert report["classes"][0]["members"] == ["1", "2"]
    assert [s["dim"] for s in report["trop_strata"]] == [1, 0, 0]
    assert [0, 1] in report["order"] and [0, 2] in report["order"]
    assert [1, 2] not in report["order"]
    # rerunning produces byte-identical output
    again_code, again_out, _ = run_cli(capsys, "omega", path)
    assert again_code == 0 and again_out == out


def test_validate_passes_and_fails_by_exit_code(tmp_path, capsys):
    good = write_doc(tmp_path, "good.json", system_doc(affine_plane()))
    code, out, _ = run_cli(capsys, "validate", good)
    assert code == 0 and json.loads(out)["ok"]

    broken = write_doc(tmp_path, "broken.json",
                       {"schema": 1, "kind": "system_of_fans",
                        "ambient_rank": 1, "indices": ["1", "2"],
                        "fans": {"1,1": [[]], "2,2": [[[1]]],
                                 "1,2": [[[1]]]}})
    code, out, _ = run_cli(capsys, "validate", broken)
    assert code == 2
    report = json.loads(out)
    assert not report["ok"] and report["issues"]


def test_subfan_violation_exits_two_without_traceback(tmp_path, capsys):
    # the cone [1] is glued between charts 1 and 2 but chart 1 lacks it
    path = write_doc(tmp_path, "subfan.json",
                     {"schema": 1, "kind": "system_of_fans",
                      "ambient_rank": 1, "indices": ["1", "2"],
                      "fans": {"1,1": [[]], "2,2": [[[1]]], "1,2": [[[1]]]}})
    for command in ("omega", "separated"):
        code, out, err = run_cli(capsys, command, path)
        assert code == 2 and out == ""
        assert err == ("error: cone Cone[(1,)] is glued between charts 1 "
                       "and 2 but missing from the fan of chart 1\n")
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 2
    assert [i["kind"] for i in json.loads(out)["issues"]] == ["subfan"]


def test_malformed_documents_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert run_cli(capsys, "validate", missing)[0] == 1
    text = tmp_path / "bad.json"
    text.write_text("not json")
    assert run_cli(capsys, "validate", str(text))[0] == 1
    wrong = write_doc(tmp_path, "wrong.json",
                      {"schema": 1, "kind": "trop_point"})
    code, _, err = run_cli(capsys, "validate", wrong)
    assert code == 1 and "expected kind" in err
    unversioned = write_doc(tmp_path, "old.json",
                            {"kind": "grading", "n": 1, "free_rank": 1,
                             "degrees": [[1]]})
    assert run_cli(capsys, "validate", unversioned)[0] == 1


_GRADING = grading_doc([(1,), (1,)])
_SYSTEM = {"schema": 1, "kind": "system_of_fans", "ambient_rank": 1,
           "indices": ["1", "2"],
           "fans": {"1,1": [[[1]]], "2,2": [[[-1]]], "1,2": [[]]}}
_VALUES = {"schema": 1, "kind": "chart_values", "chart": 0,
           "values": {"0": "0", "1": "0"}}
_POLY = {"schema": 1, "kind": "polynomial", "system": _SYSTEM, "chart": 0,
         "terms": [{"exp": [0], "val": "0"}]}
_TROP_POINT = {"schema": 1, "kind": "trop_point", "class": 0, "coords": ["0"]}
# commands that read a second document after the one under test
_COMPANION = {"trop": _SYSTEM, "nonneg": _SYSTEM, "kapranov": _TROP_POINT}


def run_on_doc(tmp_path, capsys, command, doc):
    argv = [command, write_doc(tmp_path, "doc.json", doc)]
    if command in _COMPANION:
        argv.append(write_doc(tmp_path, "other.json", _COMPANION[command]))
    return run_cli(capsys, *argv)


@pytest.mark.parametrize("command, doc, message", [
    ("proj", dict(_GRADING, degrees=5), "degrees must be a JSON array"),
    ("validate", dict(_GRADING, degrees=5), "degrees must be a JSON array"),
    ("proj", dict(_GRADING, degrees=[[1], 1]), "degrees[1] must be a JSON array"),
    ("proj", dict(_GRADING, torsion=5), "torsion must be a JSON array"),
    ("omega", dict(_SYSTEM, fans=[1]), "fans must be a JSON object"),
    ("omega", dict(_SYSTEM, fans={"1,1": [5], "2,2": [], "1,2": []}),
     'fans["1,1"][0] must be a JSON array'),
    ("omega", dict(_SYSTEM, fans={"1,1": 5, "2,2": [], "1,2": []}),
     'fans["1,1"] must be a JSON array'),
    ("omega", dict(_SYSTEM, indices="12"), "indices must be a JSON array"),
    ("trop", dict(_VALUES, values=5), "values must be a JSON object"),
    ("kapranov", dict(_POLY, system=5), "system must be a JSON object"),
    ("kapranov", dict(_POLY, terms=5), "terms must be a JSON array"),
    ("kapranov", dict(_POLY, terms=[5]), "terms[0] must be a JSON object"),
    ("kapranov", dict(_POLY, terms=[{"exp": 5, "val": "0"}]),
     "exp must be a JSON array"),
    ("omega", dict(_SYSTEM, indices=[None], fans={"None,None": [[[1]]]}),
     "indices[0] must be a JSON string"),
    ("omega", dict(_SYSTEM, indices=[["0"]], fans={"['0'],['0']": [[[1]]]}),
     "indices[0] must be a JSON string"),
    ("separated", dict(_SYSTEM, indices=["1", 2]),
     "indices[1] must be a JSON string"),
    ("trop", dict(_VALUES, values={"0": "0", "1": 0.5}),
     'values["1"] must be a JSON string or integer'),
    ("kapranov", dict(_POLY, terms=[{"exp": [0], "val": 1e-07}]),
     'terms[0]["val"] must be a JSON string or integer'),
    # strings that are no exact number
    ("trop", dict(_VALUES, values={"0": "x", "1": "0"}),
     'values["0"] must be an exact number, got \'x\''),
    ("nonneg", dict(_VALUES, values={"0": "0", "1": "1/0"}),
     'values["1"] must be an exact number, got \'1/0\''),
    ("kapranov", dict(_POLY, terms=[{"exp": [0], "val": "1/0"}]),
     'terms[0]["val"] must be an exact number, got \'1/0\''),
    # two keys naming one chart generator, in either point document kind
    ("trop", dict(_VALUES, values={"0": "0", "00": "1", "1": "0"}),
     'values["0"] and values["00"] name the same chart generator 0'),
    ("nonneg", dict(_VALUES, kind="classical_point",
                    values={"0": "1", "1": "1", "01": "2"}),
     'values["1"] and values["01"] name the same chart generator 1'),
    # index strings that int() reads but that are not plain ASCII digits
    ("trop", dict(_VALUES, values={" 1": "0", "0": "0"}),
     "chart generator index ' 1' is not a string of decimal digits"),
    ("nonneg", dict(_VALUES, values={"0": "0", "+0": "0"}),
     "chart generator index '+0' is not a string of decimal digits"),
    ("trop", dict(_VALUES, values={"0_0": "0", "1": "0"}),
     "chart generator index '0_0' is not a string of decimal digits"),
    ("trop", dict(_VALUES, chart="\u0661"),
     "chart class index '\u0661' is not a string of decimal digits"),
    # indices of another JSON type, an integral float included
    ("trop", dict(_VALUES, chart=True),
     "chart class index True is not a JSON integer"),
    ("trop", dict(_VALUES, chart=None),
     "chart class index None is not a JSON integer"),
    ("trop", dict(_VALUES, chart=1.5),
     "chart class index 1.5 is not a JSON integer"),
    ("trop", dict(_VALUES, chart=2.0),
     "chart class index 2.0 is not a JSON integer"),
])
def test_wrong_json_types_exit_one(tmp_path, capsys, command, doc, message):
    code, out, err = run_on_doc(tmp_path, capsys, command, doc)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("doc, message", [
    (dict(_VALUES, values={"0": "0", "7": "0"}),
     "no chart generator with index 7"),
    (dict(_VALUES, chart="9"), "no chart class with index 9"),
])
def test_index_strings_out_of_range_exit_two(tmp_path, capsys, doc, message):
    code, out, err = run_on_doc(tmp_path, capsys, "trop", doc)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("command, doc, field", [
    ("proj", _without(_GRADING, "degrees"), "degrees"),
    ("validate", _without(_GRADING, "free_rank"), "free_rank"),
    ("proj", _without(_GRADING, "n"), "n"),
    ("omega", _without(_SYSTEM, "ambient_rank"), "ambient_rank"),
    ("separated", _without(_SYSTEM, "indices"), "indices"),
    ("validate", _without(_SYSTEM, "fans"), "fans"),
    ("trop", _without(_VALUES, "values"), "values"),
    ("nonneg", _without(_VALUES, "chart"), "chart"),
    ("kapranov", _without(_POLY, "system"), "system"),
    ("kapranov", _without(_POLY, "chart"), "chart"),
    ("kapranov", _without(_POLY, "terms"), "terms"),
    ("kapranov", dict(_POLY, terms=[{"val": "0"}]), "exp"),
])
def test_missing_fields_exit_one(tmp_path, capsys, command, doc, field):
    code, out, err = run_on_doc(tmp_path, capsys, command, doc)
    assert (code, out, err) == (1, "", 'error: missing field "%s"\n' % field)


@pytest.mark.parametrize("doc, message", [
    (_without(_TROP_POINT, "coords"), 'missing field "coords"'),
    (_without(_TROP_POINT, "class"), 'missing field "class"'),
    (dict(_TROP_POINT, coords=5), "coords must be a JSON array"),
    (dict(_TROP_POINT, coords=[True]),
     "coords[0] must be a JSON string or integer"),
    (dict(_TROP_POINT, coords=["1/0"]),
     "coords[0] must be an exact number, got '1/0'"),
])
def test_bad_trop_point_exits_one(tmp_path, capsys, doc, message):
    poly = write_doc(tmp_path, "poly.json", _POLY)
    point = write_doc(tmp_path, "point.json", doc)
    code, out, err = run_cli(capsys, "kapranov", poly, point)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


_LINE_SYSTEM = system_doc(projective_line_two_charts())


# (value of generator 0, diagnostic) pairs of malformed classical points
BAD_CLASSICAL_VALUES = [
    ({"num": 5}, "num must be a JSON array"),
    ({"num": [5]}, "num[0] must be a JSON array [coefficient, power]"),
    ({"num": [["1", 0]], "den": 5}, "den must be a JSON array"),
    ({"den": [["1", 0]]}, 'missing field "num"'),
    ([1], "value must be a JSON object"),
    ({"num": [[1.5, 0]]},
     "num[0] coefficient must be a JSON string or integer"),
    ({"num": [["1", 0], [[1], 1]]},
     "num[1] coefficient must be a JSON string or integer"),
    ({"num": [[True, 0]]},
     "num[0] coefficient must be a JSON string or integer"),
    ({"num": [["1", 0]], "den": [[None, 0]]},
     "den[0] coefficient must be a JSON string or integer"),
    (True, "value must be a JSON object"),
    ("1/0", "value must be an exact number, got '1/0'"),
    ("inf", "value must be an exact number, got 'inf'"),
    ({"num": [["x", 0]]}, "num[0] coefficient must be an exact number, got 'x'"),
    ({"num": [["1", 0]], "den": [["1/0", 0]]},
     "den[0] coefficient must be an exact number, got '1/0'"),
]


@pytest.mark.parametrize("value, message", BAD_CLASSICAL_VALUES)
def test_bad_classical_values_exit_one(tmp_path, capsys, value, message):
    system = write_doc(tmp_path, "sys.json", _LINE_SYSTEM)
    point = write_doc(tmp_path, "cp.json",
                      {"schema": 1, "kind": "classical_point", "chart": 0,
                       "values": {"0": value}})
    for command in ("trop", "nonneg"):
        code, out, err = run_cli(capsys, command, point, system)
        assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("value, code, err", [
    ({"num": [["1", 10 ** 12]]}, 2,
     "error: num[0] power 1000000000000 is over the limit of %d\n"
     % POWER_LIMIT),
    ({"num": [["1", 0]], "den": [["1", 0], ["1", POWER_LIMIT + 1]]}, 2,
     "error: den[1] power %d is over the limit of %d\n"
     % (POWER_LIMIT + 1, POWER_LIMIT)),
    ({"num": [["1", POWER_LIMIT]]}, 0, ""),
])
def test_powers_over_the_limit_exit_two(tmp_path, capsys, value, code, err):
    system = write_doc(tmp_path, "sys.json", system_doc(affine_plane()))
    point = write_doc(tmp_path, "cp.json",
                      {"schema": 1, "kind": "classical_point", "chart": 2,
                       "values": {"0": value, "1": "1"}})
    got, out, stderr = run_cli(capsys, "trop", point, system)
    assert (got, stderr) == (code, err)
    if code == 0:
        assert json.loads(out)["coords"] == ["0", str(POWER_LIMIT)]


def test_gtilde_power_over_the_limit_exits_two(tmp_path, capsys):
    grading = write_doc(tmp_path, "g.json", grading_doc([(), ()], free_rank=0))
    gtilde = write_doc(tmp_path, "gt.json",
                       {"schema": 1, "kind": "polynomial",
                        "terms": [{"exp": [1, 0],
                                   "coeff": {"num": [["1", 10 ** 12]]}}]})
    code, out, err = run_cli(capsys, "refine", grading, "--gtilde", gtilde)
    assert (code, out) == (2, "")
    assert err == ("error: num[0] power 1000000000000 is over the limit of "
                   "%d\n" % POWER_LIMIT)


def test_proj_reproduces_the_doubled_line(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", grading_doc([(1,), (-1,)]))
    code, out, _ = run_cli(capsys, "proj", path)
    assert code == 0
    emitted = system_from_data(json.loads(out))
    fixture = line_two_origins()
    pairs = list(zip(emitted.labels, fixture.labels))
    for a, la in pairs:
        for b, lb in pairs:
            assert emitted.fan(a, b) == fixture.fan(la, lb)
    empty = write_doc(tmp_path, "e.json", grading_doc([(1, 0), (1, 0)],
                                                      free_rank=2))
    code, _, err = run_cli(capsys, "proj", empty)
    assert code == 2 and "relevant" in err


def test_separated_payloads(tmp_path, capsys):
    doubled = write_doc(tmp_path, "d.json", system_doc(line_two_origins()))
    code, out, _ = run_cli(capsys, "separated", doubled)
    report = json.loads(out)
    assert code == 0 and not report["separated"]
    assert "not glued" in report["witness"]["reason"]
    line = write_doc(tmp_path, "l.json",
                     system_doc(projective_line_two_charts()))
    code, out, _ = run_cli(capsys, "separated", line)
    report = json.loads(out)
    assert report["separated"] and report["support_is_full"]
    assert report["witness"] is None


def test_trop_and_nonneg_commands(tmp_path, capsys):
    system = write_doc(tmp_path, "sys.json", system_doc(affine_plane()))
    # generators of the quadrant chart sort as ((0,1), (1,0))
    values = write_doc(tmp_path, "vals.json",
                       {"schema": 1, "kind": "chart_values", "chart": 2,
                        "values": {"0": "3/2", "1": "inf"}})
    code, out, _ = run_cli(capsys, "trop", values, system)
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "trop_point"
    assert report["class"] == 3 and report["coords"] == ["3/2"]

    classical = write_doc(tmp_path, "cp.json",
                          {"schema": 1, "kind": "classical_point",
                           "chart": 2,
                           "values": {"0": {"num": [["1", 1]]},
                                      "1": {"num": [["2", 0], ["1", 1]]}}})
    code, out, _ = run_cli(capsys, "trop", classical, system)
    assert code == 0 and json.loads(out)["coords"] == ["0", "1"]
    code, out, _ = run_cli(capsys, "nonneg", classical, system, "--compare")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "nonneg_point"
    assert report["comparison"]["coords"] == ["0", "1"]

    unbounded = write_doc(tmp_path, "up.json",
                          {"schema": 1, "kind": "classical_point",
                           "chart": 2,
                           "values": {"0": {"num": [["1", 0]],
                                            "den": [["1", 1]]},
                                      "1": "1"}})
    code, _, err = run_cli(capsys, "nonneg", unbounded, system)
    assert code == 2 and "valuation" in err


def _one_chart(tmp_path, rays, chart, count):
    """A one-chart system on the cone over rays, and zero values on the
    count generators of its class chart."""
    system = write_doc(tmp_path, "sys.json",
                       {"schema": 1, "kind": "system_of_fans",
                        "ambient_rank": len(rays[0]), "indices": ["1"],
                        "fans": {"1,1": [rays]}})
    values = write_doc(tmp_path, "vals.json",
                       {"schema": 1, "kind": "chart_values", "chart": chart,
                        "values": {str(i): "0" for i in range(count)}})
    return values, system


def test_trop_on_a_chart_of_huge_multiplicity(tmp_path, capsys):
    # the full cone's chart monoid has three generators, whatever N is
    argv = _one_chart(tmp_path, [[1, 0], [1, 10 ** 6]], 2, 3)
    code, out, err = run_cli(capsys, "trop", *argv)
    assert code == 0 and err == ""
    assert json.loads(out) == {"schema": 1, "kind": "trop_point", "class": 0,
                               "coords": ["0", "0"]}


def test_hilbert_basis_over_the_enumeration_limit_exits_two(tmp_path, capsys):
    argv = _one_chart(tmp_path, [[1, 0, 0], [0, 1, 0], [1, 2, 10 ** 7]], 3, 3)
    code, out, err = run_cli(capsys, "trop", *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert "over the limit of %d" % ENUMERATION_LIMIT in err


def test_kapranov_command(tmp_path, capsys):
    poly = write_doc(tmp_path, "f.json",
                     {"schema": 1, "kind": "polynomial",
                      "system": system_to_data(affine_plane()), "chart": 2,
                      "terms": [{"exp": [1, 0], "val": "0"},
                                {"exp": [0, 1], "val": "0"},
                                {"exp": [0, 0], "val": "0"}]})
    origin = write_doc(tmp_path, "w0.json",
                       {"schema": 1, "kind": "trop_point", "class": 0,
                        "coords": ["0", "0"]})
    code, out, _ = run_cli(capsys, "kapranov", poly, origin)
    report = json.loads(out)
    assert code == 0 and report["member"]
    assert len(report["achieving_terms"]) == 3
    off = write_doc(tmp_path, "w1.json",
                    {"schema": 1, "kind": "trop_point", "class": 0,
                     "coords": ["1", "2"]})
    code, out, _ = run_cli(capsys, "kapranov", poly, off)
    report = json.loads(out)
    assert not report["member"]
    assert report["achieving_terms"] == [{"exp": [0, 0], "value": "0"}]


def test_refine_command_runs_the_fixture(tmp_path, capsys):
    grading = write_doc(tmp_path, "g.json",
                        grading_doc([(), ()], free_rank=0))
    gtilde = write_doc(tmp_path, "gt.json",
                       {"schema": 1, "kind": "polynomial",
                        "terms": [{"exp": [1, 0], "coeff": "1"},
                                  {"exp": [0, 1], "coeff": "1"},
                                  {"exp": [0, 0], "coeff": "1"}]})
    points = []
    for name, constant in [("p.json", "-1"), ("q.json", "1")]:
        points.append(write_doc(
            tmp_path, name,
            {"schema": 1, "kind": "classical_point", "chart": 2,
             "values": {"0": {"num": [["-1", 0], [constant, 1]]},
                        "1": {"num": [["1", 1]]}}}))
    code, out, _ = run_cli(capsys, "refine", grading, "--gtilde", gtilde,
                           "--point", points[0], "--point", points[1])
    assert code == 0
    report = json.loads(out)
    assert report["x_degree"] == [] and report["clearing"] == [0, 0]
    assert report["grading"]["n"] == 3
    first, second = report["points"]
    assert first["refined"] != second["refined"]
    assert first["projection"] == second["projection"]
    assert first["projection_matches_direct"]
    assert second["projection_matches_direct"]
    assert second["refined"]["coords"] == ["1", "0", "1"]


@pytest.mark.parametrize("gtilde, message", [
    ({}, 'missing field "terms"'),
    ({"terms": [5]}, "terms[0] must be a JSON object"),
    ({"terms": [{"coeff": "1"}]}, 'missing field "exp"'),
    ({"terms": [{"exp": [1, 0]}]}, 'missing field "coeff"'),
    ({"terms": [{"exp": [1, 0], "coeff": {"num": 5}}]},
     "num must be a JSON array"),
])
def test_bad_gtilde_terms_exit_one(tmp_path, capsys, gtilde, message):
    grading = write_doc(tmp_path, "g.json", grading_doc([(), ()], free_rank=0))
    path = write_doc(tmp_path, "gt.json",
                     dict(gtilde, schema=1, kind="polynomial"))
    code, out, err = run_cli(capsys, "refine", grading, "--gtilde", path)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("clearing, piece", [
    ("1.5", "1.5"), ("", ""), ("1,,0", ""), ("1,x", "x")])
def test_bad_clearing_exits_two(tmp_path, capsys, clearing, piece):
    grading = write_doc(tmp_path, "g.json", grading_doc([(), ()], free_rank=0))
    gtilde = write_doc(tmp_path, "gt.json",
                       {"schema": 1, "kind": "polynomial",
                        "terms": [{"exp": [1, 0], "coeff": "1"}]})
    code, out, err = run_cli(capsys, "refine", grading, "--gtilde", gtilde,
                             "--clearing", clearing)
    assert (code, out) == (2, "")
    assert err == "error: --clearing entry %r is not an integer\n" % piece


def test_clearing_of_wrong_length_exits_two(tmp_path, capsys):
    grading = write_doc(tmp_path, "g.json", grading_doc([(), ()], free_rank=0))
    gtilde = write_doc(tmp_path, "gt.json",
                       {"schema": 1, "kind": "polynomial",
                        "terms": [{"exp": [1, 0], "coeff": "1"}]})
    code, out, err = run_cli(capsys, "refine", grading, "--gtilde", gtilde,
                             "--clearing", "1,0,0")
    assert (code, out) == (2, "")
    assert err == ("error: --clearing has 3 entries but the grading has 2 "
                   "variables\n")


def test_refine_with_a_deep_chart_monomial(tmp_path, capsys):
    # the chart monomial of exponent (1500, 0) is 1500 times one Hilbert
    # basis element; decompose takes it in one step
    grading = write_doc(tmp_path, "g.json", grading_doc([(), ()], free_rank=0))
    gtilde = write_doc(tmp_path, "gt.json",
                       {"schema": 1, "kind": "polynomial",
                        "terms": [{"exp": [1500, 0], "coeff": "1"},
                                  {"exp": [0, 1], "coeff": "1"}]})
    point = write_doc(tmp_path, "p.json",
                      {"schema": 1, "kind": "classical_point", "chart": 2,
                       "values": {"0": "1", "1": {"num": [["1", 1]]}}})
    code, out, err = run_cli(capsys, "refine", grading, "--gtilde", gtilde,
                             "--point", point)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["kind"] == "report" and len(report["points"]) == 1


def test_product_command(tmp_path, capsys):
    doubled = write_doc(tmp_path, "d.json", system_doc(line_two_origins()))
    code, out, _ = run_cli(capsys, "product", doubled, doubled)
    assert code == 0
    combined = system_from_data(json.loads(out))
    assert combined.ambient_rank == 2
    assert len(combined.labels) == 4


def _fresh_main(calls):
    """Exit codes, stderr lines and sys.modules of a fresh interpreter that
    runs cli.main on each argv in calls; this one has imported every module
    already."""
    script = ("import json, sys\n"
              "from prevtrop.cli import main\n"
              "codes = [main(argv) for argv in %r]\n"
              "print(json.dumps([codes, sorted(sys.modules)]), file=sys.stderr)"
              % (calls,))
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=120)
    lines = child.stderr.splitlines()
    codes, modules = json.loads(lines[-1])
    return codes, lines[:-1], set(modules)


def test_commands_without_classical_points_do_not_load_tropembed(tmp_path):
    # each command in its own interpreter, so its modules are its own
    doubled = write_doc(tmp_path, "d.json", system_doc(line_two_origins()))
    grading = write_doc(tmp_path, "g.json", grading_doc([(1,), (1,)]))
    plane_data = system_to_data(affine_plane())
    plane = write_doc(tmp_path, "p.json", system_doc(affine_plane()))
    values = write_doc(tmp_path, "v.json",
                       {"schema": 1, "kind": "chart_values", "chart": 2,
                        "values": {"0": "3/2", "1": "inf"}})
    classical = write_doc(tmp_path, "cp.json",
                          {"schema": 1, "kind": "classical_point", "chart": 2,
                           "values": {"0": {"num": [["1", 1]]}, "1": "2"}})
    poly = write_doc(tmp_path, "f.json",
                     {"schema": 1, "kind": "polynomial", "system": plane_data,
                      "chart": 2, "terms": [{"exp": [1, 0], "val": "0"},
                                            {"exp": [0, 0], "val": "0"}]})
    origin = write_doc(tmp_path, "w.json", {"schema": 1, "kind": "trop_point",
                                            "class": 0, "coords": ["0", "0"]})
    flat = write_doc(tmp_path, "flat.json", grading_doc([(), ()], free_rank=0))
    gtilde = write_doc(tmp_path, "gt.json",
                       {"schema": 1, "kind": "polynomial",
                        "terms": [{"exp": [1, 0], "coeff": "1"},
                                  {"exp": [0, 0], "coeff": "1"}]})
    calls = {"validate": [["validate", doubled], ["validate", grading]],
             "separated": [["separated", doubled]],
             "proj": [["proj", grading]],
             "product": [["product", doubled, doubled]],
             "omega": [["omega", doubled]],
             "trop-values": [["trop", values, plane]],
             "nonneg-values": [["nonneg", values, plane, "--compare"]],
             "trop": [["trop", classical, plane]],
             "nonneg": [["nonneg", classical, plane]],
             "kapranov": [["kapranov", poly, origin]],
             "refine": [["refine", flat, "--gtilde", gtilde,
                         "--point", classical]]}
    for command, argvs in calls.items():
        codes, _, modules = _fresh_main(argvs)
        assert codes == [0] * len(argvs), command
        assert "prevtrop.sysfan" in modules, command
        assert "prevtrop.morphism" not in modules, command
        if command in ("validate", "separated", "proj", "product", "omega"):
            assert not modules & {"fractions", "decimal", "prevtrop.extreal",
                                  "prevtrop.troppre", "prevtrop.monoid",
                                  "prevtrop.smith"}, command
        if command not in ("trop", "nonneg", "kapranov", "refine"):
            assert "prevtrop.tropembed" not in modules, command
        if command.startswith(("trop", "nonneg", "kapranov")):
            assert "prevtrop.multiproj" not in modules, command
        if command == "proj":
            assert "prevtrop.multiproj" in modules


def test_malformed_documents_exit_one_without_loading_the_geometry(tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    schema = write_doc(tmp_path, "s.json", {"schema": 2, "kind": "grading"})
    kind = write_doc(tmp_path, "k.json", {"schema": 1, "kind": "report"})
    calls = [["validate", str(garbage)], ["proj", str(tmp_path / "missing.json")],
             ["omega", schema], ["proj", kind]]
    codes, errors, modules = _fresh_main(calls)
    assert codes == [1] * len(calls)
    assert all(line.startswith("error: ") for line in errors)
    for name in ("prevtrop.sysfan", "prevtrop.cone", "prevtrop.exactla"):
        assert name not in modules


def test_a_closed_standard_output_exits_one_without_traceback(tmp_path, capsys):
    # omega on P^5 writes about 200KB, more than a pipe holds, so the child
    # is still writing when the reader closes its end
    grading = write_doc(tmp_path, "g.json", grading_doc([(1,)] * 6))
    code, out, _ = run_cli(capsys, "proj", grading)
    assert code == 0
    system = tmp_path / "p5.json"
    system.write_text(out)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.Popen([sys.executable, "-m", "prevtrop.cli", "omega",
                              str(system)], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.read(64)
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=120) == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1


def test_fractional_ray_entries_exit_two(tmp_path, capsys):
    doc = {"schema": 1, "kind": "system_of_fans", "ambient_rank": 2,
           "indices": ["1"], "fans": {"1,1": [[[1, 0.5]]]}}
    code, out, err = run_cli(capsys, "validate",
                             write_doc(tmp_path, "half.json", doc))
    assert code == 2 and out == ""
    assert err == "error: vector entry 0.5 is not an integer\n"


def test_fractional_degree_exits_two(tmp_path, capsys):
    doc = grading_doc([(1,), (1,)])
    doc["degrees"] = [[1.5], [1]]
    code, out, err = run_cli(capsys, "proj", write_doc(tmp_path, "g.json", doc))
    assert code == 2 and out == ""
    assert err == "error: vector entry 1.5 is not an integer\n"


def test_fractional_ambient_rank_exits_two(tmp_path, capsys):
    doc = system_doc(affine_plane())
    doc["ambient_rank"] = 2.5
    code, out, err = run_cli(capsys, "validate",
                             write_doc(tmp_path, "s.json", doc))
    assert code == 2 and out == ""
    assert err == "error: vector entry 2.5 is not an integer\n"


@pytest.mark.parametrize("command", ["validate", "omega", "separated"])
@pytest.mark.parametrize("cones", [[], [[]]])
def test_negative_ambient_rank_exits_two(tmp_path, capsys, command, cones):
    doc = {"schema": 1, "kind": "system_of_fans", "ambient_rank": -1,
           "indices": ["1"], "fans": {"1,1": cones}}
    code, out, err = run_cli(capsys, command, write_doc(tmp_path, "s.json", doc))
    assert (code, out, err) == (2, "", "error: ambient_rank -1 is negative\n")


def test_a_system_without_cones_does_not_have_full_support(tmp_path, capsys):
    doc = {"schema": 1, "kind": "system_of_fans", "ambient_rank": 2,
           "indices": ["1"], "fans": {"1,1": []}}
    code, out, _ = run_cli(capsys, "separated", write_doc(tmp_path, "s.json", doc))
    report = json.loads(out)
    assert code == 0 and report["separated"]
    assert report["support_is_full"] is False
