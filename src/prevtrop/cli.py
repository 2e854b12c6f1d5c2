"""JSON command line front end.

Every input and output is a JSON document carrying "schema": 1 and a
"kind" tag; payloads follow the serialisation helpers of the individual
modules.  Reports go to standard output with sorted keys, diagnostics to
standard error.  Exit codes: 0 for success, 1 for malformed input, 2 for
semantic violations.

A call builds the parser of its own subcommand only and imports the layers
it uses after reading its first document (the README tabulates them), so an
unreadable or malformed first document is reported without the geometry.
"""

import argparse
import json
import sys

from .jsondoc import DocumentError

SCHEMA = 1


def _read_document(path, kinds):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise DocumentError("cannot read %s: %s" % (path, err)) from None
    except json.JSONDecodeError as err:
        raise DocumentError("%s is not JSON: %s" % (path, err)) from None
    if not isinstance(data, dict):
        raise DocumentError("%s: top level must be an object" % path)
    if data.get("schema") != SCHEMA:
        raise DocumentError("%s: expected \"schema\": %d" % (path, SCHEMA))
    if data.get("kind") not in kinds:
        raise DocumentError("%s: expected kind %s, found %r"
                            % (path, " or ".join(sorted(kinds)),
                               data.get("kind")))
    return data


def _emit(document):
    json.dump(document, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def _report(command, **payload):
    document = {"schema": SCHEMA, "kind": "report", "command": command}
    document.update(payload)
    return document


def _load_system(path):
    data = _read_document(path, {"system_of_fans"})
    from .sysfan import system_from_data
    return system_from_data(data)


def _classical_from_data(system, data):
    """Decode {"chart": id, "values": {generator index: scalar}}."""
    from .tropembed import classical_point, valued_scalar_from_data
    from .troppre import chart_entries_from_data
    chart, entries = chart_entries_from_data(system, data)
    return classical_point(system, chart,
                           {g: valued_scalar_from_data(payload)
                            for g, payload in entries})


def _point_for(system, data):
    """A classical or canonicalised tropical point from a point document."""
    from .troppre import chart_values_from_data, point_from_chart_values
    if data["kind"] == "classical_point":
        from .tropembed import trop_point as classical_trop
        return classical_trop(_classical_from_data(system, data))
    chart, values = chart_values_from_data(system, data)
    return point_from_chart_values(system, chart, values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    data = _read_document(args.file, {"system_of_fans", "grading"})
    from .sysfan import system_from_data, validate_system
    if data["kind"] == "grading":
        from .multiproj import grading_from_data
        grading = grading_from_data(data)
        _emit(_report("validate", ok=True, issues=[],
                      variables=grading.n,
                      degrees=[list(d) for d in grading.degrees]))
        return 0
    system = system_from_data(data)
    issues = validate_system(system)
    _emit(_report("validate", ok=not issues,
                  issues=[{"kind": issue.kind,
                           "where": [str(w) for w in issue.where],
                           "detail": issue.detail} for issue in issues]))
    return 0 if not issues else 2


def cmd_omega(args):
    system = _load_system(args.file)
    from .troppre import nonneg_strata, strata
    omega = system.omega()
    classes = [{"id": cls.class_id,
                "rays": [list(r) for r in cls.cone.rays],
                "dim": cls.cone.dim,
                "members": list(cls.members)} for cls in omega.classes]
    trop = [{"class": cls.class_id, "dim": dim}
            for cls, dim in strata(system)]
    nonneg = [{"class": cls.class_id,
               "face": [list(r) for r in face.rays],
               "dim": dim}
              for cls, face, dim in nonneg_strata(system)]
    _emit(_report("omega", classes=classes,
                  order=sorted([a, b] for a, b in omega.order_pairs()),
                  trop_strata=trop, nonneg_strata=nonneg))
    return 0


def cmd_separated(args):
    system = _load_system(args.file)
    from .sysfan import is_separated, support_is_full
    ok, witness = is_separated(system)
    payload = {"separated": ok}
    if ok:
        payload["support_is_full"] = support_is_full(system)
        payload["witness"] = None
    else:
        a, b, meet, reason = witness
        payload["witness"] = {"class_a": a.class_id, "class_b": b.class_id,
                              "intersection": [list(r) for r in meet.rays],
                              "reason": reason}
    _emit(_report("separated", **payload))
    return 0


def cmd_proj(args):
    data = _read_document(args.file, {"grading"})
    from .multiproj import grading_from_data, proj_system_of_fans
    from .sysfan import system_to_data
    grading = grading_from_data(data)
    proj = proj_system_of_fans(grading)
    document = {"schema": SCHEMA, "kind": "system_of_fans"}
    document.update(system_to_data(proj.system))
    document["charts"] = {label: sorted(subset)
                          for label, subset in proj.chart_subsets.items()}
    _emit(document)
    return 0


def cmd_trop(args):
    system = _load_system(args.system)
    data = _read_document(args.point, {"classical_point", "chart_values"})
    from .troppre import trop_point_to_data
    point = _point_for(system, data)
    document = {"schema": SCHEMA, "kind": "trop_point"}
    document.update(trop_point_to_data(point))
    _emit(document)
    return 0


def cmd_nonneg(args):
    system = _load_system(args.system)
    data = _read_document(args.point, {"classical_point", "chart_values"})
    from .troppre import (chart_values_from_data, compare_to_trop,
                          nonneg_point_from_chart_values,
                          nonneg_point_to_data, trop_point_to_data)
    if data["kind"] == "classical_point":
        from .tropembed import nonneg_trop_point
        point = nonneg_trop_point(_classical_from_data(system, data))
    else:
        chart, values = chart_values_from_data(system, data)
        point = nonneg_point_from_chart_values(system, chart, values)
    document = {"schema": SCHEMA, "kind": "nonneg_point"}
    document.update(nonneg_point_to_data(point))
    if args.compare:
        document["comparison"] = trop_point_to_data(
            compare_to_trop(system, point))
    _emit(document)
    return 0


def cmd_kapranov(args):
    data = _read_document(args.poly, {"polynomial"})
    from .extreal import _json_number, format_extended
    from .jsondoc import _json_field, _json_objects
    from .sysfan import system_from_data
    from .tropembed import kapranov_membership, kapranov_minimizers
    from .troppre import chart_polynomial, class_from_data, trop_point_from_data
    system = system_from_data(_json_field(data, "system", dict))
    chart = class_from_data(system, _json_field(data, "chart"))
    terms = _json_objects(_json_field(data, "terms"), "terms")
    poly = chart_polynomial(system, chart, [
        (tuple(_json_field(term, "exp", list)),
         _json_number(_json_field(term, "val"), 'terms[%d]["val"]' % k))
        for k, term in enumerate(terms)])
    point = trop_point_from_data(
        system, _read_document(args.point, {"trop_point"}))
    achieving = [{"exp": list(s), "value": format_extended(v)}
                 for s, v in kapranov_minimizers(poly, point)]
    _emit(_report("kapranov",
                  member=kapranov_membership(poly, point),
                  achieving_terms=achieving))
    return 0


def cmd_refine(args):
    data = _read_document(args.grading, {"grading"})
    from .multiproj import grading_from_data, grading_to_data
    from .tropembed import (forget_refinement, hypersurface_from_data,
                            refine_embedding, refined_trop)
    from .tropembed import trop_point as classical_trop
    from .troppre import trop_point_to_data
    grading = grading_from_data(data)
    gtilde = hypersurface_from_data(
        grading, _read_document(args.gtilde, {"polynomial"}))
    clearing = None
    if args.clearing is not None:
        clearing = []
        for piece in args.clearing.split(","):
            try:
                clearing.append(int(piece))
            except ValueError:
                raise ValueError("--clearing entry %r is not an integer"
                                 % piece) from None
        if len(clearing) != grading.n:
            raise ValueError("--clearing has %d entries but the grading has %d "
                             "variables" % (len(clearing), grading.n))
    refinement = refine_embedding(grading, gtilde.terms, clearing)
    points = []
    for path in args.point:
        data = _read_document(path, {"classical_point"})
        point = _classical_from_data(refinement.old_proj.system, data)
        refined = refined_trop(refinement, point)
        projected = forget_refinement(refinement, refined)
        points.append({
            "refined": trop_point_to_data(refined),
            "projection": trop_point_to_data(projected),
            "projection_matches_direct":
                projected == classical_trop(point)})
    _emit(_report("refine",
                  grading=grading_to_data(refinement.new_grading),
                  x_degree=list(refinement.x_degree),
                  clearing=list(refinement.clearing),
                  points=points))
    return 0


def cmd_product(args):
    left = _load_system(args.left)
    right = _load_system(args.right)
    from .sysfan import product, system_to_data
    combined = product(left, right, separator=args.separator)
    document = {"schema": SCHEMA, "kind": "system_of_fans"}
    document.update(system_to_data(combined))
    _emit(document)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# subcommand -> (handler, help, arguments); an argument is a positional
# name or a (flag, add_argument keywords) pair
COMMANDS = {
    "validate": (cmd_validate, "check a system or grading document", ["file"]),
    "omega": (cmd_omega, "chart classes, order, and strata", ["file"]),
    "separated": (cmd_separated,
                  "separation check with witness or support test", ["file"]),
    "proj": (cmd_proj, "chart system of a multigrading", ["file"]),
    "trop": (cmd_trop, "tropicalize a point document", ["point", "system"]),
    "nonneg": (cmd_nonneg, "nonnegative tropicalization", [
        "point", "system",
        ("--compare", {"action": "store_true", "help":
                       "also emit the image under the comparison map"})]),
    "kapranov": (cmd_kapranov, "tropical hypersurface membership",
                 ["poly", "point"]),
    "refine": (cmd_refine, "adjoin a coordinate for a homogeneous polynomial", [
        "grading",
        ("--gtilde", {"required": True,
                      "help": "polynomial document for the new coordinate"}),
        ("--clearing", {"help": "comma separated exponents of the clearing "
                                "monomial"}),
        ("--point", {"action": "append", "default": [], "help":
                     "classical point document to push through (repeatable)"})]),
    "product": (cmd_product, "product of two systems of fans",
                ["left", "right", ("--separator", {"default": "|"})]),
}


def build_parser(commands=COMMANDS):
    """The argument parser, with subparsers for the named commands only."""
    parser = argparse.ArgumentParser(
        prog="prevtrop",
        description="Tropicalized toric prevarieties: systems of fans, "
                    "chart posets, valued points, and refinements.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        func, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for argument in arguments:
            flag, options = (argument, {}) if isinstance(argument, str) else argument
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named command's subparser is built; anything else, and a stray
    # argument whose error shows the top-level usage, gets the full parser
    named = argv[:1] if argv[:1] and argv[0] in COMMANDS else COMMANDS
    args, extra = build_parser(named).parse_known_args(argv)
    if extra:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except (ValueError, KeyError, ZeroDivisionError) as err:
        message = err.args[0] if err.args else err
        print("error: %s" % (message,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
