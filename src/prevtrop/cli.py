"""JSON command line front end.

Every input and output is a JSON document carrying "schema": 1 and a
"kind" tag.  This module reads that envelope, dispatches on the kind and
emits; each payload is decoded and encoded by the module that owns its type.
Reports go to standard output with sorted keys, diagnostics to standard
error.  Exit codes: 0 for success, 1 for malformed input or a closed
standard output, 2 for semantic violations.

A call builds the parser of its own subcommand only and imports the layers
it uses after reading its first document (the README tabulates them), so an
unreadable or malformed first document is reported without the geometry.
"""

import argparse
import json
import os
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


def _emit(kind, payload):
    """Write one document of the given kind to standard output."""
    document = {"schema": SCHEMA, "kind": kind}
    document.update(payload)
    json.dump(document, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return 0


def _report(command, **payload):
    return _emit("report", dict(payload, command=command))


def _load_system(path):
    data = _read_document(path, {"system_of_fans"})
    from .sysfan import system_from_data
    return system_from_data(data)


def _point_for(system, data, nonneg):
    """The canonicalised tropical point, or the nonnegative one, of a
    classical_point or chart_values document."""
    if data["kind"] == "classical_point":
        from . import tropembed
        point = tropembed.classical_point_from_data(system, data)
        return (tropembed.nonneg_trop_point if nonneg
                else tropembed.trop_point)(point)
    from . import troppre
    chart, values = troppre.chart_values_from_data(system, data)
    return (troppre.nonneg_point_from_chart_values if nonneg
            else troppre.point_from_chart_values)(system, chart, values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args):
    data = _read_document(args.file, {"system_of_fans", "grading"})
    from .sysfan import system_from_data, validate_system
    if data["kind"] == "grading":
        from .multiproj import grading_from_data
        grading = grading_from_data(data)
        return _report("validate", ok=True, issues=[], variables=grading.n,
                       degrees=[list(d) for d in grading.degrees])
    system = system_from_data(data)
    issues = validate_system(system)
    _report("validate", ok=not issues,
            issues=[{"kind": issue.kind,
                     "where": [str(w) for w in issue.where],
                     "detail": issue.detail} for issue in issues])
    return 0 if not issues else 2


def cmd_omega(args):
    system = _load_system(args.file)
    from .sysfan import nonneg_strata, strata
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
    return _report("omega", classes=classes,
                   order=sorted([a, b] for a, b in omega.order_pairs()),
                   trop_strata=trop, nonneg_strata=nonneg)


def cmd_separated(args):
    system = _load_system(args.file)
    from .sysfan import is_separated, support_is_full
    ok, witness = is_separated(system)
    if ok:
        return _report("separated", separated=True, witness=None,
                       support_is_full=support_is_full(system))
    a, b, meet, reason = witness
    return _report("separated", separated=False, witness={
        "class_a": a.class_id, "class_b": b.class_id,
        "intersection": [list(r) for r in meet.rays], "reason": reason})


def cmd_proj(args):
    data = _read_document(args.file, {"grading"})
    from .multiproj import grading_from_data, proj_system_of_fans
    from .sysfan import system_to_data
    proj = proj_system_of_fans(grading_from_data(data))
    payload = system_to_data(proj.system)
    payload["charts"] = {label: sorted(subset)
                         for label, subset in proj.chart_subsets.items()}
    return _emit("system_of_fans", payload)


def cmd_point(args):
    """trop and nonneg: tropicalize a classical_point or chart_values
    document, to a trop_point or to a nonneg_point."""
    system = _load_system(args.system)
    data = _read_document(args.point, {"classical_point", "chart_values"})
    from .troppre import compare_to_trop, nonneg_point_to_data, trop_point_to_data
    nonneg = args.command == "nonneg"
    point = _point_for(system, data, nonneg)
    if not nonneg:
        return _emit("trop_point", trop_point_to_data(point))
    payload = nonneg_point_to_data(point)
    if args.compare:
        payload["comparison"] = trop_point_to_data(
            compare_to_trop(system, point))
    return _emit("nonneg_point", payload)


def cmd_kapranov(args):
    data = _read_document(args.poly, {"polynomial"})
    from .extreal import format_extended
    from .tropembed import kapranov_membership, kapranov_minimizers
    from .troppre import chart_polynomial_from_data, trop_point_from_data
    system, poly = chart_polynomial_from_data(data)
    point = trop_point_from_data(
        system, _read_document(args.point, {"trop_point"}))
    achieving = [{"exp": list(s), "value": format_extended(v)}
                 for s, v in kapranov_minimizers(poly, point)]
    return _report("kapranov", member=kapranov_membership(poly, point),
                   achieving_terms=achieving)


def cmd_refine(args):
    data = _read_document(args.grading, {"grading"})
    from .multiproj import grading_from_data, grading_to_data
    from .tropembed import (classical_point_from_data, forget_refinement,
                            hypersurface_from_data, refine_embedding,
                            refined_trop, trop_point)
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
        point = classical_point_from_data(
            refinement.old_proj.system,
            _read_document(path, {"classical_point"}))
        refined = refined_trop(refinement, point)
        projected = forget_refinement(refinement, refined)
        points.append({
            "refined": trop_point_to_data(refined),
            "projection": trop_point_to_data(projected),
            "projection_matches_direct":
                projected == trop_point(point)})
    return _report("refine", grading=grading_to_data(refinement.new_grading),
                   x_degree=list(refinement.x_degree),
                   clearing=list(refinement.clearing), points=points)


def cmd_product(args):
    left = _load_system(args.left)
    right = _load_system(args.right)
    from .sysfan import product, system_to_data
    return _emit("system_of_fans",
                 system_to_data(product(left, right, separator=args.separator)))


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
    "trop": (cmd_point, "tropicalize a point document", ["point", "system"]),
    "nonneg": (cmd_point, "nonnegative tropicalization", [
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away: point stdout at devnull so that the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DocumentError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except (ValueError, KeyError, ZeroDivisionError) as err:
        message = err.args[0] if err.args else err
        print("error: %s" % (message,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
