"""Ladder benchmark: the library's constructions measured rung by rung, in
seven modes that share one runner.

Every mode runs RUNS rounds, and a round runs every rung once, each in a
fresh interpreter.  A rung's result is its first run with every number
(booleans aside, nested stage dicts included) replaced by its median over
the rounds; counters are deterministic, so their median is their value.
Given --src and --label twice, paired by position, each round runs every
rung on both checkouts, the one that runs first alternating from round to
round, so a parent and its change are measured in one invocation and drift
of the host falls on both alike.  Times are raw perf_counter seconds,
rounded to 1us.

Proj rungs (the default) run proj -> omega -> validate -> separated ->
support on P^4 to P^8 and on a product, and record per stage the wall and
Cone.intersect and kernel_lattice calls; double description sweeps
(_halfspace_generators calls); new cones built (Cone._build calls), split
into simplicial builds, one independence test that runs no sweep and leaves
the cone unbuilt, and swept builds, swept meets included; lazy_faces, the
faces of simplicial cones that faces() registers with no _build call; and
lazy_fills, the first reads (Cone._fill calls) of any simplicial cone's
inequalities.  Two facts of the library split these plain call counts: only
_build sweeps, twice per swept build, so swept builds are half the sweeps;
and every Cone is made by _build, by dual() or as a lazy face, so lazy faces
are Cone.__init__ calls less those two.  A stage with odd sweeps or negative
lazy faces raises RuntimeError.
After the pipeline, outside its total, it times omega().order_pairs(), the
class order that the omega command prints, and counts its pairs.
--hilbert rungs are the cones on (1,0,0), (0,1,0), (1,2,N) for N = 5, 10,
20, 40, 80, on e1, e2, e3, (1,2,3,m) for m = 5, 10, 20, and on the rank-2
cones (1,0), (1,N) for N = 10^4, 10^6, 10^9 and (1,0), (999,1000), whose
dual monoid has 1,001 generators; each times hilbert_basis and the basis's
relations() (relations_s) and counts the generators.
--scalars rungs are valuation scales 1, 2, 4, 8: each builds P(1,3,7) and
times coordinate_point + trop_point over every face of its last chart, at
torus coordinates of valuations (scale, -2 scale), counting the
coefficients of the generator values (sum of len(num) + len(den)) and the
kernel_lattice calls made in that loop and in an untimed repeat.
--refine rungs are P^2, P(1,3,7) and P^1 x P^1 graded by Z^2: each builds
its Proj, two tropically equal points on one chart and a function telling
them apart, times separation_witness -> refined_trop x2 ->
forget_refinement x2 and counts the calls of solve_rational,
hermite_normal_form, proj_system_of_fans, relevant_subsets (proj_builds,
one per chart poset built), ClassicalChartPoint.eval, ValuedScalar.__pow__,
__mul__ with __rmul__, ProjSystem.character and AffineSemigroup.decompose.
It then drops that refinement and times the same calls on the same pair
again (warm_s, with warm_proj_builds, warm_character and warm_decompose).
--separated rungs are the Z-gradings with p weights +1 and q weights -1 for
(p, q) = (4, 4), (5, 5) and (6, 5), none of them separated: each builds the
Proj and its chart classes, then times is_separated and counts its
Cone.intersect calls, the chart classes and the maximal classes.
--startup rungs are a bare `python -c pass` and one `python -m prevtrop.cli
<command>` per subcommand on small documents (P^1, the affine plane and
points on it): each times one such process in milliseconds and, for a
subcommand, records the prevtrop modules one call loads and their total
source lines.
--cli rungs are P^4 to P^max-n and the --separated rungs' gradings: each
runs proj on its grading document, then omega, validate and separated on the
system proj wrote, each one python -m prevtrop.cli process with its stdout
in a file, and records each call's wall (s) and stdout size (bytes).
Run from the root of a checkout:

    python3 tools/ladder.py --label change --max-n 6
    python3 tools/ladder.py --label parent --src OTHER/src --label change \\
        --src src --hilbert

Each rung prints one line: its label, its name and its result as JSON.
Results are merged into BENCH_ladder.json under each label, in the key that
MODES gives their mode ("rungs" for proj rungs).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRODUCT = "doubled line x P1"
HILBERT_RUNGS = dict(
    [("N=%d" % n, [(1, 0, 0), (0, 1, 0), (1, 2, n)]) for n in (5, 10, 20, 40, 80)]
    + [("m=%d" % m, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, m)])
       for m in (5, 10, 20)]
    + [("rank2 N=10^%d" % e, [(1, 0), (1, 10 ** e)]) for e in (4, 6, 9)]
    + [("rank2 (999,1000)", [(1, 0), (999, 1000)])])
SCALAR_RUNGS = {"scale=%d" % k: k for k in (1, 2, 4, 8)}
# degrees, the chart's variable subset, and two degree-zero exponents whose
# characters are the chart's two Hilbert-basis generators
REFINE_RUNGS = {
    "P2": ([(1,), (1,), (1,)], {1}, [(-1, 1, 0), (-1, 0, 1)]),
    "P(1,3,7)": ([(1,), (3,), (7,)], {1}, [(-3, 1, 0), (-7, 0, 1)]),
    "P1xP1 (Z^2)": ([(1, 0), (1, 0), (0, 1), (0, 1)], {1, 3},
                    [(-1, 1, 0, 0), (0, 0, -1, 1)]),
}
SEPARATED_RUNGS = {"(%d,%d)" % pq: pq for pq in [(4, 4), (5, 5), (6, 5)]}
STARTUP_RUNGS = ("python -c pass", "validate", "omega", "separated", "proj",
                 "trop", "nonneg", "kapranov", "refine", "product")
RUNS = 15


def _timed(step):
    """step() and its wall in seconds, rounded to 1us."""
    start = time.perf_counter()
    value = step()
    return value, round(time.perf_counter() - start, 6)


def _count(counts, owner, attr, counter):
    """Replace owner.attr, a function, method or classmethod, by a wrapper
    that adds one to counts[counter] (from 0) per call; a function is also
    rebound under every name a prevtrop module binds it to."""
    counts.setdefault(counter, 0)
    raw = owner.__dict__[attr]
    call = raw.__func__ if isinstance(raw, classmethod) else raw

    def wrapper(*args, **kwargs):
        counts[counter] += 1
        return call(*args, **kwargs)
    setattr(owner, attr, wrapper if call is raw else classmethod(wrapper))
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "prevtrop":
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapper)


def run_rung(rung):
    """One rung in this process: a dict of per-stage seconds and counts."""
    from prevtrop import cone, exactla
    from prevtrop.exactla import AbelianGroup
    from prevtrop.multiproj import Grading, proj_system_of_fans
    from prevtrop.sysfan import (is_separated, product, support_is_full,
                                 validate_system)

    counts = {}
    for owner, attr, counter in (
            (cone.Cone, "intersect", "intersect"),
            (exactla, "kernel_lattice", "kernel_lattice"),
            (cone, "_halfspace_generators", "sweeps"),
            (cone.Cone, "_build", "builds"),
            (cone.Cone, "__init__", "cones"),
            (cone.Cone, "dual", "duals"),
            (cone.Cone, "_fill", "fills")):
        _count(counts, owner, attr, counter)
    stages = {}

    def stage(name, step):
        """step(), with its wall and the counts it adds in stages[name]."""
        before = dict(counts)
        value, wall = _timed(step)
        n = {k: counts[k] - before[k] for k in counts}
        swept = n["sweeps"] // 2
        lazy_faces = n["cones"] - n["builds"] - n["duals"]
        if n["sweeps"] % 2 or lazy_faces < 0:
            raise RuntimeError("%s %s: odd sweeps or negative lazy faces in "
                               "%r" % (rung, name, n))
        stages[name] = dict(
            intersect=n["intersect"], kernel_lattice=n["kernel_lattice"],
            sweeps=n["sweeps"], simplicial_builds=n["builds"] - swept,
            swept_builds=swept, lazy_faces=lazy_faces, lazy_fills=n["fills"],
            s=wall)
        return value

    def build():
        if rung == PRODUCT:
            line = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (-1,)]))
            p1 = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (1,)]))
            return product(line.system, p1.system)
        grading = Grading(AbelianGroup(1), [(1,)] * (int(rung[1:]) + 1))
        return proj_system_of_fans(grading).system

    system = stage("proj", build)
    stage("omega", system.omega)
    issues = len(stage("validate", lambda: validate_system(system)))
    separated = stage("separated", lambda: is_separated(system)[0])
    support = stage("support",
                    lambda: support_is_full(system) if separated else None)
    pairs, order_s = _timed(lambda: len(system.omega().order_pairs()))
    return {"classes": len(system.omega()), "issues": issues,
            "separated": separated, "support_is_full": support,
            "total_s": round(sum(s["s"] for s in stages.values()), 6),
            "order_pairs_s": order_s, "order_pairs": pairs, "stages": stages}


def run_hilbert_rung(rung):
    """One Hilbert rung in this process: its wall, generator count and the
    wall of its relations."""
    from prevtrop.cone import Cone, hilbert_basis

    rays = HILBERT_RUNGS[rung]
    sigma = Cone.from_rays(rays, len(rays[0]))
    basis, elapsed = _timed(lambda: hilbert_basis(sigma))
    _, relations_s = _timed(basis.relations)
    return {"s": elapsed, "generators": len(basis.generators),
            "relations_s": relations_s}


def run_scalar_rung(rung):
    """One scalar rung in this process: its wall, coefficient count and
    kernel_lattice calls."""
    from fractions import Fraction

    # monoid loads on first use: import it so its binding is counted too
    import prevtrop.monoid
    from prevtrop import exactla
    from prevtrop.exactla import AbelianGroup
    from prevtrop.multiproj import Grading, proj_system_of_fans
    from prevtrop.tropembed import ValuedScalar, coordinate_point, trop_point

    scale = SCALAR_RUNGS[rung]
    proj = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (3,), (7,)]))
    label, subset = max(proj.chart_subsets.items())
    chart = proj.system.omega().class_of(proj.poset.cone_of(subset), label)
    faces = chart.cone.faces()
    coords = [ValuedScalar.t_power(p, Fraction(1, 2))
              + ValuedScalar.t_power(p + 1, 3)
              for p in (scale, -2 * scale)]
    coeffs = 0
    counts = {}
    _count(counts, exactla, "kernel_lattice", "kernel_lattice")
    start = time.perf_counter()
    for face in faces:
        point = coordinate_point(proj.system, chart, coords, zero_face=face)
        trop_point(point)
        coeffs += sum(len(v.num) + len(v.den) for v in point.values.values())
    elapsed = time.perf_counter() - start
    first = counts["kernel_lattice"]
    for face in faces:  # untimed: what the per-cone caches leave to redo
        trop_point(coordinate_point(proj.system, chart, coords, zero_face=face))
    return {"s": round(elapsed, 6), "faces": len(faces),
            "value_coeffs": coeffs, "kernel_lattice": first,
            "kernel_lattice_repeat": counts["kernel_lattice"] - first}


def run_refine_rung(rung):
    """One refinement rung in this process: its wall and call counts."""
    from prevtrop import exactla, multiproj
    from prevtrop.exactla import AbelianGroup, solve_rational
    from prevtrop.monoid import AffineSemigroup
    from prevtrop.multiproj import Grading, ProjSystem, proj_system_of_fans
    from prevtrop.tropembed import (ClassicalChartPoint, ValuedScalar,
                                    classical_point, forget_refinement,
                                    refined_trop, separation_witness,
                                    trop_point)

    degrees, subset, exponents = REFINE_RUNGS[rung]
    proj = proj_system_of_fans(Grading(AbelianGroup(len(degrees[0])),
                                       degrees))
    chart = proj.system.omega().class_of(proj.poset.cone_of(subset),
                                         proj.chart_label(subset))
    qt = proj.q.transpose().row_lists()
    gens = [tuple(c.numerator for c in solve_rational(qt, e))
            for e in exponents]
    t = ValuedScalar.t_power(1)

    def point(tail):
        # chi_1 = t and chi_2 = -1 - t + tail, so chi_1 + chi_2 + 1 = tail
        return classical_point(proj.system, chart, dict(
            zip(gens, (t, ValuedScalar.of(-1) - t + tail))))

    p, q = point(t * t), point(ValuedScalar.t_power(3, 2))
    direct = trop_point(p), trop_point(q)
    f = [(e, ValuedScalar.of(1)) for e in exponents + [(0,) * len(degrees)]]
    counts = {}
    for owner, attr, counter in (
            (exactla, "solve_rational", "solve_rational"),
            (exactla, "hermite_normal_form", "hermite_normal_form"),
            (multiproj, "proj_system_of_fans", "proj_system_of_fans"),
            (multiproj, "relevant_subsets", "proj_builds"),
            (ClassicalChartPoint, "eval", "eval"),
            (ValuedScalar, "__pow__", "pow"),
            (ValuedScalar, "__mul__", "mul"),
            (ValuedScalar, "__rmul__", "mul"),
            (ProjSystem, "character", "character"),
            (AffineSemigroup, "decompose", "decompose")):
        _count(counts, owner, attr, counter)

    def separate():
        start = time.perf_counter()
        witness = separation_witness(proj, p, q, f)
        refined = refined_trop(witness, p), refined_trop(witness, q)
        back = tuple(forget_refinement(witness, r) for r in refined)
        elapsed = time.perf_counter() - start
        if direct[0] != direct[1] or refined[0] == refined[1] \
                or back != direct:
            raise RuntimeError("%s: the refinement did not separate the pair"
                               % rung)
        return round(elapsed, 6)

    # the first call's refinement is dropped before the warm one, so only
    # what the library keeps of it can be reused
    cold_s = separate()
    result = dict(counts, s=cold_s)
    warm_s = separate()
    return dict(result, warm_s=warm_s, **{
        "warm_" + k: counts[k] - result[k]
        for k in ("proj_builds", "character", "decompose")})


def run_separated_rung(rung):
    """One separation rung in this process: the wall of is_separated on a
    Proj whose chart classes are built, and its Cone.intersect calls."""
    from prevtrop.cone import Cone
    from prevtrop.exactla import AbelianGroup
    from prevtrop.multiproj import Grading, proj_system_of_fans
    from prevtrop.sysfan import _maximal_classes, is_separated

    p, q = SEPARATED_RUNGS[rung]
    system = proj_system_of_fans(Grading(AbelianGroup(1),
                                         [(1,)] * p + [(-1,)] * q)).system
    classes = len(system.omega())
    counts = {}
    _count(counts, Cone, "intersect", "intersect")
    (separated, _), elapsed = _timed(lambda: is_separated(system))
    return dict(counts, s=elapsed, classes=classes, separated=separated,
                maximal=len(_maximal_classes(system)))


def startup_commands(directory):
    """Write small documents into directory; the argv of one call of every
    subcommand on them.  Uses the library on sys.path."""
    from prevtrop.cone import Cone, hilbert_basis
    from prevtrop.exactla import AbelianGroup
    from prevtrop.multiproj import Grading, grading_to_data, proj_system_of_fans
    from prevtrop.sysfan import system_to_data

    def write(name, kind, payload):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(payload, schema=1, kind=kind), handle,
                      sort_keys=True)
        return path

    line = Grading(AbelianGroup(1), [(1,), (1,)])
    plane = Grading(AbelianGroup(0), [(), ()])
    line_grading = write("p1-grading.json", "grading", grading_to_data(line))
    plane_grading = write("plane-grading.json", "grading",
                          grading_to_data(plane))
    line_system = write("p1.json", "system_of_fans",
                        system_to_data(proj_system_of_fans(line).system))
    proj = proj_system_of_fans(plane)
    plane_data = system_to_data(proj.system)
    plane_system = write("plane.json", "system_of_fans", plane_data)
    omega = proj.system.omega()
    chart = omega.class_of(proj.poset.cone_of(frozenset()), "1")
    dense = omega.class_of(Cone.from_rays([], 2), "1")
    # every generator takes the value t + 1
    one_plus_t = {"num": [["1", 0], ["1", 1]], "den": [["1", 0]]}
    point = write("point.json", "classical_point", {
        "chart": chart.class_id,
        "values": {str(k): one_plus_t
                   for k in range(len(hilbert_basis(chart.cone).generators))}})
    poly = write("poly.json", "polynomial", {
        "system": plane_data, "chart": chart.class_id,
        "terms": [{"exp": [1, 0], "val": "0"}, {"exp": [0, 1], "val": "0"},
                  {"exp": [0, 0], "val": "0"}]})
    trop = write("trop.json", "trop_point", {"class": dense.class_id,
                                             "coords": ["0", "0"]})
    gtilde = write("gtilde.json", "polynomial", {"terms": [
        {"exp": [1, 0], "coeff": "1"}, {"exp": [0, 1], "coeff": "1"},
        {"exp": [0, 0], "coeff": "1"}]})
    return {"validate": ["validate", line_system],
            "omega": ["omega", line_system],
            "separated": ["separated", line_system],
            "proj": ["proj", line_grading],
            "trop": ["trop", point, plane_system],
            "nonneg": ["nonneg", point, plane_system, "--compare"],
            "kapranov": ["kapranov", poly, trop],
            "refine": ["refine", plane_grading, "--gtilde", gtilde,
                       "--point", point],
            "product": ["product", line_system, line_system]}


# run one command line call, then write the prevtrop modules it loaded and
# their source lines to stderr
LOADED = ("import json, sys\n"
          "from prevtrop.cli import main\n"
          "main(sys.argv[1:])\n"
          "names = sorted(m for m in sys.modules if m.split('.')[0] == 'prevtrop')\n"
          "lines = sum(len(open(sys.modules[m].__file__, 'rb').readlines())\n"
          "            for m in names)\n"
          "print(json.dumps({'modules': names, 'source_lines': lines}),\n"
          "      file=sys.stderr)")


def run_startup_rung(rung):
    """One start-up rung: the milliseconds of one fresh process and, for a
    subcommand, the prevtrop modules one call loads and their total source
    lines, a count that does not depend on the machine."""
    with tempfile.TemporaryDirectory() as directory:
        argv = startup_commands(directory).get(rung)
        _, wall = _timed(lambda: subprocess.run([sys.executable] + (
            ["-m", "prevtrop.cli"] + argv if argv else ["-c", "pass"]),
            check=True, stdout=subprocess.DEVNULL))
        result = {"ms": round(1000 * wall, 3)}
        if argv:
            result.update(json.loads(subprocess.run(
                [sys.executable, "-c", LOADED] + argv, check=True,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True).stderr.splitlines()[-1]))
    return result


def run_cli_rung(rung):
    """One CLI rung: proj on the rung's grading, then omega, validate and
    separated on the system it wrote, each one python -m prevtrop.cli
    process whose stdout goes to a file; the wall and stdout bytes of each."""
    p, q = SEPARATED_RUNGS.get(rung) or (int(rung[1:]) + 1, 0)
    result = {}
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory)
        (path / "grading.json").write_text(json.dumps({
            "schema": 1, "kind": "grading", "n": p + q, "free_rank": 1,
            "torsion": [], "degrees": [[1]] * p + [[-1]] * q}))
        for command, document in (("proj", "grading"), ("omega", "proj"),
                                  ("validate", "proj"), ("separated", "proj")):
            out = path / (command + ".json")
            with open(out, "wb") as handle:
                _, wall = _timed(lambda: subprocess.run(
                    [sys.executable, "-m", "prevtrop.cli", command,
                     str(path / (document + ".json"))],
                    check=True, stdout=handle))
            result[command] = {"s": wall, "bytes": out.stat().st_size}
    return result


# mode (the default, proj, first): its rung names given --max-n, the
# function that runs one rung in this process and its key in the output file
MODES = {
    "proj": (lambda n: ["P%d" % k for k in range(4, n + 1)] + [PRODUCT],
             run_rung, "rungs"),
    "hilbert": (lambda n: HILBERT_RUNGS, run_hilbert_rung, "hilbert_rungs"),
    "scalars": (lambda n: SCALAR_RUNGS, run_scalar_rung, "scalar_rungs"),
    "refine": (lambda n: REFINE_RUNGS, run_refine_rung, "refine_rungs"),
    "separated": (lambda n: SEPARATED_RUNGS, run_separated_rung,
                  "separated_rungs"),
    "startup": (lambda n: STARTUP_RUNGS, run_startup_rung, "startup_rungs"),
    "cli": (lambda n: ["P%d" % k for k in range(4, n + 1)]
            + list(SEPARATED_RUNGS), run_cli_rung, "cli_rungs"),
}


def _run_child(mode, rung, src):
    """The result of one rung of mode in a fresh interpreter, which finds
    the library in src through PYTHONPATH, as do the processes it starts."""
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, __file__, "--rung", rung]
        + ["--" + mode] * (mode != "proj"),
        env=dict(os.environ, PYTHONPATH=path),
        check=True, capture_output=True, text=True)
    return json.loads(child.stdout.splitlines()[-1])


def _merge(runs):
    """The first run, with every int or float that is not a bool, in nested
    dicts too, replaced by its median over runs."""
    merged = dict(runs[0])
    for key, value in merged.items():
        if isinstance(value, dict):
            merged[key] = _merge([run[key] for run in runs])
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            merged[key] = statistics.median(run[key] for run in runs)
    return merged


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", action="append",
                        help="key of a run in the output file, one per --src")
    parser.add_argument("--src", action="append",
                        help="the src directory of a checkout to measure")
    parser.add_argument("--max-n", type=int, default=8,
                        help="largest n of the P^n rungs")
    kind = parser.add_mutually_exclusive_group()
    for mode in list(MODES)[1:]:
        kind.add_argument("--" + mode, dest="mode", action="store_const",
                          const=mode, help="run the %s rungs instead" % mode)
    parser.set_defaults(mode="proj")
    parser.add_argument("--out", default=str(ROOT / "BENCH_ladder.json"))
    parser.add_argument("--rung", help=argparse.SUPPRESS)
    args = parser.parse_args()
    labels = args.label or ["change"]
    srcs = [str(Path(src).resolve()) for src in args.src or [ROOT / "src"]]
    if len(labels) != len(srcs) or len(set(labels)) < len(labels):
        parser.error("give each --src its own --label")
    names, run, key = MODES[args.mode]
    if args.rung:
        print(json.dumps(run(args.rung)))
        return
    rungs = names(args.max_n)
    trees = list(zip(labels, srcs))
    samples = {(label, rung): [] for label in labels for rung in rungs}
    for round_ in range(RUNS):
        for rung in rungs:
            for label, src in trees[::-1] if round_ % 2 else trees:
                samples[label, rung].append(_run_child(args.mode, rung, src))
    out = Path(args.out)
    document = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    document["about"] = (
        "tools/ladder.py, whose docstring says what each mode measures: each "
        "number of a rung (raw seconds, startup_rungs' ms) is its median over "
        "%d rounds of fresh interpreters, which two checkouts measured "
        "together share, alternating which goes first." % RUNS)
    for label in labels:
        results = {}
        for rung in rungs:
            results[rung] = dict(_merge(samples[label, rung]), runs=RUNS)
            print(label, rung, json.dumps(results[rung], sort_keys=True,
                                          separators=(",", ":")))
        document["runs"].setdefault(label, {}).update({
            "python": platform.python_version(),
            "machine": platform.machine(),
            key: results})
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
