"""Ladder benchmark: the Proj pipeline on P^4 to P^8 and on a product, and
Hilbert bases of cones of growing multiplicity.

Each Proj rung runs proj -> omega -> validate -> separated -> support in a
fresh interpreter and records, per stage, the in-process wall time and these
work counters: Cone.intersect calls, kernel_lattice calls, double description
sweeps (_halfspace_generators calls, all of them made inside Cone._build,
since a cone cut out by inequalities is built as the dual of the cone on
them and Hilbert bases run none), and new cones built (Cone._build calls),
split into simplicial builds, which run no sweep, and swept builds, so a
swept meet counts as a swept build.  A simplicial cone
computes its inequalities on first read, so a simplicial build is one
independence test that leaves the cone unbuilt.  lazy_faces counts the
faces of simplicial cones that faces() registers with no _build call, and
lazy_fills the first reads (Cone._fill calls) of any simplicial cone's
inequalities, built cones and faces alike.
After the pipeline, outside its total, it times omega().order_pairs(), the
whole class order that the omega command prints, and counts its pairs.
With --hilbert the rungs are instead the cones on (1,0,0), (0,1,0), (1,2,N)
for N = 5, 10, 20, 40, 80, on e1, e2, e3, (1,2,3,m) for m = 5, 10, 20,
and on the rank-2 cones (1,0), (1,N) for N = 10^4, 10^6, 10^9 and (1,0),
(999,1000), whose dual monoid has 1,001 generators; each rung builds its
cone in RUNS fresh interpreters and records the median wall of
hilbert_basis, the number of generators and the median wall of the basis's
relations() (relations_s).  With --scalars the rungs are valuation scales
1, 2, 4, 8: each builds P(1,3,7) in a fresh interpreter and records the wall of
coordinate_point + trop_point over every face of its last chart, at torus
coordinates of valuations (scale, -2 scale), the number of coefficients of
the generator values (sum of len(num) + len(den)) and the kernel_lattice
calls made in that loop and in an untimed repeat.
With --refine the rungs are P^2, P(1,3,7) and P^1 x P^1 graded by Z^2:
each builds its Proj, two tropically equal points on one chart and a
function telling them apart, then in fresh interpreters times
separation_witness -> refined_trop x2 -> forget_refinement x2 and counts
the calls of solve_rational, hermite_normal_form and proj_system_of_fans,
the chart posets built (relevant_subsets calls, one per new Proj), and the
calls of ClassicalChartPoint.eval, ValuedScalar.__pow__,
ValuedScalar.__mul__ (with __rmul__), ProjSystem.character and
AffineSemigroup.decompose; the wall is the median over RUNS
interpreters.  Each rung then drops that refinement and times the same
calls on the same pair again (warm_s), counting the chart posets, character
and decompose calls that warm call makes (warm_proj_builds,
warm_character, warm_decompose).
With --startup the rungs are a bare `python -c pass` and one
`python -m prevtrop.cli <command>` per subcommand on small documents (P^1,
the affine plane and points on it), each run in fresh processes, rounds
interleaved, and record the median wall of each in milliseconds; each
subcommand rung also records the prevtrop modules one call loads and their
total source lines.
Times are raw perf_counter seconds, not corrected for host speed.  Run from
the root of a checkout:

    python3 tools/ladder.py --label change
    python3 tools/ladder.py --label parent --src OTHER/src --max-n 6
    python3 tools/ladder.py --label change --hilbert
    python3 tools/ladder.py --label change --scalars
    python3 tools/ladder.py --label change --refine
    python3 tools/ladder.py --label change --startup

Results are merged into BENCH_ladder.json under the label, Proj rungs under
"rungs", Hilbert rungs under "hilbert_rungs", scalar rungs under
"scalar_rungs", refinement rungs under "refine_rungs" and start-up rungs
under "startup_rungs", so runs of two checkouts sit side by side.
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
STAGES = ("proj", "omega", "validate", "separated", "support")
PRODUCT = "doubled line x P1"
HILBERT_RUNGS = dict(
    [("N=%d" % n, [(1, 0, 0), (0, 1, 0), (1, 2, n)]) for n in (5, 10, 20, 40, 80)]
    + [("m=%d" % m, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, m)])
       for m in (5, 10, 20)]
    + [("rank2 N=10^%d" % e, [(1, 0), (1, 10 ** e)]) for e in (4, 6, 9)]
    + [("rank2 (999,1000)", [(1, 0), (999, 1000)])])
SCALAR_RUNGS = {"scale=%d" % k: k for k in (1, 2, 4, 8)}
# degrees, the chart's variable subset, and two degree-zero exponents whose
# characters form a basis of the chart's character lattice
REFINE_RUNGS = {
    "P2": ([(1,), (1,), (1,)], {1}, [(-1, 1, 0), (-1, 0, 1)]),
    "P(1,3,7)": ([(1,), (3,), (7,)], {1}, [(-3, 1, 0), (-7, 0, 1)]),
    "P1xP1 (Z^2)": ([(1, 0), (1, 0), (0, 1), (0, 1)], {1, 3},
                    [(-1, 1, 0, 0), (0, 0, -1, 1)]),
}
RUNS = 5
REFINE_COUNTERS = ("solve_rational", "hermite_normal_form",
                   "proj_system_of_fans", "proj_builds", "eval", "pow", "mul",
                   "character", "decompose")
WARM_COUNTERS = ("proj_builds", "character", "decompose")
STARTUP_ROUNDS = 15
COUNTERS = ("intersect", "kernel_lattice", "sweeps", "simplicial_builds",
            "swept_builds", "lazy_faces", "lazy_fills")


def _counted(counts, name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _count_functions(counts, functions):
    """Replace each (function, counter) pair's module-level function, under
    every name a prevtrop module binds it to, by a wrapper that adds one to
    counts[counter] per call."""
    for raw, counter in functions:
        wrapped = _counted(counts, counter, raw)
        for name, module in list(sys.modules.items()):
            if name == "prevtrop" or name.startswith("prevtrop."):
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)


def _install_counters(counts):
    """Wrap the counted entry points; counts[name] += 1 per call.  A
    Cone._build call counts as simplicial when it runs no sweep and is not
    a lazy fill; a Cone made with no dual lineality outside _build is a lazy
    face."""
    from prevtrop import cone as cone_module
    from prevtrop import exactla

    def build(cls, *args):
        sweeps, faces = counts["sweeps"], counts["lazy_faces"]
        result = raw_build(cls, *args)
        counts["lazy_faces"] = faces
        counts["swept_builds" if counts["sweeps"] > sweeps
               else "simplicial_builds"] += 1
        return result

    def init(self, *args):
        raw_init(self, *args)
        counts["lazy_faces"] += args[-1] is None

    def fill(self):
        builds = counts["simplicial_builds"]
        raw_fill(self)
        counts["simplicial_builds"] = builds
        counts["lazy_fills"] += 1

    cone = cone_module.Cone
    cone.intersect = _counted(counts, "intersect", cone.intersect)
    raw_build = cone._build.__func__
    cone._build = classmethod(build)
    raw_init, cone.__init__ = cone.__init__, init
    raw_fill, cone._fill = cone._fill, fill
    _count_functions(counts, ((exactla.kernel_lattice, "kernel_lattice"),
                              (cone_module._halfspace_generators, "sweeps")))


def run_rung(rung):
    """One rung in this process: a dict of per-stage seconds and counts."""
    from prevtrop.exactla import AbelianGroup
    from prevtrop.multiproj import Grading, proj_system_of_fans
    from prevtrop.sysfan import (is_separated, product, support_is_full,
                                 validate_system)

    counts = dict.fromkeys(COUNTERS, 0)
    _install_counters(counts)
    stages = {}
    state = {}

    def build():
        if rung == PRODUCT:
            line = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (-1,)]))
            p1 = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (1,)]))
            state["system"] = product(line.system, p1.system)
        else:
            n = int(rung[1:])
            grading = Grading(AbelianGroup(1), [(1,)] * (n + 1))
            state["system"] = proj_system_of_fans(grading).system

    def omega():
        state["system"].omega()

    def validate():
        state["issues"] = len(validate_system(state["system"]))

    def separated():
        state["separated"] = is_separated(state["system"])[0]

    def support():
        if state["separated"]:
            state["support"] = support_is_full(state["system"])

    steps = {"proj": build, "omega": omega, "validate": validate,
             "separated": separated, "support": support}
    for stage in STAGES:
        before = dict(counts)
        start = time.perf_counter()
        steps[stage]()
        elapsed = time.perf_counter() - start
        stages[stage] = {"s": round(elapsed, 4)}
        stages[stage].update({k: counts[k] - before[k] for k in counts})
    start = time.perf_counter()
    pairs = len(state["system"].omega().order_pairs())
    order_s = round(time.perf_counter() - start, 4)
    return {"classes": len(state["system"].omega()),
            "issues": state["issues"],
            "separated": state["separated"],
            "support_is_full": state.get("support"),
            "total_s": round(sum(s["s"] for s in stages.values()), 4),
            "order_pairs_s": order_s,
            "order_pairs": pairs,
            "stages": stages}


def run_hilbert_rung(rung):
    """One Hilbert rung in this process: its wall, generator count and the
    wall of its relations."""
    from prevtrop.cone import Cone, hilbert_basis

    rays = HILBERT_RUNGS[rung]
    sigma = Cone.from_rays(rays, len(rays[0]))
    start = time.perf_counter()
    basis = hilbert_basis(sigma)
    elapsed = time.perf_counter() - start
    start = time.perf_counter()
    basis.relations()
    relations_s = time.perf_counter() - start
    return {"s": round(elapsed, 4), "generators": len(basis.generators),
            "relations_s": round(relations_s, 4)}


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
    counts = {"kernel_lattice": 0}
    _count_functions(counts, ((exactla.kernel_lattice, "kernel_lattice"),))
    start = time.perf_counter()
    for face in faces:
        point = coordinate_point(proj.system, chart, coords, zero_face=face)
        trop_point(point)
        coeffs += sum(len(v.num) + len(v.den) for v in point.values.values())
    elapsed = time.perf_counter() - start
    first = counts["kernel_lattice"]
    for face in faces:  # untimed: what the per-cone caches leave to redo
        trop_point(coordinate_point(proj.system, chart, coords, zero_face=face))
    return {"s": round(elapsed, 4), "faces": len(faces),
            "value_coeffs": coeffs, "kernel_lattice": first,
            "kernel_lattice_repeat": counts["kernel_lattice"] - first}


def run_refine_rung(rung):
    """One refinement rung in this process: its wall and call counts."""
    from prevtrop import exactla, multiproj
    from prevtrop.exactla import (AbelianGroup, IntMatrix, invert_unimodular,
                                  solve_rational)
    from prevtrop.monoid import AffineSemigroup
    from prevtrop.multiproj import Grading, ProjSystem, proj_system_of_fans
    from prevtrop.tropembed import (ClassicalChartPoint, ValuedScalar,
                                    coordinate_point, forget_refinement,
                                    refined_trop, separation_witness,
                                    trop_point)

    degrees, subset, exponents = REFINE_RUNGS[rung]
    proj = proj_system_of_fans(Grading(AbelianGroup(len(degrees[0])),
                                       degrees))
    chart = proj.system.omega().class_of(proj.poset.cone_of(subset),
                                         proj.chart_label(subset))
    # the exponents' characters in the kernel basis, and the inverse that
    # turns their values into torus coordinates
    qt = proj.q.transpose().row_lists()
    inverse = invert_unimodular(IntMatrix.from_rows(
        [[c.numerator for c in solve_rational(qt, e)] for e in exponents]))
    t = ValuedScalar.t_power(1)

    def point(tail):
        # chi_1 = t and chi_2 = -1 - t + tail, so chi_1 + chi_2 + 1 = tail
        values = (t, ValuedScalar.of(-1) - t + tail)
        coords = []
        for row in inverse.row_lists():
            c = ValuedScalar.of(1)
            for v, k in zip(values, row):
                c = c * v ** k
            coords.append(c)
        return coordinate_point(proj.system, chart, coords)

    p, q = point(t * t), point(ValuedScalar.t_power(3, 2))
    direct = trop_point(p), trop_point(q)
    one = ValuedScalar.of(1)
    f = [(exponents[0], one), (exponents[1], one),
         ((0,) * len(degrees), one)]
    counts = dict.fromkeys(REFINE_COUNTERS, 0)
    _count_functions(counts, (
        (exactla.solve_rational, "solve_rational"),
        (exactla.hermite_normal_form, "hermite_normal_form"),
        (multiproj.proj_system_of_fans, "proj_system_of_fans"),
        (multiproj.relevant_subsets, "proj_builds")))
    for owner, attr, counter in ((ClassicalChartPoint, "eval", "eval"),
                                 (ValuedScalar, "__pow__", "pow"),
                                 (ValuedScalar, "__mul__", "mul"),
                                 (ValuedScalar, "__rmul__", "mul"),
                                 (ProjSystem, "character", "character"),
                                 (AffineSemigroup, "decompose", "decompose")):
        setattr(owner, attr, _counted(counts, counter, owner.__dict__[attr]))

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
        return round(elapsed, 4)

    # the first call's refinement is dropped before the warm one, so only
    # what the library keeps of it can be reused
    cold_s = separate()
    result = dict(counts, s=cold_s)
    warm_s = separate()
    return dict(result, warm_s=warm_s,
                **{"warm_" + k: counts[k] - result[k] for k in WARM_COUNTERS})


def startup_commands(directory):
    """Write small documents into directory; the argv of one call of every
    subcommand on them.  Uses the library on sys.path."""
    from prevtrop.cone import Cone, hilbert_basis
    from prevtrop.exactla import AbelianGroup
    from prevtrop.multiproj import Grading, grading_to_data, proj_system_of_fans
    from prevtrop.sysfan import system_to_data

    def write(name, kind, payload):
        path = os.path.join(directory, name)
        document = {"schema": 1, "kind": kind}
        document.update(payload)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
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


def run_startup(src):
    """Median milliseconds of a bare interpreter and of one call of every
    subcommand, over interleaved rounds of fresh processes; for each
    subcommand also the prevtrop modules one call loads and their total
    source lines, a count that does not depend on the machine."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as directory:
        commands = startup_commands(directory)
        argvs = {"python -c pass": ["-c", "pass"]}
        argvs.update((name, ["-m", "prevtrop.cli"] + argv)
                     for name, argv in commands.items())
        samples = {name: [] for name in argvs}
        for _ in range(STARTUP_ROUNDS):
            for name, argv in argvs.items():
                start = time.perf_counter()
                subprocess.run([sys.executable] + argv, env=env, check=True,
                               stdout=subprocess.DEVNULL)
                samples[name].append(time.perf_counter() - start)
        loaded = {name: json.loads(subprocess.run(
            [sys.executable, "-c", LOADED] + argv, env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True).stderr.splitlines()[-1])
            for name, argv in commands.items()}
    return {name: dict({"ms": round(1000 * statistics.median(times), 1),
                        "runs": len(times)}, **loaded.get(name, {}))
            for name, times in samples.items()}


def _run_child(rung, args):
    """The result of one rung, run in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, __file__, "--rung", rung, "--src", args.src]
        + ["--hilbert"] * args.hilbert + ["--scalars"] * args.scalars
        + ["--refine"] * args.refine,
        check=True, capture_output=True, text=True)
    return json.loads(child.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="change",
                        help="key of this run in the output file")
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src directory of the checkout to measure")
    parser.add_argument("--max-n", type=int, default=8,
                        help="largest n of the P^n rungs")
    kind = parser.add_mutually_exclusive_group()
    kind.add_argument("--hilbert", action="store_true",
                      help="run the Hilbert basis rungs instead")
    kind.add_argument("--scalars", action="store_true",
                      help="run the Q(t) scalar rungs instead")
    kind.add_argument("--refine", action="store_true",
                      help="run the embedding refinement rungs instead")
    kind.add_argument("--startup", action="store_true",
                      help="time command line start-up per subcommand instead")
    parser.add_argument("--out", default=str(ROOT / "BENCH_ladder.json"))
    parser.add_argument("--rung", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    if args.rung:
        run = (run_hilbert_rung if args.hilbert
               else run_scalar_rung if args.scalars
               else run_refine_rung if args.refine else run_rung)
        print(json.dumps(run(args.rung)))
        return
    results = {}
    if args.startup:
        rungs, key = [], "startup_rungs"
        results = run_startup(str(Path(args.src).resolve()))
        for rung, result in results.items():
            print("%-18s %8.1fms %6s source lines" % (
                rung, result["ms"], result.get("source_lines", "")))
    elif args.hilbert:
        rungs, key = list(HILBERT_RUNGS), "hilbert_rungs"
    elif args.scalars:
        rungs, key = list(SCALAR_RUNGS), "scalar_rungs"
    elif args.refine:
        rungs, key = list(REFINE_RUNGS), "refine_rungs"
    else:
        rungs = ["P%d" % n for n in range(4, args.max_n + 1)] + [PRODUCT]
        key = "rungs"
    for rung in rungs:
        runs = [_run_child(rung, args)
                for _ in range(RUNS if args.refine or args.hilbert else 1)]
        results[rung] = result = runs[0]
        if len(runs) > 1:
            walls = ("s", "warm_s") if args.refine else ("s", "relations_s")
            result.update({k: statistics.median(r[k] for r in runs)
                           for k in walls}, runs=len(runs))
        if args.refine:
            print("%-18s %8.4fs  warm %8.4fs %s  %s" % (
                rung, result["s"], result["warm_s"],
                {k: result["warm_" + k] for k in WARM_COUNTERS},
                {k: result[k] for k in REFINE_COUNTERS}))
            continue
        if args.hilbert:
            print("%-18s %8.4fs  %d generators  relations %8.4fs"
                  % (rung, result["s"], result["generators"],
                     result["relations_s"]))
            continue
        if args.scalars:
            print("%-18s %8.3fs  %d faces  %d value coefficients  "
                  "kernel_lattice calls %d, %d on a repeat"
                  % (rung, result["s"], result["faces"],
                     result["value_coeffs"], result["kernel_lattice"],
                     result["kernel_lattice_repeat"]))
            continue
        print("%-18s %8.3fs  omega %.3fs  separated %.3fs  order_pairs %.3fs"
              "  %s" % (rung, result["total_s"], result["stages"]["omega"]["s"],
                        result["stages"]["separated"]["s"],
                        result["order_pairs_s"],
                        {k: result["stages"]["separated"][k] for k in COUNTERS}))
    out = Path(args.out)
    document = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    document["about"] = (
        "tools/ladder.py: per-stage in-process walls (raw seconds) and work "
        "counters of proj -> omega -> validate -> separated -> support, and "
        "apart from them the wall of omega().order_pairs() with its pair "
        "count (rungs), and walls, value "
        "coefficient counts and kernel_lattice calls of coordinate_point + trop_point on P(1,3,7) "
        "(scalar_rungs), one "
        "fresh interpreter per rung; median walls over fresh interpreters of "
        "hilbert_basis and of its relations(), with generator counts "
        "(hilbert_rungs); median walls of separation_witness -> "
        "refined_trop x2 -> forget_refinement x2 over fresh interpreters, "
        "with call counts of one run, and of a warm repeat on the same pair "
        "with its chart posets built, character and decompose calls counted "
        "(refine_rungs); median milliseconds of "
        "a bare interpreter and of one prevtrop.cli call per subcommand, in "
        "interleaved rounds of fresh processes, with the prevtrop modules a "
        "call loads and their source lines (startup_rungs).")
    document["runs"].setdefault(args.label, {}).update({
        "python": platform.python_version(),
        "machine": platform.machine(),
        key: results})
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
