"""The four benchmark workloads: seeded job lists, job runners and checks.

A workload turns ``(seed, pass index)`` into a list of job specs (plain
JSON-able dicts) without touching the library, then runs each job against
prevtrop.  Running a job returns the time spent in the library, a canonical
JSON-able output (digested for the byte-identity guard) and the list of
facts it broke.  The facts come from the benchmark's own generated data
or from known theory, never from the code under test:

- weighted projective spaces P(w_0..w_n) have 2^(n+1)-1 chart classes, are
  separated, and have full support;
- gradings with weights of both signs are not separated, with a witness;
- tropical coordinates on the dense stratum are the valuations the
  generator built into the torus coordinates;
- constructed roots pass Kapranov membership;
- forgetting a refinement recovers the direct tropicalization;
- ``decompose`` sums back to its target;
- ``point_from_chart_values`` returns the seeded functional.

Every pass draws fresh inputs, so repeated passes never re-run a space or
cone built earlier in the run (only ``cli`` repeats its document set, since
its jobs run in separate processes anyway).
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

from prevtrop import cli, cone, multiproj, sysfan, tropembed, troppre
from prevtrop.exactla import AbelianGroup
from prevtrop.extreal import INF

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def rng_for(workload, seed, pass_index):
    return random.Random("prevtrop-bench:%s:%d:%d" % (workload, seed, pass_index))


def pool_slice(pool, seed, name, pass_index, count):
    """The pass's ``count`` items of a seed-shuffled pool, cycling when the
    pool runs out, so items are pairwise distinct for as long as it lasts."""
    order = list(pool)
    random.Random("prevtrop-bench:pool:%s:%d" % (name, seed)).shuffle(order)
    start = pass_index * count
    return [order[(start + k) % len(order)] for k in range(count)]


def text(value):
    return "inf" if value is INF else str(value)


def rays_of(c):
    return [list(r) for r in c.rays]


def scalar_from_terms(terms):
    """A Laurent polynomial {power: coefficient} in t as a ValuedScalar."""
    terms = {p: Fraction(c) for p, c in terms.items() if c}
    if not terms:
        return tropembed.ValuedScalar.from_polys([])
    low = min(terms)
    shift = max(0, -low)
    num = [Fraction(0)] * (max(terms) + shift + 1)
    for p, c in terms.items():
        num[p + shift] = c
    return tropembed.ValuedScalar.from_polys(num, [0] * shift + [1])


def unit_terms(rng, power):
    """t^power times a degree-one polynomial with nonzero constant term."""
    return {power: rng.choice((1, -1, 2, -2, 3, Fraction(1, 2))),
            power + 1: rng.choice((1, -1, 3, Fraction(-1, 3)))}


def make_grading(spec):
    free, torsion, degrees = spec
    return multiproj.Grading(AbelianGroup(free, tuple(torsion)),
                             [tuple(d) for d in degrees])


def omega_summary(system):
    omega = system.omega()
    return {"classes": [[rays_of(c.cone), list(c.members)]
                        for c in omega.classes],
            "order": sorted([a, b] for a, b in omega.order_pairs())}


def witness_summary(witness):
    if witness is None:
        return None
    a, b, meet, reason = witness
    return [a.class_id, b.class_id, rays_of(meet), reason]


def trop_summary(point):
    return {"class": point.stratum.class_id,
            "rays": rays_of(point.stratum.cone),
            "coords": [text(c) for c in point.coords]}


def digest(output):
    data = output if isinstance(output, bytes) else \
        json.dumps(output, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:12]


class Workload:
    """Base class: subclasses define ``name``, ``jobs`` and ``run``."""

    name = None

    def setup(self, seed):
        return None

    def teardown(self, state):
        pass


# ---------------------------------------------------------------------------
# glue: a verdict on a whole glued space
# ---------------------------------------------------------------------------

def _glue_pools():
    pools = {}
    pools["weighted3"] = [(1, (), [(a,), (b,), (c,)])
                          for a, b, c in itertools.combinations_with_replacement(
                              range(1, 16), 3)]
    signed = [w for w in range(-9, 10) if w]
    pools["negative3"] = [(1, (), [(w,) for w in ws])
                          for ws in itertools.combinations_with_replacement(signed, 3)
                          if min(ws) < 0 < max(ws)]
    torsion = []
    for m in (2, 3, 4, 5):
        degrees = [(a, t) for a in range(1, 7) for t in range(m)]
        for ds in itertools.combinations_with_replacement(degrees, 3):
            if any(t for _, t in ds):
                torsion.append((1, (m,), list(ds)))
    pools["torsion3"] = torsion
    pools["z2_4"] = [(2, (), [(1, 0), (x, 0), (a, 1), (b, 1)])
                     for x in (1, 2)
                     for a, b in itertools.combinations_with_replacement(range(13), 2)]
    lines = [(1, (), [(a,), (b,)])
             for a, b in itertools.combinations_with_replacement(range(1, 7), 2)]
    lines += [(1, (), [(a,), (-b,)]) for a in range(1, 7) for b in range(1, 7)]
    pools["product"] = list(itertools.product(lines, lines))
    signed4 = [w for w in range(-4, 5) if w]
    pools["negative4"] = [(1, (), [(w,) for w in ws])
                          for ws in itertools.combinations_with_replacement(signed4, 4)
                          if min(ws) < 0 < max(ws)]
    pools["weighted4"] = [(1, (), [(w,) for w in ws])
                          for ws in itertools.combinations_with_replacement(
                              range(1, 7), 4)]
    pools["rank4"] = [(1, (), [(a,), (b,), (-c,), (0,), (0,)])
                      for a, b in itertools.combinations_with_replacement(range(1, 7), 2)
                      for c in range(1, 7)]
    return pools


GLUE_MIX = [("weighted3", 52), ("negative3", 12), ("torsion3", 12),
            ("z2_4", 12), ("product", 8), ("negative4", 2), ("weighted4", 1),
            ("rank4", 1)]


class Glue(Workload):
    """proj -> omega -> strata -> validate -> separated (-> support)."""

    name = "glue"
    _pools = None

    def jobs(self, seed, pass_index):
        if Glue._pools is None:
            Glue._pools = _glue_pools()
        jobs = []
        for family, count in GLUE_MIX:
            for item in pool_slice(Glue._pools[family], seed, family,
                                   pass_index, count):
                if family == "product":
                    jobs.append({"kind": "product", "family": family,
                                 "left": item[0], "right": item[1]})
                else:
                    jobs.append({"kind": "space", "family": family,
                                 "grading": item})
        random.Random("prevtrop-bench:glue-order:%d:%d"
                      % (seed, pass_index)).shuffle(jobs)
        return json.loads(json.dumps(jobs))

    def run(self, state, job):
        if job["kind"] == "product":
            return self._product(job)
        grading = make_grading(job["grading"])
        start = time.perf_counter()
        proj = multiproj.proj_system_of_fans(grading)
        system = proj.system
        system.omega()
        trop = troppre.strata(system)
        nonneg = troppre.nonneg_strata(system)
        issues = sysfan.validate_system(system)
        separated, witness = sysfan.is_separated(system)
        full = sysfan.support_is_full(system) if separated else None
        elapsed = time.perf_counter() - start
        out = omega_summary(system)
        out.update({"charts": {k: sorted(v) for k, v in proj.chart_subsets.items()},
                    "trop_strata": [d for _, d in trop],
                    "nonneg_strata": [[c.class_id, rays_of(f), d]
                                      for c, f, d in nonneg],
                    "issues": [str(i) for i in issues],
                    "separated": separated,
                    "witness": witness_summary(witness),
                    "support_full": full})
        problems = []
        if issues:
            problems.append("a Proj system failed validation")
        weights = [d[0] for d in job["grading"][2]]
        if job["family"] in ("weighted3", "weighted4", "torsion3"):
            n = len(weights)
            if len(out["classes"]) != 2 ** n - 1:
                problems.append("weighted P^%d has %d classes, not %d"
                                % (n - 1, len(out["classes"]), 2 ** n - 1))
            if not separated or full is not True:
                problems.append("weighted projective space not separated "
                                "with full support")
        if min(weights) < 0 < max(weights) and (separated or witness is None):
            problems.append("grading with weights of both signs gave no witness")
        return elapsed, out, problems

    def _product(self, job):
        start = time.perf_counter()
        left = multiproj.proj_system_of_fans(make_grading(job["left"])).system
        right = multiproj.proj_system_of_fans(make_grading(job["right"])).system
        system = sysfan.product(left, right)
        system.omega()
        separated, witness = sysfan.is_separated(system)
        elapsed = time.perf_counter() - start
        out = omega_summary(system)
        out.update({"separated": separated,
                    "witness": witness_summary(witness)})
        problems = []
        expected = len(left.omega()) * len(right.omega())
        if len(out["classes"]) != expected:
            problems.append("product has %d classes, not %d"
                            % (len(out["classes"]), expected))
        factors_separated = all(w[0] > 0 for w in job["left"][2] + job["right"][2])
        if separated != factors_separated:
            problems.append("product separatedness disagrees with its factors")
        return elapsed, out, problems


# ---------------------------------------------------------------------------
# points: many queries on spaces built once
# ---------------------------------------------------------------------------

POINT_SYSTEMS = [
    ("P2", (1, (), [(1,), (1,), (1,)])),
    ("P125", (1, (), [(1,), (2,), (5,)])),
    ("P137", (1, (), [(1,), (3,), (7,)])),
    ("plane", (0, (), [(), ()])),
    ("doubled", (1, (), [(1,), (-1,)])),
    ("P1xP1", (2, (), [(1, 0), (1, 0), (0, 1), (0, 1)])),
]

# chart classes per system, in chart-label order: fixed by the gradings above
POINT_CHARTS = {"P2": 3, "P125": 3, "P137": 3, "plane": 1, "doubled": 2,
                "P1xP1": 4}
# Every chart gets the same queries up to seeded signs, coefficients and
# order, query k on the chart's k-th face (cyclically): the cost of
# tropicalizing a point grows fast with its valuations and with the number
# of generators alive on its face, so drawing those freely makes one seed's
# pass cost several times another's.  Torus valuation magnitudes of the trop
# queries, and loads on the chart rays of the bounded (nonneg) queries:
TROP_VALUATIONS = [(1, 2), (2, 1), (1, 1), (2, 2)]
NONNEG_LOADS = [(0, 1), (1, 0), (1, 1), (2, 1)]
KAPRANOV_ROOTS = 36
KAPRANOV_GRID = 16
REFINE_PAIRS = 16


class PointsState:
    def __init__(self):
        self.projs = {}
        self.charts = {}


class Points(Workload):
    """Tropical, nonnegative, Kapranov and refinement queries."""

    name = "points"

    def setup(self, seed):
        state = PointsState()
        for name, spec in POINT_SYSTEMS:
            proj = multiproj.proj_system_of_fans(make_grading(spec))
            omega = proj.system.omega()
            charts = []
            for label, subset in sorted(proj.chart_subsets.items()):
                chart = omega.class_of(proj.poset.cone_of(subset), label)
                cone.hilbert_basis(chart.cone)
                chart.cone.faces()
                charts.append(chart)
            if len(charts) != POINT_CHARTS[name]:
                raise RuntimeError("%s has %d charts, expected %d"
                                   % (name, len(charts), POINT_CHARTS[name]))
            state.projs[name] = proj
            state.charts[name] = charts
        return state

    def jobs(self, seed, pass_index):
        rng = rng_for("points", seed, pass_index)
        jobs = []
        for name, _ in POINT_SYSTEMS:
            for chart in range(POINT_CHARTS[name]):
                for k, u in enumerate(TROP_VALUATIONS):
                    jobs.append({"kind": "trop", "system": name, "chart": chart,
                                 "u": [rng.choice((1, -1)) * a for a in u],
                                 "face": k, "seed": rng.randrange(1 << 30)})
                for k, loads in enumerate(NONNEG_LOADS):
                    jobs.append({"kind": "nonneg", "system": name,
                                 "chart": chart, "loads": list(loads),
                                 "face": k, "seed": rng.randrange(1 << 30)})
        for k in range(KAPRANOV_ROOTS):
            jobs.append({"kind": "kapranov", "family": ("line", "split", "axis")[k % 3],
                         "seed": rng.randrange(1 << 30)})
        for _ in range(KAPRANOV_GRID):
            jobs.append({"kind": "tropical_line",
                         "point": [[rng.randint(-6, 6), rng.choice((1, 2, 3))]
                                   for _ in range(2)]})
        for pair in range(REFINE_PAIRS):
            i = 1 + pair % 3
            k, m = rng.sample(range(0, 4), 2)
            jobs.append({"kind": "refine", "i": i, "a": rng.choice((1, -1, 2)),
                         "k": k + i + 1 if k else 0, "m": m + i + 1 if m else 0,
                         "c1": rng.choice((1, -2, 3)), "c2": rng.choice((1, 2, -1))})
        rng.shuffle(jobs)
        return jobs

    def run(self, state, job):
        return getattr(self, "_" + job["kind"])(state, job)

    def _chart_point(self, state, job, bounded):
        proj = state.projs[job["system"]]
        chart = state.charts[job["system"]][job["chart"]]
        sigma = chart.cone
        n = sigma.ambient_rank
        rng = random.Random(job["seed"])
        if bounded:
            u = [0] * n
            for ray, load in zip(sigma.rays, job["loads"]):
                u = [a + load * r for a, r in zip(u, ray)]
        else:
            u = job["u"][:n]
        faces = sigma.faces()
        face = faces[job["face"] % len(faces)]
        coords = [scalar_from_terms(unit_terms(rng, p)) for p in u]
        return proj, chart, face, u, coords

    def _trop(self, state, job):
        proj, chart, face, u, coords = self._chart_point(state, job, False)
        start = time.perf_counter()
        point = tropembed.coordinate_point(proj.system, chart, coords,
                                           zero_face=face)
        trop = tropembed.trop_point(point)
        elapsed = time.perf_counter() - start
        return elapsed, trop_summary(trop), self._expect(trop, face, u)

    def _nonneg(self, state, job):
        proj, chart, face, u, coords = self._chart_point(state, job, True)
        start = time.perf_counter()
        point = tropembed.coordinate_point(proj.system, chart, coords,
                                           zero_face=face)
        nonneg = tropembed.nonneg_trop_point(point)
        trop = troppre.compare_to_trop(proj.system, nonneg)
        elapsed = time.perf_counter() - start
        out = trop_summary(trop)
        out["nonneg"] = {"class": nonneg.chart.class_id,
                         "face": rays_of(nonneg.face),
                         "coords": [text(c) for c in nonneg.coords]}
        return elapsed, out, self._expect(trop, face, u)

    @staticmethod
    def _expect(trop, face, u):
        """The point must sit on the zero face with the built-in valuations."""
        problems = []
        if trop.stratum.cone.rays != face.rays:
            problems.append("tropical point left its zero face")
        elif not face.rays:
            if list(trop.coords) != [Fraction(x) for x in u]:
                problems.append("dense coordinates %s are not the valuations %s"
                                % ([text(c) for c in trop.coords], u))
        elif list(trop.coords) != list(face.span_quotient().push(u)):
            problems.append("boundary coordinates are not the pushed valuations")
        return problems

    def _kapranov(self, state, job):
        proj = state.projs["plane"]
        chart = state.charts["plane"][0]
        rng = random.Random(job["seed"])

        def mono():
            return {rng.randint(-2, 2): rng.choice((1, -1, 2, 3, Fraction(1, 2)))}

        def mul(x, y):
            out = {}
            for p, a in x.items():
                for q, b in y.items():
                    out[p + q] = out.get(p + q, 0) + a * b
            return {p: c for p, c in out.items() if c}

        def add(*xs):
            out = {}
            for x in xs:
                for p, c in x.items():
                    out[p] = out.get(p, 0) + c
            return {p: c for p, c in out.items() if c}

        def neg(x):
            return {p: -c for p, c in x.items()}

        zero_face = None
        if job["family"] == "line":
            a, b, x0, y0 = mono(), mono(), mono(), mono()
            c = neg(add(mul(a, x0), mul(b, y0)))
            terms = [((1, 0), a), ((0, 1), b), ((0, 0), c)]
            root = (x0, y0)
        elif job["family"] == "split":
            r1 = mono()
            r2 = mono()
            while r2 == r1:
                r2 = mono()
            w, x0 = mono(), mono()
            terms = [((0, 2), w), ((0, 1), neg(mul(w, add(r1, r2)))),
                     ((0, 0), mul(w, mul(r1, r2)))]
            root = (x0, rng.choice((r1, r2)))
        else:
            beta = mono()
            terms = [((1, 1), {0: 1}), ((1, 0), neg(beta))]
            root = ({0: 1}, beta)
            zero_face = cone.Cone.from_rays([(1, 0)], 2)
        terms = [(e, scalar_from_terms(c)) for e, c in terms if c]
        coords = [scalar_from_terms(x) for x in root]
        start = time.perf_counter()
        hyp = tropembed.hypersurface(proj.grading, terms)
        restricted = tropembed.restrict_to_chart(proj, hyp, "1")
        point = tropembed.coordinate_point(proj.system, chart, coords,
                                           zero_face=zero_face)
        trop = tropembed.trop_point(point)
        member = tropembed.kapranov_membership(restricted, trop)
        elapsed = time.perf_counter() - start
        out = trop_summary(trop)
        out["terms"] = [[list(s), text(v)] for s, v in restricted.terms]
        out["member"] = member
        problems = [] if member else ["a constructed root failed Kapranov"]
        return elapsed, out, problems

    def _tropical_line(self, state, job):
        """x + y + 1 with constant coefficients at a dense point (a, b)."""
        proj = state.projs["plane"]
        chart = state.charts["plane"][0]
        a, b = (Fraction(*v) for v in job["point"])
        start = time.perf_counter()
        system = proj.system
        poly = troppre.chart_polynomial(system, chart,
                                        [((1, 0), 0), ((0, 1), 0), ((0, 0), 0)])
        dense = system.omega().class_of(cone.Cone.from_rays([], 2), "1")
        member = tropembed.kapranov_membership(
            poly, troppre.trop_point(system, dense, (a, b)))
        elapsed = time.perf_counter() - start
        low = min(a, b, 0)
        expected = [a, b, Fraction(0)].count(low) >= 2
        problems = [] if member == expected else \
            ["tropical line membership wrong at (%s, %s)" % (a, b)]
        return elapsed, {"member": member}, problems

    def _refine(self, state, job):
        """x0 = a t^i, y = -1 - x0 + c t^k: the pair differs only in f = x+y+1."""
        proj = state.projs["plane"]
        chart = state.charts["plane"][0]
        i, a = job["i"], job["a"]

        def point(power, coeff):
            y = {0: -1, i: -a}
            if power:
                y[power] = y.get(power, 0) + coeff
            return [scalar_from_terms({i: a}), scalar_from_terms(y)]

        one = tropembed.ValuedScalar.of(1)
        f = [((1, 0), one), ((0, 1), one), ((0, 0), one)]
        start = time.perf_counter()
        p = tropembed.coordinate_point(proj.system, chart,
                                       point(job["k"], job["c1"]))
        q = tropembed.coordinate_point(proj.system, chart,
                                       point(job["m"], job["c2"]))
        tp, tq = tropembed.trop_point(p), tropembed.trop_point(q)
        witness = tropembed.separation_witness(proj, p, q, f)
        rp = tropembed.refined_trop(witness, p)
        rq = tropembed.refined_trop(witness, q)
        back_p = tropembed.forget_refinement(witness, rp)
        back_q = tropembed.forget_refinement(witness, rq)
        elapsed = time.perf_counter() - start
        out = {"direct": trop_summary(tp), "refined": [trop_summary(rp),
                                                        trop_summary(rq)],
               "x_degree": list(witness.x_degree),
               "clearing": list(witness.clearing)}
        problems = []
        if list(tp.coords) != [i, 0] or tp != tq:
            problems.append("the pair is not tropically equal at (%d, 0)" % i)
        if rp == rq:
            problems.append("the refinement did not separate the pair")
        if back_p != tp or back_q != tq:
            problems.append("forgetting the refinement missed the direct point")
        return elapsed, out, problems


# ---------------------------------------------------------------------------
# monoid: Hilbert bases, relations and decompositions of fresh cones
# ---------------------------------------------------------------------------

def _monoid_pools():
    # rank-2 and rank-3 cones come in one pool per multiplicity, and every
    # pass takes the same number from each: Hilbert basis cost grows with
    # the multiplicity, so a free draw would make seeds differ in cost
    pools = {}
    for b in range(2, 56):
        pools["rank2-%d" % b] = [[[1, 0], [a, b]] for a in range(-b + 1, b)
                                 if math.gcd(a, b) == 1]
    for n in range(3, 13):
        pools["rank3-%d" % n] = [[[1, 0, 0], [0, 1, 0], [a, b, n]]
                                 for a in range(1, 3) for b in range(1, 4)]
    pools["nonpointed"] = [[[1, 0, 0], [-1, 0, 0], [x, b, c], [y, d, e]]
                           for x in (0, 1, -2) for y in (0, 3)
                           for b, c, d, e in itertools.product(range(-3, 4),
                                                               repeat=4)
                           if b * e - c * d > 0]
    pools["lowdim"] = [[[1, 0, 0], [a, b, 0]]
                       for b in range(1, 12) for a in range(-b + 1, b)
                       if math.gcd(a, b) == 1]
    pools["rank4"] = [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [a, b, c, m]]
                      for m in (2,) for a in range(3)
                      for b in range(3) for c in range(3)]
    return pools


MONOID_MIX = ([("rank2-%d" % b, 1) for b in range(2, 56)]
              + [("rank3-%d" % n, 3 if n <= 10 else 2) for n in range(3, 13)]
              + [("nonpointed", 6), ("lowdim", 4), ("rank4", 8)])
MONOID_TARGETS = 6


class Monoid(Workload):
    """Cone.from_rays -> hilbert_basis -> relations -> decompose -> point."""

    name = "monoid"
    _pools = None

    def jobs(self, seed, pass_index):
        if Monoid._pools is None:
            Monoid._pools = _monoid_pools()
        rng = rng_for("monoid", seed, pass_index)
        jobs = []
        for family, count in MONOID_MIX:
            for rays in pool_slice(Monoid._pools[family], seed, family,
                                   pass_index, count):
                n = len(rays[0])
                jobs.append({"kind": family.split("-")[0], "rays": rays,
                             "targets": [[rng.randint(0, 3) for _ in range(24)]
                                         for _ in range(MONOID_TARGETS)],
                             "u": [[rng.randint(-9, 9), rng.randint(1, 4)]
                                   for _ in range(n)]})
        rng.shuffle(jobs)
        return jobs

    def run(self, state, job):
        rays = [tuple(r) for r in job["rays"]]
        n = len(rays[0])
        u = [Fraction(a, b) for a, b in job["u"]]
        start = time.perf_counter()
        sigma = cone.Cone.from_rays(rays, n)
        basis = cone.hilbert_basis(sigma)
        gens = basis.generators
        relations = basis.relations()
        targets, parts = [], []
        for mults in job["targets"]:
            target = [sum(m * g[j] for m, g in zip(mults, gens))
                      for j in range(n)]
            targets.append(target)
            parts.append(basis.decompose(target))
        system = sysfan.SystemOfFans(n, ["1"], {("1", "1"): [sigma]})
        chart = system.omega().class_of(sigma, "1")
        values = {g: sum(a * b for a, b in zip(g, u)) for g in gens}
        point = troppre.point_from_chart_values(system, chart, values)
        elapsed = time.perf_counter() - start
        out = {"rays": rays_of(sigma), "generators": [list(g) for g in gens],
               "relations": [list(r) for r in relations],
               "decompositions": [sorted([list(g), m] for g, m in p.items())
                                  for p in parts],
               "point": trop_summary(point)}
        problems = []
        for rel in relations:
            if any(sum(c * g[j] for c, g in zip(rel, gens)) for j in range(n)):
                problems.append("a relation does not vanish on the generators")
        for target, p in zip(targets, parts):
            if any(m < 0 or g not in gens for g, m in p.items()):
                problems.append("decompose used a non-generator or negative count")
            total = [sum(m * g[j] for g, m in p.items()) for j in range(n)]
            if total != target:
                problems.append("decompose does not sum back to %s" % target)
        lineality = sigma.faces()[0]
        if not lineality.rays:
            if list(point.coords) != u:
                problems.append("point_from_chart_values lost the functional")
        elif list(point.coords) != list(lineality.span_quotient().push(u)):
            problems.append("point_from_chart_values lost the functional "
                            "modulo the lineality")
        if point.stratum.cone.rays != lineality.rays:
            problems.append("the functional's point is not on the minimal face")
        return elapsed, out, problems


# ---------------------------------------------------------------------------
# cli: one subprocess per call, chained through documents
# ---------------------------------------------------------------------------

CLI_GRADINGS = [
    ("P1", (1, (), [(1,), (1,)]), 3),
    ("P2", (1, (), [(1,), (1,), (1,)]), 7),
    ("P12", (1, (), [(1,), (2,)]), 3),
    ("P113", (1, (), [(1,), (1,), (3,)]), 7),
    ("P125", (1, (), [(1,), (2,), (5,)]), 7),
    ("doubled", (1, (), [(1,), (-1,)]), None),
    ("neg12", (1, (), [(1,), (2,), (-1,)]), None),
    ("torsion", (1, (2,), [(1, 0), (1, 1), (1, 0)]), 7),
    ("plane", (0, (), [(), ()]), None),
    ("F0", (2, (), [(1, 0), (1, 0), (0, 1), (0, 1)]), 9),
]
CLI_CHAIN_GRADINGS = 16        # proj -> validate -> omega -> separated each
CLI_TROP = 12
CLI_NONNEG = 8
CLI_KAPRANOV = 8
CLI_REFINE = 4
CLI_PRODUCT = 4
CLI_COMMANDS = ("validate", "omega", "separated", "proj", "trop", "nonneg",
                "kapranov", "refine", "product")


def _doc(kind, payload):
    doc = {"schema": 1, "kind": kind}
    doc.update(payload)
    return doc


def _grading_doc(spec):
    free, torsion, degrees = spec
    return _doc("grading", {"n": len(degrees), "free_rank": free,
                            "torsion": list(torsion),
                            "degrees": [list(d) for d in degrees]})


def _sparse(terms):
    """{power: coefficient} (nonnegative powers) as a sparse scalar doc."""
    return [[str(Fraction(c)), p] for p, c in sorted(terms.items()) if c]


def _scalar_doc(power, coeff):
    if power >= 0:
        return {"num": [[str(coeff), power]], "den": [["1", 0]]}
    return {"num": [[str(coeff), 0]], "den": [["1", -power]]}


class CliState:
    def __init__(self, directory):
        self.dir = directory
        self.files = {}
        self.expect = {}


class Cli(Workload):
    """The JSON command line, one process per call."""

    name = "cli"

    def __init__(self, root, env):
        self.root = root
        self.env = env

    def jobs(self, seed, pass_index):
        # one document set per seed; every pass replays it
        rng = rng_for("cli", seed, 0)
        jobs = []
        names = [g[0] for g in CLI_GRADINGS]
        chain = [names[k % len(names)] for k in range(CLI_CHAIN_GRADINGS)]
        rng.shuffle(chain)
        for k, name in enumerate(chain):
            sysname = "chain%d.json" % k
            jobs.append({"kind": "proj", "grading": name, "out": sysname})
            for command in ("validate", "omega", "separated"):
                jobs.append({"kind": command, "grading": name,
                             "system": sysname})
        for k in range(CLI_TROP):
            jobs.append({"kind": "trop", "grading": rng.choice(("P2", "P125", "P113", "F0")),
                         "id": k, "u": [rng.randint(-4, 4) for _ in range(2)],
                         "c": [rng.choice((1, -1, 2, 3)) for _ in range(2)]})
        for k in range(CLI_NONNEG):
            jobs.append({"kind": "nonneg", "grading": rng.choice(("P2", "P12", "plane")),
                         "id": k, "loads": [rng.randint(0, 3) for _ in range(2)],
                         "c": [rng.choice((1, -1, 2)) for _ in range(2)]})
        for k in range(CLI_KAPRANOV):
            jobs.append({"kind": "kapranov", "id": k,
                         "x": [rng.randint(-2, 2), rng.choice((1, 2))],
                         "y": [rng.randint(-2, 2), rng.choice((1, -3))],
                         "a": [rng.randint(-2, 2), rng.choice((1, 3))],
                         "b": [rng.randint(-2, 2), rng.choice((1, -1))]})
        for k in range(CLI_REFINE):
            jobs.append({"kind": "refine", "id": k})
        for k in range(CLI_PRODUCT):
            jobs.append({"kind": "product", "id": k,
                         "left": rng.choice(("P1", "P12", "doubled")),
                         "right": rng.choice(("P1", "P12", "doubled"))})
        head, tail = jobs[:4 * CLI_CHAIN_GRADINGS], jobs[4 * CLI_CHAIN_GRADINGS:]
        rng.shuffle(tail)
        return head + tail

    def setup(self, seed):
        bench_dir = self.root / ".bench_out"
        bench_dir.mkdir(exist_ok=True)
        state = CliState(tempfile.mkdtemp(prefix="cli-", dir=str(bench_dir)))
        specs = {name: spec for name, spec, _ in CLI_GRADINGS}
        systems = {}

        def write(name, doc):
            path = "%s/%s" % (state.dir, name)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, sort_keys=True)
            return path

        def system_file(name):
            if name not in systems:
                proj = multiproj.proj_system_of_fans(make_grading(specs[name]))
                systems[name] = (proj, write("sys-%s.json" % name, _doc(
                    "system_of_fans", sysfan.system_to_data(proj.system))))
            return systems[name]

        for name, spec, _ in CLI_GRADINGS:
            write("grading-%s.json" % name, _grading_doc(spec))
        for job in self.jobs(seed, 0):
            kind = job["kind"]
            if kind in ("trop", "nonneg"):
                proj, path = system_file(job["grading"])
                label, subset = sorted(proj.chart_subsets.items())[0]
                chart = proj.system.omega().class_of(proj.poset.cone_of(subset),
                                                     label)
                gens = cone.hilbert_basis(chart.cone).generators
                n = chart.cone.ambient_rank
                if kind == "trop":
                    u = job["u"][:n]
                else:
                    u = [0] * n
                    for ray, load in zip(chart.cone.rays, job["loads"]):
                        u = [a + load * r for a, r in zip(u, ray)]
                values = {}
                for index, g in enumerate(gens):
                    coeff = Fraction(1)
                    for c, e in zip(job["c"], g):
                        coeff *= Fraction(c) ** e
                    power = sum(a * b for a, b in zip(u, g))
                    values[str(index)] = _scalar_doc(power, coeff)
                point = write("point-%s-%d.json" % (kind, job["id"]),
                              _doc("classical_point", {"chart": chart.class_id,
                                                       "values": values}))
                state.files[(kind, job["id"])] = (point, path)
                state.expect[(kind, job["id"])] = [str(Fraction(x)) for x in u]
            elif kind == "kapranov":
                proj, path = system_file("plane")
                chart = proj.system.omega().class_of(
                    proj.poset.cone_of(frozenset()), "1")
                dense = proj.system.omega().class_of(cone.Cone.from_rays([], 2),
                                                     "1")
                (xp, xc), (yp, yc) = job["x"], job["y"]
                (ap, ac), (bp, bc) = job["a"], job["b"]
                # a x + b y + c with c = -(a x0 + b y0): x0, y0 is a root
                c = {}
                for p, v in ((ap + xp, ac * xc), (bp + yp, bc * yc)):
                    c[p] = c.get(p, 0) - v
                c = {p: v for p, v in c.items() if v}
                cval = "inf" if not c else str(min(c))
                terms = [{"exp": [1, 0], "val": str(ap)},
                         {"exp": [0, 1], "val": str(bp)},
                         {"exp": [0, 0], "val": cval}]
                with open(path, encoding="utf-8") as handle:
                    sysdoc = json.load(handle)
                poly = write("poly-%d.json" % job["id"], _doc(
                    "polynomial", {"system": sysdoc, "chart": chart.class_id,
                                   "terms": terms}))
                trop = write("trop-%d.json" % job["id"], _doc(
                    "trop_point", {"class": dense.class_id,
                                   "coords": [str(xp), str(yp)]}))
                state.files[(kind, job["id"])] = (poly, trop)
            elif kind == "refine":
                proj, _ = system_file("plane")
                chart = proj.system.omega().class_of(
                    proj.poset.cone_of(frozenset()), "1")
                gens = cone.hilbert_basis(chart.cone).generators
                # the frozen pair (t, -1 - t) and (t, -1 + t), keyed by the
                # generator order (y before x)
                pair = []
                for sign in (-1, 1):
                    vals = {(1, 0): {"num": _sparse({1: 1}), "den": [["1", 0]]},
                            (0, 1): {"num": _sparse({0: -1, 1: sign}),
                                     "den": [["1", 0]]}}
                    pair.append(write("pair-%d-%d.json" % (job["id"], sign), _doc(
                        "classical_point",
                        {"chart": chart.class_id,
                         "values": {str(k): vals[g] for k, g in enumerate(gens)}})))
                gtilde = write("gtilde.json", _doc("polynomial", {"terms": [
                    {"exp": [1, 0], "coeff": "1"}, {"exp": [0, 1], "coeff": "1"},
                    {"exp": [0, 0], "coeff": "1"}]}))
                state.files[(kind, job["id"])] = (gtilde, pair)
            elif kind == "product":
                state.files[(kind, job["id"])] = (system_file(job["left"])[1],
                                                  system_file(job["right"])[1])
        return state

    def teardown(self, state):
        shutil.rmtree(state.dir, ignore_errors=True)

    def argv(self, state, job):
        kind = job["kind"]
        d = state.dir
        if kind == "proj":
            return ["proj", "%s/grading-%s.json" % (d, job["grading"])]
        if kind in ("validate", "omega", "separated"):
            return [kind, "%s/%s" % (d, job["system"])]
        files = state.files[(kind, job["id"])]
        if kind == "trop":
            return ["trop", files[0], files[1]]
        if kind == "nonneg":
            return ["nonneg", files[0], files[1], "--compare"]
        if kind == "kapranov":
            return ["kapranov", files[0], files[1]]
        if kind == "refine":
            return ["refine", "%s/grading-plane.json" % d, "--gtilde", files[0],
                    "--point", files[1][0], "--point", files[1][1]]
        return ["product", files[0], files[1]]

    def run(self, state, job):
        argv = self.argv(state, job)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "prevtrop.cli"] + argv,
                              env=self.env, cwd=str(self.root),
                              capture_output=True, check=False)
        elapsed = time.perf_counter() - start
        return elapsed, proc.stdout, self.finish(state, job, proc.returncode,
                                                 proc.stdout, proc.stderr)

    def run_in_process(self, state, job):
        """The same call through ``cli.main`` in this process."""
        argv = self.argv(state, job)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        data = out.getvalue().encode()
        return elapsed, data, self.finish(state, job, code, data,
                                          err.getvalue().encode())

    def finish(self, state, job, code, stdout, stderr):
        """Keep a proj result for the calls chained on it; check the call."""
        if job["kind"] == "proj" and code == 0:
            with open("%s/%s" % (state.dir, job["out"]), "wb") as handle:
                handle.write(stdout)
        return self.check(state, job, code, stdout, stderr)

    def check(self, state, job, code, stdout, stderr):
        kind = job["kind"]
        if code != 0:
            return ["exit %d: %s" % (code, stderr.decode(errors="replace")[-200:])]
        try:
            doc = json.loads(stdout)
        except ValueError:
            return ["stdout is not JSON"]
        if kind == "proj":
            return [] if doc.get("kind") == "system_of_fans" else ["proj kind"]
        expected = {name: count for name, _, count in CLI_GRADINGS}
        signs = {name: [d[0] for d in spec[2] if d]
                 for name, spec, _ in CLI_GRADINGS}
        problems = []
        if kind == "validate" and not doc.get("ok"):
            problems.append("a Proj system failed validation")
        if kind == "omega":
            count = expected[job["grading"]]
            if count is not None and len(doc["classes"]) != count:
                problems.append("%s has %d classes, not %d"
                                % (job["grading"], len(doc["classes"]), count))
        if kind == "separated":
            ws = signs[job["grading"]]
            if expected[job["grading"]] is not None and \
                    not (doc["separated"] and doc["support_is_full"]):
                problems.append("weighted projective space not separated "
                                "with full support")
            if ws and min(ws) < 0 < max(ws) and \
                    (doc["separated"] or doc["witness"] is None):
                problems.append("grading with weights of both signs gave no witness")
        if kind == "trop" and doc["coords"] != state.expect[(kind, job["id"])]:
            problems.append("trop coordinates are not the built-in valuations")
        if kind == "nonneg" and \
                doc["comparison"]["coords"] != state.expect[(kind, job["id"])]:
            problems.append("nonneg comparison is not the built-in valuations")
        if kind == "kapranov" and doc["member"] is not True:
            problems.append("a constructed root failed Kapranov")
        if kind == "refine" and (len(doc["points"]) != 2 or not all(
                p["projection_matches_direct"] for p in doc["points"])):
            problems.append("forgetting the refinement missed the direct point")
        if kind == "product" and doc.get("kind") != "system_of_fans":
            problems.append("product did not return a system")
        return problems


def make(name, root, env):
    if name == "cli":
        return Cli(root, env)
    return {"glue": Glue, "points": Points, "monoid": Monoid}[name]()


NAMES = ("glue", "points", "monoid", "cli")
