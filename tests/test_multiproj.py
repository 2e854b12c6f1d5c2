"""Graded-ring relevance and chart-system construction tests.

The relevance oracle is independent of the package's Smith-form route: the
index of a finite-index subgroup equals the gcd of the maximal minors of its
generator matrix (torsion relations appended), computed here by naive
cofactor expansion.
"""

import gc
import itertools
import math
from fractions import Fraction

import pytest

from prevtrop import cone as cone_module
from prevtrop import multiproj
from prevtrop.cone import Cone
from prevtrop.exactla import AbelianGroup, rational_rank, solve_rational
from prevtrop.multiproj import (
    ChartPoset,
    EmptyProj,
    Grading,
    grading_from_data,
    grading_to_data,
    is_relevant_subset,
    monomial_in_irrelevant_ideal,
    proj_system_of_fans,
    relevance_index,
    relevant_subsets,
)
from prevtrop.sysfan import Fan, is_separated, support_is_full, validate_system

import systems
from conftest import fresh_rng


# ---------------------------------------------------------------------------
# oracle: subgroup index via gcd of maximal minors
# ---------------------------------------------------------------------------

def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1 if j % 2 else 1) * rows[0][j] * _det(minor)
    return total


def oracle_relevance_index(grading, subset):
    """Index of the degree subgroup, or None: gcd of k x k minors of the
    generator-plus-torsion-relation matrix, k the generator count of D."""
    k = grading.group.ngens
    if k == 0:
        return 1
    cols = [list(grading.degrees[i - 1]) for i in sorted(subset)]
    for t, m in enumerate(grading.group.torsion):
        rel = [0] * k
        rel[grading.group.free_rank + t] = m
        cols.append(rel)
    g = 0
    for pick in itertools.combinations(range(len(cols)), k):
        sub = [[cols[c][r] for c in pick] for r in range(k)]
        g = math.gcd(g, abs(_det(sub)))
    return g if g else None


def _all_subsets(n):
    for size in range(n + 1):
        for c in itertools.combinations(range(1, n + 1), size):
            yield frozenset(c)


# the four running example gradings on k[T1, T2]
def g_point():
    return Grading(AbelianGroup(2), [(1, 0), (0, 1)])


def g_empty():
    return Grading(AbelianGroup(2), [(1, 0), (1, 0)])


def g_projline():
    return Grading(AbelianGroup(1), [(1,), (1,)])


def g_doubled():
    return Grading(AbelianGroup(1), [(1,), (-1,)])


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------

def test_grading_reduces_torsion_coordinates():
    g = Grading(AbelianGroup(1, (2,)), [(3, 5), (0, -1)])
    assert g.degrees == ((3, 1), (0, 1))


def test_grading_rejects_bad_degree_length():
    with pytest.raises(ValueError):
        Grading(AbelianGroup(2), [(1,), (0, 1)])


def test_degree_of_monomial():
    g = Grading(AbelianGroup(1, (2,)), [(1, 1), (2, 0)])
    assert g.degree_of_monomial((1, 0)) == (1, 1)
    assert g.degree_of_monomial((3, 2)) == (7, 1)
    assert g.degree_of_monomial((0, 0)) == (0, 0)


def test_fractional_grading_entries_are_rejected():
    with pytest.raises(ValueError):
        grading_from_data({"n": 2, "free_rank": 1, "degrees": [[1.5], [1]]})
    for bad in [{"n": 2.5, "free_rank": 1, "degrees": [[1], [1]]},
                {"n": 2, "free_rank": 1.0, "degrees": [[1], [1]]},
                {"n": 1, "free_rank": 1, "torsion": [2.5],
                 "degrees": [[1, 0]]}]:
        with pytest.raises(ValueError):
            grading_from_data(bad)
    g = g_projline()
    with pytest.raises(ValueError):
        g.group.reduce((Fraction(1, 2),))
    with pytest.raises(ValueError):
        g.degree_of_monomial((1.5, 0))
    with pytest.raises(ValueError):
        is_relevant_subset(g, [1.5])
    with pytest.raises(ValueError):
        monomial_in_irrelevant_ideal(g, (0.5, 1))
    assert g.degree_of_monomial((Fraction(2), 1)) == (3,)
    assert grading_from_data({"n": 2, "free_rank": 1,
                              "degrees": [[Fraction(1)], [1]]}) == g


def test_grading_data_round_trip():
    for g in [g_point(), g_projline(), Grading(AbelianGroup(1, (2,)), [(1, 1)])]:
        assert grading_from_data(grading_to_data(g)) == g


# ---------------------------------------------------------------------------
# relevance
# ---------------------------------------------------------------------------

def test_relevance_frozen_examples():
    assert is_relevant_subset(g_point(), {1, 2})
    assert not is_relevant_subset(g_point(), {1})
    assert not is_relevant_subset(g_point(), set())
    for f in _all_subsets(2):
        assert not is_relevant_subset(g_empty(), f)
    trivial = Grading(AbelianGroup(0), [(), ()])
    assert is_relevant_subset(trivial, set())
    assert relevance_index(trivial, set()) == 1


def test_relevance_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_relevant_subset(g_point(), {3})


def test_relevance_index_values():
    g = Grading(AbelianGroup(1), [(2,), (3,)])
    assert relevance_index(g, {1}) == 2
    assert relevance_index(g, {2}) == 3
    assert relevance_index(g, {1, 2}) == 1
    gt = Grading(AbelianGroup(1, (2,)), [(1, 0), (1, 1)])
    assert relevance_index(gt, {1}) == 2
    assert relevance_index(gt, {1, 2}) == 1


def test_relevance_exhaustive_rank_one():
    group = AbelianGroup(1)
    for d1 in range(-2, 3):
        for d2 in range(-2, 3):
            g = Grading(group, [(d1,), (d2,)])
            rel = {f for f in _all_subsets(2) if is_relevant_subset(g, f)}
            for f in _all_subsets(2):
                assert relevance_index(g, f) == oracle_relevance_index(g, f)
                if f in rel:
                    for sup in _all_subsets(2):
                        if f <= sup:
                            assert sup in rel


def test_relevance_matches_oracle_random(rng):
    groups = [AbelianGroup(1), AbelianGroup(2), AbelianGroup(1, (2,)),
              AbelianGroup(0, (3,))]
    for _ in range(200):
        group = rng.choice(groups)
        n = rng.randint(1, 3)
        g = Grading(group, [tuple(rng.randint(-2, 2)
                                  for _ in range(group.ngens))
                            for _ in range(n)])
        relevant = set()
        for f in _all_subsets(n):
            assert relevance_index(g, f) == oracle_relevance_index(g, f), (g, f)
            if is_relevant_subset(g, f):
                relevant.add(f)
        for f in relevant:
            for sup in _all_subsets(n):
                if f <= sup:
                    assert sup in relevant


def test_relevance_by_rank_matches_the_index(rng):
    # the torsion part is finite, so relevance is a rank condition on the
    # free parts; relevance_index keeps the Smith form and is the oracle
    groups = [AbelianGroup(0), AbelianGroup(0, (2, 4)), AbelianGroup(1),
              AbelianGroup(1, (2,)), AbelianGroup(1, (3, 6)), AbelianGroup(2),
              AbelianGroup(2, (2,))]
    outcomes = set()
    for _ in range(150):
        group = rng.choice(groups)
        n = rng.randint(1, 4)
        # zero degrees are common: each free entry is 0 half of the time
        degrees = [tuple(rng.choice([0, 0, rng.randint(-3, 3)])
                         for _ in range(group.free_rank))
                   + tuple(rng.randrange(m) for m in group.torsion)
                   for _ in range(n)]
        g = Grading(group, degrees)
        for f in _all_subsets(n):
            relevant = is_relevant_subset(g, f)
            assert relevant == (relevance_index(g, f) is not None), (g, f)
            outcomes.add((group.free_rank, relevant))
    assert outcomes == {(0, True), (1, True), (1, False), (2, True), (2, False)}


def test_chart_poset_builds_cones_on_request(monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError("cone built before it was asked for")

    grading = Grading(AbelianGroup(1), [(1,), (2,), (-1,), (3,)])
    monkeypatch.setattr(Cone, "from_rays", classmethod(refuse))
    poset = ChartPoset(grading)
    monkeypatch.undo()
    assert len(poset.subsets) > 8
    for f in poset.subsets:
        expected = Cone.from_rays([poset.q.column(i - 1) for i in range(1, 5)
                                   if i not in f], poset.kernel.rank)
        assert poset.cone_of(f) is expected
        assert poset.cone_of(sorted(f)) is expected
    irrelevant = [f for f in _all_subsets(4) if not poset.is_relevant(f)]
    assert irrelevant
    for f in irrelevant:
        with pytest.raises(KeyError):
            poset.cone_of(f)


def test_proj_system_reads_no_cone_description(monkeypatch):
    # every cone of a Proj chart system is simplicial: building P^4 computes
    # only the chart poset's degree kernel, and every cone stays unbuilt
    kernels = []
    raw_kernel = multiproj.kernel_lattice

    def kernel(matrix):
        kernels.append(matrix)
        return raw_kernel(matrix)

    def fill(self):
        raise AssertionError("cone description read")

    grading = Grading(AbelianGroup(1), [(1,)] * 5)
    gc.collect()
    assert grading not in multiproj._PROJS
    for module in (multiproj, cone_module):
        monkeypatch.setattr(module, "kernel_lattice", kernel)
    monkeypatch.setattr(Cone, "_fill", fill)
    system = proj_system_of_fans(grading).system
    assert len(kernels) == 1
    unions = {c for a, b in itertools.permutations(system.labels, 2)
              for c in system.fan(a, b).maximal_cones()}
    assert len(unions) == 10
    assert all(c._ineqs is None and c.dim == 3 for c in unions)


def test_monomial_membership():
    assert monomial_in_irrelevant_ideal(g_point(), (1, 1))
    assert not monomial_in_irrelevant_ideal(g_point(), (5, 0))
    assert not monomial_in_irrelevant_ideal(g_empty(), (3, 4))
    assert monomial_in_irrelevant_ideal(g_projline(), (0, 2))
    with pytest.raises(ValueError):
        monomial_in_irrelevant_ideal(g_point(), (1, -1))


# ---------------------------------------------------------------------------
# the chart poset
# ---------------------------------------------------------------------------

def test_chart_poset_projline():
    poset = relevant_subsets(g_projline())
    assert poset.subsets == (frozenset({1}), frozenset({2}), frozenset({1, 2}))
    assert poset.minimal == (frozenset({1}), frozenset({2}))
    assert poset.cone_of({1}).rays == ((-1,),)
    assert poset.cone_of({2}).rays == ((1,),)
    assert poset.cone_of({1, 2}).rays == ()


def test_chart_poset_empty():
    assert len(relevant_subsets(g_empty())) == 0


def test_chart_poset_trivial_group():
    poset = relevant_subsets(Grading(AbelianGroup(0), [(), ()]))
    assert len(poset) == 4
    assert poset.minimal == (frozenset(),)
    # no grading at all: the whole coordinate quadrant is the one chart
    assert poset.cone_of(set()).rays == ((0, 1), (1, 0))


def test_chart_poset_face_order():
    for g in [g_projline(), g_doubled(),
              Grading(AbelianGroup(1), [(1,), (1,), (1,)])]:
        poset = relevant_subsets(g)
        for f in poset.subsets:
            for h in poset.subsets:
                if f <= h:
                    assert poset.leq(h, f)
                    assert poset.cone_of(f).has_face(poset.cone_of(h))


def test_chart_cones_simplicial():
    gradings = [g_point(), g_projline(), g_doubled(),
                Grading(AbelianGroup(1), [(1,), (1,), (1,)]),
                Grading(AbelianGroup(1), [(1,), (1,), (2,)]),
                Grading(AbelianGroup(2), [(1, 0), (0, 1), (1, 1)])]
    for g in gradings:
        poset = relevant_subsets(g)
        for f in poset.subsets:
            assert poset.cone_of(f).is_simplicial()


def check_chart_rays_independent(poset):
    """Reference: the check ChartPoset used to run on every construction.
    For every relevant subset the complement's columns of q are independent,
    so every chart cone is simplicial."""
    n = poset.grading.n
    for subset in poset.subsets:
        vectors = [poset.q.column(i - 1) for i in range(1, n + 1)
                   if i not in subset]
        assert rational_rank(vectors, width=poset.kernel.rank) == len(vectors), \
            (poset.grading, sorted(subset))
    return len(poset.subsets)


def test_chart_rays_are_independent_for_every_grading():
    # imported here: test_acceptance imports this module
    from test_acceptance import grading_family

    rng = fresh_rng(8)
    # independence survives a permutation of the variables
    family = {(group, tuple(sorted(degrees)))
              for group, degrees in grading_family(rng)}
    for free_rank, torsion in [(1, ()), (2, ()), (1, (2,)), (1, (2, 3)),
                               (2, (4,))]:
        group = AbelianGroup(free_rank, torsion)
        for _ in range(30):
            degrees = [tuple(rng.randint(-3, 3) for _ in range(free_rank))
                       + tuple(rng.randrange(m) for m in torsion)
                       for _ in range(rng.randint(3, 5))]
            family.add((group, tuple(degrees)))
    subsets = mixed = 0
    for group, degrees in sorted(family, key=repr):
        subsets += check_chart_rays_independent(
            ChartPoset(Grading(group, list(degrees))))
        free = [d[0] for d in degrees if group.free_rank]
        mixed += min(free, default=0) < 0 < max(free, default=0)
    assert subsets > 20000 and mixed > 1000


def test_variable_limit():
    g = Grading(AbelianGroup(1), [(1,)] * 17)
    with pytest.raises(ValueError):
        relevant_subsets(g)


# ---------------------------------------------------------------------------
# the glued systems
# ---------------------------------------------------------------------------

def test_proj_point():
    p = proj_system_of_fans(g_point())
    assert p.system.labels == ("T1*T2",)
    assert p.ambient_rank == 0
    assert len(p.system.omega()) == 1
    assert validate_system(p.system) == []


def test_proj_empty():
    with pytest.raises(EmptyProj):
        proj_system_of_fans(g_empty())


def test_proj_line():
    p = proj_system_of_fans(g_projline())
    assert p.system.labels == ("T1", "T2")
    assert p.system.fan("T1").maximal_cones()[0].rays == ((-1,),)
    assert p.system.fan("T2").maximal_cones()[0].rays == ((1,),)
    assert p.system.fan("T1", "T2").maximal_cones()[0].rays == ()
    assert validate_system(p.system) == []
    assert is_separated(p.system)[0]
    assert support_is_full(p.system)


def test_proj_doubled_line_matches_fixture():
    p = proj_system_of_fans(g_doubled())
    fixture = systems.line_two_origins()
    assert len(p.system.labels) == 2
    pairs = list(zip(p.system.labels, fixture.labels))
    for a, la in pairs:
        for b, lb in pairs:
            assert p.system.fan(a, b) == fixture.fan(la, lb)
    ok, witness = is_separated(p.system)
    assert not ok
    assert witness[0].cone == witness[1].cone
    assert len(p.system.omega()) == 3


def test_proj_plane():
    p = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (1,), (1,)]))
    assert p.system.labels == ("T1", "T2", "T3")
    assert validate_system(p.system) == []
    assert is_separated(p.system)[0]
    assert support_is_full(p.system)
    maximal = [p.system.fan(l).maximal_cones()[0] for l in p.system.labels]
    assert all(c.dim == 2 and c.is_simplicial() for c in maximal)
    # the union is the standard complete fan of the projective plane
    union = Fan(maximal, 2)
    byhand = Fan([Cone.from_rays([(1, 0), (0, 1)], 2),
                  Cone.from_rays([(1, 0), (-1, -1)], 2),
                  Cone.from_rays([(0, 1), (-1, -1)], 2)], 2)
    assert union == byhand


def test_proj_torsion_geometry_matches_free_quotient():
    # torsion changes relevance indices but never the cones
    free = proj_system_of_fans(g_projline())
    tors = proj_system_of_fans(
        Grading(AbelianGroup(1, (2,)), [(1, 0), (1, 1)]))
    assert tors.system.labels == free.system.labels
    for a in free.system.labels:
        for b in free.system.labels:
            assert tors.system.fan(a, b) == free.system.fan(a, b)


def test_proj_metadata():
    p = proj_system_of_fans(g_projline())
    assert p.chart_subsets == {"T1": frozenset({1}), "T2": frozenset({2})}
    assert p.chart_label({2}) == "T2"
    with pytest.raises(KeyError):
        p.chart_label({1, 2})
    assert p.q.row_lists() == [[1, -1]]
    assert p.kernel.rank == 1


def test_proj_output_always_validates(rng):
    groups = [AbelianGroup(1), AbelianGroup(2)]
    built = 0
    while built < 25:
        group = rng.choice(groups)
        n = rng.randint(1, 4)
        g = Grading(group, [tuple(rng.randint(-2, 2)
                                  for _ in range(group.ngens))
                            for _ in range(n)])
        try:
            p = proj_system_of_fans(g)
        except EmptyProj:
            continue
        assert validate_system(p.system) == []
        for label in p.system.labels:
            for c in p.system.fan(label):
                assert c.is_simplicial()
        built += 1


def test_equal_gradings_share_one_live_proj():
    degrees = [(1, 0), (2, 1), (5, 2)]
    first = proj_system_of_fans(Grading(AbelianGroup(1, (3,)), degrees))
    again = proj_system_of_fans(Grading(AbelianGroup(1, (3,)), list(degrees)))
    assert again is first
    key = first.grading
    assert multiproj._PROJS[key] is first
    del first, again
    gc.collect()
    assert key not in multiproj._PROJS


def _solved_character(proj, exponent):
    """Oracle: a direct rational solve of q^T s = exponent, None unless it
    has an integral solution."""
    sol = solve_rational(proj.q.transpose().row_lists(), exponent)
    if sol is None or any(c.denominator != 1 for c in sol):
        return None
    return tuple(c.numerator for c in sol)


def test_character_map_matches_the_rational_solve():
    rng = fresh_rng(13)
    # degrees with a rank-0 degree kernel, by free rank
    independent = {0: [], 1: [(1,)], 2: [(1, 1), (1, 2)]}
    seen = set()
    for free_rank in (0, 1, 2):
        for torsion in ((), (2,), (3,)):
            group = AbelianGroup(free_rank, torsion)
            gradings = [Grading(group, [d + (1,) * len(torsion)
                                        for d in independent[free_rank]])]
            while len(gradings) < 6:
                n = rng.randint(1, 4)
                gradings.append(Grading(group, [
                    tuple(rng.randint(-2, 3) for _ in range(group.ngens))
                    for _ in range(n)]))
            for g in gradings:
                try:
                    proj = proj_system_of_fans(g)
                except EmptyProj:
                    continue
                rows = proj.q.row_lists()
                for k in range(10):
                    if k % 2 and rows:
                        exponent = [0] * g.n
                        for row in rows:
                            c = rng.randint(-3, 3)
                            exponent = [a + c * b for a, b in zip(exponent, row)]
                    else:
                        exponent = [rng.randint(-4, 4) for _ in range(g.n)]
                    expected = _solved_character(proj, exponent)
                    if expected is None:
                        with pytest.raises(ValueError, match="does not descend"):
                            proj.character(exponent)
                    else:
                        assert proj.character(exponent) == expected
                    seen.add((proj.kernel.rank == 0, expected is None))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
