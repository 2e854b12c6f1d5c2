"""Cone geometry tests.

Two independent oracles keep the double-description code honest in rank 2,
where everything is checkable by elementary means: duals via rotated
perpendiculars, Hilbert bases via lattice points of the fundamental
parallelogram.  In ranks 2 to 4 Hilbert bases are also checked against an
enumeration of every lattice point of a zonotope bounding box.  Higher ranks
are covered by frozen examples and structural properties (duality
involution, face closure, quotient identities).
"""

import gc
import itertools
import math
import sys
import weakref
from fractions import Fraction

import pytest

from prevtrop import cone as cone_module
from prevtrop import exactla, monoid, tropembed
from prevtrop.cone import (
    Cone,
    _generator_list,
    _halfspace_generators,
    _reduce_mod,
    dot,
    hilbert_basis,
    lattice_quotient,
    primitive,
)
from prevtrop.exactla import (
    AbelianGroup,
    IntMatrix,
    _echelon,
    kernel_lattice,
    rational_rank,
)
from prevtrop.multiproj import EmptyProj, Grading, proj_system_of_fans
from prevtrop.sysfan import SystemOfFans, is_separated, validate_system


# ---------------------------------------------------------------------------
# oracles (independent routes, rank 2)
# ---------------------------------------------------------------------------

def _rot(v):
    return (-v[1], v[0])


def oracle_dual_2d(r1, r2):
    """Dual of a pointed full-dimensional 2D cone: rotate each ray a quarter
    turn and orient toward the other ray.  Valid whenever r1, r2 are linearly
    independent, because two independent rays always span a salient cone."""
    s1 = primitive(_rot(r1))
    if dot(s1, r2) < 0:
        s1 = tuple(-x for x in s1)
    s2 = primitive(_rot(r2))
    if dot(s2, r1) < 0:
        s2 = tuple(-x for x in s2)
    return tuple(sorted({s1, s2}))


def _parallelogram_coords(r1, r2, v):
    det = r1[0] * r2[1] - r1[1] * r2[0]
    a = Fraction(v[0] * r2[1] - v[1] * r2[0], det)
    b = Fraction(v[1] * r1[0] - v[0] * r1[1], det)
    return a, b


def oracle_hilbert_2d(r1, r2):
    """Hilbert basis of the lattice points of cone(r1, r2), r1, r2 independent.

    Every irreducible sits in the fundamental parallelogram (subtract a ray
    generator otherwise), and any witness of reducibility does too, so a
    reducibility sweep over the parallelogram's lattice points is complete.
    """
    xs = [0, r1[0], r2[0], r1[0] + r2[0]]
    ys = [0, r1[1], r2[1], r1[1] + r2[1]]
    pts = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            if x == 0 and y == 0:
                continue
            a, b = _parallelogram_coords(r1, r2, (x, y))
            if 0 <= a <= 1 and 0 <= b <= 1:
                pts.append((x, y))
    ptset = set(pts)
    basis = [p for p in pts
             if not any((p[0] - q[0], p[1] - q[1]) in ptset for q in pts)]
    return tuple(sorted(basis))


def _independent_primitive_pairs(bound):
    vecs = sorted({primitive((x, y))
                   for x in range(-bound, bound + 1)
                   for y in range(-bound, bound + 1) if (x, y) != (0, 0)})
    for i, r1 in enumerate(vecs):
        for r2 in vecs[i + 1:]:
            if r1[0] * r2[1] - r1[1] * r2[0] != 0:
                yield r1, r2


def oracle_hilbert_box(cone):
    """Hilbert basis of sigma^v cap M by enumerating a zonotope box.

    Units split off and the image of the dual cone in the quotient as in the
    library; then every lattice point of the image cone below the zonotope
    bound of its primitive rays is a candidate, and a candidate is kept iff it
    is no sum of two other candidates.  Exponential in the rank.
    """
    n = cone.ambient_rank
    unit_rows = [tuple(b) for b in cone._dual_lineality.basis_rows()]
    units = unit_rows + [tuple(-x for x in b) for b in unit_rows]
    quot = lattice_quotient(unit_rows, n) if unit_rows else None
    proj = quot.proj if quot else IntMatrix.identity(n)
    k = quot.rank if quot else n
    img_rays = sorted({primitive(proj.apply(u)) for u in cone.inequalities
                       if u not in units})
    if not img_rays:
        return tuple(sorted(units))
    img_lin, img_ext = _halfspace_generators(img_rays, k)
    img_normals = _generator_list(img_lin, img_ext)
    w = tuple(sum(u[j] for u in img_normals) for j in range(k))
    weights = [dot(w, r) for r in img_rays]
    total = sum(weights)
    ranges = []
    for j in range(k):
        lo = sum(Fraction(total, wr) * min(r[j], 0) for r, wr in zip(img_rays, weights))
        hi = sum(Fraction(total, wr) * max(r[j], 0) for r, wr in zip(img_rays, weights))
        ranges.append(range(math.floor(lo), math.ceil(hi) + 1))
    candidates = [p for p in itertools.product(*ranges)
                  if any(p) and dot(w, p) <= total
                  and all(dot(p, u) >= 0 for u in img_normals)]
    cand_set = set(candidates)
    basis = [x for x in candidates
             if not any(tuple(a - b for a, b in zip(x, y)) in cand_set
                        for y in candidates)]
    lifts = [tuple(quot.section.apply(h)) for h in basis] if quot else basis
    return tuple(sorted(units + lifts))


def oracle_halfspace_generators(normals, n):
    """The double description sweep with a rank test for extremality.

    After each normal every candidate ray is kept iff its tight processed
    normals have rank exactly rank(all processed normals) - 1.  The library
    sweep decides the same with zero sets and no rank computation.
    """
    normals = sorted({primitive(a) for a in normals if any(a)})
    lin = [(j, tuple(1 if k == j else 0 for k in range(n))) for j in range(n)]
    rays = []
    processed = []
    for a in normals:
        hit = next(((pc, l) for pc, l in lin if dot(a, l) != 0), None)
        if hit is not None:
            pc0, l0 = hit
            if dot(a, l0) < 0:
                l0 = tuple(-x for x in l0)
            d0 = dot(a, l0)
            others = [l for pc, l in lin if pc != pc0]
            lin = _echelon(
                [tuple(d0 * x - dot(a, l) * y for x, y in zip(l, l0)) for l in others], n)
            rays = [tuple(d0 * x - dot(a, r) * y for x, y in zip(r, l0)) for r in rays]
            rays.append(l0)
        else:
            plus, zero, minus = [], [], []
            for r in rays:
                d = dot(a, r)
                (plus if d > 0 else zero if d == 0 else minus).append((d, r))
            rays = [r for _, r in plus + zero]
            for dp, p in plus:
                for dm, m in minus:
                    rays.append(tuple(dp * x - dm * y for x, y in zip(m, p)))
        processed.append(a)
        seen = set()
        cleaned = []
        for r in rays:
            r = _reduce_mod(lin, r)
            if any(r) and r not in seen:
                seen.add(r)
                cleaned.append(r)
        rank_all = rational_rank(processed, width=n)
        rays = [r for r in cleaned
                if rational_rank([p for p in processed if dot(p, r) == 0], width=n)
                == rank_all - 1]
    lineality = kernel_lattice(IntMatrix.from_rows(processed, cols=n))
    return lineality, tuple(sorted(rays))


# ---------------------------------------------------------------------------
# construction and canonical form
# ---------------------------------------------------------------------------

def test_canonical_under_presentation_changes():
    base = Cone.from_rays([(1, 0), (1, 2)], 2)
    same = Cone.from_rays([(2, 4), (1, 0), (3, 0), (1, 2), (2, 2)], 2)
    assert base == same
    assert base.rays == ((1, 0), (1, 2))
    assert base.inequalities == ((0, 1), (2, -1))
    assert Cone.from_inequalities(base.inequalities, 2) == base


def test_interior_generators_are_dropped():
    c = Cone.from_rays([(1, 0), (1, 1), (0, 1)], 2)
    assert c.rays == ((0, 1), (1, 0))


def test_zero_cone_and_full_space():
    zero = Cone.from_rays([], 2)
    assert zero.rays == ()
    assert zero.dim == 0
    assert sorted(zero.inequalities) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    full = zero.dual()
    assert full.inequalities == ()
    assert full.dim == 2
    assert full.dual() == zero
    point = Cone.from_rays([], 0)
    assert point.rays == () and point.inequalities == ()
    assert point.contains(())[0] == "interior"


def test_halfplane_has_lineality_pair():
    h = Cone.from_inequalities([(0, 1)], 2)
    assert h.rays == ((-1, 0), (0, 1), (1, 0))
    assert h.lineality.rank == 1
    assert not h.is_pointed()
    assert h.dual().rays == ((0, 1),)


def test_duality_involution_on_fixed_cones():
    for rays, n in [([(1, 0), (1, 2)], 2),
                    ([(1,)], 1),
                    ([], 2),
                    ([(1, 0), (0, 1), (0, 0)], 2),
                    ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)]:
        c = Cone.from_rays(rays, n)
        assert c.dual().dual() == c


def test_self_dual_ray_on_line():
    r = Cone.from_rays([(1,)], 1)
    assert r.dual().rays == ((1,),)
    assert r.dual() == r


def test_dual_matches_rotation_oracle():
    count = 0
    for r1, r2 in _independent_primitive_pairs(3):
        c = Cone.from_rays([r1, r2], 2)
        assert c.rays == tuple(sorted({r1, r2}))
        assert c.inequalities == oracle_dual_2d(r1, r2)
        assert c.dual().rays == c.inequalities
        assert c.dual().dual() == c
        count += 1
    assert count > 300


def test_duality_involution_random_higher_rank(rng):
    for _ in range(120):
        n = rng.choice([2, 3, 4])
        k = rng.randint(0, 5)
        rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        c = Cone.from_rays(rays, n)
        d = c.dual()
        assert d.dual() == c
        assert Cone.from_rays(d.rays, n) == d
        # H-description really cuts out the cone: rays satisfy it, duals flip
        for r in c.rays:
            assert all(dot(u, r) >= 0 for u in c.inequalities)
        for u in d.rays:
            assert all(dot(u, r) >= 0 for r in c.rays)


def _random_normals(rng):
    n = rng.randint(1, 5)
    bound = rng.choice([1, 2, 3])
    normals = [tuple(rng.randint(-bound, bound) for _ in range(n))
               for _ in range(rng.randint(0, 9))]
    if normals and rng.random() < 0.3:
        # a hyperplane, so the cone loses dimension
        normals.append(tuple(-x for x in rng.choice(normals)))
    if normals and rng.random() < 0.3:
        # a repeated normal, as is or scaled
        normals.append(tuple(rng.choice([1, 2]) * x for x in rng.choice(normals)))
    return normals, n


def test_sweep_matches_the_rank_test_oracle(rng):
    non_pointed = non_simplicial = independent = 0
    for draw in range(2000):
        normals, n = _random_normals(rng)
        lin, rays = _halfspace_generators(normals, n)
        ref_lin, ref_rays = oracle_halfspace_generators(normals, n)
        assert (lin.basis_rows(), rays) == (ref_lin.basis_rows(), ref_rays)
        non_pointed += lin.rank > 0
        non_simplicial += len(rays) > n - lin.rank
        if draw < 500:
            # the cone cut out by the normals is the dual of the cone on
            # them, which independent normals leave unbuilt until read
            ref = _generator_list(ref_lin, ref_rays)
            cut = Cone.from_inequalities(normals, n)
            assert cut.rays == ref and cut.lineality == ref_lin
            assert cut is Cone.from_rays(ref, n)
            gens = {primitive(a) for a in normals if any(a)}
            independent += bool(gens) and len(_echelon(gens, n)) == len(gens)
    assert non_pointed > 500 and non_simplicial > 100 and independent >= 50


def test_sweeps_with_zero_lineality_compute_no_kernel(monkeypatch, rng):
    # lin spans the kernel of the normals, so an empty lin is a zero kernel:
    # a pointed full-dimensional cone computes no kernel in either sweep, and
    # a simplicial one computes its kernel only when its inequalities are read
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return kernel_lattice(matrix)

    monkeypatch.setattr(cone_module, "kernel_lattice", counting)
    solid = other = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, n + 3))]
        del calls[:]
        c = Cone._build(gens, n)
        c.inequalities
        expected = (c.lineality.rank > 0) + (c.dim < n)
        assert len(calls) == expected, (gens, n)
        solid += expected == 0
        other += expected > 0
    assert solid > 50 and other > 50


def test_sweep_computes_no_rank(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("rank computed inside the sweep")

    assert not hasattr(cone_module, "rational_rank")
    monkeypatch.setattr(exactla, "rational_rank", refuse)
    # the cone over a square: two of its four rays are not adjacent
    lin, rays = _halfspace_generators(
        [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], 3)
    assert lin.rank == 0
    assert rays == ((-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1))
    lin, rays = _halfspace_generators([(1, 1, 0), (-1, -1, 0), (1, 0, 1)], 3)
    assert list(lin.basis_rows()) == [(1, -1, -1)] and rays == ((0, 0, 1),)


def _random_simplicial_generators(rng):
    """Linearly independent generators in a random ambient rank, sometimes
    followed by a positive multiple of one of them (repeated or not
    primitive)."""
    n = rng.randint(1, 5)
    k = rng.randint(0, n)
    while True:
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
        if rational_rank(gens, n) == k:
            break
    if gens and rng.random() < 0.4:
        factor = rng.choice([1, 2, 3])
        gens.append(tuple(factor * x for x in rng.choice(gens)))
    return gens, n


def _two_sweep_cone(rays, n):
    """The cone on rays from the two sweeps, built outside the intern table."""
    dual_lin, dual_ext = _halfspace_generators(rays, n)
    ineqs = _generator_list(dual_lin, dual_ext)
    lin, ext = _halfspace_generators(ineqs, n)
    return Cone(n, _generator_list(lin, ext), ineqs, lin, dual_lin)


def test_simplicial_builds_match_two_sweeps(rng):
    full = lower = raw = 0
    for _ in range(1500):
        gens, n = _random_simplicial_generators(rng)
        c = Cone._build(gens, n)
        g = _two_sweep_cone(gens, n)
        assert (c.rays, c.inequalities, c.lineality, c._dual_lineality) \
            == (g.rays, g.inequalities, g.lineality, g._dual_lineality), (gens, n)
        assert c.is_simplicial()
        full += len(c.rays) == n
        lower += len(c.rays) < n
        raw += len(set(gens)) < len(gens) or any(primitive(g) != g for g in gens)
    assert full > 100 and lower > 100 and raw > 100


def test_simplicial_cones_are_never_swept(monkeypatch, rng):
    def refuse(*args):
        raise AssertionError("simplicial cone swept")

    monkeypatch.setattr(cone_module, "_halfspace_generators", refuse)
    for _ in range(300):
        gens, n = _random_simplicial_generators(rng)
        Cone._build(gens, n)
        c = Cone.from_rays(gens, n)
        c.faces()
        c.face_orthogonal_to(c.inequalities[:1])
    with pytest.raises(AssertionError, match="simplicial cone swept"):
        Cone._build([(1, 0), (0, 1), (1, 1)], 2)


# ---------------------------------------------------------------------------
# faces
# ---------------------------------------------------------------------------

def test_face_counts_match_expected():
    assert len(Cone.from_rays([(1, 0), (0, 1)], 2).faces()) == 4
    assert len(Cone.from_rays([(1, 2)], 2).faces()) == 2
    assert len(Cone.from_rays([(1, 0), (1, 2)], 2).faces()) == 4
    octant = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert len(octant.faces()) == 8
    four = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    # square-based cone: 1 + 4 + 4 + 1
    assert len(four.faces()) == 10


def test_faces_carry_supporting_inequalities():
    c = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    for f in c.faces():
        sup = c.face_support(f)
        cut = [r for r in c.rays if all(dot(u, r) == 0 for u in sup)]
        assert tuple(sorted(cut)) == f.rays
        assert set(f.rays) <= set(c.rays)
    with pytest.raises(ValueError):
        c.face_support(Cone.from_rays([(1, 1, 1)], 3))


def test_faces_of_faces_are_faces():
    c = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    for f in c.faces():
        for g in f.faces():
            assert c.has_face(g)


def test_halfplane_faces():
    h = Cone.from_inequalities([(0, 1)], 2)
    fs = h.faces()
    assert len(fs) == 2
    assert fs[0].rays == ((-1, 0), (1, 0))   # the lineality line is minimal
    assert fs[1] == h


def test_simpliciality():
    assert Cone.from_rays([(1, 0), (0, 1)], 2).is_simplicial()
    assert Cone.from_rays([], 3).is_simplicial()
    assert Cone.from_rays([(1, 0), (1, 2)], 2).is_simplicial()
    assert not Cone.from_rays(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3).is_simplicial()
    assert not Cone.from_inequalities([(0, 1)], 2).is_simplicial()


def test_faces_of_simplicial_cones_are_their_ray_subsets(rng):
    full = lower = 0
    for _ in range(300):
        gens, n = _random_simplicial_generators(rng)
        c = Cone.from_rays(gens, n)
        subsets = [s for i in range(len(c.rays) + 1)
                   for s in itertools.combinations(c.rays, i)]
        assert len(subsets) == 2 ** len(c.rays)
        assert sorted(f.rays for f in c.faces()) == sorted(subsets)
        for s in subsets:
            f = Cone.from_rays(s, n)
            assert f.rays == s and c.has_face(f)
            assert any(f is g for g in c.faces())
            assert c.face_support(f) == tuple(
                u for u in c.inequalities if all(dot(u, r) == 0 for r in s))
        full += len(c.rays) == n
        lower += len(c.rays) < n
    assert full > 30 and lower > 30


def test_direct_faces_match_the_closure(rng):
    full = lower = 0
    for _ in range(300):
        gens, n = _random_simplicial_generators(rng)
        c = Cone.from_rays(gens, n)
        closed = c._closed_faces() + (c,)
        faces = c.faces()
        assert len(faces) == len(closed)
        assert all(f is g for f, g in zip(faces, closed))
        tight = [frozenset(r for r in c.rays if dot(u, r) == 0)
                 for u in c.inequalities]
        for f in faces:
            assert c.face_support(f) == tuple(
                u for u, t in zip(c.inequalities, tight) if set(f.rays) <= t)
        full += len(c.rays) == n
        lower += len(c.rays) < n
    assert full > 30 and lower > 30


def test_simplicial_faces_compute_no_dot_product(rng, monkeypatch):
    cones = [Cone._build(*_random_simplicial_generators(rng)) for _ in range(100)]
    assert all(c.is_simplicial() for c in cones)

    def refuse(*args):
        raise AssertionError("dot product computed for a simplicial face")

    monkeypatch.setattr(cone_module, "dot", refuse)
    for c in cones:
        faces = c.faces()
        assert len(faces) == 2 ** len(c.rays)
        assert [f.rays for f in faces] == [
            s for d in range(len(c.rays) + 1)
            for s in itertools.combinations(c.rays, d)]


def test_non_faces_have_no_support():
    square = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    octant = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    line = Cone.from_rays([(1, 0, 0), (-1, 0, 0)], 3)
    assert not square.is_simplicial() and octant.is_simplicial()
    cases = [(square, Cone.from_rays([(1, 0, 0), (0, 1, 0)], 3)),
             (octant, Cone.from_rays([(1, 0, 0), (1, 1, 0)], 3)),
             (octant, line), (square, line)]
    for c, other in cases:
        assert not c.has_face(other)
        with pytest.raises(ValueError):
            c.face_support(other)
        # the memoised answer is the same
        assert not c.has_face(other)


def _random_cones_with_faces(rng, count):
    """Seeded cones of rank 1-5, non-pointed ones included, each with its
    faces."""
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        c = Cone.from_rays(_random_rays(rng, n), n)
        out.append((c, c.faces()))
    return out


def test_face_supports_match_the_dot_product_definition(rng):
    non_pointed = faces = 0
    for c, cone_faces in _random_cones_with_faces(rng, 200):
        non_pointed += not c.is_pointed()
        for f in cone_faces:
            assert c.face_support(f) == tuple(
                u for u in c.inequalities if all(dot(u, r) == 0 for r in f.rays))
            faces += 1
    assert non_pointed > 50 and faces > 900


def test_dim_is_the_rank_of_the_rays_and_computes_no_rank(rng, monkeypatch):
    cones = []
    for c, cone_faces in _random_cones_with_faces(rng, 200):
        cones += cone_faces + tuple(f.dual() for f in cone_faces)
    ranks = [rational_rank(c.rays, width=c.ambient_rank) for c in cones]

    def refuse(*args, **kwargs):
        raise AssertionError("rank computed for a cone's dimension")

    monkeypatch.setattr(exactla, "rational_rank", refuse)
    monkeypatch.setattr(exactla, "_echelon", refuse)
    monkeypatch.setattr(cone_module, "_echelon", refuse)
    assert [c.dim for c in cones] == ranks
    assert len(set(ranks)) == 6


# ---------------------------------------------------------------------------
# lazy faces: the faces of a simplicial cone are registered unbuilt
# ---------------------------------------------------------------------------

def _fresh_simplicial_cone(rng, n, k):
    """A simplicial cone on k random independent rays in rank n, with entries
    large enough that it and its faces are most likely new to the table."""
    while True:
        gens = [tuple(rng.randint(-40, 40) for _ in range(n)) for _ in range(k)]
        if rational_rank(gens, n) == k:
            return Cone.from_rays(gens, n)


def _same_classification(a, b):
    return a[0] == b[0] and (a[1] is None) == (b[1] is None) \
        and (a[1] is None or a[1].rays == b[1].rays)


def test_lazy_faces_match_the_general_build(rng):
    lazy = full = lower = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        c = _fresh_simplicial_cone(rng, n, rng.randint(1, n))
        full += len(c.rays) == n
        lower += len(c.rays) < n
        for f in c.faces()[:-1]:
            if f._ineqs is not None:
                continue
            lazy += 1
            general = _two_sweep_cone(f.rays, n)
            assert general is not f
            # read the fields a lazy face has before anything that fills it
            assert f.dim == general.dim and f.lineality == general.lineality
            assert f.is_pointed() and general.is_pointed()
            assert f.is_simplicial() and general.is_simplicial()
            assert [g.rays for g in f.faces()] == [g.rays for g in general.faces()]
            assert f._ineqs is None
            assert f.inequalities == general.inequalities
            assert f._dual_lineality == general._dual_lineality
            assert f.dual().rays == general.dual().rays
            for g in f.faces():
                assert f.face_support(g) == general.face_support(g)
            for _ in range(4):
                v = tuple(rng.choice([0, 0, rng.randint(-3, 3), Fraction(1, 2)])
                          for _ in range(n))
                if rng.random() < 0.5 and f.rays:
                    v = tuple(sum(rng.randint(0, 2) * r[i] for r in f.rays)
                              for i in range(n))
                assert _same_classification(f.contains(v), general.contains(v))
    assert lazy > 300 and full > 10 and lower > 10


def test_lazy_faces_are_the_interned_cones(rng):
    for _ in range(40):
        n = rng.randint(1, 6)
        c = _fresh_simplicial_cone(rng, n, rng.randint(1, n))
        # from_rays first, faces() second: the registered cone is kept
        subset = tuple(r for r in c.rays if rng.random() < 0.5) or c.rays[:1]
        early = Cone.from_rays(subset, n)
        # a rank-1 ray is most likely registered, and read, already
        assert early._ineqs is None or n == 1
        assert any(f is early for f in c.faces())
        # faces() first, from_rays and the table's other lookups second
        for f in c.faces():
            assert Cone.from_rays(f.rays, n) is f
            assert Cone._shared(f.rays, n) is f
            assert c.face_orthogonal_to(c.face_support(f)) is f
            assert f.dual().dual() is f


def test_dropped_lazy_faces_leave_the_intern_table(rng):
    gc.collect()
    gc.disable()
    try:
        before = len(cone_module._CONES)
        c = _fresh_simplicial_cone(rng, 5, 5)
        faces = c.faces()
        # the zero face may be held elsewhere; the cone itself is last
        refs = [weakref.ref(f) for f in faces[1:]]
        assert len(cone_module._CONES) > before
        # a filled face and an unfilled one go the same way
        faces[3].inequalities
        assert faces[3]._ineqs is not None and faces[4]._ineqs is None
        del c, faces
        # reference counting alone frees every face, filled or not
        assert all(r() is None for r in refs)
        assert len(cone_module._CONES) == before
    finally:
        gc.enable()


def _count_builds(monkeypatch):
    calls = {"build": 0, "fill": 0, "kernel_lattice": 0}
    raw_build = Cone._build.__func__
    raw_fill = Cone._fill

    def build(cls, *args):
        calls["build"] += 1
        return raw_build(cls, *args)

    def fill(self):
        calls["fill"] += 1
        raw_fill(self)

    def kernel(matrix):
        calls["kernel_lattice"] += 1
        return kernel_lattice(matrix)

    monkeypatch.setattr(Cone, "_build", classmethod(build))
    monkeypatch.setattr(Cone, "_fill", fill)
    monkeypatch.setattr(cone_module, "kernel_lattice", kernel)
    return calls


def test_simplicial_faces_make_no_build(monkeypatch):
    # a circulant I + 101 P with P the cyclic shift: det 1 + 101^5, so a
    # simplicial rank-5 cone whose nonzero proper faces, but for lower, are
    # new to the table
    rays = [tuple(1 if j == i else 101 if j == (i + 1) % 5 else 0
                  for j in range(5)) for i in range(5)]
    sigma = Cone.from_rays(rays, 5)
    lower = Cone.from_rays(rays[:3], 5)
    assert sigma.is_simplicial() and sigma._faces is None
    calls = _count_builds(monkeypatch)
    assert len(sigma.faces()) == 32 and len(lower.faces()) == 8
    assert calls == {"build": 0, "fill": 0, "kernel_lattice": 0}
    system = SystemOfFans(5, ["1"], {("1", "1"): [sigma]})
    assert len(system.fan("1", "1")) == 32
    assert calls == {"build": 0, "fill": 0, "kernel_lattice": 0}
    # the first read of a lazy face's inequalities is its one fill: no build,
    # and one kernel, its rank 4 < 5
    face = sigma.faces()[-2]
    assert face._ineqs is None
    face.inequalities
    face._dual_lineality
    assert calls == {"build": 0, "fill": 1, "kernel_lattice": 1}


def test_simplicial_cones_are_built_on_first_read(monkeypatch, rng):
    full = lower = 0
    for _ in range(60):
        # rank 1 has only two rays, so most likely registered already
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        calls = _count_builds(monkeypatch)
        c = _fresh_simplicial_cone(rng, n, k)
        # from_rays makes one build, which reads no H-description
        assert calls == {"build": 1, "fill": 0, "kernel_lattice": 0}
        assert c._ineqs is None and c._dual_lin is None
        assert c.dim == k and c.is_simplicial()
        # the first read is one fill, with a kernel only below full rank
        c.inequalities
        c._dual_lineality
        c.inequalities
        assert calls == {"build": 1, "fill": 1, "kernel_lattice": int(k < n)}
        full += k == n
        lower += k < n
        monkeypatch.undo()
    assert full > 10 and lower > 10


# ---------------------------------------------------------------------------
# membership classification
# ---------------------------------------------------------------------------

def test_contains_frozen_examples():
    quad = Cone.from_rays([(1, 0), (0, 1)], 2)
    assert quad.contains((1, 1)) == ("interior", quad)
    where, face = quad.contains((1, 0))
    assert where == "boundary" and face.rays == ((1, 0),)
    assert quad.contains((-1, 0)) == ("outside", None)
    where, face = quad.contains((0, 0))
    assert where == "boundary" and face.rays == ()


def test_contains_accepts_rationals():
    c = Cone.from_rays([(1, 0), (1, 2)], 2)
    assert c.contains((Fraction(3, 7), Fraction(2, 7)))[0] == "interior"
    where, face = c.contains((Fraction(1, 2), 1))
    assert where == "boundary" and face.rays == ((1, 2),)


def test_contains_against_direct_evaluation(rng):
    cones = [Cone.from_rays([(1, 0), (0, 1)], 2),
             Cone.from_rays([(1, 0), (1, 2)], 2),
             Cone.from_inequalities([(0, 1)], 2),
             Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)]
    for c in cones:
        n = c.ambient_rank
        for _ in range(1000):
            v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                      for _ in range(n))
            where, face = c.contains(v)
            negative = any(dot(u, v) < 0 for u in c.inequalities)
            assert (where == "outside") == negative
            if where == "outside":
                continue
            assert face.contains(v)[0] == "interior"
            if where == "interior":
                assert face == c
            else:
                assert face != c and c.has_face(face)


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        Cone.from_rays([(1, 0)], 2).contains((1, 2, 3))


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------

def test_quotient_frozen_examples():
    quad = Cone.from_rays([(1, 0), (0, 1)], 2)
    q0 = quad.quotient_by_span(Cone.from_rays([], 2))
    assert q0.rank == 2 and q0.proj.row_lists() == [[1, 0], [0, 1]]
    qray = quad.quotient_by_span(Cone.from_rays([(1, 0)], 2))
    assert qray.rank == 1
    assert qray.push((5, 7)) == (7,)
    qfull = quad.quotient_by_span(quad)
    assert qfull.rank == 0
    assert qfull.push((3, 4)) == ()


def test_quotient_requires_face():
    quad = Cone.from_rays([(1, 0), (0, 1)], 2)
    with pytest.raises(ValueError):
        quad.quotient_by_span(Cone.from_rays([(1, 1)], 2))


def test_quotient_saturates_the_span():
    c = Cone.from_rays([(2, 4)], 2)
    q = lattice_quotient(c.rays, 2)
    # span is saturated: the primitive (1, 2) must map to zero as well
    assert q.push((1, 2)) == (0,)
    assert q.rank == 1


def test_quotient_structure(rng):
    c = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
    for tau in c.faces():
        q = c.quotient_by_span(tau)
        assert q.rank == 3 - tau.dim
        prod = q.proj @ q.section
        assert prod == IntMatrix.identity(q.rank)
        for r in tau.rays:
            assert q.push(r) == (0,) * q.rank
        sup = c.face_support(tau)
        for u in sup:
            desc = q.descend_dual(u)
            for _ in range(25):
                x = tuple(rng.randint(-9, 9) for _ in range(3))
                assert dot(desc, q.push(x)) == dot(u, x)
        if tau.dim > 0:
            with pytest.raises(ValueError):
                q.descend_dual(tau.rays[0])


def test_quotient_surjective_on_lattice(rng):
    c = Cone.from_rays([(1, 2), (3, 1)], 2)
    for tau in c.facets():
        q = c.quotient_by_span(tau)
        for _ in range(50):
            t = (rng.randint(-20, 20),)
            lift = q.section.apply(t)
            assert q.push(lift) == t


# ---------------------------------------------------------------------------
# dual monoid generators
# ---------------------------------------------------------------------------

def test_hilbert_basis_frozen_examples():
    quad = Cone.from_rays([(1, 0), (0, 1)], 2)
    assert hilbert_basis(quad).generators == ((0, 1), (1, 0))
    wedge = Cone.from_rays([(1, 0), (1, 2)], 2)
    assert hilbert_basis(wedge).generators == ((0, 1), (1, 0), (2, -1))
    zero_line = Cone.from_rays([], 1)
    assert hilbert_basis(zero_line).generators == ((-1,), (1,))
    assert hilbert_basis(zero_line).units == ((-1,), (1,))


def test_hilbert_basis_includes_units_for_low_dimension():
    ray = Cone.from_rays([(2, 4)], 2)
    hb = hilbert_basis(ray)
    assert hb.units == ((-2, 1), (2, -1))
    assert len(hb.generators) == 3
    half = Cone.from_inequalities([(0, 1)], 2)
    hbh = hilbert_basis(half)   # non-pointed input: dual side is a lone ray
    assert hbh.generators == ((0, 1),)
    assert hbh.units == ()
    line = half.dual()          # lattice points of the halfplane itself
    hbl = hilbert_basis(line)
    assert hbl.generators == ((-1, 0), (0, 1), (1, 0))
    assert hbl.units == ((-1, 0), (1, 0))


def test_hilbert_basis_interior_generator():
    c = Cone.from_rays([(1, 0), (1, 3)], 2)
    hb = hilbert_basis(c.dual())   # lattice points of c itself
    assert hb.generators == ((1, 0), (1, 1), (1, 2), (1, 3))


def test_hilbert_matches_parallelogram_oracle():
    count = 0
    for r1, r2 in _independent_primitive_pairs(3):
        c = Cone.from_rays([r1, r2], 2)
        got = hilbert_basis(c.dual()).generators
        assert got == oracle_hilbert_2d(r1, r2), (r1, r2)
        count += 1
    assert count > 300


def _hilbert_shape(c):
    """(non-pointed, lower dimensional, non-simplicial dual) of a cone."""
    unit_rank = c.ambient_rank - c.dim   # sigma^perp, a plus/minus pair each
    image_rays = len(c.inequalities) - 2 * unit_rank
    return (not c.is_pointed(), c.dim < c.ambient_rank,
            image_rays > c.dim - c.lineality.rank)


def test_hilbert_basis_matches_the_box_oracle(rng):
    cones = []
    for _ in range(300):
        n = rng.choice([2, 3])
        rays = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        cones.append(Cone.from_rays(rays, n))
    cones += [Cone.from_rays([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                              (a, b, c, 2)], 4)
              for a, b, c in itertools.product(range(3), repeat=3)]
    shapes = [0, 0, 0]
    for c in cones:
        assert hilbert_basis(c).generators == oracle_hilbert_box(c), c
        shapes = [t + s for t, s in zip(shapes, _hilbert_shape(c))]
    non_pointed, lower_dimensional, non_simplicial_dual = shapes
    assert non_pointed and lower_dimensional and non_simplicial_dual, shapes


def test_hilbert_basis_sizes_of_large_multiplicity():
    weighted = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 2, 80)], 3)
    assert len(hilbert_basis(weighted).generators) == 44
    rank4 = Cone.from_rays([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                            (1, 2, 3, 20)], 4)
    assert len(hilbert_basis(rank4).generators) == 54
    for n in (10 ** 6, 10 ** 9):
        basis = hilbert_basis(Cone.from_rays([(1, 0), (1, n)], 2))
        assert basis.generators == ((0, 1), (1, 0), (n, -1))
    # the dual of (1, 0), (N - 1, N) has N + 1 generators
    wide = hilbert_basis(Cone.from_rays([(1, 0), (999, 1000)], 2))
    assert len(wide.generators) == 1001


def _enumerated_fields(cone, monkeypatch):
    """_hilbert_fields with every rank-2 image enumerated and sieved, the
    general path, instead of walked."""
    def enumerated(u1, u2):
        rays = sorted([u1, u2])
        return monoid._sieved_basis(rays, 2, 2, _halfspace_generators(rays, 2)[1])

    with monkeypatch.context() as patch:
        patch.setattr(monoid, "_hirzebruch_jung", enumerated)
        return monoid._hilbert_fields(cone)


def test_rank2_walk_matches_the_enumeration():
    # every 2-dimensional cone is (1, 0), (a, d) with 0 <= a < d up to a
    # lattice automorphism, or that with its rays swapped
    for d in range(2, 201):
        for a in range(d):
            if math.gcd(a, d) == 1:
                rays = [(1, 0), (a, d)]
                want = sorted(monoid._sieved_basis(
                    rays, 2, 2, _halfspace_generators(rays, 2)[1]))
                for u1, u2 in (rays, rays[::-1]):
                    walk = monoid._hirzebruch_jung(u1, u2)
                    assert sorted(walk) == want, (u1, u2)
                    assert walk[0] == u1 and walk[-1] == u2


def test_rank2_images_match_the_enumeration(monkeypatch, rng):
    # pointed 2-dimensional cones, full in Z^2 and lower dimensional in Z^3
    # and Z^4, where the image is rank 2 after the unit split
    count = 0
    while count < 60:
        n = count % 3 + 2
        rays = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(2)]
        if rational_rank(rays) < 2:
            continue
        c = Cone.from_rays(rays, n)
        walked = monoid._hilbert_fields(c)
        enumerated = _enumerated_fields(c, monkeypatch)
        assert walked == enumerated, c
        assert list(walked[2].items()) == list(enumerated[2].items())
        assert bool(walked[1]) == (n > 2)
        count += 1


def test_rank2_images_enumerate_nothing(monkeypatch):
    calls = {"points": 0, "snf": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(monoid, "_parallelepiped_points",
                        counted("points", monoid._parallelepiped_points))
    monkeypatch.setattr(monoid, "smith_normal_form",
                        counted("snf", monoid.smith_normal_form))
    for rays in ([(1, 0), (1, 10 ** 6)], [(1, 0), (999, 1000)], [(3, -7), (-2, 5)]):
        monoid._hilbert_fields(Cone.from_rays(rays, 2))
    assert calls == {"points": 0, "snf": 0}
    # a lower-dimensional cone's only Smith form is its unit quotient's
    monoid._hilbert_fields(Cone.from_rays([(1, 0, 0), (7, 200, 0)], 3))
    assert calls == {"points": 0, "snf": 1}


def test_enumeration_over_the_limit_raises_before_making_points(monkeypatch):
    def refused(*args):
        raise AssertionError("a parallelepiped point was made")

    monkeypatch.setattr(monoid, "_parallelepiped_points", refused)
    c = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 2, 10 ** 7)], 3)
    with pytest.raises(monoid.EnumerationLimitError,
                       match="limit of %d" % monoid.ENUMERATION_LIMIT):
        hilbert_basis(c)
    assert c._hilbert is None


def test_decompose_computes_no_generator_heights(monkeypatch):
    hb = hilbert_basis(Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 2, 80)], 3))
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return dot(a, b)

    monkeypatch.setattr(monoid, "dot", counted)
    target = tuple(map(sum, zip(*hb.generators)))
    for _ in range(3):
        del calls[:]
        combo = hb.decompose(target)
        # only the target is measured: against each ray
        assert len(calls) == len(hb.cone.rays)
        assert tuple(map(sum, zip(*(tuple(m * x for x in g)
                                    for g, m in combo.items())))) == target


def test_hilbert_bases_run_no_sweep(monkeypatch):
    # pointed and lower dimensional, each enumerated and walked, and
    # non-pointed, full and not: each cone is built and read before the sweep
    # is refused, so only the Hilbert basis could run one
    cones = [Cone.from_rays(rays, len(rays[0])) for rays in (
        [(1, 0, 0), (0, 1, 0), (1, 2, 7)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)],
        [(3, 1), (-2, 5)],
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 3, 4)],
        [(1, 0, 0), (-1, 0, 0), (0, 2, 1), (1, 1, 3), (0, 1, 3)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (1, 2, 5, 0)],
        [(1, 0, 0), (2, 7, 0)],
        [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (1, 2, 5, 0)])]
    for c in cones:
        c.inequalities
        c._hilbert = c._relations = None

    def refuse(*args):
        raise AssertionError("swept")

    raw = cone_module._halfspace_generators
    for name, module in list(sys.modules.items()):
        if name == "prevtrop" or name.startswith("prevtrop."):
            for key, value in list(vars(module).items()):
                if value is raw:
                    monkeypatch.setattr(module, key, refuse)
    assert cone_module._halfspace_generators is refuse
    kinds = set()
    for c in cones:
        hb = hilbert_basis(c)
        kinds.add((c.is_pointed(), c.dim == c.ambient_rank))
        for rel in hb.relations():
            assert not any(map(sum, zip(*(tuple(m * x for x in g) for m, g
                                          in zip(rel, hb.generators)))))
        target = tuple(map(sum, zip(*hb.generators)))
        combo = hb.decompose(target)
        assert tuple(map(sum, zip(*(tuple(m * x for x in g)
                                    for g, m in combo.items())))) == target
    assert kinds == {(True, True), (False, True), (True, False),
                     (False, False)}


def test_hilbert_generators_are_irreducible():
    cones = [Cone.from_rays([(1, 0), (1, 2)], 2),
             Cone.from_rays([(1, 0), (1, 3)], 2).dual(),
             Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)]
    for c in cones:
        hb = hilbert_basis(c)
        gens = set(hb.generators)
        for g in gens:
            for a in gens:
                b = tuple(x - y for x, y in zip(g, a))
                if any(b) and b in gens:
                    raise AssertionError("reducible generator %r" % (g,))


def test_box_membership_and_decomposition():
    cones = [Cone.from_rays([(1, 0), (0, 1)], 2),
             Cone.from_rays([(1, 0), (1, 2)], 2),
             Cone.from_rays([(2, 4)], 2),
             Cone.from_inequalities([(0, 1)], 2),
             Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)]
    for c in cones:
        hb = hilbert_basis(c)
        n = c.ambient_rank
        span = range(-3, 4)
        for p in _grid(span, n):
            inside = all(dot(p, r) >= 0 for r in c.rays)
            if inside:
                combo = hb.decompose(p)
                assert all(m > 0 for m in combo.values())
                total = [0] * n
                for g, m in combo.items():
                    assert g in hb.generators
                    for i in range(n):
                        total[i] += m * g[i]
                assert tuple(total) == p
            else:
                with pytest.raises(ValueError):
                    hb.decompose(p)


def _grid(span, n):
    if n == 0:
        yield ()
        return
    for head in span:
        for tail in _grid(span, n - 1):
            yield (head,) + tail


def test_localization_at_a_face():
    cones = [Cone.from_rays([(1, 0), (0, 1)], 2),
             Cone.from_rays([(1, 0), (1, 2)], 2),
             Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)]
    for c in cones:
        hb = hilbert_basis(c)
        n = c.ambient_rank
        for tau in c.faces():
            perp = [g for g in hb.generators
                    if all(dot(g, r) == 0 for r in tau.rays)]
            s0 = tuple(sum(g[i] for g in perp) for i in range(n)) if perp \
                else (0,) * n
            for p in _grid(range(-3, 4), n):
                in_tau_dual = all(dot(p, r) >= 0 for r in tau.rays)
                shifted = False
                for k in range(65):
                    cand = tuple(p[i] + k * s0[i] for i in range(n))
                    if all(dot(cand, r) >= 0 for r in c.rays):
                        shifted = True
                        break
                # localizing the chart monoid at the face's vanishing
                # generators recovers exactly the face's chart monoid
                assert in_tau_dual == shifted, (c, tau, p)


def test_decompose_rejects_outside_targets():
    hb = hilbert_basis(Cone.from_rays([(1, 0), (0, 1)], 2))
    with pytest.raises(ValueError):
        hb.decompose((-1, 4))
    with pytest.raises(ValueError, match="not an integer"):
        hb.decompose((1.5, 0))


def test_random_recombination_roundtrip(rng):
    cones = [Cone.from_rays([(1, 0), (1, 2)], 2),
             Cone.from_rays([(2, 4)], 2),
             Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)]
    for c in cones:
        hb = hilbert_basis(c)
        n = c.ambient_rank
        for _ in range(200):
            target = [0] * n
            for g in hb.generators:
                m = rng.randint(0, 4)
                for i in range(n):
                    target[i] += m * g[i]
            combo = hb.decompose(tuple(target))
            back = [0] * n
            for g, m in combo.items():
                for i in range(n):
                    back[i] += m * g[i]
            assert back == target


def _searched_decomposition(monoid, target):
    """Reference for decompose: a memoized depth-first search that, at each
    step, subtracts the first image basis element leaving the image in its
    cone (cut out by every normal, plus/minus pairs included), backing up
    from dead ends.  Its depth is the total multiplicity."""
    img = tuple(monoid._proj.apply(target))
    lin, ext = _halfspace_generators(list(monoid._lift_of), len(img))
    normals = _generator_list(lin, ext)
    memo = {}

    def search(v):
        if not any(v):
            return {}
        if v in memo:
            return memo[v]
        memo[v] = None
        for g in monoid._lift_of:
            rem = tuple(a - b for a, b in zip(v, g))
            if all(dot(rem, u) >= 0 for u in normals):
                sub = search(rem)
                if sub is not None:
                    ans = dict(sub)
                    ans[g] = ans.get(g, 0) + 1
                    memo[v] = ans
                    return ans
        return None

    out = {}
    residual = list(target)
    for g_img, mult in search(img).items():
        lift = monoid._lift_of[g_img][0]
        out[lift] = mult
        residual = [x - mult * y for x, y in zip(residual, lift)]
    return monoid._absorb_units(out, residual)


def test_decompose_matches_the_search_on_random_cones(rng):
    # pointed full cones, lower-dimensional ones (whose monoids have units)
    # and non-pointed ones (whose dual cones are lower-dimensional)
    kinds = set()
    for i in range(60):
        n = rng.randint(2, 4)
        bound = 1 if n == 4 else 3
        k = rng.randint(1, n - 1) if i % 3 == 1 else rng.randint(n, n + 1)
        rays = [tuple(rng.randint(-bound, bound) for _ in range(n))
                for _ in range(k)]
        if i % 3 == 2:
            rays.append(tuple(-x for x in rays[0]))
        c = Cone.from_rays(rays, n)
        hb = hilbert_basis(c)
        kinds.add((bool(hb.units), c.is_pointed()))
        for _ in range(8):
            mults = [rng.randint(0, 4) for _ in hb.generators]
            target = tuple(sum(m * g[j] for m, g in zip(mults, hb.generators))
                           for j in range(n))
            assert hb.decompose(target) == _searched_decomposition(hb, target)
    assert kinds >= {(False, True), (True, True), (False, False)}


def test_deep_targets_decompose():
    quad = hilbert_basis(Cone.from_rays([(1, 0), (0, 1)], 2))
    assert quad.decompose((1500, 0)) == {(1, 0): 1500}
    wedge = hilbert_basis(Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 2, 80)], 3))
    for g in wedge.generators:
        target = tuple(2000 * x for x in g)
        combo = wedge.decompose(target)
        assert all(h in wedge.generators and m > 0 for h, m in combo.items())
        assert tuple(sum(m * h[j] for h, m in combo.items())
                     for j in range(3)) == target


def test_relations_of_generators():
    quad = hilbert_basis(Cone.from_rays([(1, 0), (0, 1)], 2))
    assert quad.relations() == ()
    wedge = hilbert_basis(Cone.from_rays([(1, 0), (1, 2)], 2))
    # generators ((0,1), (1,0), (2,-1)): the single relation, HNF-normalized
    assert wedge.relations() == ((1, -2, 1),)


def test_relations_are_computed_once_per_cone(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return kernel_lattice(matrix)

    wedge = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 2, 11)], 3)
    basis = hilbert_basis(wedge)
    assert wedge._relations is None
    for module in (cone_module, monoid):
        monkeypatch.setattr(module, "kernel_lattice", counted)
    first = basis.relations()
    again = hilbert_basis(wedge).relations()
    assert len(calls) == 1
    assert again == first
    assert all(type(x) is int for rel in first for x in rel)
    cols = IntMatrix.from_rows(basis.generators, cols=3).transpose()
    assert first == tuple(kernel_lattice(cols).basis_rows())


def test_relations_of_a_large_basis_run_no_hermite_elimination(monkeypatch):
    # the dual of (1, 0), (999, 1000) has 1,001 generators in Z^2, so its
    # relation lattice has rank 999
    wide = Cone.from_rays([(1, 0), (999, 1000)], 2)
    basis = hilbert_basis(wide)
    assert wide._relations is None

    def refuse(h, n):
        raise AssertionError("_hnf called")

    monkeypatch.setattr(exactla, "_hnf", refuse)
    rows = basis.relations()
    assert len(rows) == 999
    for row in rows:
        assert all(sum(c * g[j] for c, g in zip(row, basis.generators)) == 0
                   for j in range(2))
    # unit pivots with zeros in every other pivot column: 999 independent
    # rows spanning a direct summand, so the saturated kernel, in its HNF
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    assert pivots == sorted(set(pivots))
    for row, p in zip(rows, pivots):
        assert row[p] == 1
        assert all(row[q] == 0 for q in pivots if q != p)


def test_span_quotient_goes_through_the_public_lattice_quotient(monkeypatch):
    calls = []

    def counted(vectors, rank):
        calls.append((vectors, rank))
        return lattice_quotient(vectors, rank)

    monkeypatch.setattr(cone_module, "lattice_quotient", counted)
    quot = Cone.from_rays([(1, 1)], 2).span_quotient()
    assert calls == [(((1, 1),), 2)]
    assert quot.push((1, 1)) == (0,)


def test_a_zero_span_runs_no_elimination(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return kernel_lattice(matrix)

    monkeypatch.setattr(monoid, "kernel_lattice", counting)
    for n in range(5):
        # the quotient that eliminating the empty span gives
        eye = IntMatrix.identity(n)
        sub = kernel_lattice(kernel_lattice(IntMatrix.from_rows([], cols=n)).basis)
        expected = monoid.LatticeQuotient(n, sub, eye, eye)
        assert lattice_quotient([], n) == expected
        assert Cone.from_rays([], n).span_quotient() == expected
    assert calls == []


def test_membership_predicate():
    hb = hilbert_basis(Cone.from_rays([(1, 0), (1, 2)], 2))
    assert (1, 1) in hb
    assert (0, 1) in hb
    assert (-1, 1) not in hb
    quad = hilbert_basis(Cone.from_rays([(1, 0), (0, 1)], 2))
    assert (Fraction(1), 0) in quad
    assert (Fraction(1, 2), 0) not in quad
    for bad in [(1,), (1, 0, 5)]:
        with pytest.raises(ValueError, match="length mismatch"):
            bad in quad
    for bad in [(1.0, 0), (True, 0)]:
        with pytest.raises(ValueError, match="not an int or a Fraction"):
            bad in quad


# ---------------------------------------------------------------------------
# integer entries and shared canonical cones
# ---------------------------------------------------------------------------

def test_ray_entries_must_be_integers():
    c = Cone.from_rays([(Fraction(2), Fraction(-4, 2))], 2)
    assert c.rays == ((1, -1),)
    for bad in [(1, 0.5), (1.0, 0), (True, 0), (Fraction(1, 2), 1), ("1", 0)]:
        with pytest.raises(ValueError, match="not an integer"):
            Cone.from_rays([bad], 2)
    with pytest.raises(ValueError, match="length 2"):
        Cone.from_rays([(1, 0, 0)], 2)
    with pytest.raises(ValueError, match="not an integer"):
        Cone.from_inequalities([(0.5, 1)], 2)


def test_equal_cones_are_one_object():
    a = Cone.from_rays([(1, 0), (1, 2)], 2)
    assert Cone.from_rays([(1, 2), (1, 0)], 2) is a
    # non-extremal, non-primitive and Fraction presentations resolve to it
    assert Cone.from_rays([(2, 4), (1, 0), (3, 0), (1, 2), (2, 2)], 2) is a
    # the table holds canonical keys only, not the generators a build saw
    assert (2, ((1, 0), (1, 1), (1, 2))) not in cone_module._CONES
    assert Cone.from_rays([(Fraction(3), 0), (1, Fraction(2))], 2) is a
    assert Cone.from_inequalities(a.inequalities, 2) is a
    assert a.dual().dual() is a
    assert a.dual() is Cone.from_rays(a.inequalities, 2)
    assert a.faces()[-1] is a
    assert Cone.from_rays([(1, 0, 0), (1, 2, 0)], 3) is not a


def _random_rays(rng, n):
    rays = [tuple(rng.randint(-3, 3) for _ in range(n))
            for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.3:
        line = tuple(rng.randint(-2, 2) for _ in range(n))
        rays += [line, tuple(-x for x in line)]
    return rays


def test_shared_cones_match_uncached_builds(rng):
    non_pointed = 0
    for _ in range(150):
        n = rng.choice([2, 3, 4])
        rays = _random_rays(rng, n)
        c = Cone.from_rays(rays, n)
        fresh = Cone._build(rays, n)
        assert fresh is not c
        assert fresh.rays == c.rays
        assert fresh.inequalities == c.inequalities
        assert fresh.lineality == c.lineality
        assert fresh.faces() == c.faces()
        for f in c.faces():
            assert fresh.face_support(f) == c.face_support(f)
            g = Cone._build(f.rays, n)
            assert (g.rays, g.inequalities, g.lineality, g.dim) \
                == (f.rays, f.inequalities, f.lineality, f.dim)
        d = Cone._build(c.inequalities, n)
        assert (d.rays, d.inequalities, d.lineality) \
            == (c.dual().rays, c.dual().inequalities, c.dual().lineality)
        non_pointed += not c.is_pointed()
    assert non_pointed > 10


def test_meets_are_shared_and_match_a_direct_sweep(rng):
    for _ in range(100):
        n = rng.choice([2, 3])
        a = Cone.from_rays(_random_rays(rng, n), n)
        b = Cone.from_rays(_random_rays(rng, n), n)
        meet = a.intersect(b)
        assert b.intersect(a) is meet
        assert a.intersect(b) is meet
        direct = _generator_list(*_halfspace_generators(
            a.inequalities + b.inequalities, n))
        assert meet.rays == direct
        assert meet is Cone.from_rays(direct, n)


def _random_proj_cones(rng):
    """The distinct cones of the fans of a random weighted P^2 or P^3, or of
    a random Z^2 grading on four variables: chart cones and their faces."""
    while True:
        kind = rng.choice(["P2", "P3", "Z2"])
        if kind == "Z2":
            grading = Grading(AbelianGroup(2), [(rng.randint(-1, 2), rng.randint(-1, 2))
                                                for _ in range(4)])
        else:
            grading = Grading(AbelianGroup(1), [(rng.randint(1, 7),)
                                                for _ in range(int(kind[1]) + 1)])
        try:
            system = proj_system_of_fans(grading).system
        except EmptyProj:
            continue
        cones = {c for a in system.labels for b in system.labels
                 for c in system.fan(a, b)}
        return sorted(cones, key=lambda c: (c.ambient_rank, c.dim, c.rays))


def test_certified_meets_match_a_direct_sweep(rng, monkeypatch):
    sweeps = []
    sweep = cone_module._halfspace_generators

    def counting(normals, n):
        sweeps.append(1)
        return sweep(normals, n)

    monkeypatch.setattr(cone_module, "_halfspace_generators", counting)
    pairs = []
    for _ in range(20):
        cones = _random_proj_cones(rng)
        pairs += [(a, b) for a, b in itertools.combinations(cones, 2)
                  if a.ambient_rank == b.ambient_rank]
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        pairs.append((Cone.from_rays(_random_rays(rng, n), n),
                      Cone.from_rays(_random_rays(rng, n), n)))
        # b holds a point of a's relative interior: nested or a bad overlap
        rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        inner = tuple(map(sum, zip(*rays)))
        pairs.append((Cone.from_rays(rays, n), Cone.from_rays(
            [inner] + [tuple(rng.randint(-3, 3) for _ in range(n))
                       for _ in range(n - 1)], n)))
    counts = dict.fromkeys(
        ["nested", "certified", "face swept", "bad", "non-pointed"], 0)
    for a, b in pairs:
        n = a.ambient_rank
        a.faces()
        b.faces()
        del sweeps[:]
        meet = a.intersect(b)
        swept = bool(sweeps)
        assert b.intersect(a) is meet
        direct = _generator_list(*_halfspace_generators(
            a.inequalities + b.inequalities, n))
        assert meet.rays == direct
        assert meet is Cone.from_rays(direct, n)
        if not (a.is_pointed() and b.is_pointed()):
            counts["non-pointed"] += 1
        elif meet is a or meet is b:
            counts["nested"] += 1
        elif a.has_face(meet) and b.has_face(meet):
            counts["face swept" if swept else "certified"] += 1
        else:
            assert swept
            counts["bad"] += 1
    # the certificate decides nine in ten common-face meets or more
    assert counts["certified"] >= 9 * counts["face swept"]
    assert min(counts["nested"], counts["bad"], counts["non-pointed"]) > 20, counts


def test_face_orthogonal_to_matches_a_search_of_the_faces(rng):
    non_pointed = 0
    for _ in range(150):
        n = rng.choice([2, 3, 4])
        c = Cone.from_rays(_random_rays(rng, n), n)
        non_pointed += not c.is_pointed()
        for _ in range(4):
            chosen = rng.sample(c.inequalities,
                                rng.randint(0, len(c.inequalities)))
            # nonnegative combinations stay in the dual cone
            covectors = [tuple(k * x for x in u)
                         for k, u in zip(rng.choices([1, 2, 3], k=len(chosen)),
                                         chosen)]
            if len(covectors) > 1:
                covectors.append(tuple(map(sum, zip(*covectors))))
            largest = max((f for f in c.faces()
                           if all(dot(u, r) == 0
                                  for u in covectors for r in f.rays)),
                          key=lambda f: f.dim)
            assert c.face_orthogonal_to(covectors) is largest
            assert c.has_face(largest)
    assert non_pointed > 10


def test_has_face_checks_the_ambient_rank():
    c = Cone.from_rays([(1, 0), (0, 1)], 2)
    assert c.has_face(Cone.from_rays([(1, 0)], 2))
    assert not c.has_face(Cone.from_rays([(1, 1)], 2))
    assert not Cone.from_rays([], 2).has_face(Cone.from_rays([], 3))


def test_dropped_system_leaves_the_intern_table():
    gc.collect()
    gc.disable()
    try:
        before = len(cone_module._CONES)
        proj = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (1,), (1,)]))
        system = proj.system
        assert len(system.omega()) == 7
        assert validate_system(system) == []
        assert is_separated(system) == (True, None)
        assert len(cone_module._CONES) > before
        del proj, system
        # reference counting alone frees every cone: none is on a cycle
        assert len(cone_module._CONES) == before
    finally:
        gc.enable()


def test_dropped_system_with_filled_face_memos_leaves_the_intern_table():
    gc.collect()
    gc.disable()
    try:
        before = len(cone_module._CONES)
        proj = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (1,), (1,)]))
        system = proj.system
        square = Cone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)], 3)
        cones = [cls.cone for cls in system.omega()] + [square, square.dual()]
        for a in cones:
            for b in cones:
                if a.ambient_rank == b.ambient_rank:
                    meet = a.intersect(b)
                    if a.has_face(meet):
                        assert a.face_support(meet) == tuple(
                            u for u in a.inequalities
                            if all(dot(u, r) == 0 for r in meet.rays))
                    a.has_face(b)
        assert all(c._supports for c in cones)
        assert len(cone_module._CONES) > before
        del proj, system, square, cones, a, b, meet
        # reference counting alone frees every cone: no memo holds a cone
        assert len(cone_module._CONES) == before
    finally:
        gc.enable()


def test_dropped_system_with_filled_relations_leaves_the_intern_table():
    gc.collect()
    gc.disable()
    try:
        before = len(cone_module._CONES)
        proj = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (2,), (5,)]))
        cones = [cls.cone for cls in proj.system.omega()]
        for c in cones:
            hilbert_basis(c).relations()
        assert all(c._relations is not None for c in cones)
        assert len(cone_module._CONES) > before
        del proj, cones, c
        # reference counting alone frees every cone: the cache holds no cone
        assert len(cone_module._CONES) == before
    finally:
        gc.enable()


def test_dense_classical_points_read_the_cached_relations(monkeypatch):
    sigma = Cone.from_rays([(1, 0), (1, 2)], 2)
    system = SystemOfFans(2, ["1"], {("1", "1"): [sigma]})
    chart = system.omega().class_of(sigma, "1")
    t = tropembed.ValuedScalar.t_power(1)
    values = {(0, 1): t, (1, 0): t, (2, -1): t}
    # only (2, -1) vanishes on the ray (1, 2)
    boundary = {(0, 1): 0, (1, 0): 0, (2, -1): t}
    assert tropembed.classical_point(system, chart, values).zero_face.dim == 0
    assert tropembed.classical_point(system, chart, boundary).zero_face.rays \
        == ((1, 2),)
    assert sigma._relations == {((0, 1), (1, 0), (2, -1)): ((1, -2, 1),),
                                ((2, -1),): ()}

    def refuse(matrix):
        raise AssertionError("kernel_lattice called")

    for module in (cone_module, monoid, exactla):
        monkeypatch.setattr(module, "kernel_lattice", refuse)
    point = tropembed.classical_point(system, chart, values)
    assert point.eval((1, 1)) == t * t
    assert tropembed.classical_point(system, chart, boundary).eval((2, -1)) == t
    with pytest.raises(ValueError, match="multiplicative"):
        tropembed.classical_point(system, chart, {**values, (2, -1): t * t})
