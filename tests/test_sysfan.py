"""Systems of fans: axioms, chart classes, morphisms, products, separation."""

from collections import Counter

import pytest

from prevtrop import cone as cone_module
from prevtrop.cone import Cone
from prevtrop.exactla import AbelianGroup, IntMatrix
from prevtrop.multiproj import EmptyProj, Grading, proj_system_of_fans
from prevtrop.sysfan import (
    Fan,
    OmegaClass,
    OmegaPoset,
    SysFanMorphism,
    SystemOfFans,
    _maximal_classes,
    is_separated,
    morphism_from_lattice_map,
    product,
    support_is_full,
    system_from_data,
    system_to_data,
    validate_morphism,
    validate_system,
)

import systems
from conftest import fresh_rng


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

def test_fan_closes_faces():
    quad = Cone.from_rays([(1, 0), (0, 1)], 2)
    f = Fan([quad], 2)
    assert len(f) == 4
    assert f.maximal_cones() == (quad,)
    assert Cone.from_rays([(1, 0)], 2) in f
    assert Cone.from_rays([(1, 1)], 2) not in f


def test_fan_equality_ignores_presentation():
    quad = Cone.from_rays([(1, 0), (0, 1)], 2)
    assert Fan([quad], 2) == Fan(list(quad.faces()), 2)
    assert Fan([quad], 2) != Fan([Cone.from_rays([(1, 0)], 2)], 2)


def test_fan_accepts_raw_ray_lists():
    f = Fan([[(1, 0), (0, 1)]], 2)
    assert len(f) == 4


def test_fan_validate_flags_overlap():
    f = Fan([Cone.from_rays([(1, 0), (0, 1)], 2),
             Cone.from_rays([(1, 1), (-1, 1)], 2)], 2)
    issues = f.validate(where=("1", "1"))
    assert any(i.kind == "fan" for i in issues)


def test_fan_validate_flags_lineality():
    f = Fan([Cone.from_inequalities([(0, 1)], 2)], 2)
    assert any(i.kind == "pointed" for i in f.validate())


def test_valid_fan_has_no_issues():
    assert systems.quadrant_fan_system().fan("0").validate() == []


def all_pairs_fan_verdict(fan):
    """Reference: whether every two cones of the fan, faces included, meet
    in a common face (the check before it was cut to maximal cones)."""
    cones = fan.cones
    for a in range(len(cones)):
        for b in range(a + 1, len(cones)):
            meet = cones[a].intersect(cones[b])
            faces_a, faces_b = cones[a].faces(), cones[b].faces()
            if not (any(f == meet for f in faces_a)
                    and any(f == meet for f in faces_b)):
                return False
    return True


def test_fan_validation_on_maximal_cones_matches_all_pairs(rng):
    verdicts = []
    for _ in range(120):
        n = rng.choice([2, 3])
        cones = [Cone.from_rays([tuple(rng.randint(-2, 2) for _ in range(n))
                                 for _ in range(rng.randint(1, 3))], n)
                 for _ in range(rng.randint(2, 4))]
        fan = Fan(cones, n)
        issues = fan.validate()
        overlaps = [i.detail for i in issues if i.kind == "fan"]
        valid = all_pairs_fan_verdict(fan)
        assert (not overlaps) == valid
        maximal = fan.maximal_cones()
        maximal_pairs = {"cones %r and %r overlap without a common face"
                         % (maximal[a], maximal[b])
                         for a in range(len(maximal))
                         for b in range(a + 1, len(maximal))}
        assert set(overlaps) <= maximal_pairs
        assert len(issues) - len(overlaps) == sum(not c.is_pointed() for c in fan)
        verdicts.append(valid)
    assert 30 < verdicts.count(False) < 90


def test_maximal_cones_match_the_brute_force_oracle(rng):
    for _ in range(80):
        n = rng.choice([2, 3])
        cones = [Cone.from_rays([tuple(rng.randint(-2, 2) for _ in range(n))
                                 for _ in range(rng.randint(1, 3))], n)
                 for _ in range(rng.randint(1, 4))]
        # duplicates and faces of other inputs
        for _ in range(rng.randint(0, 3)):
            cones.append(rng.choice(cones))
            cones.append(rng.choice(rng.choice(cones).faces()))
        rng.shuffle(cones)
        fan = Fan(cones, n)
        oracle = tuple(c for c in fan.cones
                       if not any(d != c and d.has_face(c) for d in fan.cones))
        assert fan.maximal_cones() == oracle


# ---------------------------------------------------------------------------
# system construction and validation
# ---------------------------------------------------------------------------

def test_two_origins_system_is_valid():
    assert validate_system(systems.line_two_origins()) == []


def test_all_fixture_systems_are_valid():
    for build in [systems.affine_line, systems.affine_plane,
                  systems.line_two_origins, systems.projective_line_two_charts,
                  systems.projective_line_fan, systems.quadrant_fan_system,
                  systems.point_system]:
        assert validate_system(build()) == [], build.__name__


def test_proj_system_validation_intersects_no_cones(monkeypatch):
    # every fan of a Proj system is the face closure of one cone, so no pair
    # of maximal cones is left to intersect
    gradings = [Grading(AbelianGroup(1), [(1,)] * 3),
                Grading(AbelianGroup(1), [(1,)] * 4),
                Grading(AbelianGroup(2), [(1, 0), (1, 0), (0, 1), (1, 1)])]
    built = [proj_system_of_fans(g).system for g in gradings]
    calls = []
    intersect = Cone.intersect

    def counting(self, other):
        calls.append(1)
        return intersect(self, other)

    monkeypatch.setattr(Cone, "intersect", counting)
    for system in built:
        assert validate_system(system) == []
    assert calls == []


def test_symmetry_violation_detected():
    r = Cone.from_rays([(1,)], 1)
    s = SystemOfFans(1, ["1", "2"], {
        ("1", "1"): [r],
        ("2", "2"): [r],
        ("1", "2"): [Cone.from_rays([], 1)],
        ("2", "1"): [r],
    })
    issues = validate_system(s)
    assert any(i.kind == "symmetry" for i in issues)


def test_subfan_violation_names_the_triple():
    r = Cone.from_rays([(1,)], 1)
    z = Cone.from_rays([], 1)
    s = SystemOfFans(1, ["1", "2", "3"], {
        ("1", "1"): [r], ("2", "2"): [r], ("3", "3"): [r],
        ("1", "2"): [r], ("2", "3"): [r], ("1", "3"): [z],
    })
    issues = validate_system(s)
    triples = [i.where for i in issues if i.kind == "subfan"]
    assert ("1", "2", "3") in triples


def test_glued_cone_missing_from_a_chart_fan_is_named():
    # the subfan violation validate_system reports as ("1", "2", "1")
    r = Cone.from_rays([(1,)], 1)
    s = SystemOfFans(1, ["1", "2"], {
        ("1", "1"): [Cone.from_rays([], 1)], ("2", "2"): [r], ("1", "2"): [r],
    })
    assert [i.where for i in validate_system(s)] == [("1", "2", "1")]
    with pytest.raises(ValueError, match=r"Cone\[\(1,\)\] is glued between "
                                         r"charts 1 and 2 .* chart 1$"):
        s.omega()


def test_missing_entry_rejected():
    with pytest.raises(ValueError):
        SystemOfFans(1, ["1", "2"], {
            ("1", "1"): [Cone.from_rays([(1,)], 1)],
            ("2", "2"): [Cone.from_rays([(1,)], 1)],
        })


def test_label_hygiene():
    with pytest.raises(ValueError):
        SystemOfFans(1, ["a", "a"], {("a", "a"): []})
    with pytest.raises(ValueError):
        SystemOfFans(1, ["a,b"], {("a,b", "a,b"): []})


@pytest.mark.parametrize("cones", [[], [[]]])
def test_negative_ambient_rank_is_refused(cones):
    with pytest.raises(ValueError, match="^ambient_rank -1 is negative$"):
        SystemOfFans(-1, ["1"], {("1", "1"): cones})


def test_mirrored_entry_lookup():
    s = systems.projective_line_two_charts()
    assert s.fan("2", "1") == s.fan("1", "2")
    assert s.fan("1") == s.fan("1", "1")


# ---------------------------------------------------------------------------
# the chart-class poset
# ---------------------------------------------------------------------------

def test_two_origins_classes():
    omega = systems.line_two_origins().omega()
    assert len(omega) == 3
    dims = sorted(c.cone.dim for c in omega)
    assert dims == [0, 1, 1]
    zero, ray1, ray2 = omega.classes
    assert zero.members == ("1", "2") and zero.cone.dim == 0
    assert ray1.members == ("1",) and ray2.members == ("2",)
    assert ray1.cone == ray2.cone
    assert omega.leq(zero, ray1) and omega.leq(zero, ray2)
    assert not omega.leq(ray1, ray2) and not omega.leq(ray2, ray1)
    assert not omega.leq(ray1, zero)
    # ids name classes; an id outside range(3) names none and is never
    # read from the end, so -3 is not zero and -2 is not ray1
    assert omega.leq(0, 1) and omega.leq(zero, 2) and omega.leq(2, 2)
    for low, high in [(0, 3), (3, 3), (3, 0), (-3, 1), (0, -2), (-1, -1),
                      (zero, -2), (-3, ray1), (0, 10 ** 9), (-10 ** 9, 0),
                      (True, 1), (0, True), (False, 1)]:
        assert not omega.leq(low, high)


def test_projective_line_classes():
    omega = systems.projective_line_two_charts().omega()
    assert len(omega) == 3
    zero = omega.classes[0]
    assert zero.members == ("1", "2")
    assert all(omega.leq(zero, c) for c in omega.classes)


def test_quadrant_fan_has_nine_classes():
    omega = systems.quadrant_fan_system().omega()
    assert len(omega) == 9
    dims = sorted(c.cone.dim for c in omega)
    assert dims == [0, 1, 1, 1, 1, 2, 2, 2, 2]


def all_pairs_order(omega):
    """Reference: the class order by comparing every two classes."""
    return {(low.class_id, high.class_id)
            for low in omega.classes for high in omega.classes
            if set(low.members) >= set(high.members)
            and any(f == low.cone for f in high.cone.faces())}


def _projective(n):
    return proj_system_of_fans(
        Grading(AbelianGroup(1), [(1,)] * (n + 1))).system


def test_class_order_matches_all_pairs():
    rng = fresh_rng(4)
    fixtures = [systems.affine_line(), systems.affine_plane(),
                systems.line_two_origins(), systems.projective_line_two_charts(),
                systems.projective_line_fan(), systems.quadrant_fan_system(),
                systems.point_system()]
    fixtures += [_projective(n) for n in range(1, 5)]
    fixtures.append(proj_system_of_fans(
        Grading(AbelianGroup(1), [(1,), (-1,)])).system)
    fixtures.append(product(systems.line_two_origins(), _projective(1)))
    mixed = 0
    while mixed < 6:
        n = rng.choice([3, 4])
        free_rank = rng.choice([1, 2])
        degrees = [tuple(rng.randint(-2, 2) for _ in range(free_rank))
                   for _ in range(n)]
        if not (any(d[0] < 0 for d in degrees) and any(d[0] > 0 for d in degrees)):
            continue
        try:
            fixtures.append(proj_system_of_fans(
                Grading(AbelianGroup(free_rank), degrees)).system)
        except EmptyProj:
            continue
        mixed += 1
    for system in fixtures:
        omega = system.omega()
        assert omega.order_pairs() == all_pairs_order(omega)


def check_partial_order(omega):
    """Reference: the check OmegaPoset used to run on every construction."""
    leq = omega.order_pairs()
    ids = [c.class_id for c in omega.classes]
    assert all((a, a) in leq for a in ids), "order not reflexive"
    assert not any(a != b and (b, a) in leq for a, b in leq), \
        "order not antisymmetric"
    assert all((a, c) in leq for a, b in leq for c in ids if (b, c) in leq), \
        "order not transitive"


def pair_keyed_omega(system):
    """Reference: the classes and class_of table of one union-find over
    (rays, label) pairs, the construction OmegaPoset used to run."""
    labels = system.labels
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in labels:
        for cone in system.fan(a, a):
            parent[(cone.rays, a)] = (cone.rays, a)
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            for cone in system.fan(a, b):
                for c in (a, b):
                    if (cone.rays, c) not in parent:
                        raise ValueError(
                            "cone %r is glued between charts %s and %s but "
                            "missing from the fan of chart %s" % (cone, a, b, c))
                parent[find((cone.rays, a))] = find((cone.rays, b))
    groups = {}
    cone_of = {}
    for a in labels:
        for cone in system.fan(a, a):
            root = find((cone.rays, a))
            groups.setdefault(root, set()).add(a)
            cone_of[root] = cone
    pos = {l: i for i, l in enumerate(labels)}
    keyed = sorted(groups.items(), key=lambda kv: (
        cone_of[kv[0]].rays, min(pos[m] for m in kv[1])))
    classes = tuple(
        OmegaClass(i, cone_of[root], tuple(sorted(members, key=pos.get)))
        for i, (root, members) in enumerate(keyed))
    by_pair = {(c.cone.rays, m): c for c in classes for m in c.members}
    return classes, by_pair


def _random_glued_system(rng, misglue=False):
    """A seeded rank-2 system, often invalid, whose omega() constructs.

    Chart cones come from a small ray pool, so cones of one chart may
    overlap badly and charts share cones; each pair of charts is glued
    along a random set of their common cones, so gluing need not be
    transitive.  With misglue, a pair may also be glued along a cone of
    one chart only or of neither, which omega() refuses.
    """
    pool = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (1, 2), (-1, 1)]
    labels = [str(k) for k in range(rng.randint(1, 4))]
    charts = {l: Fan([rng.sample(pool, rng.randint(0, 2))
                      for _ in range(rng.randint(1, 3))], 2)
              for l in labels}
    entries = {(l, l): charts[l] for l in labels}
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            common = [c for c in charts[a] if misglue or c in charts[b]]
            if misglue:
                common += [c for c in charts[b] if c not in charts[a]]
                common.append(Cone.from_rays([rng.choice(pool)], 2))
            entries[(a, b)] = rng.sample(common, rng.randint(0, len(common)))
    return SystemOfFans(2, labels, entries)


def test_classes_per_cone_match_the_pair_keyed_union_find():
    rng = fresh_rng(26)
    fixtures = [_projective(n) for n in range(2, 9)]
    fixtures += [_random_glued_system(rng) for _ in range(150)]
    fixtures += [_random_glued_system(rng, misglue=True) for _ in range(150)]
    refused = 0
    for system in fixtures:
        try:
            classes, by_pair = pair_keyed_omega(system)
        except ValueError as err:
            refused += 1
            with pytest.raises(ValueError) as raised:
                OmegaPoset(system)
            assert str(raised.value) == str(err)
            continue
        omega = OmegaPoset(system)
        assert omega.classes == classes
        assert omega._by_pair == by_pair
        assert omega.order_pairs() == frozenset(
            (by_pair[f.rays, h.representative].class_id, h.class_id)
            for h in classes for f in h.cone.faces())
    assert 50 < refused < 150


def order_maximal_classes(omega):
    """Reference: the classes below no other, read off order_pairs()."""
    below = {a for a, b in omega.order_pairs() if a != b}
    return [c for c in omega.classes if c.class_id not in below]


def test_a_class_maximal_in_its_representative_fan_alone_is_not_maximal():
    # chart 1 is the ray (1,0), an open subset of chart 2, the quadrant: the
    # ray's class is maximal in chart 1's fan but lies below the quadrant
    ray = Cone.from_rays([(1, 0)], 2)
    quadrant = Cone.from_rays([(1, 0), (0, 1)], 2)
    system = SystemOfFans(2, ["1", "2"], {
        ("1", "1"): [ray], ("2", "2"): [quadrant], ("1", "2"): [ray]})
    assert validate_system(system) == []
    omega = system.omega()
    assert omega.class_of(ray, "2").members == ("1", "2")
    assert _maximal_classes(system) == [omega.class_of(quadrant, "2")]
    assert order_maximal_classes(omega) == _maximal_classes(system)
    assert is_separated(system) == full_scan_separation(system) == (True, None)
    assert not support_is_full(system)


def test_order_and_maximal_classes_are_read_off_the_fans():
    rng = fresh_rng(23)
    fixtures = [_random_glued_system(rng) for _ in range(300)]
    fixtures += [_random_proj_system(rng) for _ in range(30)]
    separated = 0
    for system in fixtures:
        omega = system.omega()
        assert omega.order_pairs() == {
            (a.class_id, b.class_id) for a in omega for b in omega
            if omega.leq(a, b)}
        maximal = _maximal_classes(system)
        assert maximal == order_maximal_classes(omega)
        if is_separated(system)[0]:
            separated += 1
            cones = Fan([c.cone for c in omega], system.ambient_rank)
            assert sorted(c.cone.rays for c in maximal) == \
                sorted(c.rays for c in cones.maximal_cones())
    assert 50 < separated < len(fixtures) - 50


def test_omega_separation_and_support_build_no_order(monkeypatch):
    calls = Counter()

    def counting(name, method):
        def wrapper(self, *args):
            # a fan call counts once per ordered pair of chart labels
            calls[("fan", args[0], args[-1]) if name == "fan" else name] += 1
            return method(self, *args)
        return wrapper

    for owner, name in [(OmegaPoset, "class_of"), (OmegaPoset, "order_pairs"),
                        (SystemOfFans, "fan")]:
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    system = _projective(4)
    omega = system.omega()
    assert calls["class_of"] == 0
    # the poset keeps its classes and their lookup, and no order
    assert set(vars(omega)) == {"classes", "_by_pair"}
    calls.clear()
    assert is_separated(system) == (True, None)
    assert support_is_full(system)
    assert calls["order_pairs"] == calls["class_of"] == 0
    fans = [k for k in calls if k[0] == "fan"]
    assert fans and all(calls[k] <= 1 for k in fans)


def test_class_order_is_a_partial_order():
    rng = fresh_rng(6)
    fixtures = [systems.affine_line(), systems.affine_plane(),
                systems.line_two_origins(), systems.projective_line_two_charts(),
                systems.projective_line_fan(), systems.quadrant_fan_system(),
                systems.point_system()]
    fixtures += [_projective(n) for n in range(1, 5)]
    fixtures += [product(systems.line_two_origins(), _projective(1)),
                 product(_projective(1), systems.quadrant_fan_system()),
                 product(systems.line_two_origins(), systems.line_two_origins())]
    gradings = 0
    while gradings < 20:
        free_rank = rng.choice([1, 2])
        group = AbelianGroup(free_rank, rng.choice([(), (2,), (3,)]))
        degrees = [tuple(rng.randint(-2, 2) for _ in range(group.ngens))
                   for _ in range(rng.choice([3, 4]))]
        try:
            fixtures.append(proj_system_of_fans(Grading(group, degrees)).system)
        except EmptyProj:
            continue
        gradings += 1
    invalid = [_random_glued_system(rng) for _ in range(200)]
    for system in fixtures + invalid:
        check_partial_order(system.omega())
    kinds = [{issue.kind for issue in validate_system(s)} for s in invalid]
    assert sum("fan" in k for k in kinds) > 30
    assert sum("subfan" in k for k in kinds) > 30


def test_empty_index_set():
    omega = SystemOfFans(1, [], {}).omega()
    assert len(omega) == 0


def test_class_lookup():
    s = systems.line_two_origins()
    omega = s.omega()
    r = Cone.from_rays([(1,)], 1)
    assert omega.class_of(r, "1").members == ("1",)
    assert omega.class_of(Cone.from_rays([], 1), "2").class_id == 0
    with pytest.raises(KeyError):
        omega.class_of(Cone.from_rays([(-1,)], 1), "1")


def test_class_ids_are_deterministic():
    a = systems.quadrant_fan_system().omega()
    b = systems.quadrant_fan_system().omega()
    assert [(c.cone.rays, c.members) for c in a.classes] \
        == [(c.cone.rays, c.members) for c in b.classes]


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def test_identity_morphism_validates():
    s = systems.line_two_origins()
    omega = s.omega()
    ident = SysFanMorphism(s, s, IntMatrix.identity(1),
                           {c.class_id: c.class_id for c in omega.classes})
    assert validate_morphism(ident) == []


def test_fold_morphism():
    src = systems.line_two_origins()
    tgt = systems.affine_line()
    fold = morphism_from_lattice_map(src, tgt, IntMatrix.identity(1),
                                     {"1": "1", "2": "1"})
    assert validate_morphism(fold) == []
    tomega = tgt.omega()
    ray_class = next(c for c in tomega.classes if c.cone.dim == 1)
    for cls in src.omega().classes:
        img = fold.image_class(cls)
        assert img.cone.dim == cls.cone.dim
        if cls.cone.dim == 1:
            assert img == ray_class


def test_containment_violation():
    s = systems.line_two_origins()
    omega = s.omega()
    # send every class to the zero class: rays then map outside
    collapse = SysFanMorphism(s, s, IntMatrix.identity(1),
                              {c.class_id: 0 for c in omega.classes})
    issues = validate_morphism(collapse)
    assert any(i.kind == "containment" for i in issues)


def test_order_violation():
    s = systems.projective_line_two_charts()
    omega = s.omega()
    zero, plus, minus = omega.classes
    broken = SysFanMorphism(s, s, IntMatrix.identity(1),
                            {zero.class_id: plus.class_id,
                             plus.class_id: plus.class_id,
                             minus.class_id: minus.class_id})
    issues = validate_morphism(broken)
    assert any(i.kind == "order" for i in issues)


@pytest.mark.parametrize("bad", [-2, 3, "1", 1.0, None, True])
def test_class_map_ids_that_name_no_target_class(bad):
    # -2 would read classes[1] from the end and 3 is one past the end: each
    # is a class-map issue naming the id, reported before any other check
    s = systems.line_two_origins()
    assert len(s.omega().classes) == 3
    morphism = SysFanMorphism(s, s, IntMatrix.identity(1), {0: 0, 1: bad, 2: 2})
    issues = validate_morphism(morphism)
    assert [i.kind for i in issues] == ["class-map"]
    assert repr(bad) in issues[0].detail
    with pytest.raises(KeyError, match="no target class"):
        morphism.image_class(1)
    assert morphism.image_class(2) is s.omega().classes[2]


def test_morphism_helper_rejects_impossible_maps():
    src = systems.projective_line_two_charts()
    tgt = systems.affine_line()
    with pytest.raises(ValueError):
        # chart 2 carries the negative ray, which no cone of the target holds
        morphism_from_lattice_map(src, tgt, IntMatrix.identity(1),
                                  {"1": "1", "2": "1"})


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_product_of_complete_line_fans():
    p = product(systems.projective_line_fan(), systems.projective_line_fan())
    assert validate_system(p) == []
    assert len(p.omega()) == 9
    dims = sorted(c.cone.dim for c in p.omega().classes)
    assert dims == [0, 1, 1, 1, 1, 2, 2, 2, 2]


def test_product_with_point_is_isomorphic():
    s = systems.line_two_origins()
    p = product(s, systems.point_system())
    assert p.ambient_rank == 1
    assert len(p.omega()) == len(s.omega())
    assert sorted(c.cone.rays for c in p.omega().classes) \
        == sorted(c.cone.rays for c in s.omega().classes)


def test_product_class_counts_multiply():
    fixtures = [systems.line_two_origins(), systems.projective_line_two_charts(),
                systems.projective_line_fan(), systems.affine_line()]
    for a in fixtures:
        for b in fixtures:
            p = product(a, b)
            assert validate_system(p) == []
            assert len(p.omega()) == len(a.omega()) * len(b.omega())


def test_two_origins_squared_has_nine_classes():
    s = systems.line_two_origins()
    assert len(product(s, s).omega()) == 9


def test_product_matches_the_closure_of_all_face_products():
    rng = fresh_rng(14)
    small = [systems.affine_line(), systems.line_two_origins(),
             systems.projective_line_two_charts(), systems.point_system()]
    pairs = [(_random_glued_system(rng), rng.choice(small)) for _ in range(12)]
    pairs += [(rng.choice(small), _random_glued_system(rng)) for _ in range(4)]
    for a, b in pairs:
        p = product(a, b)
        n, m = a.ambient_rank, b.ambient_rank
        for la in a.labels:
            for lb in b.labels:
                for ma in a.labels:
                    for mb in b.labels:
                        faces = [Cone.from_rays(
                            [r + (0,) * m for r in ca.rays]
                            + [(0,) * n + r for r in cb.rays], n + m)
                            for ca in a.fan(la, ma) for cb in b.fan(lb, mb)]
                        assert p.fan(la + "|" + lb, ma + "|" + mb) \
                            == Fan(faces, n + m)


def test_product_label_separator_guard():
    s = SystemOfFans(1, ["a|b"], {("a|b", "a|b"): [Cone.from_rays([(1,)], 1)]})
    with pytest.raises(ValueError):
        product(s, systems.affine_line())


# ---------------------------------------------------------------------------
# separation and support
# ---------------------------------------------------------------------------

def test_two_origins_not_separated():
    ok, witness = is_separated(systems.line_two_origins())
    assert not ok
    a, b, meet, reason = witness
    assert a.cone == b.cone and a.cone.dim == 1
    assert "glued" in reason


def test_single_chart_systems_are_separated():
    for build in [systems.affine_line, systems.affine_plane,
                  systems.projective_line_fan, systems.quadrant_fan_system,
                  systems.point_system]:
        ok, witness = is_separated(build())
        assert ok and witness is None


def test_projective_line_two_charts_separated():
    ok, _ = is_separated(systems.projective_line_two_charts())
    assert ok


def test_equal_cones_in_distinct_classes_force_nonseparation():
    for build in [systems.affine_line, systems.affine_plane,
                  systems.line_two_origins, systems.projective_line_two_charts,
                  systems.projective_line_fan, systems.quadrant_fan_system]:
        s = build()
        omega = s.omega()
        seen = {}
        duplicated = False
        for c in omega.classes:
            if c.cone.rays in seen:
                duplicated = True
            seen[c.cone.rays] = c
        if duplicated:
            assert not is_separated(s)[0]


def reference_pair_failure(system, a, b):
    meet = a.cone.intersect(b.cone)
    if not (a.cone.has_face(meet) and b.cone.has_face(meet)):
        return a, b, meet, "intersection is not a common face"
    i, j = a.representative, b.representative
    if meet not in system.fan(i, j):
        return (a, b, meet,
                "charts %s and %s are not glued along the intersection" % (i, j))
    return None


def full_scan_separation(system):
    """Reference: the ordered scan over every pair of classes, which decided
    the verdict before the cover of maximal classes did."""
    classes = system.omega().classes
    for x in range(len(classes)):
        for y in range(x + 1, len(classes)):
            failure = reference_pair_failure(system, classes[x], classes[y])
            if failure is not None:
                return False, failure
    return True, None


def maximal_pairs_pass(system):
    """The cover test alone: every two maximal classes meet well."""
    top = order_maximal_classes(system.omega())
    return all(reference_pair_failure(system, a, b) is None
               for x, a in enumerate(top) for b in top[x + 1:])


def _random_proj_system(rng):
    """A seeded Proj system with mixed signs, torsion or a Z^2 grading."""
    while True:
        free_rank = rng.choice([1, 1, 2])
        group = AbelianGroup(free_rank, rng.choice([(), (), (2,), (3,)]))
        degrees = [tuple(rng.randint(-2, 3) for _ in range(free_rank))
                   + tuple(rng.randrange(m) for m in group.torsion)
                   for _ in range(rng.choice([3, 4]))]
        try:
            return proj_system_of_fans(Grading(group, degrees)).system
        except EmptyProj:
            continue


def test_separation_on_maximal_classes_matches_the_full_scan():
    rng = fresh_rng(9)
    fixtures = [systems.affine_line(), systems.affine_plane(),
                systems.line_two_origins(), systems.projective_line_two_charts(),
                systems.projective_line_fan(), systems.quadrant_fan_system(),
                systems.point_system()]
    fixtures += [_projective(n) for n in range(1, 5)]
    fixtures += [_random_proj_system(rng) for _ in range(60)]
    fixtures += [product(_random_proj_system(rng), _random_proj_system(rng))
                 for _ in range(6)]
    fixtures += [product(systems.line_two_origins(), _projective(1)),
                 product(_projective(1), systems.quadrant_fan_system())]
    invalid = [_random_glued_system(rng) for _ in range(1000)]
    verdicts = []
    for system in fixtures + invalid:
        expected = full_scan_separation(system)
        assert is_separated(system) == expected
        verdicts.append(expected[0])
    assert 15 < sum(verdicts[:len(fixtures)]) < len(fixtures) - 15
    assert 100 < sum(verdicts[len(fixtures):]) < len(invalid) - 100
    # systems whose gluing is not transitive can pass on maximal classes
    # alone and still fail the scan: the cover must not decide them
    fooled = [s for s in invalid
              if not is_separated(s)[0] and maximal_pairs_pass(s)]
    assert len(fooled) > 3
    assert all(validate_system(s) for s in fooled)


def _witness_key(verdict):
    ok, witness = verdict
    if witness is None:
        return ok, None
    a, b, meet, reason = witness
    return ok, a.class_id, b.class_id, meet.rays, reason


def _glued_within_classes(system):
    """Every two charts of a class are glued along its cone."""
    return all(c.cone in system.fan(i, k) for c in system.omega()
               for x, i in enumerate(c.members) for k in c.members[x + 1:])


def _covered(system, a, b):
    """Reference: a and b lie below maximal classes that are equal or meet
    well, read off leq and the maximal pairs' own scan."""
    omega = system.omega()
    top = order_maximal_classes(omega)
    return any(omega.leq(a, p) and omega.leq(b, q)
               and (p == q or reference_pair_failure(system, p, q) is None)
               for p in top for q in top)


def test_pruned_separation_returns_the_full_scan_witness():
    # the scan skips pairs covered by a good pair of maximal classes only
    # when every class is glued along its cone; it must still return the
    # full scan's first bad pair, its meet and its reason
    rng = fresh_rng(32)
    fixtures = [_random_glued_system(rng) for _ in range(600)]
    fixtures += [_random_proj_system(rng) for _ in range(300)]
    # p weights +1 and q weights -1 at (p, q) = (4, 4): 255 classes
    fixtures.append(proj_system_of_fans(
        Grading(AbelianGroup(1), [(1,)] * 4 + [(-1,)] * 4)).system)
    pruned = unglued = 0
    for system in fixtures:
        expected = full_scan_separation(system)
        assert _witness_key(is_separated(system)) == _witness_key(expected)
        if expected[0]:
            continue
        if _glued_within_classes(system):
            pruned += not maximal_pairs_pass(system)
        else:
            # the full scan runs here: its witness may lie in a covered pair
            unglued += _covered(system, *expected[1][:2])
    assert pruned > 100 and unglued > 3


def test_separation_of_projective_space_meets_maximal_classes_only(monkeypatch):
    calls = []
    intersect = Cone.intersect

    def counting(self, other):
        calls.append(1)
        return intersect(self, other)

    system = _projective(4)
    system.omega()
    monkeypatch.setattr(Cone, "intersect", counting)
    assert is_separated(system) == (True, None)
    # P^4 has 5 maximal classes, the 5 charts, and 10 pairs of them
    assert len(calls) <= 10


def test_separated_proj_systems_run_no_sweep(monkeypatch):
    # every meet of two chart classes is a common face with a separating form
    def refuse(*args):
        raise AssertionError("meet swept")

    monkeypatch.setattr(cone_module, "_halfspace_generators", refuse)
    one = AbelianGroup(1)
    separated = [_projective(2), _projective(3),
                 proj_system_of_fans(Grading(one, [(1,), (2,), (5,)])).system,
                 product(_projective(1), _projective(1)),
                 proj_system_of_fans(Grading(AbelianGroup(2), [
                     (1, 0), (1, 0), (1, 2), (1, 2)])).system]
    for system in separated:
        assert validate_system(system) == []
        assert is_separated(system) == (True, None)
    doubled = systems.line_two_origins()
    ray = systems.ray_cone((1,), 1)
    first, second = (doubled.omega().class_of(ray, label) for label in "12")
    assert is_separated(doubled) == (False, (
        first, second, ray, "charts 1 and 2 are not glued along the intersection"))


def test_support_full():
    assert support_is_full(systems.projective_line_two_charts())
    assert support_is_full(systems.projective_line_fan())
    assert support_is_full(systems.quadrant_fan_system())
    assert support_is_full(systems.point_system())
    assert not support_is_full(systems.affine_line())
    assert not support_is_full(systems.affine_plane())


def test_a_system_without_cones_covers_nothing():
    # no maximal class, so no cone's union: not even the origin is covered
    empty = SystemOfFans(2, ["1"], {("1", "1"): []})
    assert len(empty.omega()) == 0 and is_separated(empty) == (True, None)
    assert not support_is_full(empty)
    assert not support_is_full(SystemOfFans(0, [], {}))


def test_support_requires_separated_input():
    with pytest.raises(ValueError):
        support_is_full(systems.line_two_origins())


def test_separation_is_decided_once_per_system(monkeypatch):
    calls = []
    intersect = Cone.intersect

    def counting(self, other):
        calls.append(1)
        return intersect(self, other)

    monkeypatch.setattr(Cone, "intersect", counting)
    separated = _projective(3)
    first = is_separated(separated)
    assert first[0] and calls
    del calls[:]
    assert is_separated(separated) is first
    assert support_is_full(separated)
    assert calls == []

    doubled = product(systems.line_two_origins(), _projective(1))
    first = is_separated(doubled)
    assert not first[0] and calls
    del calls[:]
    assert is_separated(doubled) is first
    with pytest.raises(ValueError):
        support_is_full(doubled)
    assert calls == []


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_round_trip_through_data():
    for build in [systems.line_two_origins, systems.projective_line_two_charts,
                  systems.quadrant_fan_system]:
        s = build()
        data = system_to_data(s)
        back = system_from_data(data)
        assert back.labels == s.labels
        assert back.ambient_rank == s.ambient_rank
        for i, a in enumerate(s.labels):
            for b in s.labels[i:]:
                assert back.fan(a, b) == s.fan(a, b)
        assert system_to_data(back) == data


def test_data_mirrors_omitted_entries():
    data = {"ambient_rank": 1, "indices": ["1", "2"],
            "fans": {"1,1": [[[1]]], "2,2": [[[1]]], "2,1": [[]]}}
    s = system_from_data(data)
    assert s.fan("1", "2") == Fan([Cone.from_rays([], 1)], 1)
