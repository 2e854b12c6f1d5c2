"""Tropical strata, points, and the nonnegative comparison map."""

import itertools
from fractions import Fraction

import pytest

from prevtrop import exactla, monoid, smith, troppre
from prevtrop.cone import Cone, dot, hilbert_basis
from prevtrop.exactla import (AbelianGroup, IntMatrix, kernel_lattice,
                              rational_rank, solve_rational)
from prevtrop.extreal import INF
from prevtrop.jsondoc import DocumentError
from prevtrop.multiproj import Grading, proj_system_of_fans
from prevtrop.sysfan import (SystemOfFans, morphism_from_lattice_map, product,
                            system_to_data)
from prevtrop.troppre import (
    FiniteLocusNotAFace, RelationViolation, chart_polynomial,
    chart_polynomial_from_data, chart_values_from_data, compare_to_trop, induced_map, nonneg_point,
    nonneg_point_from_chart_values, nonneg_preimage, nonneg_strata,
    point_from_chart_values, skeleton_seminorm, strata, trop_eval,
    trop_point, trop_point_from_data, trop_point_to_data)

from conftest import fresh_rng
from systems import (affine_line, affine_plane, line_two_origins,
                     point_system, projective_line_two_charts,
                     quadrant_fan_system)


def quadrant():
    return Cone.from_rays([(1, 0), (0, 1)], 2)


def plane_chart(system):
    return system.omega().class_of(quadrant(), "1")


def slanted_system():
    """One chart whose dual monoid needs three generators."""
    sigma = Cone.from_rays([(1, 0), (1, 2)], 2)
    system = SystemOfFans(2, ["1"], {("1", "1"): [sigma]})
    return system, system.omega().class_of(sigma, "1")


def generic_coords(cls, face, weight=1):
    """A point interior to the image of cls.cone modulo the face."""
    quot = face.span_quotient()
    coords = [Fraction(0)] * quot.rank
    for k, ray in enumerate(cls.cone.rays):
        for j, x in enumerate(quot.push(ray)):
            coords[j] += Fraction(weight + k, 1 + (k % 3)) * x
    return tuple(coords)


# ---------------------------------------------------------------------------
# chart values -> points
# ---------------------------------------------------------------------------

def test_plane_point_with_one_infinite_value():
    system = affine_plane()
    chart = plane_chart(system)
    p = point_from_chart_values(system, chart, {(1, 0): 1, (0, 1): INF})
    assert p.stratum.cone == Cone.from_rays([(0, 1)], 2)
    assert p.coords == (Fraction(1),)
    assert trop_eval(p, (1, 0)) == 1
    assert trop_eval(p, (0, 1)) is INF


def test_plane_point_all_finite_lands_on_dense_stratum():
    system = affine_plane()
    p = point_from_chart_values(system, plane_chart(system),
                                {(1, 0): 3, (0, 1): Fraction(-7, 2)})
    assert p.stratum.cone.rays == ()
    assert p.coords == (Fraction(3), Fraction(-7, 2))


def test_relation_violation_is_detected_and_named():
    system, chart = slanted_system()
    assert hilbert_basis(chart.cone).generators == ((0, 1), (1, 0), (2, -1))
    with pytest.raises(RelationViolation) as err:
        point_from_chart_values(system, chart,
                                {(0, 1): 0, (1, 0): 0, (2, -1): 5})
    assert "[0, 1] + [2, -1] = 2*[1, 0]" in str(err.value)
    consistent = point_from_chart_values(
        system, chart, {(0, 1): 0, (1, 0): 1, (2, -1): 2})
    assert consistent.stratum.cone.rays == ()


def test_finite_locus_must_cut_a_face():
    system, chart = slanted_system()
    chart.cone._cuts = None     # forget what earlier tests memoised
    # the failed cut is memoised and raises the same on every call
    messages = set()
    for _ in range(2):
        with pytest.raises(FiniteLocusNotAFace) as err:
            point_from_chart_values(system, chart,
                                    {(0, 1): INF, (1, 0): 0, (2, -1): 0})
        messages.add(str(err.value))
    assert messages == {"the generators with finite values, [(1, 0), "
                        "(2, -1)], are not those vanishing on a face of the "
                        "chart cone"}
    assert chart.cone._cuts == {((1, 0), (2, -1)): None}
    # killing the generators off one boundary ray is fine
    p = point_from_chart_values(system, chart,
                                {(0, 1): 0, (1, 0): INF, (2, -1): INF})
    assert p.stratum.cone == Cone.from_rays([(1, 0)], 2)
    assert p.coords == (Fraction(0),)


def test_boundary_relation_violation_is_named():
    # the relation among the finite generators is no relation of the full
    # basis restricted to them, so it must come from their own lattice
    sigma = Cone.from_rays([(-2, -2, 1), (-2, 1, 3), (1, -2, 0)], 3)
    system = SystemOfFans(3, ["1"], {("1", "1"): [sigma]})
    chart = system.omega().class_of(sigma, "1")
    values = {g: INF if dot(g, (1, -2, 0)) else int(g == (0, 0, 1))
              for g in hilbert_basis(sigma).generators}
    with pytest.raises(RelationViolation) as err:
        point_from_chart_values(system, chart, values)
    assert "[-2, -1, -1] + [2, 1, 6] = 5*[0, 0, 1]" in str(err.value)


def _is_integer_combination(basis, vector):
    if not basis:
        return not any(vector)
    coeffs = solve_rational([list(col) for col in zip(*basis)], list(vector))
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def test_live_relations_are_complete_and_checked():
    rng = fresh_rng(19)
    perturbed = incomplete = 0
    draws = [[tuple(rng.randint(-3, 3) for _ in range(n))
              for _ in range(rng.randint(1, 5))]
             for n in (rng.choice([2, 3]) for _ in range(120))]
    for rays in [[(-2, -2, 1), (-2, 1, 3), (1, -2, 0)]] + draws:
        n = len(rays[0])
        sigma = Cone.from_rays(rays, n)
        basis = hilbert_basis(sigma)
        if len(basis.generators) > 9:
            continue
        system = SystemOfFans(n, ["1"], {("1", "1"): [sigma]})
        chart = system.omega().class_of(sigma, "1")
        for tau in sigma.faces():
            live = tuple(g for g in basis.generators
                         if all(dot(g, r) == 0 for r in tau.rays))
            relations = basis.relations(live)
            assert relations == (tuple(kernel_lattice(IntMatrix.from_rows(
                live, cols=n).transpose()).basis_rows()) if live else ())
            assert len(relations) == len(live) - rational_rank(live, n)
            for rel in relations:
                assert not any(sum(c * g[j] for c, g in zip(rel, live))
                               for j in range(n))
            if len(live) <= 6:
                for c in itertools.product((-1, 0, 1), repeat=len(live)):
                    if not any(sum(a * g[j] for a, g in zip(c, live))
                               for j in range(n)):
                        assert _is_integer_combination(relations, c)
            # the relations of all generators supported on the live ones
            restricted = [rel for rel in basis.relations()
                          if not any(k and g not in live for k, g
                                     in zip(rel, basis.generators))]
            incomplete += len(restricted) < len(relations)
            x = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for _ in range(n)]
            values = {g: dot(g, x) if g in live else INF
                      for g in basis.generators}
            point = point_from_chart_values(system, chart, values)
            assert point.stratum == system.omega().class_of(tau, "1")
            assert all(trop_eval(point, g) == v for g, v in values.items())
            related = [g for k, g in enumerate(live)
                       if any(rel[k] for rel in relations)]
            if related:
                values[rng.choice(related)] += Fraction(1, 2)
                with pytest.raises(RelationViolation):
                    point_from_chart_values(system, chart, values)
                perturbed += 1
    assert perturbed > 100 and incomplete > 0


def _check_faces_against_the_solve(system, chart, rng):
    """Every face of the chart as the finite locus, at a seeded rational
    functional: the coordinates are exactly the tuple of one rational solve
    of the descended finite rows.  Returns how many faces had more finite
    generators than coordinates."""
    gens = hilbert_basis(chart.cone).generators
    overdetermined = 0
    for tau in chart.cone.faces():
        live = tuple(g for g in gens if all(dot(g, r) == 0 for r in tau.rays))
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(tau.ambient_rank)]
        values = {g: dot(g, x) if g in live else INF for g in gens}
        quot = tau.span_quotient()
        expected = solve_rational([quot.descend_dual(g) for g in live],
                                  [values[g] for g in live]) if live else ()
        coords = point_from_chart_values(system, chart, values).coords
        assert coords == expected
        assert all(type(c) is Fraction for c in coords)
        overdetermined += len(live) > quot.rank
    return overdetermined


def test_face_inverse_matches_the_general_solve_on_random_cones():
    rng = fresh_rng(23)
    overdetermined = 0
    for _ in range(60):
        n = rng.choice([2, 3])
        sigma = Cone.from_rays([tuple(rng.randint(-4, 4) for _ in range(n))
                                for _ in range(rng.randint(1, 4))], n)
        if len(hilbert_basis(sigma).generators) > 12:
            continue
        system = SystemOfFans(n, ["1"], {("1", "1"): [sigma]})
        overdetermined += _check_faces_against_the_solve(
            system, system.omega().class_of(sigma, "1"), rng)
    assert overdetermined > 40


def test_face_inverse_matches_the_general_solve_on_chart_faces():
    # every class of the fixture systems and of three Proj systems, at
    # every face of its cone: most of them boundary faces
    rng = fresh_rng(29)
    systems = [affine_line(), affine_plane(), line_two_origins(),
               projective_line_two_charts(), quadrant_fan_system(),
               point_system()]
    for group, degrees in [(1, [(1,), (2,), (5,)]), (1, [(1,), (3,), (7,)]),
                           (2, [(1, 0), (1, 0), (0, 1), (0, 1)])]:
        systems.append(proj_system_of_fans(
            Grading(AbelianGroup(group), degrees)).system)
    overdetermined = 0
    for system in systems:
        for chart in system.omega():
            overdetermined += _check_faces_against_the_solve(system, chart, rng)
    assert overdetermined > 10


def test_repeated_queries_on_one_face_reuse_its_inverse(monkeypatch):
    system, chart = slanted_system()
    # forget what earlier tests memoised
    chart.cone._relations = chart.cone._cuts = None
    calls = {"solve_rational": 0, "_echelon": 0, "face_orthogonal_to": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(troppre, "_echelon",
                        counted("_echelon", troppre._echelon))
    monkeypatch.setattr(Cone, "face_orthogonal_to",
                        counted("face_orthogonal_to", Cone.face_orthogonal_to))
    for module in (exactla, smith, monoid):
        monkeypatch.setattr(module, "solve_rational",
                            counted("solve_rational", smith.solve_rational))
    # generators (0, 1), (1, 0), (2, -1) with the relation (1, -2, 1)
    dense = [{(0, 1): Fraction(k), (1, 0): Fraction(2 * k + 1, 3),
              (2, -1): Fraction(k + 2, 3)} for k in range(4)]
    first = point_from_chart_values(system, chart, dense[0])
    assert calls == {"solve_rational": 0, "_echelon": 2,
                     "face_orthogonal_to": 1}
    for values in dense + dense:
        point = point_from_chart_values(system, chart, values)
        assert point.coords == (values[(1, 0)], values[(0, 1)])
    assert point_from_chart_values(system, chart, dense[0]) == first
    # only (2, -1) is finite on the ray (1, 2): one more inverse, once
    boundary = {(0, 1): INF, (1, 0): INF, (2, -1): Fraction(5)}
    for _ in range(3):
        point_from_chart_values(system, chart, boundary)
    assert calls == {"solve_rational": 0, "_echelon": 4,
                     "face_orthogonal_to": 2}


def test_face_inverse_descends_only_the_picked_generators(monkeypatch):
    # the dual monoid is generated by (1, 0), (1, 1), ..., (1, 10)
    sigma = Cone.from_rays([(0, 1), (10, -1)], 2)
    system = SystemOfFans(2, ["1"], {("1", "1"): [sigma]})
    chart = system.omega().class_of(sigma, "1")
    gens = hilbert_basis(sigma).generators
    assert len(gens) == 11
    # forget what earlier tests memoised, so the query is a cache miss
    sigma._relations = sigma._cuts = None
    calls = []
    descend = monoid.LatticeQuotient.descend_dual

    def counted(quot, covector):
        calls.append(covector)
        return descend(quot, covector)

    monkeypatch.setattr(monoid.LatticeQuotient, "descend_dual", counted)
    point = point_from_chart_values(
        system, chart, {g: Fraction(3 * g[0] - 2 * g[1], 5) for g in gens})
    assert point.coords == (Fraction(3, 5), Fraction(-2, 5))
    assert len(calls) <= 2


def test_face_inverse_refuses_rows_of_too_small_rank():
    sigma = quadrant()
    with pytest.raises(AssertionError, match="rank 1, not 2"):
        troppre._face_inverse(sigma, ((1, 0),), sigma.faces()[0])


def test_values_must_cover_every_generator():
    system = affine_plane()
    with pytest.raises(ValueError):
        point_from_chart_values(system, plane_chart(system), {(1, 0): 1})
    with pytest.raises(ValueError):
        point_from_chart_values(system, plane_chart(system),
                                {(1, 0): 1, (0, 1): 2, (1, 1): 3})


def test_points_from_foreign_classes_are_rejected():
    system = affine_plane()
    other = quadrant_fan_system()
    chart = other.omega().class_of(quadrant(), "0")
    with pytest.raises(ValueError):
        point_from_chart_values(system, chart, {(1, 0): 1, (0, 1): 2})
    with pytest.raises(ValueError):
        trop_point(system, chart, (1, 2))


def test_trop_point_validates_coordinate_length():
    system = affine_plane()
    dense = system.omega().class_of(Cone.from_rays([], 2), "1")
    assert trop_point(system, dense, (1, 2)).coords == (1, 2)
    with pytest.raises(ValueError):
        trop_point(system, dense, (1,))


def test_eval_rejects_monomials_outside_the_chart():
    system = affine_plane()
    p = point_from_chart_values(system, plane_chart(system),
                                {(1, 0): 5, (0, 1): INF})
    # (-1, 0) is still a monomial on the stratum's own chart
    assert trop_eval(p, (-1, 0)) == -5
    with pytest.raises(ValueError):
        trop_eval(p, (0, -1))


# ---------------------------------------------------------------------------
# strata inventories
# ---------------------------------------------------------------------------

def test_line_with_two_origins_has_three_strata():
    system = line_two_origins()
    listing = [(cls.members, dim) for cls, dim in strata(system)]
    assert listing == [(("1", "2"), 1), (("1",), 0), (("2",), 0)]


def test_product_of_lines_has_nine_strata():
    line = projective_line_two_charts()
    system = product(line, line)
    dims = sorted(dim for _, dim in strata(system))
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]


def test_point_system_has_one_zero_dimensional_stratum():
    listing = strata(point_system())
    assert len(listing) == 1
    assert listing[0][1] == 0


def test_nonneg_strata_of_two_origins():
    system = line_two_origins()
    listing = [(cls.members, face.rays, dim)
               for cls, face, dim in nonneg_strata(system)]
    assert listing == [
        (("1", "2"), (), 0),
        (("1",), (), 1), (("1",), ((1,),), 0),
        (("2",), (), 1), (("2",), ((1,),), 0)]


def test_nonneg_strata_counts_follow_face_counts():
    system = quadrant_fan_system()
    listing = nonneg_strata(system)
    assert len(listing) == 1 + 4 * 2 + 4 * 4
    for cls, face, dim in listing:
        assert cls.cone.has_face(face)
        assert dim == cls.cone.dim - face.dim
    assert listing == nonneg_strata(quadrant_fan_system())


# ---------------------------------------------------------------------------
# nonnegative points and canonical form
# ---------------------------------------------------------------------------

def test_nonneg_point_reduces_to_the_smallest_chart():
    system = affine_plane()
    chart = plane_chart(system)
    zero = Cone.from_rays([], 2)
    inner = nonneg_point(system, chart, zero, (2, 3))
    assert inner.chart == chart and inner.coords == (2, 3)
    edge = nonneg_point(system, chart, zero, (0, 3))
    assert edge.chart.cone == Cone.from_rays([(0, 1)], 2)
    apex = nonneg_point(system, chart, zero, (0, 0))
    assert apex.chart.cone.rays == ()
    assert nonneg_point(system, chart, zero, (2, 3)) == inner


def test_nonneg_point_rejects_bad_data():
    system = affine_plane()
    chart = plane_chart(system)
    zero = Cone.from_rays([], 2)
    with pytest.raises(ValueError):
        nonneg_point(system, chart, zero, (-1, 2))
    with pytest.raises(ValueError):
        nonneg_point(system, chart, Cone.from_rays([(1, 1)], 2), (1,))


def shadow_search_class(system, chart, face, coords):
    """Reference: the canonical chart as nonneg_point used to find it, by
    building the image of every face of the chart cone that contains the
    infinite locus; None when the coordinates lie outside."""
    sigma = chart.cone
    quot = face.span_quotient()
    shadows = {f.rays: Cone.from_rays([quot.push(r) for r in f.rays],
                                      quot.rank)
               for f in sigma.faces() if f.has_face(face)}
    where, spot = shadows[sigma.rays].contains(coords)
    if where == "outside":
        return None
    carrier = next(f for f in sigma.faces()
                   if f.rays in shadows and shadows[f.rays] == spot)
    return system.omega().class_of(carrier, chart.representative)


def _carrier_test_systems(rng):
    gradings = [(1, [(1,), (1,), (1,)]), (1, [(1,), (2,), (5,)]),
                (1, [(1,), (-1,), (2,)]), (1, [(1,), (1,), (-1,), (-1,)]),
                (2, [(1, 0), (0, 1), (1, 1), (1, 2)])]
    out = [proj_system_of_fans(Grading(AbelianGroup(r), d)).system
           for r, d in gradings]
    out += [line_two_origins(), quadrant_fan_system(),
            product(projective_line_two_charts(), line_two_origins())]
    while len(out) < 40:
        n = rng.choice([2, 3, 4])
        rays = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        out.append(SystemOfFans(n, ["1"], {("1", "1"): [rays]}))
    return out


def test_nonneg_point_matches_the_per_face_shadow_search():
    rng = fresh_rng(7)
    carriers = outside = 0
    for system in _carrier_test_systems(rng):
        for chart in system.omega():
            sigma = chart.cone
            for face in sigma.faces():
                quot = face.span_quotient()
                for _ in range(3):
                    # a nonnegative combination of some rays, sometimes moved
                    coords = [Fraction(0)] * quot.rank
                    for r in rng.sample(sigma.rays, rng.randint(0, len(sigma.rays))):
                        weight = Fraction(rng.randint(1, 3), rng.randint(1, 2))
                        coords = [c + weight * x for c, x in zip(coords, quot.push(r))]
                    if coords and rng.random() < 0.2:
                        coords[rng.randrange(len(coords))] -= 1
                    expected = shadow_search_class(system, chart, face, coords)
                    if expected is None:
                        with pytest.raises(ValueError):
                            nonneg_point(system, chart, face, coords)
                        outside += 1
                        continue
                    point = nonneg_point(system, chart, face, coords)
                    assert (point.chart, point.face, point.coords) \
                        == (expected, face, tuple(coords))
                    carriers += expected != chart
    assert carriers > 600 and outside > 200


def _image_cone_carrier(sigma, face, coords):
    """The carrier by the image cone: the cone on the pushed rays of sigma
    modulo the span of face, the smallest face of it holding coords, and
    the rays of sigma pushed into that face; None outside the image."""
    quot = face.span_quotient()
    pushed = [(r, quot.push(r)) for r in sigma.rays]
    where, spot = Cone.from_rays([p for _, p in pushed], quot.rank).contains(coords)
    if where == "outside":
        return None
    return Cone.from_rays([r for r, p in pushed
                           if all(dot(u, p) >= 0 for u in spot.inequalities)],
                          sigma.ambient_rank)


def test_nonneg_carrier_matches_the_image_cone():
    rng = fresh_rng(25)
    proper = interior = outside = non_simplicial = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        sigma = Cone.from_rays([tuple(rng.randint(-3, 3) for _ in range(n))
                                for _ in range(rng.randint(0, n + 2))], n)
        non_simplicial += not sigma.is_simplicial()
        for face in sigma.faces():
            quot = face.span_quotient()
            for _ in range(4):
                if rng.random() < 0.3:
                    coords = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(quot.rank)]
                else:
                    coords = [Fraction(0)] * quot.rank
                    for r in rng.sample(sigma.rays, rng.randint(0, len(sigma.rays))):
                        weight = Fraction(rng.randint(1, 3), rng.randint(1, 2))
                        coords = [c + weight * x for c, x in zip(coords, quot.push(r))]
                coords = tuple(coords)
                expected = _image_cone_carrier(sigma, face, coords)
                assert troppre._nonneg_carrier(sigma, face, coords) is expected
                outside += expected is None
                interior += expected is sigma
                proper += expected is not None and expected is not sigma
    assert outside > 100 and interior > 300 and proper > 300
    assert non_simplicial > 20


def test_nonneg_points_build_no_cone_from_rays(monkeypatch):
    def refuse(cls, *args):
        raise AssertionError("from_rays called")

    system = proj_system_of_fans(
        Grading(AbelianGroup(1), [(1,), (1,), (1,)])).system
    charts = [(chart, face) for chart in system.omega()
              for face in chart.cone.faces()]
    monkeypatch.setattr(Cone, "from_rays", classmethod(refuse))
    for chart, face in charts:
        coords = generic_coords(chart, face)
        point = nonneg_point(system, chart, face, coords)
        assert nonneg_preimage(system, compare_to_trop(system, point)) == point
    chart = max(system.omega(), key=lambda c: c.cone.dim)
    zero = chart.cone.faces()[0]
    inside = generic_coords(chart, zero)
    with pytest.raises(ValueError, match="outside the image"):
        nonneg_point(system, chart, zero, [-x for x in inside])


def test_rational_inputs_refuse_floats_and_bools():
    system = proj_system_of_fans(
        Grading(AbelianGroup(1), [(1,), (1,), (1,)])).system
    dense = next(cls for cls, dim in strata(system) if dim == 2)
    for coords in ([0.1, True], [1, 0.5], [False, 1]):
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            trop_point(system, dense, coords)
    assert trop_point(system, dense, [1, Fraction(1, 2)]).coords \
        == (Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        quadrant().contains((0.5, 1))
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        quadrant().contains((True, 1))
    plane = affine_plane()
    chart = plane_chart(plane)
    for value in (0.5, True):
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            point_from_chart_values(plane, chart, {(1, 0): value, (0, 1): INF})
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            nonneg_point(plane, chart, Cone.from_rays([], 2), (value, 1))
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            chart_polynomial(plane, chart, [((1, 0), value)])
    assert point_from_chart_values(
        plane, chart, {(1, 0): 2, (0, 1): INF}).coords == (Fraction(2),)


def test_nonneg_values_build_canonical_points():
    system = affine_plane()
    chart = plane_chart(system)
    q = nonneg_point_from_chart_values(system, chart,
                                       {(1, 0): 2, (0, 1): INF})
    assert q.chart == chart
    assert q.face == Cone.from_rays([(0, 1)], 2)
    assert q.coords == (Fraction(2),)
    with pytest.raises(ValueError):
        nonneg_point_from_chart_values(system, chart,
                                       {(1, 0): -2, (0, 1): INF})


def test_two_origins_collide_in_the_tropical_space():
    system = line_two_origins()
    ray = Cone.from_rays([(1,)], 1)
    omega = system.omega()
    q1 = nonneg_point_from_chart_values(
        system, omega.class_of(ray, "1"), {(1,): 1})
    q2 = nonneg_point_from_chart_values(
        system, omega.class_of(ray, "2"), {(1,): 1})
    assert q1 != q2
    assert compare_to_trop(system, q1) == compare_to_trop(system, q2)


def test_comparison_preserves_stratum_and_coordinates():
    for system in (line_two_origins(), projective_line_two_charts(),
                   affine_plane(), quadrant_fan_system()):
        for cls, face, dim in nonneg_strata(system):
            coords = generic_coords(cls, face)
            q = nonneg_point(system, cls, face, coords)
            assert (q.chart, q.face) == (cls, face)
            image = compare_to_trop(system, q)
            assert image.stratum.cone == face
            assert image.coords == coords
            assert system.ambient_rank - image.stratum.cone.dim >= dim


def test_sections_invert_the_comparison_on_each_stratum():
    # on separated systems the comparison is injective, so the preimage
    # recovers the exact nonnegative point
    for system in (affine_line(), projective_line_two_charts(),
                   affine_plane(), quadrant_fan_system()):
        for cls, face, _ in nonneg_strata(system):
            q = nonneg_point(system, cls, face, generic_coords(cls, face, 2))
            assert nonneg_preimage(system, compare_to_trop(system, q)) == q


def test_preimage_on_the_doubled_line_picks_the_first_chart():
    system = line_two_origins()
    ray = Cone.from_rays([(1,)], 1)
    q2 = nonneg_point(system, system.omega().class_of(ray, "2"),
                      Cone.from_rays([], 1), (2,))
    image = compare_to_trop(system, q2)
    back = nonneg_preimage(system, image)
    # the doubled chart makes the comparison non-injective; the scan
    # settles on the first chart class, which still hits the same image
    assert back != q2
    assert back.chart.members == ("1",)
    assert compare_to_trop(system, back) == image


def test_point_without_preimage_on_the_affine_line():
    system = affine_line()
    dense = system.omega().class_of(Cone.from_rays([], 1), "1")
    assert nonneg_preimage(system, trop_point(system, dense, (-1,))) is None
    back = nonneg_preimage(system, trop_point(system, dense, (2,)))
    assert back is not None and back.coords == (Fraction(2),)


def test_values_recovered_through_chart_evaluation():
    rng = fresh_rng(41)
    for system in (affine_plane(), line_two_origins(),
                   quadrant_fan_system()):
        for cls, _ in strata(system):
            gens = hilbert_basis(cls.cone).generators
            quot = cls.cone.span_quotient()
            for _ in range(5):
                coords = tuple(Fraction(rng.randint(-12, 12),
                                        rng.randint(1, 4))
                               for _ in range(quot.rank))
                p = trop_point(system, cls, coords)
                values = {g: trop_eval(p, g) for g in gens}
                assert point_from_chart_values(system, cls, values) == p


def test_nonneg_values_recovered_through_chart_evaluation():
    for system in (affine_plane(), projective_line_two_charts(),
                   quadrant_fan_system()):
        for cls, face, _ in nonneg_strata(system):
            q = nonneg_point(system, cls, face, generic_coords(cls, face, 3))
            shadow = compare_to_trop(system, q)
            values = {g: trop_eval(shadow, g)
                      for g in hilbert_basis(cls.cone).generators}
            assert nonneg_point_from_chart_values(system, cls, values) == q


# ---------------------------------------------------------------------------
# polynomials and the seminorm
# ---------------------------------------------------------------------------

def test_polynomial_construction_guards():
    system = affine_plane()
    chart = plane_chart(system)
    with pytest.raises(ValueError):
        chart_polynomial(system, chart, [((-1, 0), 1)])
    with pytest.raises(ValueError):
        chart_polynomial(system, chart, [((1, 0), 1), ((1, 0), 2)])
    f = chart_polynomial(system, chart, [((1, 1), 0), ((0, 0), INF)])
    assert f.terms == (((0, 0), INF), ((1, 1), Fraction(0)))


def test_seminorm_picks_the_minimal_term():
    system = affine_plane()
    chart = plane_chart(system)
    p = point_from_chart_values(system, chart, {(1, 0): 1, (0, 1): INF})
    f = chart_polynomial(system, chart,
                         [((1, 0), 3), ((0, 1), 0), ((0, 0), 7)])
    assert skeleton_seminorm(p, f) == 4
    assert skeleton_seminorm(p, chart_polynomial(system, chart, [])) is INF
    only_dead = chart_polynomial(system, chart, [((0, 1), 0), ((1, 1), 2)])
    assert skeleton_seminorm(p, only_dead) is INF


def test_seminorm_requires_a_chart_containing_the_stratum():
    system = line_two_origins()
    omega = system.omega()
    ray = Cone.from_rays([(1,)], 1)
    poly = chart_polynomial(system, omega.class_of(ray, "1"), [((1,), 0)])
    other = point_from_chart_values(system, omega.class_of(ray, "2"),
                                    {(1,): INF})
    with pytest.raises(ValueError):
        skeleton_seminorm(other, poly)


def test_seminorm_agrees_with_termwise_minimum():
    rng = fresh_rng(42)
    system = affine_plane()
    chart = plane_chart(system)
    monomials = [(a, b) for a in range(3) for b in range(3)]
    for _ in range(25):
        terms = [(m, Fraction(rng.randint(-6, 6)))
                 for m in rng.sample(monomials, rng.randint(1, 6))]
        f = chart_polynomial(system, chart, terms)
        values = {(1, 0): rng.randint(-5, 5), (0, 1): rng.randint(-5, 5)}
        if rng.random() < 0.4:
            values[(0, 1)] = INF
        p = point_from_chart_values(system, chart, values)
        expected = INF
        for s, val in terms:
            got = val + trop_eval(p, s)
            if got < expected:
                expected = got
        assert skeleton_seminorm(p, f) == expected


# ---------------------------------------------------------------------------
# functoriality
# ---------------------------------------------------------------------------

def test_identity_morphism_fixes_every_point():
    system = line_two_origins()
    identity = morphism_from_lattice_map(
        system, system, IntMatrix.identity(1), {"1": "1", "2": "2"})
    for cls, _ in strata(system):
        quot = cls.cone.span_quotient()
        p = trop_point(system, cls, tuple(Fraction(3)
                                          for _ in range(quot.rank)))
        assert induced_map(identity, p) == p


def test_fold_identifies_the_doubled_origins():
    doubled = line_two_origins()
    line = affine_line()
    fold = morphism_from_lattice_map(
        doubled, line, IntMatrix.identity(1), {"1": "1", "2": "1"})
    omega = doubled.omega()
    ray = Cone.from_rays([(1,)], 1)
    p1 = point_from_chart_values(doubled, omega.class_of(ray, "1"),
                                 {(1,): INF})
    p2 = point_from_chart_values(doubled, omega.class_of(ray, "2"),
                                 {(1,): INF})
    assert p1 != p2
    assert induced_map(fold, p1) == induced_map(fold, p2)
    dense = point_from_chart_values(doubled, omega.class_of(ray, "1"),
                                    {(1,): Fraction(5, 3)})
    assert induced_map(fold, dense).coords == (Fraction(5, 3),)


def test_diagonal_map_can_land_on_a_deeper_stratum():
    line = affine_line()
    plane = affine_plane()
    diagonal = morphism_from_lattice_map(
        line, plane, IntMatrix.from_rows([[1], [1]]), {"1": "1"})
    omega = line.omega()
    ray = Cone.from_rays([(1,)], 1)
    dense = point_from_chart_values(line, omega.class_of(ray, "1"),
                                    {(1,): Fraction(4)})
    image = induced_map(diagonal, dense)
    assert image.stratum.cone.rays == ()
    assert image.coords == (Fraction(4), Fraction(4))
    apex = point_from_chart_values(line, omega.class_of(ray, "1"),
                                   {(1,): INF})
    deep = induced_map(diagonal, apex)
    assert deep.stratum.cone == quadrant()
    assert deep.coords == ()


def test_projection_can_land_on_a_shallower_class():
    plane = affine_plane()
    line = affine_line()
    away = morphism_from_lattice_map(
        plane, line, IntMatrix.from_rows([[1, 0]]), {"1": "1"})
    p = point_from_chart_values(plane, plane_chart(plane),
                                {(1, 0): 5, (0, 1): INF})
    image = induced_map(away, p)
    assert image.stratum.cone.rays == ()
    assert image.coords == (Fraction(5),)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def test_trop_point_wire_format_round_trips():
    system = affine_plane()
    p = point_from_chart_values(system, plane_chart(system),
                                {(1, 0): Fraction(-3, 2), (0, 1): INF})
    data = trop_point_to_data(p)
    assert data == {"class": p.stratum.class_id, "coords": ["-3/2"]}
    assert trop_point_from_data(system, data) == p


def test_trop_point_wire_format_guards():
    system = affine_plane()
    with pytest.raises(ValueError):
        trop_point_from_data(system, {"class": 99, "coords": []})
    dense_id = next(cls.class_id for cls, dim in strata(system) if dim == 2)
    with pytest.raises(ValueError):
        trop_point_from_data(system,
                             {"class": dense_id, "coords": ["1", "inf"]})


def test_chart_value_requests_decode_to_generator_tables():
    system = affine_plane()
    chart = plane_chart(system)
    got_chart, values = chart_values_from_data(
        system, {"chart": chart.class_id,
                 "values": {"0": "1/2", "1": "inf"}})
    assert got_chart == chart
    assert values == {(0, 1): Fraction(1, 2), (1, 0): INF}
    with pytest.raises(ValueError):
        chart_values_from_data(system, {"chart": chart.class_id,
                                        "values": {"5": "1"}})
    with pytest.raises(DocumentError, match=r'values\["1"\] and '
                       r'values\["01"\] name the same chart generator 1'):
        chart_values_from_data(system, {"chart": chart.class_id,
                                        "values": {"0": "1", "1": "inf",
                                                   "01": "2"}})


def test_trop_point_wire_format_round_trips_on_random_points():
    # every stratum of five spaces, seeded rational coordinates
    rng = fresh_rng(71)
    plane = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (2,), (5,)]))
    spaces = [affine_plane(), line_two_origins(), projective_line_two_charts(),
              quadrant_fan_system(), plane.system]
    checked = 0
    for system in spaces:
        for cls, dim in strata(system):
            for _ in range(3):
                coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                          for _ in range(dim)]
                p = trop_point(system, cls, coords)
                assert trop_point_from_data(system, trop_point_to_data(p)) == p
                checked += 1
    assert checked > 60


def test_polynomial_documents_decode_like_chart_polynomial():
    system = affine_plane()
    chart = plane_chart(system)
    data = {"system": system_to_data(system), "chart": chart.class_id,
            "terms": [{"exp": [1, 0], "val": "1/2"},
                      {"exp": [0, 3], "val": -2},
                      {"exp": [0, 0], "val": "inf"}]}
    decoded_system, poly = chart_polynomial_from_data(data)
    assert system_to_data(decoded_system) == data["system"]
    assert poly == chart_polynomial(system, chart, [
        ((1, 0), Fraction(1, 2)), ((0, 3), -2), ((0, 0), INF)])
    with pytest.raises(DocumentError, match='missing field "terms"'):
        chart_polynomial_from_data({k: v for k, v in data.items()
                                    if k != "terms"})
    with pytest.raises(ValueError, match="duplicate exponent"):
        chart_polynomial_from_data(dict(data, terms=[
            {"exp": [1, 0], "val": "0"}, {"exp": [1, 0], "val": "1"}]))
