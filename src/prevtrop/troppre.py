"""Tropical points of a glued toric space and their nonnegative shadows.

The tropical space attached to a system of glued cones is a disjoint union
of rational vector spaces, one for every chart class; its nonnegative part
is a union of closed cone slices indexed by a chart class together with a
face recording where values become infinite.  Everything here is exact:
coordinates are Fractions, infinite values are the tagged INF object, and
containment questions go through the exact cone machinery.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import cone
from .cone import Cone, dot
from .exactla import (_Value, _echelon, _integer_vector,
                      _rational_entry, _with_identity)
from .extreal import INF, _json_number, format_extended, is_finite
from .jsondoc import DocumentError, _json_field, _json_objects
# strata, nonneg_strata: re-exported from sysfan, where omega reads them
from .sysfan import nonneg_strata, strata, system_from_data


class FiniteLocusNotAFace(ValueError):
    """The generators with finite values do not cut out a face of the chart."""


class RelationViolation(ValueError):
    """Chart values break an additive relation among the chart generators."""


def _extended(value):
    """Normalise a user-supplied value to Fraction or INF."""
    if value is INF:
        return INF
    return _rational_entry(value)


def _vector(entries, rank, what):
    out = tuple(_rational_entry(x) for x in entries)
    if len(out) != rank:
        raise ValueError("%s must have %d coordinates, got %d"
                         % (what, rank, len(out)))
    return out


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

class TropPoint(_Value):
    """A point of the tropical space: a stratum class plus coordinates.

    Coordinates live in the quotient of the ambient lattice by the span of
    the stratum cone, expressed in the canonical basis of that quotient;
    they are always finite.
    """

    __slots__ = ("stratum", "coords")

    def __init__(self, stratum, coords):
        self.stratum = stratum
        self.coords = coords

    def _key(self):
        return self.stratum, self.coords


class NonNegTropPoint(_Value):
    """A point of the nonnegative part, in canonical (smallest-chart) form.

    ``face`` is the locus where chart values are infinite; ``coords`` give
    the finite part in the quotient modulo the span of ``face`` and lie in
    the relative interior of the image of the chart cone there.  Keeping the
    chart minimal makes equality of points plain field equality.
    """

    __slots__ = ("chart", "face", "coords")

    def __init__(self, chart, face, coords):
        self.chart = chart
        self.face = face
        self.coords = coords

    def _key(self):
        return self.chart, self.face, self.coords


def trop_point(system, stratum, coords):
    """Build a tropical point on the given stratum, validating coordinates."""
    _own_class(system, stratum, "stratum")
    quot = stratum.cone.span_quotient()
    return TropPoint(stratum, _vector(coords, quot.rank, "coordinates"))


def nonneg_point(system, chart, face, coords):
    """Build a nonnegative point, reducing it to its canonical chart.

    The raw data is a chart class, a face of its cone where values are
    infinite, and finite coordinates inside the image of the chart cone
    modulo that face.  The canonical form replaces the chart by the face of
    it whose image the coordinates are interior to.
    """
    _own_class(system, chart, "chart")
    sigma = chart.cone
    if not sigma.has_face(face):
        raise ValueError("the infinite locus must be a face of the chart cone")
    coords = _vector(coords, face.span_quotient().rank, "coordinates")
    carrier = _nonneg_carrier(sigma, face, coords)
    if carrier is None:
        raise ValueError("coordinates lie outside the image of the chart cone")
    chart = system.omega().class_of(carrier, chart.representative)
    return NonNegTropPoint(chart, face, coords)


def _nonneg_carrier(sigma, face, coords):
    """The face of sigma whose image modulo the span of face holds coords in
    its relative interior, or None outside the image.  The image's dual is
    sigma^v cap face^perp, generated by sigma's inequalities vanishing on
    face, descended; the faces of sigma containing face match the image's
    (star construction), so those tight at coords cut out the carrier."""
    quot = face.span_quotient()
    tight = []
    for u in sigma.face_support(face):
        d = dot(quot.descend_dual(u), coords)
        if d < 0:
            return None
        if d == 0:
            tight.append(u)
    return sigma.face_orthogonal_to(tight)


def _own_class(system, cls, what):
    poset = system.omega()
    if not (0 <= cls.class_id < len(poset.classes)
            and poset.classes[cls.class_id] == cls):
        raise ValueError("%s is not a chart class of this system" % what)
    return cls


def _chart_exponent(sigma, exponent):
    """The exponent as a tuple of ints, checked to lie in the chart monoid
    of the cone sigma (the lattice points of its dual)."""
    s = _integer_vector(exponent, sigma.ambient_rank)
    if any(dot(s, r) < 0 for r in sigma.rays):
        raise ValueError("exponent %r lies outside the chart monoid" % list(s))
    return s


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def trop_eval(point, exponent):
    """Value of a single chart monomial at a tropical point.

    The exponent must pair nonnegatively with the stratum cone (it is then a
    monomial on the chart cut out by that cone); the value is finite exactly
    when the exponent annihilates the stratum cone.
    """
    tau = point.stratum.cone
    s = _integer_vector(exponent, tau.ambient_rank)
    pairings = [dot(s, r) for r in tau.rays]
    if any(p < 0 for p in pairings):
        raise ValueError("exponent %r is not a monomial on the chart of "
                         "stratum %r" % (list(s), point.stratum))
    if any(p != 0 for p in pairings):
        return INF
    quot = tau.span_quotient()
    descended = quot.descend_dual(s)
    return sum((c * d for c, d in zip(point.coords, descended)), Fraction(0))


def _chart_table(system, chart, values, convert, live, what):
    """The table of converted values on the chart generators, the live ones
    (whose value passes live) in basis order, the face they cut out, and
    their relation basis; FiniteLocusNotAFace names the generators with what
    values when they are not those vanishing on that face.  Each live tuple's
    cut, the face's rays or None, stays in the chart cone's Cone._cuts while
    the cone lives; holding no cone, it puts none on a reference cycle."""
    _own_class(system, chart, "chart")
    sigma = chart.cone
    basis = cone.hilbert_basis(sigma)
    gens = basis.generators
    table = {_integer_vector(g, sigma.ambient_rank): convert(v)
             for g, v in values.items()}
    if set(table) != set(gens):
        raise ValueError("values must be given on exactly the %d chart "
                         "generators" % len(gens))
    alive = tuple(g for g in gens if live(table[g]))
    if sigma._cuts is None:
        sigma._cuts = {}
    if alive not in sigma._cuts:
        # a face with cut S is the cone meet S^perp, so no other can match
        rays = sigma.face_orthogonal_to(alive).rays
        sigma._cuts[alive] = rays if alive == tuple(
            g for g in gens if all(dot(g, r) == 0 for r in rays)) else None
    rays = sigma._cuts[alive]
    if rays is None:
        raise FiniteLocusNotAFace(
            "the generators with %s values, %r, are not those vanishing on "
            "a face of the chart cone" % (what, sorted(alive)))
    return (table, alive, Cone._shared(rays, sigma.ambient_rank),
            basis.relations(alive))


def point_from_chart_values(system, chart, values):
    """Tropical point with prescribed values on the chart generators.

    ``values`` maps every Hilbert-basis generator of the chart cone's dual
    monoid to a rational or INF.  The finite generators must cut out a face
    of the chart cone and the finite values must respect every additive
    relation among the finite generators; otherwise FiniteLocusNotAFace or
    RelationViolation is raised.  The inverse that turns values into
    coordinates is built once per (chart cone, finite generators) and lives
    as long as the cone, beside its relations, so a repeat runs no solve.
    """
    table, finite, tau, relations = _chart_table(
        system, chart, values, _extended, is_finite, "finite")
    for rel in relations:
        if sum(c * table[g] for c, g in zip(rel, finite) if c) != 0:
            raise RelationViolation(
                "values violate the generator relation %s"
                % _relation_text(rel, finite))
    # the relations checked span those of the rows, so the rows picked
    # determine the one solution
    picked, inverse = _face_inverse(chart.cone, finite, tau)
    rhs = [table[finite[i]] for i in picked]
    den = lcm(*(v.denominator for v in rhs))
    rhs = [v.numerator * (den // v.denominator) for v in rhs]
    coords = tuple(Fraction(dot(w, rhs), c * den) for c, w in inverse)
    stratum = system.omega().class_of(tau, chart.representative)
    return TropPoint(stratum, coords)


def _face_inverse(sigma, live, tau):
    """The indices into live of the first r independent generators (they
    span tau^perp, of rank r, for the face tau of sigma, where descent to
    the quotient by tau is injective), and the integer inverse of their
    descended rows, one (divisor, row) pair per coordinate.  Kept in sigma's
    Cone._relations under (tau.rays, live), a key no live tuple matches
    that holds no cone."""
    key = (tau.rays, live)
    if sigma._relations is None:
        sigma._relations = {}
    if key not in sigma._relations:
        quot = tau.span_quotient()
        picked = [i for i, _ in _echelon(list(zip(*live)), len(live))]
        if len(picked) != quot.rank:
            raise AssertionError("the live generators have rank %d, not %d"
                                 % (len(picked), quot.rank))
        block = _echelon(_with_identity([quot.descend_dual(live[i])
                                         for i in picked]), quot.rank)
        sigma._relations[key] = picked, [(row[c], row[quot.rank:])
                                         for c, row in block]
    return sigma._relations[key]


def _relation_text(rel, gens):
    def side(sign):
        return " + ".join(("%d*" % abs(c) if abs(c) != 1 else "")
                          + repr(list(g))
                          for c, g in zip(rel, gens) if sign * c > 0) or "0"
    return "%s = %s" % (side(1), side(-1))


def nonneg_point_from_chart_values(system, chart, values):
    """Nonnegative point with prescribed values on the chart generators.

    Same contract as point_from_chart_values with every finite value
    required to be nonnegative; the result is returned in canonical form.
    """
    table = {tuple(g): _extended(v) for g, v in values.items()}
    for g, v in table.items():
        if is_finite(v) and v < 0:
            raise ValueError("generator %r has negative value %s"
                             % (list(g), v))
    shadow = point_from_chart_values(system, chart, table)
    tau = shadow.stratum.cone
    return nonneg_point(system, chart, tau, shadow.coords)


# ---------------------------------------------------------------------------
# comparison with the tropical space
# ---------------------------------------------------------------------------

def compare_to_trop(system, point):
    """Image of a nonnegative point in the tropical space.

    The infinite-locus face becomes the stratum and the coordinates carry
    over unchanged, both sides living in the same quotient.
    """
    _own_class(system, point.chart, "chart")
    stratum = system.omega().class_of(point.face, point.chart.representative)
    return TropPoint(stratum, point.coords)


def nonneg_preimage(system, point):
    """The nonnegative point mapping to a tropical point, or None.

    Scans the charts around the stratum for one whose image cone contains
    the coordinates; when none does, the point is outside the nonnegative
    locus and has no preimage.
    """
    _own_class(system, point.stratum, "stratum")
    tau = point.stratum.cone
    omega = system.omega()
    for cls in omega:
        sigma = cls.cone
        if not sigma.has_face(tau):
            continue
        if omega.class_of(tau, cls.representative) != point.stratum:
            continue
        if _nonneg_carrier(sigma, tau, point.coords) is not None:
            return nonneg_point(system, cls, tau, point.coords)
    return None


# ---------------------------------------------------------------------------
# polynomials with valued coefficients
# ---------------------------------------------------------------------------

class ValuatedChartPolynomial(_Value):
    """A chart polynomial remembered only through coefficient valuations.

    Terms pair an exponent from the chart's dual monoid with the valuation
    of its coefficient (INF for a vanishing coefficient); exponents are
    distinct and sorted.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart, terms):
        self.chart = chart
        self.terms = terms

    def _key(self):
        return self.chart, self.terms


def chart_polynomial(system, chart, terms):
    """Validate and canonicalise a list of (exponent, valuation) terms."""
    _own_class(system, chart, "chart")
    sigma = chart.cone
    table = {}
    for exponent, val in terms:
        s = _chart_exponent(sigma, exponent)
        if s in table:
            raise ValueError("duplicate exponent %r" % list(s))
        table[s] = _extended(val)
    return ValuatedChartPolynomial(chart, tuple(sorted(table.items())))


def _check_chart_contains(poly, point):
    if not (poly.chart.representative in point.stratum.members
            and poly.chart.cone.has_face(point.stratum.cone)):
        raise ValueError("the polynomial's chart does not contain the "
                         "point's stratum")


def skeleton_seminorm(point, poly):
    """Tropical value of a valued chart polynomial at a tropical point.

    The minimum over terms of coefficient valuation plus monomial value;
    INF for the empty polynomial.  The point's stratum must lie on the
    polynomial's chart.
    """
    _check_chart_contains(poly, point)
    best = INF
    for s, val in poly.terms:
        candidate = val + trop_eval(point, s)
        if candidate < best:
            best = candidate
    return best


# ---------------------------------------------------------------------------
# functoriality
# ---------------------------------------------------------------------------

def induced_map(morphism, point):
    """Push a tropical point through a morphism of glued systems.

    Works chart-wise: each generator of the image chart pulls back to a
    monomial on the source chart and is evaluated there; the resulting
    values determine the image point, which may sit on a deeper stratum
    than the class map alone suggests.
    """
    _own_class(morphism.source, point.stratum, "stratum")
    target_class = morphism.image_class(point.stratum)
    pullback = morphism.lattice_map.transpose()
    values = {}
    for g in cone.hilbert_basis(target_class.cone).generators:
        values[g] = trop_eval(point, pullback.apply(g))
    return point_from_chart_values(morphism.target, target_class, values)


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def trop_point_to_data(point):
    return {"class": point.stratum.class_id,
            "coords": [format_extended(c) for c in point.coords]}


def _index(value, count, what):
    """A document index into count items: a JSON integer, or a string of
    plain ASCII digits as JSON object keys are.  Anything else, such as true,
    null, 1.5, 2.0 or a string with a sign, space or underscore, is
    malformed."""
    if isinstance(value, str):
        if not (value.isascii() and value.isdigit()):
            raise DocumentError("%s index %r is not a string of decimal "
                                "digits" % (what, value))
    elif type(value) is not int:
        raise DocumentError("%s index %r is not a JSON integer"
                            % (what, value))
    k = int(value)
    if not 0 <= k < count:
        raise ValueError("no %s with index %d" % (what, k))
    return k


def class_from_data(system, value):
    """The chart class a document names by its index."""
    classes = system.omega().classes
    return classes[_index(value, len(classes), "chart class")]


def trop_point_from_data(system, data):
    stratum = class_from_data(system, _json_field(data, "class"))
    coords = [_json_number(c, "coords[%d]" % k)
              for k, c in enumerate(_json_field(data, "coords", list))]
    if any(not is_finite(c) for c in coords):
        raise ValueError("tropical coordinates must be finite")
    return trop_point(system, stratum, coords)


def nonneg_point_to_data(point):
    return {"class": point.chart.class_id,
            "face": [list(r) for r in point.face.rays],
            "coords": [format_extended(c) for c in point.coords]}


def chart_entries_from_data(system, data, decode):
    """Decode a {"chart": id, "values": {generator index: payload}} document
    into its chart and {generator: decode(payload, 'values["key"]')}.  Every
    key is read before any payload; two keys naming one generator, such as
    "0" and "00", are malformed."""
    chart = class_from_data(system, _json_field(data, "chart"))
    gens = cone.hilbert_basis(chart.cone).generators
    named = {}
    for key in _json_field(data, "values", dict):
        k = _index(key, len(gens), "chart generator")
        if named.setdefault(k, key) != key:
            raise DocumentError('values["%s"] and values["%s"] name the same '
                                'chart generator %d' % (named[k], key, k))
    return chart, {gens[k]: decode(data["values"][key], 'values["%s"]' % key)
                   for k, key in named.items()}


def chart_values_from_data(system, data):
    """Decode a {"chart": id, "values": {index: value}} request."""
    return chart_entries_from_data(system, data, _json_number)


def chart_polynomial_from_data(data):
    """Decode a {"system": ..., "chart": id, "terms": [{"exp": [...], "val":
    valuation}]} document into (system, ValuatedChartPolynomial)."""
    system = system_from_data(_json_field(data, "system", dict))
    chart = class_from_data(system, _json_field(data, "chart"))
    terms = _json_objects(_json_field(data, "terms"), "terms")
    return system, chart_polynomial(system, chart, [
        (tuple(_json_field(term, "exp", list)),
         _json_number(_json_field(term, "val"), 'terms[%d]["val"]' % k))
        for k, term in enumerate(terms)])
