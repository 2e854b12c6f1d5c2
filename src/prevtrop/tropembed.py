"""Classical points over Q(t), their tropical shadows, and chart refinement.

Scalars are rational functions in one variable t, valued by order of
vanishing at t = 0.  A classical point of a chart assigns such a scalar to
every generator of the chart monoid, multiplicatively; taking valuations
turns it into a tropical point.  The refinement machinery adjoins a new
homogeneous coordinate for a chosen polynomial, which is how tropically
indistinguishable points get separated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial, gcd, lcm
from operator import add, mul

from .cone import dot, hilbert_basis
from .exactla import _integer_entry, _integer_vector, _rational_entry
from .extreal import INF, _json_number, is_finite
from .jsondoc import DocumentError, _json_field, _json_objects, _json_typed
from .troppre import (_chart_exponent, _chart_table, _check_chart_contains,
                      _own_class, chart_entries_from_data, chart_polynomial,
                      nonneg_point_from_chart_values, point_from_chart_values,
                      trop_eval)


class NotBounded(ValueError):
    """A generator value has negative valuation."""


class NotHomogeneous(ValueError):
    """A polynomial mixes degrees of the ambient grading."""


class NotSeparating(ValueError):
    """The proposed function fails to tell two points apart."""


# ---------------------------------------------------------------------------
# the field Q(t)
# ---------------------------------------------------------------------------
# Dense integer coefficient lists, lowest degree first.  A scalar num/den is
# kept in one normal form: no trailing zeros, no power of t dividing both
# num and den, no integer dividing every coefficient of both, and a positive
# leading coefficient of den; zero is () / (1,).  Common polynomial factors
# other than t are not removed, so equality still cross-multiplies.  What is
# stripped, integer content and powers of t, is multiplicative (Gauss's
# lemma), so reordering factors, reusing a value or skipping a zero summand
# leaves (num, den) unchanged.

def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, y in enumerate(b):
        out[k] += y
    return out


def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _pord(a):
    for k, c in enumerate(a):
        if c:
            return k
    raise ValueError("zero polynomial has no order")


_INT = frozenset([int])


def _cleared(num, den):
    """Integer lists with the ratio of rational coefficient lists num/den."""
    num = [_rational_entry(c) for c in num]
    den = [_rational_entry(c) for c in den]
    scale = lcm(*(c.denominator for c in num + den))
    return ([c.numerator * (scale // c.denominator) for c in num],
            [c.numerator * (scale // c.denominator) for c in den])


def _scalar(num, den):
    """ValuedScalar(num, den) from fresh integer lists, without the type
    scan; the lists are normalised in place."""
    while den and not den[-1]:
        den.pop()
    if not den:
        raise ZeroDivisionError("denominator must be nonzero")
    while num and not num[-1]:
        num.pop()
    if not num:
        den = [1]
    else:
        shift = min(_pord(num), _pord(den))
        if shift:
            del num[:shift], den[:shift]
        g = gcd(*num, *den)
        if den[-1] < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den = [c // g for c in den]
    out = object.__new__(ValuedScalar)
    out.num, out.den = tuple(num), tuple(den)
    return out


class ValuedScalar:
    """An element of Q(t) with its t-adic valuation.

    num and den are integer coefficient tuples of polynomials in t, in the
    normal form above; the constructor takes int or Fraction coefficients
    and normalises them.  The valuation is ord_t(num) - ord_t(den), infinite
    only for zero.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num, den = list(num), list(den)
        if not _INT.issuperset(map(type, num + den)):
            num, den = _cleared(num, den)
        normal = _scalar(num, den)
        self.num, self.den = normal.num, normal.den

    @classmethod
    def of(cls, value):
        if isinstance(value, ValuedScalar):
            return value
        return cls((value,), (1,))

    @classmethod
    def t_power(cls, power, coeff=1):
        """coeff * t**power for any integer power."""
        power = _integer_entry(power)
        if power >= 0:
            return cls((0,) * power + (coeff,), (1,))
        return cls((coeff,), (0,) * (-power) + (1,))

    @classmethod
    def from_polys(cls, num, den=(1,)):
        return cls(num, den)

    @property
    def is_zero(self):
        return not self.num

    @property
    def valuation(self):
        if not self.num:
            return INF
        return _pord(self.num) - _pord(self.den)

    def __add__(self, other):
        other = ValuedScalar.of(other)
        return _scalar(_padd(_pmul(self.num, other.den),
                             _pmul(other.num, self.den)),
                       _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return _scalar([-c for c in self.num], list(self.den))

    def __sub__(self, other):
        return self + (-ValuedScalar.of(other))

    def __rsub__(self, other):
        return ValuedScalar.of(other) + (-self)

    def __mul__(self, other):
        other = ValuedScalar.of(other)
        return _scalar(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ValuedScalar.of(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero scalar")
        return _scalar(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        return ValuedScalar.of(other) / self

    def __pow__(self, power):
        power = _integer_entry(power)
        if power < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return _scalar(list(self.den), list(self.num)) ** (-power)
        if not power:
            return _ONE
        out, base = None, self
        while True:  # square and multiply, from the first factor on
            if power & 1:
                out = base if out is None else out * base
            power >>= 1
            if not power:
                return out
            base = base * base

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = ValuedScalar.of(other)
        if not isinstance(other, ValuedScalar):
            return NotImplemented
        return _pmul(self.num, other.den) == _pmul(other.num, self.den)

    __hash__ = None

    def __repr__(self):
        return "ValuedScalar(%r / %r)" % (list(self.num), list(self.den))


def scalar(value):
    return ValuedScalar.of(value)


_ZERO = ValuedScalar((), (1,))
_ONE = ValuedScalar((1,), (1,))

# ---------------------------------------------------------------------------
# classical chart points
# ---------------------------------------------------------------------------

class ClassicalChartPoint:
    """Multiplicative scalar values on the generators of a chart monoid.

    The nonzero generators are exactly those vanishing on a face of the
    chart cone (the point's zero face), and the values respect every
    multiplicative relation of the monoid; both are checked at build time.
    """

    __slots__ = ("system", "chart", "values", "zero_face")

    def __init__(self, system, chart, values, zero_face):
        self.system = system
        self.chart = chart
        self.values = values
        self.zero_face = zero_face

    def __eq__(self, other):
        if not isinstance(other, ClassicalChartPoint):
            return NotImplemented
        return (self.chart == other.chart
                and set(self.values) == set(other.values)
                and all(self.values[g] == other.values[g]
                        for g in self.values))

    __hash__ = None

    def __repr__(self):
        return "ClassicalChartPoint(%r, %d values)" % (self.chart,
                                                       len(self.values))

    def eval(self, exponent):
        """Value of the chart monomial with the given exponent."""
        sigma = self.chart.cone
        s = _chart_exponent(sigma, exponent)
        return _monomial_value(self, s, hilbert_basis(sigma).decompose)


def _monomial_value(point, s, decompose):
    """Value at a classical point of the chart monomial s; decompose(s) gives
    its generator multiplicities, asked for only when s is not zero there."""
    if any(dot(s, r) != 0 for r in point.zero_face.rays):
        return _ZERO
    parts = decompose(s)
    if not parts:
        return _ONE
    return reduce(mul, [point.values[g] ** m for g, m in parts.items()])


def classical_point(system, chart, values):
    """Validate generator values and build a classical chart point.

    Zero values must be supported exactly off a face of the chart cone and
    the nonzero values must satisfy every multiplicative relation among
    their generators.
    """
    table, alive, zero_face, relations = _chart_table(
        system, chart, values, ValuedScalar.of, lambda v: not v.is_zero,
        "nonzero")
    for rel in relations:
        sides = ([table[g] ** c for c, g in zip(rel, alive) if c > 0],
                 [table[g] ** -c for c, g in zip(rel, alive) if c < 0])
        lhs, rhs = (reduce(mul, side) if side else _ONE for side in sides)
        if lhs != rhs:
            raise ValueError("values are not multiplicative on the chart monoid")
    return ClassicalChartPoint(system, chart, table, zero_face)


def coordinate_point(system, chart, coords, zero_face=None):
    """Classical point from torus coordinates, optionally pushed to a face.

    Every generator orthogonal to the zero face takes the monomial value
    prod coords[j] ** g[j]; the rest are zero.  Coordinates must be nonzero
    scalars.
    """
    sigma = chart.cone
    coords = [ValuedScalar.of(c) for c in coords]
    if len(coords) != sigma.ambient_rank:
        raise ValueError("need %d torus coordinates" % sigma.ambient_rank)
    if any(c.is_zero for c in coords):
        raise ValueError("torus coordinates must be nonzero")
    if zero_face is None:
        zero_face = sigma.faces()[0]
    if not sigma.has_face(zero_face):
        raise ValueError("zero locus must be a face of the chart cone")
    values = {}
    for g in hilbert_basis(sigma).generators:
        if all(dot(g, r) == 0 for r in zero_face.rays):
            powers = [c ** a for c, a in zip(coords, g) if a]
            values[g] = reduce(mul, powers) if powers else _ONE
        else:
            values[g] = _ZERO
    return classical_point(system, chart, values)


# ---------------------------------------------------------------------------
# tropicalization of classical points
# ---------------------------------------------------------------------------

def trop_point(point):
    """Tropical point with the valuations of the generator values."""
    vals = {g: v.valuation for g, v in point.values.items()}
    return point_from_chart_values(point.system, point.chart, vals)


def nonneg_trop_point(point):
    """Nonnegative tropical point of a point with bounded coordinates."""
    vals = {}
    for g, v in point.values.items():
        w = v.valuation
        if is_finite(w) and w < 0:
            raise NotBounded("generator %r has valuation %s < 0"
                             % (list(g), w))
        vals[g] = w
    return nonneg_point_from_chart_values(point.system, point.chart, vals)


def apply_morphism(morphism, point):
    """Push a classical point through a morphism of glued systems."""
    _own_class(morphism.source, point.chart, "chart")
    target_chart = morphism.image_class(point.chart)
    pullback = morphism.lattice_map.transpose()
    values = {g: point.eval(pullback.apply(g))
              for g in hilbert_basis(target_chart.cone).generators}
    return classical_point(morphism.target, target_chart, values)


# ---------------------------------------------------------------------------
# Kapranov membership for hypersurfaces
# ---------------------------------------------------------------------------

def kapranov_minimizers(poly, point):
    """The terms attaining the tropical minimum at a point, in term order.

    Returns (exponent, valuation plus monomial value) pairs.  Terms whose
    monomial or coefficient is infinite on the point's stratum are discarded
    first, so the list is empty when no term survives.
    """
    _check_chart_contains(poly, point)
    survivors = []
    for s, val in poly.terms:
        if not is_finite(val):
            continue
        value = trop_eval(point, s)
        if is_finite(value):
            survivors.append((s, val + value))
    low = min((v for _, v in survivors), default=None)
    return [(s, v) for s, v in survivors if v == low]


def kapranov_membership(poly, point):
    """Whether a tropical point lies on the tropicalized hypersurface.

    Membership means the minimum of valuation plus monomial value is
    attained at least twice, or that no term survives at all (the restricted
    polynomial vanishes identically on the stratum).
    """
    return len(kapranov_minimizers(poly, point)) != 1

# ---------------------------------------------------------------------------
# hypersurfaces in a graded ambient
# ---------------------------------------------------------------------------

class EmbeddedHypersurface:
    """A nonzero polynomial with valued coefficients in a graded ring,
    compared by identity."""

    __slots__ = ("grading", "terms")

    def __init__(self, grading, terms):
        self.grading = grading
        self.terms = terms


def hypersurface(grading, terms):
    table = {}
    for exponent, coeff in terms:
        e = _integer_vector(exponent, grading.n)
        if any(a < 0 for a in e):
            raise ValueError("exponent %r must be nonnegative" % list(e))
        if e in table:
            raise ValueError("duplicate exponent %r" % list(e))
        coeff = ValuedScalar.of(coeff)
        if not coeff.is_zero:
            table[e] = coeff
    if not table:
        raise ValueError("hypersurface polynomial must be nonzero")
    return EmbeddedHypersurface(grading, tuple(sorted(table.items())))


def restrict_to_chart(proj, hyp, label):
    """The valued chart polynomial cut out on one chart of the system."""
    if hyp.grading != proj.grading:
        raise ValueError("hypersurface and chart system gradings differ")
    try:
        subset = proj.chart_subsets[label]
    except KeyError:
        raise ValueError("no chart labelled %r" % label) from None
    chart = proj.system.omega().class_of(proj.poset.cone_of(subset), label)
    terms = [(proj.character(e), coeff.valuation)
             for e, coeff in hyp.terms]
    return chart_polynomial(proj.system, chart, terms)


def evaluate_polynomial(proj, point, terms):
    """Evaluate integer-exponent terms at a classical point of a chart."""
    values = []
    for exponent, coeff in terms:
        value = point.eval(proj.character(exponent))
        coeff = ValuedScalar.of(coeff)
        # num == den is the scalar one, and a product by it changes nothing
        values.append(value if coeff.num == coeff.den else coeff * value)
    return reduce(add, values) if values else _ZERO


# ---------------------------------------------------------------------------
# embedding refinement
# ---------------------------------------------------------------------------

class Refinement:
    """A new homogeneous coordinate x standing for a chosen polynomial.

    The new grading extends the old one by deg(x) = deg(gtilde); clearing
    records the monomial multiplier that made the underlying function a
    polynomial, so the function itself is the pullback of x divided by that
    monomial.  Compared by identity.
    """

    __slots__ = ("old_grading", "new_grading", "old_proj", "new_proj",
                 "gtilde", "clearing", "x_degree")

    def __init__(self, old_grading, new_grading, old_proj, new_proj, gtilde,
                 clearing, x_degree):
        self.old_grading = old_grading
        self.new_grading = new_grading
        self.old_proj = old_proj
        self.new_proj = new_proj
        self.gtilde = gtilde
        self.clearing = clearing
        self.x_degree = x_degree


def refine_embedding(grading, terms, clearing=None):
    """Adjoin a coordinate for a homogeneous polynomial to a grading.  The
    new system is memoised on the old one per x_degree (ProjSystem.refined)
    and lives as long as it, so refinements by one degree share new_proj."""
    from .multiproj import proj_system_of_fans
    gtilde = hypersurface(grading, terms).terms
    degrees = {grading.degree_of_monomial(e) for e, _ in gtilde}
    if len(degrees) > 1:
        raise NotHomogeneous("terms of degrees %s cannot define a new "
                             "coordinate" % sorted(degrees))
    if clearing is None:
        clearing = (0,) * grading.n
    clearing = _integer_vector(clearing, grading.n)
    if any(a < 0 for a in clearing):
        raise ValueError("clearing monomial must be nonnegative")
    x_degree = degrees.pop()
    old_proj = proj_system_of_fans(grading)
    new_proj = old_proj.refined(x_degree)
    return Refinement(grading, new_proj.grading, old_proj, new_proj,
                      gtilde, clearing, x_degree)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial(total, split):
    out = factorial(total)
    for k in split:
        out //= factorial(k)
    return out


def _top_chart(proj, point):
    """The chart subset a classical point was built on, with validation."""
    label = point.chart.representative
    try:
        subset = proj.chart_subsets[label]
    except KeyError:
        raise ValueError("point does not sit on a chart of this system") \
            from None
    expected = proj.system.omega().class_of(proj.poset.cone_of(subset), label)
    if point.chart != expected:
        raise ValueError("point must sit on a full chart of the system")
    return subset


def _refinement_plan(refinement, subset):
    """What refined_classical does on the chart subset that no point changes:
    the new chart, per new generator the (character, multinomial, split) of
    each composition of its x-exponent over gtilde's monomials, and each
    character's decomposition over the old chart's generators."""
    new = refinement.new_proj
    gens = tuple(e for e, _ in refinement.gtilde)
    plan = new._plans.get((gens, subset))
    if plan is None:
        old = refinement.old_proj
        n = refinement.old_grading.n
        chart = new.system.omega().class_of(new.poset.cone_of(subset),
                                            new.chart_label(subset))
        pushforward = new.kernel.basis.transpose()
        rows = []
        for g in hilbert_basis(chart.cone).generators:
            e = pushforward.apply(g)
            a, b = e[:n], e[n]
            terms = []
            for split in _compositions(b, len(gens)):
                exponent = [x + sum(k[i] * m for k, m in zip(gens, split))
                            for i, x in enumerate(a)]
                terms.append((old.character(exponent), _multinomial(b, split),
                              split))
            rows.append((g, terms))
        # the point's chart cone, as _top_chart checks
        basis = hilbert_basis(old.poset.cone_of(subset))
        parts = {chi: basis.decompose(chi)
                 for _, terms in rows for chi, _, _ in terms}
        plan = new._plans[gens, subset] = chart, rows, parts
    return plan


def refined_classical(refinement, point):
    """The classical point with the extra coordinate x = gtilde(point).

    Only the evaluation reads the point.  The rest is planned on the first
    call per (gtilde's exponents, chart subset) and kept in the new system's
    ProjSystem._plans while it lives, whatever gtilde's coefficients."""
    subset = _top_chart(refinement.old_proj, point)
    chart, rows, parts = _refinement_plan(refinement, subset)
    # coefficients one (num == den) are left out of the products
    coeffs = [None if c.num == c.den else c for _, c in refinement.gtilde]
    evals = {chi: _monomial_value(point, chi, parts.__getitem__)
             for chi in parts}
    values = {}
    for g, terms in rows:
        pieces = []
        for chi, multinomial, split in terms:
            value = evals[chi]
            if value.is_zero:
                continue
            if multinomial != 1:
                value = value * multinomial
            powers = [c ** mult for c, mult in zip(coeffs, split)
                      if mult and c is not None]
            pieces.append(reduce(mul, powers, value))
        values[g] = reduce(add, pieces) if pieces else _ZERO
    return classical_point(refinement.new_proj.system, chart, values)


def refined_trop(refinement, point):
    """Tropicalization of a classical point in the refined system."""
    return trop_point(refined_classical(refinement, point))


def forget_refinement(refinement, point):
    """Project a refined tropical point back to the unrefined system.

    Undefined over strata that only exist thanks to the new coordinate;
    everywhere else it recovers the direct tropicalization.  The old chart and
    its generators' new characters are kept per old chart subset in the new
    system's ProjSystem._plans while it lives.
    """
    old = refinement.old_proj
    new = refinement.new_proj
    _own_class(new.system, point.stratum, "stratum")
    label = point.stratum.representative
    subset = new.chart_subsets[label] - {refinement.old_grading.n + 1}
    if not old.poset.is_relevant(subset):
        raise ValueError("the projection is undefined over this stratum")
    base = next(f for f in old.poset.minimal if f <= subset)
    plan = new._plans.get(base)
    if plan is None:
        chart = old.system.omega().class_of(old.poset.cone_of(base),
                                            old.chart_label(base))
        pushforward = old.kernel.basis.transpose()
        plan = new._plans[base] = chart, [
            (g, new.character(pushforward.apply(g) + (0,)))
            for g in hilbert_basis(chart.cone).generators]
    chart, characters = plan
    return point_from_chart_values(
        old.system, chart, {g: trop_eval(point, chi) for g, chi in characters})


def separation_witness(proj, p, q, terms):
    """A refinement telling apart two tropically equal classical points.

    The separating function is given by integer-exponent terms regular on
    the common chart; its valuations at the two points must differ.  The
    returned refinement adjoins a coordinate for the polynomial obtained by
    clearing denominators, and the refined tropicalizations are verified to
    disagree.
    """
    if p.chart != q.chart:
        raise ValueError("points must share a chart")
    cleaned = [(_integer_vector(e, proj.grading.n), ValuedScalar.of(c))
               for e, c in terms]
    cleaned = [(e, c) for e, c in cleaned if not c.is_zero]
    if not cleaned:
        raise NotSeparating("the zero function cannot separate points")
    va = evaluate_polynomial(proj, p, cleaned).valuation
    vb = evaluate_polynomial(proj, q, cleaned).valuation
    if va == vb:
        raise NotSeparating("the function has valuation %s at both points"
                            % (va,))
    clearing = tuple(max(0, -min(e[i] for e, _ in cleaned))
                     for i in range(proj.grading.n))
    gtilde = [(tuple(e[i] + clearing[i] for i in range(proj.grading.n)), c)
              for e, c in cleaned]
    refinement = refine_embedding(proj.grading, gtilde, clearing)
    rp = refined_trop(refinement, p)
    rq = refined_trop(refinement, q)
    if rp == rq:
        raise AssertionError("refinement failed to separate the points")
    return refinement


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def valued_scalar_to_data(value):
    return {"num": [[str(c), k] for k, c in enumerate(value.num) if c],
            "den": [[str(c), k] for k, c in enumerate(value.den) if c]}


# The largest power a decoded polynomial may hold.  Scalars are stored as
# dense coefficient lists, so each power is checked before its list is built:
# decoding and squaring t^(10^5) takes about 0.3s and 23MB, t^(10^6) about 2s
# and 100MB.
POWER_LIMIT = 10 ** 5


def _poly_from_sparse(entries, what):
    coeffs = {}
    for k, pair in enumerate(_json_typed(entries, list, what)):
        if not isinstance(pair, list) or len(pair) != 2:
            raise DocumentError("%s[%d] must be a JSON array [coefficient, power]"
                                % (what, k))
        coeff = _json_number(pair[0], "%s[%d] coefficient" % (what, k),
                             infinite=False)
        power = _integer_entry(pair[1])
        if power < 0:
            raise ValueError("polynomial powers must be nonnegative")
        if power > POWER_LIMIT:
            raise ValueError("%s[%d] power %d is over the limit of %d"
                             % (what, k, power, POWER_LIMIT))
        coeffs[power] = coeffs.get(power, 0) + coeff
    return [coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1)]


def valued_scalar_from_data(data):
    if isinstance(data, (str, int)) and not isinstance(data, bool):
        return ValuedScalar.of(_json_number(data, "value", infinite=False))
    data = _json_typed(data, dict, "value")
    den = _poly_from_sparse(data.get("den", [["1", 0]]), "den")
    return ValuedScalar(_poly_from_sparse(_json_field(data, "num"), "num"), den)


def classical_point_from_data(system, data):
    """Decode a {"chart": id, "values": {generator index: scalar}} document
    into a validated classical chart point."""
    chart, values = chart_entries_from_data(
        system, data, lambda payload, _: valued_scalar_from_data(payload))
    return classical_point(system, chart, values)


def hypersurface_to_data(hyp):
    return {"terms": [{"exp": list(e), "coeff": valued_scalar_to_data(c)}
                      for e, c in hyp.terms]}


def hypersurface_from_data(grading, data):
    terms = [(tuple(_json_field(term, "exp", list)),
              valued_scalar_from_data(_json_field(term, "coeff")))
             for term in _json_objects(_json_field(data, "terms"), "terms")]
    return hypersurface(grading, terms)
