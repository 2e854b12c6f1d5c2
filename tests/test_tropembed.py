"""Valued points, Kapranov membership, and embedding refinement."""

import functools
import gc
import itertools
import operator
import weakref
from fractions import Fraction
from math import factorial, gcd, prod

import pytest

from prevtrop import cone as cone_module
from prevtrop import multiproj
from prevtrop.cone import Cone, hilbert_basis
from prevtrop.exactla import AbelianGroup, IntMatrix
from prevtrop.extreal import INF
from prevtrop.jsondoc import DocumentError
from prevtrop.monoid import AffineSemigroup
from prevtrop.multiproj import Grading, proj_system_of_fans
from prevtrop.sysfan import SystemOfFans, morphism_from_lattice_map
from prevtrop.troppre import (
    FiniteLocusNotAFace, chart_polynomial, compare_to_trop, induced_map,
    point_from_chart_values, skeleton_seminorm, trop_eval)
from prevtrop.troppre import trop_point as stratum_point
from prevtrop.tropembed import (
    SPAN_LIMIT, NotBounded, NotHomogeneous, NotSeparating, ValuedScalar,
    apply_morphism,
    classical_point, classical_point_from_data, coordinate_point, evaluate_polynomial, forget_refinement,
    hypersurface, hypersurface_from_data, hypersurface_to_data,
    kapranov_membership, kapranov_minimizers, nonneg_trop_point,
    refine_embedding,
    refined_classical, refined_trop, restrict_to_chart, scalar,
    _compositions, _multinomial,
    separation_witness, trop_point, valued_scalar_from_data,
    valued_scalar_to_data)

from conftest import fresh_rng
from systems import (affine_line, affine_plane, line_two_origins,
                     projective_line_two_charts)
from test_cli import BAD_CLASSICAL_VALUES

ONE = scalar(1)
T = ValuedScalar.t_power(1)


def quadrant():
    return Cone.from_rays([(1, 0), (0, 1)], 2)


def plane_chart(system):
    return system.omega().class_of(quadrant(), "1")


def slanted_system():
    """One chart whose dual monoid needs three generators."""
    sigma = Cone.from_rays([(1, 0), (1, 2)], 2)
    system = SystemOfFans(2, ["1"], {("1", "1"): [sigma]})
    return system, system.omega().class_of(sigma, "1")


def free_plane():
    """The trivially graded plane: one chart, ambient rank two."""
    grading = Grading(AbelianGroup(0), [(), ()])
    proj = proj_system_of_fans(grading)
    chart = proj.system.omega().class_of(
        proj.poset.cone_of(frozenset()), "1")
    return proj, chart


def random_scalar(rng):
    num = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
    if not any(num):
        num[0] = 1
    den = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
    if not any(den):
        den[-1] = 2
    return ValuedScalar.from_polys(num, den)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def test_valuation_is_a_homomorphism():
    rng = fresh_rng(61)
    assert scalar(1).valuation == 0
    assert scalar(0).valuation is INF
    for _ in range(120):
        a = random_scalar(rng)
        b = random_scalar(rng)
        assert (a * b).valuation == a.valuation + b.valuation
        assert (a / b).valuation == a.valuation - b.valuation
        low = min(a.valuation, b.valuation)
        total = (a + b).valuation
        assert total >= low
        if a.valuation != b.valuation:
            assert total == low


def test_equality_ignores_common_factors():
    assert T / T == ONE
    assert ValuedScalar.from_polys([0, 1, 1], [1, 1]) == T
    assert scalar(Fraction(1, 2)) + scalar(Fraction(1, 2)) == 1
    assert T != ONE
    with pytest.raises(TypeError):
        hash(T)


def test_powers_and_division():
    v = ONE + T
    assert v ** 0 == ONE
    assert v ** -2 == (ONE / v) * (ONE / v)
    assert ValuedScalar.t_power(-3) * T ** 3 == ONE
    with pytest.raises(ZeroDivisionError):
        v / scalar(0)
    with pytest.raises(ZeroDivisionError):
        scalar(0) ** -1
    assert ValuedScalar.t_power(Fraction(3)) == T ** 3
    with pytest.raises(ValueError):
        scalar(2) ** Fraction(1, 2)
    with pytest.raises(ValueError):
        ValuedScalar.t_power(1.5)


def test_powers_are_bounded_by_the_degrees_they_span():
    # t^400 (1 + t) spans one degree, so its cube spans three
    assert (T ** 400 * (ONE + T)) ** 3 == T ** 1200 * (ONE + T) ** 3
    assert ((ONE + T) ** SPAN_LIMIT).den == (1,)
    for base, power in [(ONE + T ** 400, 3),
                        (ONE / (ONE + T), SPAN_LIMIT + 1)]:
        with pytest.raises(ValueError, match="over the limit of %d$"
                           % SPAN_LIMIT):
            base ** power


def test_numbers_divide_by_scalars():
    half = 2 / ValuedScalar.t_power(1)
    assert (half.num, half.den) == ((2,), (0, 1))
    assert Fraction(1, 3) / (ONE + T) == ONE / (3 * (ONE + T))
    with pytest.raises(ZeroDivisionError):
        2 / scalar(0)


def test_powers_match_the_left_to_right_product():
    rng = fresh_rng(113)
    for _ in range(80):
        x = ValuedScalar.from_polys(*random_operand(rng))
        assert ((x ** 0).num, (x ** 0).den) == ((1,), (1,))
        assert x ** 1 is x
        for k in range(-4, 10):
            if k < 0 and x.is_zero:
                continue
            factor = ONE / x if k < 0 else x
            expected = ONE
            for _ in range(abs(k)):
                expected = expected * factor
            got = x ** k
            assert (got.num, got.den) == (expected.num, expected.den)


@pytest.mark.parametrize("build", [
    lambda: ValuedScalar.of(0.5),
    lambda: ValuedScalar.of(True),
    lambda: ValuedScalar.from_polys([0.25, 1]),
    lambda: ValuedScalar.from_polys([1], [False, 1]),
    lambda: ValuedScalar.t_power(2, 0.5),
    lambda: scalar(1) + 0.5,
])
def test_scalar_constructors_refuse_floats_and_bools(build):
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        build()


class oracle_fraction_scalar:
    """The unreduced Fraction arithmetic of Q(t) that ValuedScalar replaced.

    num and den are Fraction coefficient tuples, lowest degree first, with
    trailing zeros stripped and nothing else normalised.
    """

    def __init__(self, num, den=(1,)):
        self.num = self._poly(num)
        self.den = self._poly(den)
        if not self.den:
            raise ZeroDivisionError("denominator must be nonzero")

    @staticmethod
    def _poly(coeffs):
        out = [Fraction(c) for c in coeffs]
        while out and out[-1] == 0:
            out.pop()
        return tuple(out)

    @classmethod
    def _padd(cls, a, b):
        n = max(len(a), len(b))
        return cls._poly([(a[k] if k < len(a) else 0)
                          + (b[k] if k < len(b) else 0) for k in range(n)])

    @classmethod
    def _pmul(cls, a, b):
        if not a or not b:
            return ()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return cls._poly(out)

    @property
    def valuation(self):
        if not self.num:
            return INF
        order = [next(k for k, c in enumerate(p) if c)
                 for p in (self.num, self.den)]
        return order[0] - order[1]

    def __add__(self, other):
        return oracle_fraction_scalar(
            self._padd(self._pmul(self.num, other.den),
                       self._pmul(other.num, self.den)),
            self._pmul(self.den, other.den))

    def __neg__(self):
        return oracle_fraction_scalar([-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return oracle_fraction_scalar(self._pmul(self.num, other.num),
                                      self._pmul(self.den, other.den))

    def __truediv__(self, other):
        if not other.num:
            raise ZeroDivisionError("division by the zero scalar")
        return oracle_fraction_scalar(self._pmul(self.num, other.den),
                                      self._pmul(self.den, other.num))

    def __pow__(self, power):
        if power < 0:
            if not self.num:
                raise ZeroDivisionError("negative power of zero")
            return oracle_fraction_scalar(self.den, self.num) ** (-power)
        out = oracle_fraction_scalar([1])
        for _ in range(power):
            out = out * self
        return out


def assert_normal_form(v):
    """Integer coefficients, no common t power or content, den[-1] > 0."""
    assert all(type(c) is int for c in v.num + v.den)
    assert not v.num or v.num[-1] != 0
    assert v.den and v.den[-1] > 0
    if v.is_zero:
        assert v.den == (1,)
        return
    low = [next(k for k, c in enumerate(p) if c) for p in (v.num, v.den)]
    assert min(low) == 0
    assert gcd(*v.num, *v.den) == 1


def random_operand(rng):
    """Coefficient lists of a random scalar: Laurent, rational or zero."""
    if rng.random() < 0.1:
        return [], [1]
    coeffs = (-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3), 0)
    num = [rng.choice(coeffs) for _ in range(rng.randint(1, 3))]
    den = [rng.choice(coeffs) for _ in range(rng.randint(1, 3))]
    if not any(den):
        den[-1] = Fraction(3, 4)
    shift = rng.randint(-2, 2)
    pad = [0] * abs(shift)
    return (pad + num, den) if shift > 0 else (num, pad + den)


SCALAR_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "**": operator.pow}


def test_scalar_arithmetic_matches_the_fraction_oracle():
    rng = fresh_rng(97)
    for _ in range(500):
        num, den = random_operand(rng)
        value = ValuedScalar.from_polys(num, den)
        oracle = oracle_fraction_scalar(num, den)
        for _ in range(rng.randint(1, 4)):
            op = rng.choice(list(SCALAR_OPS))
            if op == "**":
                right = other = rng.randint(-2, 2)
            elif rng.random() < 0.2:
                right = rng.choice((0, 2, Fraction(-1, 3)))
                other = oracle_fraction_scalar([right])
            else:
                num, den = random_operand(rng)
                right = ValuedScalar.from_polys(num, den)
                other = oracle_fraction_scalar(num, den)
            try:
                oracle = SCALAR_OPS[op](oracle, other)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    SCALAR_OPS[op](value, right)
                break
            value = SCALAR_OPS[op](value, right)
            assert_normal_form(value)
            assert value.valuation == oracle.valuation
            assert (oracle_fraction_scalar._pmul(value.num, oracle.den)
                    == oracle_fraction_scalar._pmul(oracle.num, value.den))


def test_scalars_stay_small():
    quotient = ValuedScalar.t_power(50) / ValuedScalar.t_power(49)
    assert quotient == T
    assert len(quotient.num) + len(quotient.den) == 3
    assert_normal_form(ValuedScalar.from_polys([0, Fraction(2, 3), 4],
                                               [0, 0, -2]))
    assert ValuedScalar.from_polys([0, 2, 4], [0, 0, -2]).num == (-1, -2)
    assert ValuedScalar.from_polys([0, 2, 4], [0, 0, -2]).den == (0, 1)
    zero = T - T
    assert (zero.num, zero.den) == ((), (1,))


# ---------------------------------------------------------------------------
# classical chart points
# ---------------------------------------------------------------------------

def test_points_need_values_on_exactly_the_generators():
    system = affine_plane()
    chart = plane_chart(system)
    with pytest.raises(ValueError):
        classical_point(system, chart, {(1, 0): T})
    with pytest.raises(ValueError):
        classical_point(system, chart,
                        {(1, 0): T, (0, 1): T, (1, 1): T})


def test_values_must_be_multiplicative():
    system, chart = slanted_system()
    good = classical_point(system, chart,
                           {(0, 1): T, (1, 0): T, (2, -1): T})
    assert good.eval((1, 1)) == T * T
    with pytest.raises(ValueError, match="multiplicative"):
        classical_point(system, chart,
                        {(0, 1): ONE, (1, 0): ONE, (2, -1): T})


def test_zero_locus_must_be_a_face():
    system, chart = slanted_system()
    with pytest.raises(FiniteLocusNotAFace):
        classical_point(system, chart,
                        {(0, 1): ONE, (1, 0): 0, (2, -1): ONE})
    origin = classical_point(affine_plane(), plane_chart(affine_plane()),
                             {(1, 0): 0, (0, 1): 0})
    assert origin.zero_face.rays == quadrant().rays


def test_coordinate_points_evaluate_monomials():
    system = affine_plane()
    chart = plane_chart(system)
    p = coordinate_point(system, chart, (T, ONE + T))
    assert p.eval((2, 3)) == T * T * (ONE + T) ** 3
    with pytest.raises(ValueError, match="outside the chart"):
        p.eval((-1, 0))
    with pytest.raises(ValueError, match="not an integer"):
        p.eval((1.5, 0))
    edge = coordinate_point(system, chart, (T, ONE),
                            zero_face=Cone.from_rays([(0, 1)], 2))
    assert edge.values[(0, 1)].is_zero
    assert edge.values[(1, 0)] == T


# ---------------------------------------------------------------------------
# tropicalization of points
# ---------------------------------------------------------------------------

def test_frozen_plane_tropicalizations():
    system = affine_plane()
    chart = plane_chart(system)
    p = trop_point(coordinate_point(system, chart, (T, -ONE - T)))
    assert p.stratum.cone.dim == 0
    assert p.coords == (Fraction(1), Fraction(0))
    q = trop_point(coordinate_point(system, chart, (ONE, ONE)))
    assert q.coords == (Fraction(0), Fraction(0))


def test_zero_coordinates_reach_boundary_strata():
    system = affine_plane()
    chart = plane_chart(system)
    p = trop_point(coordinate_point(system, chart, (T, ONE),
                                    zero_face=Cone.from_rays([(0, 1)], 2)))
    assert p.stratum.cone == Cone.from_rays([(0, 1)], 2)
    assert p.coords == (Fraction(1),)
    assert trop_eval(p, (0, 1)) is INF


def test_frozen_nonneg_points():
    system = affine_plane()
    chart = plane_chart(system)
    bounded = nonneg_trop_point(
        coordinate_point(system, chart, (T, scalar(2) + T)))
    assert bounded.face.rays == ()
    assert bounded.coords == (Fraction(1), Fraction(0))
    assert bounded.chart.cone.rays == ((1, 0),)
    onto_axis = nonneg_trop_point(
        coordinate_point(system, chart, (T, ONE),
                         zero_face=Cone.from_rays([(0, 1)], 2)))
    assert onto_axis.face.rays == ((0, 1),)
    assert onto_axis.coords == (Fraction(1),)
    assert onto_axis.chart.cone == quadrant()


def test_unbounded_points_are_rejected():
    system = affine_plane()
    chart = plane_chart(system)
    stretched = coordinate_point(system, chart,
                                 (ValuedScalar.t_power(-1), ONE))
    with pytest.raises(NotBounded, match="valuation -1"):
        nonneg_trop_point(stretched)


def bounded_sample(rng, system, chart):
    """A classical point with nonnegative valuations on the chart."""
    sigma = chart.cone
    u = [0] * sigma.ambient_rank
    for ray in sigma.rays:
        load = rng.randint(0, 3)
        u = [a + load * r for a, r in zip(u, ray)]
    units = [ValuedScalar.from_polys([rng.choice([1, 2, -1]),
                                      rng.randint(-2, 2)])
             for _ in u]
    coords = [ValuedScalar.t_power(a) * c for a, c in zip(u, units)]
    face = rng.choice(sigma.faces())
    return coordinate_point(system, chart, coords, zero_face=face)


def test_comparison_square_commutes():
    rng = fresh_rng(62)
    cases = [(affine_plane(), plane_chart(affine_plane()))]
    cases.append(slanted_system())
    line = affine_line()
    cases.append((line, line.omega().class_of(Cone.from_rays([(1,)], 1), "1")))
    for system, chart in cases:
        for _ in range(40):
            p = bounded_sample(rng, system, chart)
            assert compare_to_trop(system, nonneg_trop_point(p)) \
                == trop_point(p)


def test_tropicalization_commutes_with_morphisms():
    rng = fresh_rng(63)
    plane = affine_plane()
    chart = plane_chart(plane)
    doubled = line_two_origins()
    line = affine_line()
    fold = morphism_from_lattice_map(doubled, line, IntMatrix.identity(1),
                                     {"1": "1", "2": "1"})
    diagonal = morphism_from_lattice_map(line, plane,
                                         IntMatrix.from_rows([[1], [1]]),
                                         {"1": "1"})
    ray = Cone.from_rays([(1,)], 1)
    origin = classical_point(doubled, doubled.omega().class_of(ray, "2"),
                             {(1,): 0})
    dense = coordinate_point(doubled, doubled.omega().class_of(ray, "1"),
                             (T * T,))
    for morphism, p in [(fold, origin), (fold, dense),
                        (diagonal, coordinate_point(
                            line, line.omega().class_of(ray, "1"), (T,)))]:
        assert trop_point(apply_morphism(morphism, p)) \
            == induced_map(morphism, trop_point(p))
    for _ in range(10):
        rows = [[rng.randint(0, 2), rng.randint(0, 2)] for _ in range(2)]
        squeeze = morphism_from_lattice_map(plane, plane,
                                            IntMatrix.from_rows(rows),
                                            {"1": "1"})
        for _ in range(10):
            p = bounded_sample(rng, plane, chart)
            assert trop_point(apply_morphism(squeeze, p)) \
                == induced_map(squeeze, trop_point(p))


# ---------------------------------------------------------------------------
# Kapranov membership
# ---------------------------------------------------------------------------

def tropical_line(system, chart):
    return chart_polynomial(system, chart,
                            [((1, 0), 0), ((0, 1), 0), ((0, 0), 0)])


def test_frozen_line_membership():
    system = affine_plane()
    chart = plane_chart(system)
    poly = tropical_line(system, chart)
    omega = system.omega()
    dense = omega.class_of(Cone.from_rays([], 2), "1")
    assert kapranov_membership(poly, stratum_point(system, dense, (0, 0)))
    assert not kapranov_membership(poly, stratum_point(system, dense, (1, 2)))
    no_x = omega.class_of(Cone.from_rays([(1, 0)], 2), "1")
    assert kapranov_membership(poly, stratum_point(system, no_x, (0,)))
    deep = omega.class_of(quadrant(), "1")
    assert not kapranov_membership(poly, stratum_point(system, deep, ()))
    # without the constant term every term dies at the deep point, and the
    # identically-zero restriction counts as membership
    axes = chart_polynomial(system, chart, [((1, 0), 0), ((0, 1), 0)])
    assert kapranov_membership(axes, stratum_point(system, deep, ()))
    assert kapranov_minimizers(axes, stratum_point(system, deep, ())) == []
    # at (0, 2) the constant term and x tie, listed in term order
    tie = stratum_point(system, dense, (0, 2))
    assert kapranov_minimizers(poly, tie) == [((0, 0), 0), ((1, 0), 0)]
    assert kapranov_membership(poly, tie)
    assert kapranov_minimizers(poly, stratum_point(system, dense, (1, 2))) \
        == [((0, 0), 0)]


def test_terms_with_infinite_coefficients_are_dropped():
    system = affine_plane()
    chart = plane_chart(system)
    dense = system.omega().class_of(Cone.from_rays([], 2), "1")
    point = stratum_point(system, dense, (1, 2))
    # a term whose coefficient has valuation INF is the zero term
    dead = chart_polynomial(system, chart, [((0, 0), INF)])
    assert kapranov_minimizers(dead, point) == []
    assert kapranov_membership(dead, point)
    assert skeleton_seminorm(point, dead) is INF
    mixed = chart_polynomial(system, chart,
                             [((0, 0), INF), ((0, 1), INF), ((1, 0), 0)])
    assert kapranov_minimizers(mixed, point) == [((1, 0), 1)]
    assert not kapranov_membership(mixed, point)
    assert skeleton_seminorm(point, mixed) == 1


def test_line_membership_region():
    system = affine_plane()
    chart = plane_chart(system)
    poly = tropical_line(system, chart)
    dense = system.omega().class_of(Cone.from_rays([], 2), "1")
    grid = [Fraction(k, 2) for k in range(-6, 7)]
    for a in grid:
        for b in grid:
            onto = (a == b <= 0) or (a == 0 <= b) or (b == 0 <= a)
            w = stratum_point(system, dense, (a, b))
            assert kapranov_membership(poly, w) == onto


def test_constructed_roots_lie_on_the_tropical_hypersurface():
    rng = fresh_rng(64)
    system = affine_plane()
    chart = plane_chart(system)

    def unit(power):
        return ValuedScalar.t_power(power, Fraction(rng.choice([1, 2, 3, -1]),
                                                    rng.choice([1, 2])))

    for _ in range(18):
        a, b = unit(rng.randint(-2, 2)), unit(rng.randint(-2, 2))
        x0, y0 = unit(rng.randint(0, 2)), unit(rng.randint(0, 2))
        c = -(a * x0 + b * y0)
        line = chart_polynomial(system, chart,
                                [((1, 0), a.valuation),
                                 ((0, 1), b.valuation),
                                 ((0, 0), c.valuation)])
        root = coordinate_point(system, chart, (x0, y0))
        assert kapranov_membership(line, trop_point(root))
    for _ in range(12):
        alpha, beta = unit(rng.randint(0, 2)), unit(rng.randint(0, 2))
        conic = chart_polynomial(system, chart,
                                 [((1, 1), 0),
                                  ((1, 0), (-beta).valuation),
                                  ((0, 1), (-alpha).valuation),
                                  ((0, 0), (alpha * beta).valuation)])
        for root in [(alpha, beta), (alpha, unit(1)), (unit(1), beta)]:
            p = coordinate_point(system, chart, root)
            assert kapranov_membership(conic, trop_point(p))
    # f = x*(y - beta) vanishes on the whole axis x = 0, where both of its
    # terms are discarded
    beta = unit(1)
    axis_poly = chart_polynomial(system, chart,
                                 [((1, 1), 0), ((1, 0), (-beta).valuation)])
    on_axis = coordinate_point(system, chart, (ONE, unit(0)),
                               zero_face=Cone.from_rays([(1, 0)], 2))
    assert kapranov_membership(axis_poly, trop_point(on_axis))


# ---------------------------------------------------------------------------
# graded hypersurfaces
# ---------------------------------------------------------------------------

def test_hypersurface_validation():
    grading = Grading(AbelianGroup(0), [(), ()])
    with pytest.raises(ValueError, match="nonnegative"):
        hypersurface(grading, [((-1, 0), ONE)])
    with pytest.raises(ValueError, match="duplicate"):
        hypersurface(grading, [((1, 0), ONE), ((1, 0), T)])
    with pytest.raises(ValueError, match="nonzero"):
        hypersurface(grading, [((1, 0), scalar(0))])
    line = Grading(AbelianGroup(1), [(1,), (1,)])
    with pytest.raises(ValueError, match="not an integer"):
        hypersurface(line, [((1.5, 0), scalar(1)), ((0, 1), scalar(1))])


def test_chart_restriction_of_a_hypersurface():
    proj, chart = free_plane()
    f = hypersurface(proj.grading,
                     [((1, 0), ONE), ((0, 1), T), ((0, 0), ONE)])
    poly = restrict_to_chart(proj, f, "1")
    assert poly.terms == (((0, 0), Fraction(0)), ((0, 1), Fraction(1)),
                          ((1, 0), Fraction(0)))
    with pytest.raises(ValueError, match="no chart"):
        restrict_to_chart(proj, f, "T1")
    line_grading = Grading(AbelianGroup(1), [(1,), (1,)])
    with pytest.raises(ValueError, match="gradings differ"):
        restrict_to_chart(proj, hypersurface(line_grading, [((1, 0), ONE)]),
                          "1")
    homogeneous = hypersurface(line_grading, [((1, 0), ONE), ((0, 1), ONE)])
    with pytest.raises(ValueError, match="does not descend"):
        restrict_to_chart(proj_system_of_fans(line_grading), homogeneous,
                          "T1")


# ---------------------------------------------------------------------------
# embedding refinement
# ---------------------------------------------------------------------------

def test_refine_embedding_degree_bookkeeping():
    flat = Grading(AbelianGroup(0), [(), ()])
    ref = refine_embedding(flat, [((1, 0), ONE), ((0, 1), ONE),
                                  ((0, 0), ONE)])
    assert ref.x_degree == ()
    assert ref.new_grading.n == 3
    assert ref.clearing == (0, 0)
    line = Grading(AbelianGroup(1), [(1,), (1,)])
    lifted = refine_embedding(line, [((1, 0), ONE), ((0, 1), ONE)],
                              clearing=(1, 0))
    assert lifted.x_degree == (1,)
    assert lifted.new_grading.degrees == ((1,), (1,), (1,))
    with pytest.raises(NotHomogeneous):
        refine_embedding(line, [((1, 0), ONE), ((0, 2), ONE)])
    with pytest.raises(ValueError, match="nonzero"):
        refine_embedding(flat, [((1, 0), scalar(0))])
    with pytest.raises(ValueError, match="clearing"):
        refine_embedding(flat, [((1, 0), ONE)], clearing=(-1, 0))
    with pytest.raises(ValueError, match="not an integer"):
        refine_embedding(flat, [((1, 0), ONE)], clearing=(0.5, 0))


def test_refinements_by_one_degree_share_their_proj():
    gc.collect()
    line = Grading(AbelianGroup(1), [(1,), (1,)])
    old = proj_system_of_fans(line)
    first = refine_embedding(line, [((1, 0), ONE), ((0, 1), ONE)])
    built = weakref.ref(first.new_proj)
    del first   # only the old system holds the refined one now
    again = refine_embedding(line, [((1, 0), scalar(2)), ((0, 1), T)],
                             clearing=(1, 0))
    assert again.x_degree == (1,) and again.old_proj is old
    assert again.new_proj is built()
    other = refine_embedding(line, [((2, 0), ONE), ((0, 2), ONE)])
    assert other.x_degree == (2,) and other.new_proj is not again.new_proj
    keys = [line, again.new_grading, other.new_grading]
    assert all(multiproj._PROJS.get(k) is not None for k in keys)
    # the memo lives as long as the old system and no longer
    del old, again, other
    gc.collect()
    assert not any(k in multiproj._PROJS for k in keys)


def test_point_paths_multiply_by_no_one(monkeypatch):
    # g~'s coefficients are one: neither the evaluation nor the refined
    # point multiplies by them, and (num, den) is what the plain sums give
    proj, chart = free_plane()
    p = coordinate_point(proj.system, chart, (T, ONE + T * T))
    terms = [((1, 0), ONE), ((0, 1), ONE), ((0, 0), ONE)]
    ref = refine_embedding(proj.grading, terms)
    plain = scalar(0)
    for e, c in terms:
        plain = plain + c * p.eval(proj.character(e))
    refined_chart = refined_classical(ref, p).chart
    expected = oracle_refined_values(ref, p, refined_chart)
    ones = []
    raw = ValuedScalar.__mul__

    def counted(self, other):
        other = ValuedScalar.of(other)
        ones.extend(x for x in (self, other) if x == ONE)
        return raw(self, other)

    monkeypatch.setattr(ValuedScalar, "__mul__", counted)
    monkeypatch.setattr(ValuedScalar, "__rmul__", counted)
    value = evaluate_polynomial(proj, p, terms)
    values = refined_classical(ref, p).values
    assert ones == []
    assert (value.num, value.den) == (plain.num, plain.den)
    assert {g: (v.num, v.den) for g, v in values.items()} \
        == {g: (v.num, v.den) for g, v in expected.items()}


def test_new_chart_poset_restricts_to_the_old_one():
    for grading, terms in [
            (Grading(AbelianGroup(1), [(1,), (1,)]),
             [((1, 0), ONE), ((0, 1), ONE)]),
            (Grading(AbelianGroup(1), [(1,), (1,), (2,)]),
             [((1, 1, 0), ONE), ((0, 0, 1), scalar(3))]),
            (Grading(AbelianGroup(0), [(), ()]),
             [((2, 1), ONE), ((0, 0), T)])]:
        ref = refine_embedding(grading, terms)
        old = set(ref.old_proj.poset.subsets)
        new = {s for s in ref.new_proj.poset.subsets if grading.n + 1 not in s}
        assert old == new


def test_refinement_separates_the_frozen_fixture():
    proj, chart = free_plane()
    p = coordinate_point(proj.system, chart, (T, -ONE - T))
    q = coordinate_point(proj.system, chart, (T, -ONE + T))
    tp, tq = trop_point(p), trop_point(q)
    assert tp == tq
    assert tp.coords == (Fraction(1), Fraction(0))

    terms = [((1, 0), ONE), ((0, 1), ONE), ((0, 0), ONE)]
    ref = refine_embedding(proj.grading, terms)
    rp = refined_trop(ref, p)
    rq = refined_trop(ref, q)
    # on the hypersurface the new coordinate vanishes: an infinite stratum
    assert rp.stratum.cone.rays == ((0, 0, 1),)
    assert trop_eval(rp, (1, 0, 0)) == 1
    assert trop_eval(rp, (0, 1, 0)) == 0
    assert trop_eval(rp, (0, 0, 1)) is INF
    # off the hypersurface the new coordinate has valuation 1
    assert rq.stratum.cone.rays == ()
    assert rq.coords == (Fraction(1), Fraction(0), Fraction(1))
    assert rp != rq
    assert forget_refinement(ref, rp) == tp
    assert forget_refinement(ref, rq) == tq

    witness = separation_witness(proj, p, q, terms)
    assert witness.old_proj is proj
    assert witness.clearing == (0, 0)
    assert witness.x_degree == ()
    assert refined_trop(witness, p) != refined_trop(witness, q)


def test_witness_guards():
    proj, chart = free_plane()
    p = coordinate_point(proj.system, chart, (T, -ONE - T))
    q = coordinate_point(proj.system, chart, (T, -ONE + T))
    with pytest.raises(NotSeparating, match="valuation 0 at both"):
        separation_witness(proj, p, q, [((1, 0), ONE), ((0, 1), ONE)])
    with pytest.raises(NotSeparating):
        separation_witness(proj, p, p,
                           [((1, 0), ONE), ((0, 1), ONE), ((0, 0), ONE)])
    with pytest.raises(NotSeparating, match="zero function"):
        separation_witness(proj, p, q, [((1, 0), scalar(0))])
    line = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (1,)]))
    omega = line.system.omega()
    a = classical_point(line.system,
                        omega.class_of(line.poset.cone_of(frozenset({1})),
                                       "T1"), {(-1,): T})
    b = classical_point(line.system,
                        omega.class_of(line.poset.cone_of(frozenset({2})),
                                       "T2"), {(1,): T})
    with pytest.raises(ValueError, match="share a chart"):
        separation_witness(line, a, b, [((1, -1), ONE)])


def test_projective_refinement_and_forgetting():
    line = Grading(AbelianGroup(1), [(1,), (1,)])
    ref = refine_embedding(line, [((1, 0), ONE), ((0, 1), ONE)],
                           clearing=(1, 0))
    old = ref.old_proj
    chart = old.system.omega().class_of(old.poset.cone_of(frozenset({1})),
                                        "T1")
    # generic point [1 : t]: the new coordinate pulls back to 1 + t
    p = classical_point(old.system, chart, {(-1,): T})
    rp = refined_classical(ref, p)
    assert any(v == ONE + T for v in rp.values.values())
    assert forget_refinement(ref, refined_trop(ref, p)) == trop_point(p)
    # the point [1 : -1] kills the new coordinate entirely
    zero = classical_point(old.system, chart, {(-1,): -ONE})
    rz = refined_trop(ref, zero)
    assert rz.stratum.cone.dim == 1
    assert forget_refinement(ref, rz) == trop_point(zero)
    # strata that need the new variable have no image
    new = ref.new_proj
    deep = new.system.omega().class_of(new.poset.cone_of(frozenset({3})),
                                       "T3")
    orphan = stratum_point(new.system, deep, ())
    with pytest.raises(ValueError, match="undefined"):
        forget_refinement(ref, orphan)


def test_refined_evaluation_expands_powers():
    # deg x = 2 forces genuine multinomial expansion of x's powers
    grading = Grading(AbelianGroup(1), [(1,), (1,)])
    ref = refine_embedding(grading, [((2, 0), ONE), ((1, 1), scalar(2)),
                                     ((0, 2), ONE)], clearing=(2, 0))
    old = ref.old_proj
    chart = old.system.omega().class_of(old.poset.cone_of(frozenset({1})),
                                        "T1")
    p = classical_point(old.system, chart, {(-1,): T})
    rp = refined_classical(ref, p)
    expected = (ONE + T) * (ONE + T)
    assert any(v == expected for v in rp.values.values())
    assert forget_refinement(ref, refined_trop(ref, p)) == trop_point(p)


def oracle_refined_values(ref, point, chart):
    """Generator values of the refined point by the plain expansion: for
    each generator and each composition of its x-exponent, the multinomial
    times the coefficient powers times a fresh evaluation of the old point,
    summed in composition order from zero."""
    old = ref.old_proj
    n = ref.old_grading.n
    pushforward = ref.new_proj.kernel.basis.transpose()
    values = {}
    for g in hilbert_basis(chart.cone).generators:
        e = pushforward.apply(g)
        a, b = e[:n], e[n]
        total = scalar(0)
        for split in itertools.product(range(b + 1), repeat=len(ref.gtilde)):
            if sum(split) != b:
                continue
            exponent = list(a)
            piece = scalar(factorial(b) // prod(map(factorial, split)))
            for (k, c), mult in zip(ref.gtilde, split):
                for i in range(n):
                    exponent[i] += k[i] * mult
                for _ in range(mult):
                    piece = piece * c
            total = total + piece * point.eval(old.character(exponent))
        values[g] = total
    return values


def random_refinement(rng):
    """A refinement of P^1 or P^2 by a random g~ of degree 1 to 3 with two
    to four terms and a nonzero clearing monomial."""
    n = rng.choice((2, 3))
    degree = rng.randint(1, 3)
    monomials = [e for e in itertools.product(range(degree + 1), repeat=n)
                 if sum(e) == degree]
    terms = rng.sample(monomials, rng.randint(2, min(4, len(monomials))))
    clearing = [rng.randint(0, 2) for _ in range(n)]
    clearing[rng.randrange(n)] += 1
    grading = Grading(AbelianGroup(1), [(1,)] * n)
    return refine_embedding(grading, [(e, random_scalar(rng)) for e in terms],
                            clearing)


def test_refined_values_match_the_plain_expansion():
    rng = fresh_rng(131)
    line = Grading(AbelianGroup(1), [(1,), (1,)])
    powers = refine_embedding(line, [((2, 0), ONE), ((1, 1), scalar(2)),
                                     ((0, 2), ONE)], clearing=(2, 0))
    cases = [(powers, 1, {(-1,): T}), (powers, 1, {(-1,): scalar(0)})]
    for _ in range(12):
        ref = random_refinement(rng)
        cases.append((ref, rng.randint(1, ref.old_grading.n), None))
    degrees, boundary = set(), 0
    for ref, variable, values in cases:
        old = ref.old_proj
        subset = frozenset({variable})
        chart = old.system.omega().class_of(old.poset.cone_of(subset),
                                            old.chart_label(subset))
        if values is not None:
            points = [classical_point(old.system, chart, values)]
        else:
            points = [coordinate_point(old.system, chart,
                                       [random_scalar(rng) for _ in
                                        range(old.system.ambient_rank)],
                                       zero_face=face)
                      for face in chart.cone.faces()]
        for p in points:
            rp = refined_classical(ref, p)
            expected = oracle_refined_values(ref, p, rp.chart)
            assert set(rp.values) == set(expected)
            for g, v in rp.values.items():
                assert (v.num, v.den) == (expected[g].num, expected[g].den)
            degrees.add(ref.x_degree)
            boundary += p.zero_face.dim > 0
    assert degrees == {(1,), (2,), (3,)}
    assert boundary > 10


def loop_refined_classical(refinement, point):
    """refined_classical as one loop over the new chart's generators, with
    no plan: each call pushes every generator forward, expands its
    compositions and evaluates their characters afresh."""
    old = refinement.old_proj
    new = refinement.new_proj
    subset = old.chart_subsets[point.chart.representative]
    label = new.chart_label(subset)
    chart = new.system.omega().class_of(new.poset.cone_of(subset), label)
    n = refinement.old_grading.n
    gens = [e for e, _ in refinement.gtilde]
    coeffs = [None if c.num == c.den else c for _, c in refinement.gtilde]
    pushforward = new.kernel.basis.transpose()
    evals = {}
    values = {}
    for g in hilbert_basis(chart.cone).generators:
        e = pushforward.apply(g)
        a, b = e[:n], e[n]
        pieces = []
        for split in _compositions(b, len(gens)):
            exponent = list(a)
            for k, mult in zip(gens, split):
                for i in range(n):
                    exponent[i] += k[i] * mult
            chi = old.character(exponent)
            if chi not in evals:
                evals[chi] = point.eval(chi)
            value = evals[chi]
            if value.is_zero:
                continue
            multinomial = _multinomial(b, split)
            if multinomial != 1:
                value = value * multinomial
            powers = [c ** mult for c, mult in zip(coeffs, split)
                      if mult and c is not None]
            pieces.append(functools.reduce(operator.mul, powers, value))
        values[g] = functools.reduce(operator.add, pieces) if pieces \
            else scalar(0)
    return classical_point(new.system, chart, values)


def loop_forget_refinement(refinement, point):
    """forget_refinement with no plan: the old chart and the characters of
    its generators are found afresh."""
    old = refinement.old_proj
    new = refinement.new_proj
    subset = new.chart_subsets[point.stratum.representative] \
        - {refinement.old_grading.n + 1}
    base = next(f for f in old.poset.minimal if f <= subset)
    chart = old.system.omega().class_of(old.poset.cone_of(base),
                                        old.chart_label(base))
    pushforward = old.kernel.basis.transpose()
    return point_from_chart_values(old.system, chart, {
        g: trop_eval(point, new.character(pushforward.apply(g) + (0,)))
        for g in hilbert_basis(chart.cone).generators})


def unit_times_t_power(rng, power):
    """A random scalar of the given valuation: t**power times a quotient of
    polynomials with nonzero constant terms."""
    num = [rng.choice((-3, -2, -1, 1, 2, 3))] \
        + [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]
    den = [rng.choice((1, 2, 3))] + [rng.randint(-3, 3)
                                     for _ in range(rng.randint(0, 2))]
    return ValuedScalar.from_polys(num, den) * ValuedScalar.t_power(power)


REFINED_SPACES = [
    # degrees, and the degree of the refining polynomial
    ([(1,), (1,), (1,)], (2,)),
    ([(1,), (3,), (7,)], (7,)),
    ([(1, 0), (1, 0), (0, 1), (0, 1)], (1, 1)),
]


def test_refinement_plans_match_the_per_call_loop():
    # seeded tropically equal pairs on every chart and a random zero face of
    # P^2, P(1,3,7) and P^1 x P^1 graded by Z^2: the planned values equal
    # the loop's in (num, den), and so do their refined and forgotten points
    rng = fresh_rng(227)
    pairs = 0
    for degrees, degree in REFINED_SPACES:
        grading = Grading(AbelianGroup(len(degree)), degrees)
        monomials = [e for e in itertools.product(range(8),
                                                  repeat=len(degrees))
                     if grading.degree_of_monomial(e) == degree]
        proj = proj_system_of_fans(grading)
        for _ in range(3):
            terms = [(e, random_scalar(rng)) for e in
                     rng.sample(monomials, rng.randint(2, 3))]
            clearing = [rng.randint(0, 1) for _ in degrees]
            ref = refine_embedding(grading, terms, clearing)
            for label, subset in proj.chart_subsets.items():
                chart = proj.system.omega().class_of(
                    proj.poset.cone_of(subset), label)
                face = rng.choice(chart.cone.faces())
                powers = [rng.randint(-2, 2)
                          for _ in range(proj.ambient_rank)]
                p, q = (coordinate_point(
                    proj.system, chart,
                    [unit_times_t_power(rng, k) for k in powers], face)
                    for _ in range(2))
                assert trop_point(p) == trop_point(q)
                for point in (p, q):
                    planned = refined_classical(ref, point)
                    looped = loop_refined_classical(ref, point)
                    assert planned.chart == looped.chart
                    assert {g: (v.num, v.den)
                            for g, v in planned.values.items()} \
                        == {g: (v.num, v.den)
                            for g, v in looped.values.items()}
                    refined = refined_trop(ref, point)
                    assert refined == trop_point(looped)
                    assert forget_refinement(ref, refined) \
                        == loop_forget_refinement(ref, refined) \
                        == trop_point(point)
                pairs += 1
    assert pairs == 3 * (3 + 3 + 4)


def test_repeated_refinements_build_no_plan(monkeypatch):
    proj = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (3,), (7,)]))
    subset = frozenset({3})
    chart = proj.system.omega().class_of(proj.poset.cone_of(subset),
                                         proj.chart_label(subset))
    p = coordinate_point(proj.system, chart, [T, ONE + T])
    terms = [((7, 0, 0), ONE), ((1, 2, 0), T), ((0, 0, 1), scalar(2))]
    ref = refine_embedding(proj.grading, terms)
    refined = refined_trop(ref, p)
    forget_refinement(ref, refined)
    calls = {"character": 0, "decompose": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(multiproj.ProjSystem, "character",
                        counted("character", multiproj.ProjSystem.character))
    monkeypatch.setattr(AffineSemigroup, "decompose",
                        counted("decompose", AffineSemigroup.decompose))
    # other coefficients on the same exponents share the plan
    other = refine_embedding(proj.grading, [(e, c + T) for e, c in terms])
    for r in (ref, other):
        again = refined_trop(r, p)
        assert forget_refinement(r, again) == trop_point(p)
    assert again == refined
    assert calls == {"character": 0, "decompose": 0}
    # new exponents make a new plan
    refined_trop(refine_embedding(proj.grading, terms[:2]), p)
    assert calls["character"] and calls["decompose"]


def test_refinement_plans_live_as_long_as_the_refined_system():
    gc.collect()
    gc.disable()
    try:
        grading = Grading(AbelianGroup(1), [(1,), (2,), (3,)])
        before = len(cone_module._CONES)
        ref = refine_embedding(grading, [((3, 0, 0), ONE), ((1, 1, 0), T),
                                         ((0, 0, 1), ONE)])
        old = ref.old_proj
        chart = old.system.omega().class_of(
            old.poset.cone_of(frozenset({1})), old.chart_label({1}))
        p = coordinate_point(old.system, chart, [T, ONE + T])
        assert forget_refinement(ref, refined_trop(ref, p)) == trop_point(p)
        assert len(ref.new_proj._plans) == 2
        built = weakref.ref(ref.new_proj)
        del ref, old, chart, p
        # reference counting alone frees the refined system with its plans
        assert built() is None
        assert len(cone_module._CONES) == before
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def test_scalar_round_trip():
    v = (T + ONE) / (ONE - T - T)
    data = valued_scalar_to_data(v)
    assert valued_scalar_from_data(data) == v
    assert valued_scalar_from_data("3/2") == scalar(Fraction(3, 2))
    assert valued_scalar_from_data({"num": []}).is_zero
    with pytest.raises(ValueError, match="nonnegative"):
        valued_scalar_from_data({"num": [["1", -1]]})


def test_hypersurface_round_trip():
    grading = Grading(AbelianGroup(0), [(), ()])
    f = hypersurface(grading, [((1, 0), ONE), ((0, 1), T / (ONE + T))])
    data = hypersurface_to_data(f)
    back = hypersurface_from_data(grading, data)
    assert back.terms == f.terms


def test_classical_point_documents_decode_like_classical_point():
    # every chart of P(1,2,5) and of the free plane, every face as the zero
    # locus: the document of a point's generator values decodes to it
    rng = fresh_rng(83)
    weighted = proj_system_of_fans(Grading(AbelianGroup(1), [(1,), (2,), (5,)]))
    checked = 0
    for proj in (weighted, free_plane()[0]):
        system = proj.system
        for label, subset in proj.chart_subsets.items():
            chart = system.omega().class_of(proj.poset.cone_of(subset), label)
            gens = hilbert_basis(chart.cone).generators
            for face in chart.cone.faces():
                coords = [random_scalar(rng) for _ in range(system.ambient_rank)]
                p = coordinate_point(system, chart, coords, face)
                data = {"chart": chart.class_id,
                        "values": {str(k): valued_scalar_to_data(p.values[g])
                                   for k, g in enumerate(gens)}}
                assert classical_point_from_data(system, data) == p
                assert p == classical_point(system, chart, {
                    g: valued_scalar_from_data(data["values"][str(k)])
                    for k, g in enumerate(gens)})
                checked += 1
    assert checked > 10


def test_classical_point_documents_name_bad_values():
    # the messages the command line prints for these values
    system = projective_line_two_charts()
    for value, message in BAD_CLASSICAL_VALUES:
        with pytest.raises(DocumentError) as err:
            classical_point_from_data(system, {"chart": 0,
                                               "values": {"0": value}})
        assert str(err.value) == message


def test_polynomial_evaluation_matches_hand_expansion():
    proj, chart = free_plane()
    p = coordinate_point(proj.system, chart, (T, ONE + T))
    terms = [((2, 1), ONE), ((0, 0), -T)]
    direct = T * T * (ONE + T) - T
    assert evaluate_polynomial(proj, p, terms) == direct
