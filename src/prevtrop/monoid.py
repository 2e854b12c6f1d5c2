"""Lattice quotients and the dual monoids of cones: Hilbert bases, their
relations and decompositions, loaded on first use through prevtrop.cone."""

import itertools
import math

from prevtrop.cone import dot
from prevtrop.exactla import (IntMatrix, Lattice, _Value, _integer_vector,
                              _rational_entry, invert_unimodular, kernel_lattice,
                              primitive, smith_normal_form, solve_rational)


class LatticeQuotient(_Value):
    """Z^ambient -> Z^(ambient-k) with kernel exactly the saturated sublattice.

    proj rows give the projection; dual covectors vanishing on the sublattice
    descend through section columns (dual of a splitting of proj).
    """

    __slots__ = ("ambient", "sub", "proj", "section")

    def __init__(self, ambient, sub, proj, section):
        self.ambient = ambient
        self.sub = sub
        self.proj = proj
        self.section = section

    def _key(self):
        return self.ambient, self.sub, self.proj, self.section

    @property
    def rank(self):
        return self.ambient - self.sub.rank

    def push(self, vector):
        return self.proj.apply(tuple(vector))

    def descend_dual(self, covector):
        covector = tuple(covector)
        for b in self.sub.basis_rows():
            if dot(covector, b) != 0:
                raise ValueError("covector does not vanish on the sublattice")
        return tuple(dot(covector, self.section.column(j))
                     for j in range(self.section.cols))


def lattice_quotient(spanning_vectors, ambient_rank):
    """Build the canonical quotient of Z^n by the saturated span of vectors."""
    vectors = IntMatrix.from_rows(spanning_vectors, cols=ambient_rank)
    if any(vectors.entries):
        sub = kernel_lattice(kernel_lattice(vectors).basis)
    else:
        # a zero span is the zero sublattice: nothing to eliminate
        sub = Lattice(ambient_rank, IntMatrix.zero(0, ambient_rank))
    k = sub.rank
    if k == 0:
        eye = IntMatrix.identity(ambient_rank)
        return LatticeQuotient(ambient_rank, sub, eye, eye)
    d, p, _ = smith_normal_form(sub.basis.transpose())
    if any(d[i, i] != 1 for i in range(k)):
        raise AssertionError("saturated sublattice must have unit invariant factors")
    pinv = invert_unimodular(p)
    proj_rows = [list(p.row(i)) for i in range(k, ambient_rank)]
    section_cols = [[pinv[i, j] for i in range(ambient_rank)]
                    for j in range(k, ambient_rank)]
    # orient each quotient coordinate so its first nonzero weight is positive
    for t, row in enumerate(proj_rows):
        lead = next((x for x in row if x), 0)
        if lead < 0:
            proj_rows[t] = [-x for x in row]
            section_cols[t] = [-x for x in section_cols[t]]
    proj = IntMatrix.from_rows(proj_rows, cols=ambient_rank)
    section = IntMatrix.from_rows(
        [[col[i] for col in section_cols] for i in range(ambient_rank)],
        cols=ambient_rank - k)
    return LatticeQuotient(ambient_rank, sub, proj, section)


# ---------------------------------------------------------------------------
# dual monoids
# ---------------------------------------------------------------------------

class AffineSemigroup(_Value):
    """The monoid of dual lattice points of a cone, sigma^v cap M.

    generators is the canonical minimal generating set: the Hilbert basis of
    the pointed quotient lifted back, together with a plus/minus lattice basis
    of the unit subgroup sigma^perp cap M when the cone is not full
    dimensional.  _lift_of maps each Hilbert basis element of the pointed
    image to its lift and its heights over the cone's rays.
    """

    __slots__ = ("cone", "generators", "units", "_lift_of", "_proj")

    def __init__(self, cone, generators, units, _lift_of, _proj):
        self.cone = cone
        self.generators = generators
        self.units = units
        self._lift_of = _lift_of
        self._proj = _proj

    def _key(self):
        # _lift_of is an unhashable dict and stays out
        return self.cone, self.generators, self.units, self._proj

    @property
    def ambient_rank(self):
        return self.cone.ambient_rank

    def __contains__(self, vector):
        vector = tuple(_rational_entry(x) for x in vector)
        if len(vector) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        return all(x.denominator == 1 for x in vector) \
            and all(dot(vector, r) >= 0 for r in self.cone.rays)

    def relations(self, live=None):
        """Canonical basis of the integer relation lattice of the generators,
        or of the sub-tuple live of them, entries in its order.  Memoised on
        the cone by that tuple; relations() is the all-generators entry."""
        live = self.generators if live is None else tuple(live)
        if not live:
            return ()
        cone = self.cone
        if cone._relations is None:
            cone._relations = {}
        if live not in cone._relations:
            cols = IntMatrix.from_rows(live, cols=self.ambient_rank).transpose()
            cone._relations[live] = tuple(kernel_lattice(cols).basis_rows())
        return cone._relations[live]

    def decompose(self, target):
        """Express a monoid element as an N-combination of the generators.

        Returns a dict generator -> multiplicity.  Raises ValueError when the
        target is not in the monoid.  One pass over the Hilbert basis of the
        pointed image, in its sorted order, takes each generator g as often
        as the remainder v stays in the dual cone, the least
        floor(<v, r> / <g, r>) over the cone's rays r with <g, r> > 0; rays
        of the lineality pair to 0 with every point of the dual cone.  A
        generator that does not fit never fits later, since v - g' outside
        the cone puts v - g - g' outside for every g in it; and every
        nonzero point of the saturated monoid has some basis element that
        fits, so the pass never backs up.  The target's heights <v, r> are
        also its membership test, and the generators' heights <g, r> are
        read from the basis, which computed them once.
        """
        target = _integer_vector(target, self.ambient_rank)
        heights = [dot(target, r) for r in self.cone.rays]
        if any(h < 0 for h in heights):
            raise ValueError("target outside the dual cone")
        out = {}
        residual = list(target)
        for lift, steps in self._lift_of.values():
            if not any(heights):
                break
            mult = min(h // s for h, s in zip(heights, steps) if s > 0)
            if mult:
                out[lift] = mult
                heights = [h - mult * s for h, s in zip(heights, steps)]
                residual = [x - mult * y for x, y in zip(residual, lift)]
        if any(heights):
            raise AssertionError("integral dual point failed to decompose")
        # what is left lies in the unit lattice of the monoid
        return self._absorb_units(out, residual)

    def _absorb_units(self, out, residual):
        plus_units = [u for u in self.units if u > tuple(-x for x in u)]
        if not any(residual):
            return out
        if not plus_units:
            raise AssertionError("nonzero residual without unit generators")
        coeffs = solve_rational(list(zip(*plus_units)), residual)
        if coeffs is None:
            raise AssertionError("residual outside the unit lattice")
        for u, c in zip(plus_units, coeffs):
            if c.denominator != 1:
                raise AssertionError("residual outside the unit lattice")
            c = c.numerator
            if c > 0:
                out[u] = out.get(u, 0) + c
            elif c < 0:
                neg = tuple(-x for x in u)
                out[neg] = out.get(neg, 0) - c
        return out


# The most fundamental parallelepiped points hilbert_basis enumerates for one
# cone, summed over its ray subsets: about 8s of enumeration.  The cone over
# the cyclic rays (1, t, t^2, t^3), t = 1..7, makes 187,023.
ENUMERATION_LIMIT = 10 ** 6


class EnumerationLimitError(ValueError):
    """A Hilbert basis would enumerate more than ENUMERATION_LIMIT points."""


def hilbert_basis(cone):
    """Minimal generator set of sigma^v cap M as an AffineSemigroup.

    Units (a plus/minus lattice basis of sigma^perp) are split off first.  A
    pointed quotient of rank 2 is a cone on two rays, whose Hilbert basis is
    the lattice points on the compact edges of the hull of its nonzero
    lattice points; a Hirzebruch-Jung continued fraction walks them, one
    step per basis element (Oda, "Convex Bodies and Algebraic Geometry",
    1988, 1.6).  In any other rank every irreducible element lies in some
    simplicial subcone spanned by independent extremal rays (Caratheodory),
    and there it is a ray or a lattice point of the subcone's half-open
    fundamental parallelepiped.  Those points are enumerated from the Smith
    normal form of each ray subset, and a degree-sorted sieve strikes the
    reducibles (Bruns-Ichim, "Normaliz: algorithms for affine monoids and
    rational cones", J. Algebra 324, 2010).  The Smith diagonals give the
    number of points before any is made: over ENUMERATION_LIMIT, it raises
    EnumerationLimitError.  The sieve's normals are the cone's extremal
    rays, descended to the quotient: since (sigma^v)^v = sigma (Fulton,
    "Introduction to Toric Varieties", 1.2) they cut the image out in its
    span, so no double description sweep runs.  The basis is computed once
    per cone, with each element's heights over the cone's rays, which
    decompose reads.  The cone keeps only the semigroup's other fields,
    since a semigroup refers to its cone and keeping it whole would make a
    reference cycle.
    """
    if cone._hilbert is None:
        cone._hilbert = _hilbert_fields(cone)
    return AffineSemigroup(cone, *cone._hilbert)


def _hilbert_fields(cone):
    n = cone.ambient_rank
    unit_lattice = cone._dual_lineality
    units = [u for b in unit_lattice.basis_rows()
             for u in (tuple(b), tuple(-x for x in b))]
    quot = lattice_quotient([tuple(b) for b in unit_lattice.basis_rows()], n) \
        if unit_lattice.rank else None
    # the quotient of the dual lattice by its unit sublattice
    proj, k = (IntMatrix.identity(n), n) if quot is None else (quot.proj, quot.rank)
    pairs = set(units)
    ext = [u for u in cone.inequalities if u not in pairs]
    img_rays = sorted({primitive(proj.apply(r)) for r in ext})
    if not img_rays:
        return tuple(sorted(units)), tuple(sorted(units)), {}, proj
    # the image is pointed and of rank dim sigma - dim lineality
    rays = set(cone.rays)
    normals = [r if quot is None else quot.descend_dual(r)
               for r in cone.rays if tuple(-x for x in r) not in rays]
    basis_img = sorted(
        _hirzebruch_jung(*img_rays) if k == 2 and len(img_rays) == 2
        else _sieved_basis(img_rays, k, cone.dim - cone.lineality.rank, normals))
    lifts = basis_img if quot is None else [tuple(quot.section.apply(h))
                                            for h in basis_img]
    return (tuple(sorted(units + lifts)), tuple(sorted(units)),
            {x: (lift, tuple(dot(lift, r) for r in cone.rays))
             for x, lift in zip(basis_img, lifts)}, proj)


def _hirzebruch_jung(u1, u2):
    """Hilbert basis of the lattice points of cone(u1, u2) in Z^2, for
    primitive independent u1 and u2, from u1 to u2.

    With w completing u1 to a basis of orientation s = sign det(u1, u2),
    u2 = alpha u1 + d w where d = |det(u1, u2)|, and the next element is
    w + ceil(alpha / d) u1, the least point of height one over u1.  Each pair
    of consecutive elements v, v' is a basis of the same orientation; with
    u2 = x v + y v' (x < 0 < y) the element after v' is b v' - v, where
    b = ceil(y / |x|), until u2 itself (Cox-Little-Schenck, "Toric
    Varieties", 10.2).
    """
    s = 1 if _det(u1, u2) > 0 else -1
    p, q = _bezout(*u1)
    w = (-s * q, s * p)
    d, alpha = s * _det(u1, u2), s * _det(u2, w)
    c = -(-alpha // d)
    basis = [u1, (w[0] + c * u1[0], w[1] + c * u1[1])]
    while basis[-1] != u2:
        v, v1 = basis[-2], basis[-1]
        b = -(_det(v, u2) // _det(u2, v1))
        basis.append((b * v1[0] - v[0], b * v1[1] - v[1]))
    return basis


def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _bezout(a, b):
    """(x, y) with a x + b y = gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (x0, y0) if a > 0 else (-x0, -y0)


def _sieved_basis(img_rays, k, rank, img_normals):
    """The Hilbert basis of the pointed cone on img_rays in Z^k of the given
    rank, cut out in its span by img_normals: the rays and the fundamental
    parallelepiped points of every rank-subset of them, less the
    reducibles."""
    smiths = []
    for subset in itertools.combinations(img_rays, rank):
        d, p, _ = smith_normal_form(IntMatrix.from_rows(subset, cols=k))
        smiths.append((subset, [d[i, i] for i in range(rank)], p))
    count = sum(math.prod(diag) - 1 for _, diag, _ in smiths if diag[-1])
    if count > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            "enumerating this Hilbert basis takes %d parallelepiped "
            "points, over the limit of %d" % (count, ENUMERATION_LIMIT))
    candidates = set(img_rays)
    for subset, diag, p in smiths:
        candidates.update(_parallelepiped_points(subset, diag, p))
    # every candidate lies in the span, so x - y is in the image cone iff the
    # extremal normals are no smaller on x than on y; their sum is the degree
    # w.x, w the sum of all normals, and a proper summand has lower degree
    heights = {x: tuple(dot(u, x) for u in img_normals) for x in candidates}
    kept = {}
    for x in sorted(candidates, key=lambda x: (sum(heights[x]), x)):
        h = heights[x]
        if not any(all(a >= b for a, b in zip(h, g)) for g in kept.values()):
            kept[x] = h
    return list(kept)


def _parallelepiped_points(rays, diag, p):
    """Nonzero lattice points sum t_i r_i, 0 <= t_i < 1, of independent rays.

    There is one per nonzero class of (Z^k cap span) / Z<rays>.  With the
    Smith form D = P R Q of the ray matrix R, diagonal diag, the class group
    is the direct sum of the cyclic groups generated by (row i of P R) / d_i,
    whose ray coefficients are P[i] / d_i; all coefficients are kept as
    integer numerators over the top invariant factor.  Dependent rays give
    no points.
    """
    m, k = len(rays), len(rays[0])
    top = diag[-1]
    if top == 0:
        return []
    numerators = [(0,) * m]
    for i, order in enumerate(diag):
        step = [p[i, j] * (top // order) for j in range(m)]
        numerators = [tuple((a + c * s) % top for a, s in zip(num, step))
                      for num in numerators for c in range(order)]
    return [tuple(sum(c * r[j] for c, r in zip(num, rays)) // top for j in range(k))
            for num in numerators[1:]]
