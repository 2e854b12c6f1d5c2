"""Rational polyhedral cones with exact dual descriptions.

A cone carries both a canonical generator list (primitive extremal rays, plus
a plus/minus lattice basis of its lineality space when it is not pointed) and
a canonical inequality list, which is by duality the generator list of the
dual cone.  A cone on linearly independent generators is simplicial: its
inequalities are the dual basis on its span, read off one elimination, and
a plus/minus basis of the kernel of its generators.  Every other cone gets
both lists from an incremental double description sweep over exact
integers, with a combinatorial extremality test.  A meet of two pointed
cones in a common face is read off a separating form instead; the other
meets and from_inequalities sweep.  The faces of a simplicial cone are
the cones on its ray subsets; any other cone closes its rays under the tight
sets of its inequalities.  A face's supporting inequalities are found only
when asked for, and memoised.  There is no floating point anywhere.
Sizes are desk scale: ambient rank stays in single digits and generator
counts in the tens, so the algorithms favour clarity over asymptotics.

Cones are shared and immutable.  Cone.from_rays, Cone.from_inequalities,
Cone.dual, Cone.intersect and faces() return the one live Cone object for
each (ambient rank, canonical rays), so equal cones are usually identical
objects and their lazy caches (faces, hilbert_basis, its relations and
span_quotient) are computed once and shared by every holder.  The lookup
table is weak: a cone leaves it as soon as nothing else references it.
"""

from __future__ import annotations

import itertools
import math
import weakref

from prevtrop.exactla import (
    IntMatrix,
    Lattice,
    _Value,
    _echelon,
    _integer_vector,
    _rational_entry,
    invert_unimodular,
    kernel_lattice,
    primitive,
    smith_normal_form,
    solve_rational,
)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _reduce_mod(base, v):
    """Canonical representative of v modulo the span of the echelon base.

    Only positive rescaling is applied, so ray orientation survives.
    """
    v = list(v)
    for pc, br in base:
        if v[pc]:
            f1, f2 = br[pc], v[pc]
            v = [f1 * x - f2 * y for x, y in zip(v, br)]
    return primitive(v)


def _project(v, l0, d0, a):
    """d0 * v - <a, v> * l0, the image of v along l0 where <a, l0> = d0."""
    dv = dot(a, v)
    return tuple(d0 * x - dv * y for x, y in zip(v, l0))


def _halfspace_generators(normals, n):
    """Generator description of the cone {x : <a, x> >= 0 for a in normals}.

    Returns (lineality, rays): the saturated lattice of the lineality space
    (the kernel of the normals) with canonical HNF basis, and the sorted
    primitive extremal rays reduced modulo the lineality.  Incremental double
    description; each ray carries its zero set, the indices of the processed
    normals vanishing on it, and a plus/minus pair is combined iff no third
    ray's zero set contains their common one (Fukuda-Prodon, "Double
    description method revisited", 1996, Prop. 7): no rank is computed.
    """
    normals = sorted({primitive(a) for a in normals if any(a)})
    lin = [(j, tuple(1 if k == j else 0 for k in range(n))) for j in range(n)]
    rays = {}
    for k, a in enumerate(normals):
        hit = next(((pc, l) for pc, l in lin if dot(a, l) != 0), None)
        if hit is not None:
            pc0, l0 = hit
            if dot(a, l0) < 0:
                l0 = tuple(-x for x in l0)
            d0 = dot(a, l0)
            lin = _echelon([_project(l, l0, d0, a) for pc, l in lin if pc != pc0], n)
            # projecting along l0 maps the old quotient by the lineality
            # isomorphically onto the new one, so extremal rays stay extremal;
            # every earlier normal vanishes on l0
            rays = {_project(r, l0, d0, a): z | {k} for r, z in rays.items()}
            rays[l0] = frozenset(range(k))
        else:
            plus, zero, minus = [], [], []
            for r, z in rays.items():
                d = dot(a, r)
                (plus if d > 0 else zero if d == 0 else minus).append((d, r, z))
            split = {r: z for _, r, z in plus}
            split.update((r, z | {k}) for _, r, z in zero)
            zero_sets = list(rays.values())
            for dp, p, zp in plus:
                for dm, m, zm in minus:
                    common = zp & zm
                    # p and m are the two zero sets that always contain it
                    if sum(common <= z for z in zero_sets) == 2:
                        split[tuple(dp * x - dm * y for x, y in zip(m, p))] = common | {k}
            rays = split
        rays = {_reduce_mod(lin, r): z for r, z in rays.items()}
    # lin spans the kernel of the normals, so an empty lin is a zero kernel
    if lin:
        lineality = kernel_lattice(IntMatrix.from_rows(normals, cols=n))
    else:
        lineality = Lattice(n, IntMatrix.from_rows([], cols=n))
    return lineality, tuple(sorted(rays))


def _generator_list(lineality, extremal):
    gens = list(extremal)
    for b in lineality.basis_rows():
        gens.append(tuple(b))
        gens.append(tuple(-x for x in b))
    return tuple(sorted(gens))


# One live Cone per canonical cone: (ambient_rank, generators) -> Cone.  A
# cone is registered under its canonical rays and under every generator list
# it was built from; entries vanish with the cone.
_CONES = weakref.WeakValueDictionary()


def _intern(cone):
    """The registered cone equal to this one, registering it if there is none."""
    return _CONES.setdefault((cone.ambient_rank, cone.rays), cone)


class Cone:
    """Rational polyhedral cone in a fixed lattice, canonical and immutable.

    rays: canonical generator list (V-description).
    inequalities: canonical generator list of the dual (H-description); the
      cone is exactly {x : <u, x> >= 0 for every u in inequalities}.

    Instances are shared (see the module docstring): never mutate one.
    """

    __slots__ = ("ambient_rank", "rays", "inequalities", "lineality",
                 "_dual_lineality", "_faces", "_supports", "_hilbert",
                 "_span_quot", "_relations", "__weakref__")

    def __init__(self, ambient_rank, rays, inequalities, lineality, dual_lineality):
        self.ambient_rank = ambient_rank
        self.rays = rays
        self.inequalities = inequalities
        self.lineality = lineality
        self._dual_lineality = dual_lineality
        self._faces = None
        self._supports = None
        self._hilbert = None
        self._span_quot = None
        self._relations = None

    @classmethod
    def from_rays(cls, rays, ambient_rank):
        """The cone generated by integer vectors (ints or integral Fractions)."""
        vectors = (_integer_vector(r, ambient_rank) for r in rays)
        return cls._shared(tuple(sorted({primitive(r) for r in vectors if any(r)})),
                           ambient_rank)

    @classmethod
    def _shared(cls, gens, ambient_rank):
        """The live cone on sorted primitive generators, built on a miss."""
        key = (ambient_rank, gens)
        cone = _CONES.get(key)
        if cone is None:
            cone = _intern(cls._build(gens, ambient_rank))
            _CONES[key] = cone
        return cone

    @classmethod
    def from_inequalities(cls, normals, ambient_rank):
        normals = [_integer_vector(a, ambient_rank) for a in normals]
        lin, ext = _halfspace_generators(normals, ambient_rank)
        rays = _generator_list(lin, ext)
        cone = _CONES.get((ambient_rank, rays))
        if cone is None:
            dual_lin, dual_ext = _halfspace_generators(rays, ambient_rank)
            cone = _intern(cls(ambient_rank, rays, _generator_list(dual_lin, dual_ext),
                               lin, dual_lin))
        return cone

    @classmethod
    def _build(cls, rays, ambient_rank):
        """A new cone on integer generators, bypassing the table.

        One echelon of [R | I_k] tests the canonical generators R for
        independence; a non-simplicial cone takes two sweeps instead.  Each
        kept row is (p, [E | M]) with E = M R, and E vanishes on the other
        pivot columns, so the dual basis vector u_i (<u_i, r_j> = delta_ij,
        zero off the pivot columns) is M[i] / E[p] at each pivot p.
        """
        n = ambient_rank
        rays = tuple(sorted({primitive(r) for r in rays if any(r)}))
        k = len(rays)
        rows = _echelon([r + (0,) * i + (1,) + (0,) * (k - i - 1)
                         for i, r in enumerate(rays)], n)
        if len(rows) < k:
            dual_lin, dual_ext = _halfspace_generators(rays, n)
            ineqs = _generator_list(dual_lin, dual_ext)
            lin, ext = _halfspace_generators(ineqs, n)
            return cls(n, _generator_list(lin, ext), ineqs, lin, dual_lin)
        zero = Lattice(n, IntMatrix.from_rows([], cols=n))
        dual_lin = zero if k == n else kernel_lattice(IntMatrix.from_rows(rays, cols=n))
        base = _echelon(dual_lin.basis_rows(), n)
        den = math.lcm(*(row[p] for p, row in rows))
        dual_ext = []
        for i in range(n, n + k):
            u = [0] * n
            for p, row in rows:
                u[p] = row[i] * (den // row[p])
            dual_ext.append(_reduce_mod(base, u))
        return cls(n, rays, _generator_list(dual_lin, dual_ext), zero, dual_lin)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Cone) and self.ambient_rank == other.ambient_rank
                and self.rays == other.rays)

    def __hash__(self):
        return hash((self.ambient_rank, self.rays))

    def __repr__(self):
        return "Cone%r" % (list(self.rays),)

    # -- basic geometry ----------------------------------------------------

    @property
    def dim(self):
        # the dual lineality is sigma^perp cap M, of rank n - dim sigma
        return self.ambient_rank - self._dual_lineality.rank

    def is_pointed(self):
        return self.lineality.rank == 0

    def is_simplicial(self):
        return self.is_pointed() and len(self.rays) == self.dim

    def dual(self):
        return _intern(Cone(self.ambient_rank, self.inequalities, self.rays,
                            self._dual_lineality, self.lineality))

    def intersect(self, other):
        """The meet of two cones, the live cone on its canonical rays.

        Two pointed cones, neither inside the other, meet in the face F on
        their common rays when a separating form u certifies it (Fulton,
        Introduction to Toric Varieties, 1.2): u sums the inequalities of
        self that vanish on F and are <= 0 on other, less those of other
        that vanish on F and are <= 0 on self, so the meet lies in u^perp,
        which cuts F out of self (or of other) when u vanishes on no further
        ray of it.  Any other meet, among them every one that is not a
        common face, runs the two sweeps of from_inequalities.
        """
        n = self.ambient_rank
        if n != other.ambient_rank:
            raise ValueError("ambient rank mismatch")
        if self._lies_in(other):
            return self
        if other._lies_in(self):
            return other
        if self.is_pointed() and other.is_pointed():
            theirs = set(other.rays)
            common = tuple(r for r in self.rays if r in theirs)
            supports = self._support(common), other._support(common)
            if None not in supports:
                u = [0] * n
                for sign, c, d in ((1, self, other), (-1, other, self)):
                    for w in c._support(common):
                        if all(dot(w, r) <= 0 for r in d.rays):
                            u = [x + sign * y for x, y in zip(u, w)]
                if any(all(dot(u, r) for r in c.rays if r not in common)
                       for c in (self, other)):
                    return Cone._shared(common, n)
        return Cone.from_inequalities(self.inequalities + other.inequalities, n)

    def _lies_in(self, other):
        return all(dot(u, r) >= 0 for u in other.inequalities for r in self.rays)

    def contains(self, vector):
        """Classify a rational vector against the cone.

        Returns ("outside", None), ("boundary", face) or ("interior", self)
        where "interior" means relative interior and face is the smallest face
        containing the vector.
        """
        vector = tuple(_rational_entry(x) for x in vector)
        if len(vector) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        tight = []
        for u in self.inequalities:
            d = dot(u, vector)
            if d < 0:
                return "outside", None
            if d == 0:
                tight.append(u)
        face = self.face_orthogonal_to(tight)
        if face == self:
            return "interior", self
        return "boundary", face

    # -- faces -------------------------------------------------------------

    def faces(self):
        """All faces, the zero face and the cone itself included, sorted by
        (dim, rays); the cone itself is always last.  A simplicial cone's
        faces are the cones on its ray subsets (Fulton, Introduction to Toric
        Varieties, 1.2), d sorted rays spanning a face of dim d, so their
        combinations come in that order; any other cone runs _closed_faces."""
        if self._faces is None:
            # only proper faces are cached: caching the cone itself would put
            # every cone with known faces on a reference cycle
            if self.is_simplicial():
                self._faces = tuple(Cone._shared(s, self.ambient_rank)
                                    for d in range(len(self.rays))
                                    for s in itertools.combinations(self.rays, d))
            else:
                self._faces = self._closed_faces()
        return self._faces + (self,)

    def _closed_faces(self):
        """The proper faces sorted by (dim, rays), as the closure of the rays
        under intersection with the tight sets of the inequalities."""
        full = frozenset(self.rays)
        tight_sets = {frozenset(r for r in self.rays if dot(u, r) == 0)
                      for u in self.inequalities}
        subsets = {full}
        frontier = [full]
        while frontier:
            fresh = []
            for s in frontier:
                for t in tight_sets:
                    c = s & t
                    if c not in subsets:
                        subsets.add(c)
                        fresh.append(c)
            frontier = fresh
        subsets.remove(full)
        # a sorted subset of canonical rays is already canonical
        return tuple(sorted((Cone._shared(tuple(sorted(s)), self.ambient_rank)
                             for s in subsets), key=lambda c: (c.dim, c.rays)))

    def _support(self, key):
        """The inequalities vanishing on the face on the rays key, None when
        no face has those rays; memoised by key, and never holding a cone.
        Each inequality is >= 0 on every ray, so it vanishes on the face iff
        it vanishes at the sum of the face's rays."""
        if self._supports is None:
            self._supports = {}
        if key not in self._supports:
            if self.is_simplicial():
                face = set(key) <= set(self.rays)
            else:
                face = any(f.rays == key for f in self.faces())
            point = [sum(x) for x in zip(*key)]
            self._supports[key] = (tuple(u for u in self.inequalities
                                         if dot(u, point) == 0) if face else None)
        return self._supports[key]

    def face_support(self, face):
        """Inequalities of this cone that vanish on the given face, found on
        the first request; ValueError when it is not a face."""
        support = self._support(face.rays)
        if support is None:
            raise ValueError("not a face of this cone")
        return support

    def has_face(self, other):
        """Whether other is a face: for a simplicial cone, whether its rays
        are a subset of this cone's, so no face is built."""
        return (other.ambient_rank == self.ambient_rank
                and self._support(other.rays) is not None)

    def face_orthogonal_to(self, covectors):
        """The face cut out by covectors that are nonnegative on the cone:
        the cone on the rays where all of them vanish."""
        return Cone._shared(tuple(r for r in self.rays
                                  if all(dot(u, r) == 0 for u in covectors)),
                            self.ambient_rank)

    def facets(self):
        d = self.dim
        return tuple(f for f in self.faces() if f.dim == d - 1)

    # -- quotients ---------------------------------------------------------

    def quotient_by_span(self, face):
        """Quotient of the ambient lattice by the saturated span of a face."""
        if not self.has_face(face):
            raise ValueError("quotient face must be a face of the cone")
        return face.span_quotient()

    def span_quotient(self):
        """Quotient of the ambient lattice by this cone's own span, cached."""
        if self._span_quot is None:
            self._span_quot = lattice_quotient(self.rays, self.ambient_rank)
        return self._span_quot


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
    perp = kernel_lattice(IntMatrix.from_rows(spanning_vectors, cols=ambient_rank))
    sub = kernel_lattice(perp.basis)
    k = sub.rank
    if k == 0:
        eye = IntMatrix.identity(ambient_rank)
        return LatticeQuotient(ambient_rank, sub, eye, eye)
    d, p, _ = smith_normal_form(sub.basis.transpose())
    for i in range(k):
        if d[i, i] != 1:
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
    dimensional.
    """

    __slots__ = ("cone", "generators", "units", "_lift_of", "_proj",
                 "_img_normals")

    def __init__(self, cone, generators, units, _lift_of, _proj, _img_normals):
        self.cone = cone
        self.generators = generators
        self.units = units
        self._lift_of = _lift_of    # Hilbert basis image -> lift
        self._proj = _proj
        self._img_normals = _img_normals

    def _key(self):
        # _lift_of is an unhashable dict and stays out
        return (self.cone, self.generators, self.units, self._proj,
                self._img_normals)

    @property
    def ambient_rank(self):
        return self.cone.ambient_rank

    def __contains__(self, vector):
        vector = tuple(_rational_entry(x) for x in vector)
        if len(vector) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        return all(x.denominator == 1 for x in vector) \
            and all(dot(vector, r) >= 0 for r in self.cone.rays)

    def relations(self):
        """Canonical basis of the integer relation lattice of the generators."""
        if not self.generators:
            return ()
        cone = self.cone
        if cone._relations is None:
            cols = IntMatrix.from_rows(self.generators,
                                       cols=self.ambient_rank).transpose()
            cone._relations = tuple(kernel_lattice(cols).basis_rows())
        return cone._relations

    def decompose(self, target):
        """Express a monoid element as an N-combination of the generators.

        Returns a dict generator -> multiplicity.  Raises ValueError when the
        target is not in the monoid.  One pass over the Hilbert basis of the
        pointed image, in its sorted order, takes each generator g as often
        as the image v stays in the cone, the least floor(<u, v> / <u, g>)
        over extremal normals u with <u, g> > 0.  A generator that does not
        fit never fits later, since v - g' outside the cone puts v - g - g'
        outside for every g in it; and every nonzero point of the saturated
        monoid has some basis element that fits, so the pass never backs up.
        """
        target = _integer_vector(target, self.ambient_rank)
        if any(dot(target, r) < 0 for r in self.cone.rays):
            raise ValueError("target outside the dual cone")
        img = self._proj.apply(target)
        heights = [dot(u, img) for u in self._img_normals]
        out = {}
        residual = list(target)
        for g_img, lift in self._lift_of.items():
            if not any(heights):
                break
            steps = [dot(u, g_img) for u in self._img_normals]
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


def hilbert_basis(cone):
    """Minimal generator set of sigma^v cap M as an AffineSemigroup.

    Units (a plus/minus lattice basis of sigma^perp) are split off first.  In
    the pointed quotient every irreducible element lies in some simplicial
    subcone spanned by independent extremal rays (Caratheodory), and there it
    is a ray or a lattice point of the subcone's half-open fundamental
    parallelepiped.  Those points are enumerated from the Smith normal form
    of each ray subset, and a degree-sorted sieve strikes the reducibles
    (Bruns-Ichim, "Normaliz: algorithms for affine monoids and rational
    cones", J. Algebra 324, 2010).  The basis is computed once per cone.  The
    cone keeps only the semigroup's other fields, since a semigroup refers to
    its cone and keeping it whole would make a reference cycle.
    """
    if cone._hilbert is None:
        cone._hilbert = _hilbert_fields(cone)
    return AffineSemigroup(cone, *cone._hilbert)


def _hilbert_fields(cone):
    n = cone.ambient_rank
    unit_lattice = cone._dual_lineality
    units = []
    for b in unit_lattice.basis_rows():
        units.append(tuple(b))
        units.append(tuple(-x for x in b))
    quot = lattice_quotient([tuple(b) for b in unit_lattice.basis_rows()], n) \
        if unit_lattice.rank else None
    if quot is None:
        proj = IntMatrix.identity(n)
        k = n
    else:
        # quotient of the dual lattice by its unit sublattice
        proj = quot.proj
        k = quot.rank
    pairs = set(units)
    ext = [u for u in cone.inequalities if u not in pairs]
    img_rays = sorted({primitive(proj.apply(r)) for r in ext})
    if not img_rays:
        return tuple(sorted(units)), tuple(sorted(units)), {}, proj, ()
    # H-description of the image cone: it is always pointed (its lineality
    # maps to zero), though it can be lower dimensional when the input cone is
    # not pointed.  Only the extremal normals are kept: basis elements and
    # decomposition targets lie in its span, where they cut it out.
    img_lin, img_normals = _halfspace_generators(img_rays, k)
    candidates = set(img_rays)
    for subset in itertools.combinations(img_rays, k - img_lin.rank):
        candidates.update(_parallelepiped_points(subset, k))
    # every candidate lies in the span, so x - y is in the image cone iff the
    # extremal normals are no smaller on x than on y; their sum is the degree
    # w.x, w the sum of all normals, and a proper summand has lower degree
    heights = {x: tuple(dot(u, x) for u in img_normals) for x in candidates}
    kept = {}
    for x in sorted(candidates, key=lambda x: (sum(heights[x]), x)):
        h = heights[x]
        if not any(all(a >= b for a, b in zip(h, g)) for g in kept.values()):
            kept[x] = h
    basis_img = sorted(kept)
    if quot is None:
        lifts = list(basis_img)
    else:
        lifts = [tuple(quot.section.apply(h)) for h in basis_img]
    return (tuple(sorted(units + lifts)), tuple(sorted(units)),
            dict(zip(basis_img, lifts)), proj, img_normals)


def _parallelepiped_points(rays, k):
    """Nonzero lattice points sum t_i r_i, 0 <= t_i < 1, of independent rays.

    There is one per nonzero class of (Z^k cap span) / Z<rays>.  With the
    Smith form D = P R Q of the ray matrix R, the class group is the direct
    sum of the cyclic groups generated by (row i of P R) / d_i, whose ray
    coefficients are P[i] / d_i; all coefficients are kept as integer
    numerators over the top invariant factor.  Dependent rays give no points.
    """
    m = len(rays)
    d, p, _ = smith_normal_form(IntMatrix.from_rows(rays, cols=k))
    top = d[m - 1, m - 1]
    if top == 0:
        return []
    numerators = [(0,) * m]
    for i in range(m):
        order = d[i, i]
        step = [p[i, j] * (top // order) for j in range(m)]
        numerators = [tuple((a + c * s) % top for a, s in zip(num, step))
                      for num in numerators for c in range(order)]
    return [tuple(sum(c * r[j] for c, r in zip(num, rays)) // top for j in range(k))
            for num in numerators[1:]]
