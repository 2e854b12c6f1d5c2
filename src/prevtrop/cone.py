"""Rational polyhedral cones with exact dual descriptions.

A cone carries both a canonical generator list (primitive extremal rays, plus
a plus/minus lattice basis of its lineality space when it is not pointed) and
a canonical inequality list, which is by duality the generator list of the
dual cone.  One rule: a cone on linearly independent generators is
simplicial, its dimension is its ray count, and however it was made it
computes its inequalities only when they are first read, as the dual basis
on its span from one elimination and a plus/minus basis of the kernel of its
generators.  Every other cone gets both lists at once from an incremental
double description sweep over exact integers, with a combinatorial
extremality test.  The cone cut out by inequalities is the dual of the cone
on them, so it is built the same way.  A meet of two pointed cones in a
common face is read off a separating form; any other meet is cut out by the
inequalities of both.  The faces of a simplicial cone are the cones on its
ray subsets, registered with no independence test; any other cone closes
its rays under the tight sets of its inequalities.  A face's supporting
inequalities are found only when asked for, and memoised.  There is no
floating point anywhere.  Sizes are desk scale: ambient rank stays in single
digits and generator counts in the tens, so the algorithms favour clarity
over asymptotics.

Cones are shared and immutable.  Cone.from_rays, Cone.from_inequalities,
Cone.dual, Cone.intersect and faces() return the one live Cone object for
each (ambient rank, canonical rays), so equal cones are usually identical
objects and their lazy caches (faces, hilbert_basis, its relations, face
cuts and span_quotient) are computed once and shared by every holder.  The
lookup table is weak: a cone leaves it as soon as nothing else references it.
"""

from __future__ import annotations

import itertools
import math
import weakref

from prevtrop import _lazy
from prevtrop.exactla import (
    IntMatrix,
    Lattice,
    _echelon,
    _integer_vector,
    _rational_entry,
    kernel_lattice,
    primitive,
)

__getattr__ = _lazy(globals(), "prevtrop.monoid", (
    "LatticeQuotient", "lattice_quotient", "AffineSemigroup", "hilbert_basis"))


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


# One live Cone per canonical cone: (ambient_rank, canonical rays) -> Cone,
# and no other key; entries vanish with the cone.
_CONES = weakref.WeakValueDictionary()


def _intern(cone):
    """The registered cone equal to this one, registering it if there is none."""
    return _CONES.setdefault((cone.ambient_rank, cone.rays), cone)


class Cone:
    """Rational polyhedral cone in a fixed lattice, canonical and immutable.

    rays: canonical generator list (V-description).
    inequalities: canonical generator list of the dual (H-description); the
      cone is exactly {x : <u, x> >= 0 for every u in inequalities}.  A
      simplicial cone fills it, and its dual lineality, on first read.

    Instances are shared (see the module docstring): never mutate one.
    """

    __slots__ = ("ambient_rank", "rays", "lineality", "dim", "_ineqs",
                 "_dual_lin", "_faces", "_supports", "_hilbert",
                 "_span_quot", "_relations", "_cuts", "__weakref__")

    def __init__(self, ambient_rank, rays, inequalities, lineality, dual_lineality):
        self.ambient_rank = ambient_rank
        self.rays = rays
        self.lineality = lineality
        self._ineqs = inequalities
        self._dual_lin = dual_lineality
        # the dual lineality is sigma^perp cap M, of rank n - dim sigma; a
        # simplicial cone has none until its inequalities are read
        self.dim = (len(rays) if dual_lineality is None
                    else ambient_rank - dual_lineality.rank)
        self._faces = None
        self._supports = None
        self._hilbert = None
        self._span_quot = None
        self._relations = None
        self._cuts = None

    @classmethod
    def from_rays(cls, rays, ambient_rank):
        """The cone generated by integer vectors (ints or integral Fractions)."""
        vectors = (_integer_vector(r, ambient_rank) for r in rays)
        return cls._shared(tuple(sorted({primitive(r) for r in vectors if any(r)})),
                           ambient_rank)

    @classmethod
    def _shared(cls, gens, ambient_rank):
        """The live cone on sorted primitive generators, built on a miss."""
        cone = _CONES.get((ambient_rank, gens))
        return _intern(cls._build(gens, ambient_rank)) if cone is None else cone

    def _lazy_face(self, rays):
        """The live face of this simplicial cone on rays; a miss is not built."""
        key = (self.ambient_rank, rays)
        cone = _CONES.get(key)
        if cone is None:
            cone = _CONES[key] = Cone(*key, None, self.lineality, None)
        return cone

    @property
    def inequalities(self):
        if self._ineqs is None:
            self._fill()
        return self._ineqs

    @property
    def _dual_lineality(self):
        if self._dual_lin is None:
            self._fill()
        return self._dual_lin

    def _fill(self):
        """A simplicial cone's inequalities and dual lineality, on first read.

        One echelon of [R | I_k] on the rays R: each kept row is (p, [E | M])
        with E = M R, and E vanishes on the other pivot columns, so the dual
        basis vector u_i (<u_i, r_j> = delta_ij, zero off the pivot columns)
        is M[i] / E[p] at each pivot p.  The dual lineality is R's kernel.
        """
        n, rays, k = self.ambient_rank, self.rays, len(self.rays)
        rows = _echelon([r + (0,) * i + (1,) + (0,) * (k - i - 1)
                         for i, r in enumerate(rays)], n)
        dual_lin = (self.lineality if k == n
                    else kernel_lattice(IntMatrix.from_rows(rays, cols=n)))
        base = _echelon(dual_lin.basis_rows(), n)
        den = math.lcm(*(row[p] for p, row in rows))
        dual_ext = []
        for i in range(n, n + k):
            u = [0] * n
            for p, row in rows:
                u[p] = row[i] * (den // row[p])
            dual_ext.append(_reduce_mod(base, u))
        self._ineqs, self._dual_lin = _generator_list(dual_lin, dual_ext), dual_lin

    @classmethod
    def from_inequalities(cls, normals, ambient_rank):
        """The cone {x : <a, x> >= 0 for a in normals}, dual to the cone on them."""
        return cls.from_rays(normals, ambient_rank).dual()

    @classmethod
    def _build(cls, rays, ambient_rank):
        """A new cone on integer generators, bypassing the table: unbuilt
        (see _fill) on independent ones, else from two sweeps."""
        n = ambient_rank
        rays = tuple(sorted({primitive(r) for r in rays if any(r)}))
        if len(_echelon(rays, n)) == len(rays):
            return cls(n, rays, None, Lattice(n, IntMatrix.from_rows([], cols=n)), None)
        dual_lin, dual_ext = _halfspace_generators(rays, n)
        ineqs = _generator_list(dual_lin, dual_ext)
        lin, ext = _halfspace_generators(ineqs, n)
        return cls(n, _generator_list(lin, ext), ineqs, lin, dual_lin)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Cone) and self.ambient_rank == other.ambient_rank
                and self.rays == other.rays)

    def __hash__(self):
        return hash((self.ambient_rank, self.rays))

    def __repr__(self):
        return "Cone%r" % (list(self.rays),)

    # -- basic geometry ----------------------------------------------------

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
        common face, is cut out by the inequalities of both.
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
                self._faces = tuple(self._lazy_face(s)
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
            from prevtrop.cone import lattice_quotient
            self._span_quot = lattice_quotient(self.rays, self.ambient_rank)
        return self._span_quot
