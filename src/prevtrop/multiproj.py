"""Multigraded polynomial rings and the glued toric model of their Proj.

A grading assigns each variable a degree in a finitely generated abelian
group.  A subset of the variables is relevant when its degrees generate a
finite-index subgroup; the minimal relevant subsets become the affine
charts, and the chart cones live in the lattice dual to the kernel of the
degree map.  Gluing follows monomial localization: two charts meet along
the chart of their union.
"""

from __future__ import annotations

import weakref
from itertools import combinations

from prevtrop import exactla
from prevtrop.cone import Cone
from prevtrop.exactla import (
    AbelianGroup,
    IntMatrix,
    _integer_entry,
    _integer_vector,
    hermite_normal_form,
    kernel_lattice,
    rational_rank,
)
from prevtrop.jsondoc import _json_field, _json_rows, _json_typed
from prevtrop.sysfan import SystemOfFans


class EmptyProj(ValueError):
    """Raised when no variable subset is relevant: the glued space is empty."""


class Grading:
    """Degrees deg(T_1), ..., deg(T_n) in Z^free_rank + torsion."""

    __slots__ = ("group", "degrees")

    def __init__(self, group, degrees):
        if not isinstance(group, AbelianGroup):
            group = AbelianGroup(*group)
        self.group = group
        self.degrees = tuple(group.reduce(d) for d in degrees)

    @property
    def n(self):
        return len(self.degrees)

    def __eq__(self, other):
        return (isinstance(other, Grading) and self.group == other.group
                and self.degrees == other.degrees)

    def __hash__(self):
        return hash((self.group, self.degrees))

    def __repr__(self):
        return "Grading(%r, %r)" % (self.group, list(self.degrees))

    def degree_of_monomial(self, exponents):
        """Degree of T^a for a nonnegative integer exponent vector a."""
        exponents = _integer_vector(exponents, self.n)
        total = [0] * self.group.ngens
        for a, d in zip(exponents, self.degrees):
            for j in range(len(total)):
                total[j] += a * d[j]
        return self.group.reduce(total)

    def free_degree_matrix(self):
        """The degree map on free parts, as a matrix acting on exponent
        vectors (free_rank rows, n columns)."""
        r = self.group.free_rank
        return IntMatrix.from_rows(
            [[self.degrees[i][j] for i in range(self.n)] for j in range(r)],
            cols=self.n)

    def subset_degree_matrix(self, subset):
        """Columns deg(T_i) for i in the subset, full coordinates."""
        idx = sorted(subset)
        return IntMatrix.from_rows(
            [[self.degrees[i - 1][j] for i in idx]
             for j in range(self.group.ngens)],
            cols=len(idx))


def _check_subset(grading, subset):
    subset = frozenset(_integer_entry(i) for i in subset)
    for i in subset:
        if not 1 <= i <= grading.n:
            raise ValueError("variable index %d out of range" % i)
    return subset


def relevance_index(grading, subset):
    """Index of the subgroup generated by the subset's degrees, None if
    infinite."""
    subset = _check_subset(grading, subset)
    finite, index = exactla.cokernel_is_finite(grading.subset_degree_matrix(subset),
                                       grading.group)
    return index if finite else None


def is_relevant_subset(grading, subset):
    """Whether the degrees of the subset generate finite index in the group.

    The torsion part is finite, so this holds iff the free parts of the
    degrees have rank free_rank.  A monomial is relevant exactly when its
    support is, so this predicate also decides membership of monomials in
    the irrelevant ideal.
    """
    subset = _check_subset(grading, subset)
    r = grading.group.free_rank
    return rational_rank([grading.degrees[i - 1][:r] for i in subset], r) == r


def monomial_in_irrelevant_ideal(grading, exponents):
    exponents = tuple(_integer_entry(x) for x in exponents)
    if len(exponents) != grading.n or any(a < 0 for a in exponents):
        raise ValueError("exponent vector must be nonnegative of length n")
    return is_relevant_subset(
        grading, [i + 1 for i, a in enumerate(exponents) if a > 0])


class ChartPoset:
    """All relevant subsets with their cones, ordered by reverse inclusion.

    minimal lists the inclusion-minimal relevant subsets: the affine charts.
    cone_of maps each relevant subset H to sigma_H, the cone on the images of
    the complement's coordinate vectors in the dual of the degree kernel;
    each cone is built on first request.
    """

    def __init__(self, grading):
        n = grading.n
        if n > 16:
            raise ValueError("subset enumeration is limited to 16 variables")
        self.grading = grading
        self.kernel = kernel_lattice(grading.free_degree_matrix())
        self.q = self.kernel.basis          # q(a) = basis_matrix @ a
        # by size, then lexicographically: the (len(s), sorted(s)) order of
        # subsets and minimal, and every subset's maximal proper subsets
        # come before it
        relevant = set()
        subsets, minimal = [], []
        for size in range(n + 1):
            for subset in map(frozenset, combinations(range(1, n + 1), size)):
                if not any(subset - {i} in relevant for i in subset):
                    if not is_relevant_subset(grading, subset):
                        continue
                    minimal.append(subset)
                relevant.add(subset)
                subsets.append(subset)
        self.subsets = tuple(subsets)
        self._relevant = frozenset(relevant)
        self.minimal = tuple(minimal)
        self._cones = {}

    def __iter__(self):
        return iter(self.subsets)

    def __len__(self):
        return len(self.subsets)

    def is_relevant(self, subset):
        return _check_subset(self.grading, subset) in self._relevant

    def cone_of(self, subset):
        """sigma_H, built on first request; KeyError when H is not relevant."""
        subset = _check_subset(self.grading, subset)
        cone = self._cones.get(subset)
        if cone is None:
            if subset not in self._relevant:
                raise KeyError(subset)
            cone = self._cones[subset] = Cone.from_rays(
                [self.q.column(i - 1)
                 for i in range(1, self.grading.n + 1) if i not in subset],
                self.kernel.rank)
        return cone

    def leq(self, a, b):
        """Reverse inclusion: a precedes b when a contains b."""
        return _check_subset(self.grading, a) >= _check_subset(self.grading, b)


def relevant_subsets(grading):
    return ChartPoset(grading)


class ProjSystem:
    """The glued chart system of a grading, with its construction data;
    shared by every caller with an equal grading, so never mutate one.  Its
    character map and refined systems are built on first use and kept, and
    so, in _plans, are the point-free plans of tropembed's refined_classical
    (per gtilde's exponents and chart subset) and forget_refinement (per
    old chart subset) into and out of a refined system."""

    def __init__(self, grading, poset, system, chart_subsets):
        self.grading = grading
        self.poset = poset
        self.system = system
        self.chart_subsets = chart_subsets      # label -> frozenset
        self.q = poset.q
        self.kernel = poset.kernel
        self._characters = None
        self._refined = {}
        self._plans = {}

    def character(self, exponent):
        """The chart character s with q^T s = exponent, or ValueError when
        the monomial does not descend to the chart torus.  q spans a direct
        summand of Z^n, so the HNF of q^T is [I_r; 0] and the top r rows of
        its transform, built on first use, are an integer left inverse."""
        exponent = _integer_vector(exponent, self.grading.n)
        if self._characters is None:
            qt = self.q.transpose()
            u = hermite_normal_form(qt)[1]
            r = self.q.rows
            self._characters = IntMatrix(r, u.cols, u.entries[:r * u.cols]), qt
        left_inverse, qt = self._characters
        s = left_inverse.apply(exponent)
        if qt.apply(s) != exponent:
            raise ValueError("monomial %r does not descend to the chart torus"
                             % list(exponent))
        return s

    def refined(self, degree):
        """The system of this grading with one more variable of the given
        degree; one per degree, held by this system, so its chart cones and
        their Hilbert bases and relations survive every refinement by it."""
        proj = self._refined.get(degree)
        if proj is None:
            proj = self._refined[degree] = proj_system_of_fans(
                Grading(self.grading.group, self.grading.degrees + (degree,)))
        return proj

    @property
    def ambient_rank(self):
        return self.system.ambient_rank

    def chart_label(self, subset):
        subset = _check_subset(self.grading, subset)
        for label, s in self.chart_subsets.items():
            if s == subset:
                return label
        raise KeyError("subset %r is not a chart" % (sorted(subset),))


def _label_for(subset):
    if not subset:
        return "1"
    return "*".join("T%d" % i for i in sorted(subset))


# One live ProjSystem per grading; entries vanish with the system.
_PROJS = weakref.WeakValueDictionary()


def proj_system_of_fans(grading):
    """The chart system of the grading: the live one if an equal grading
    has one, else a new one.

    Charts are the minimal relevant subsets F with cone sigma_F; the fan
    between charts F and G consists of the faces of sigma_{F union G},
    mirroring D_+(T^F) cap D_+(T^G) = D_+(T^{F union G}).  Raises EmptyProj
    when nothing is relevant.
    """
    proj = _PROJS.get(grading)
    if proj is not None:
        return proj
    poset = relevant_subsets(grading)
    if not poset.subsets:
        raise EmptyProj("no relevant variable subsets")
    minimal = poset.minimal
    labels = [_label_for(f) for f in minimal]
    chart_subsets = dict(zip(labels, minimal))
    entries = {}
    for x, f in enumerate(minimal):
        for g, label in zip(minimal[x:], labels[x:]):
            entries[(labels[x], label)] = [poset.cone_of(f | g)]
    system = SystemOfFans(poset.kernel.rank, labels, entries)
    proj = _PROJS[grading] = ProjSystem(grading, poset, system, chart_subsets)
    return proj


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def grading_to_data(grading):
    return {"n": grading.n,
            "free_rank": grading.group.free_rank,
            "torsion": list(grading.group.torsion),
            "degrees": [list(d) for d in grading.degrees]}


def grading_from_data(data):
    torsion = _json_typed(data.get("torsion", []), list, "torsion")
    group = AbelianGroup(_integer_entry(_json_field(data, "free_rank")),
                         tuple(_integer_entry(m) for m in torsion))
    degrees = _json_rows(_json_field(data, "degrees"), "degrees")
    if _integer_entry(_json_field(data, "n")) != len(degrees):
        raise ValueError("variable count does not match the degree list")
    return Grading(group, degrees)
