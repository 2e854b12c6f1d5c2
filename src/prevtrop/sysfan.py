"""Fans, systems of fans, the chart-class poset and products.

A system of fans glues affine toric charts: one fan per chart on the
diagonal, and for every unordered pair of charts a shared subfan describing
where the two charts agree.  The poset of chart classes is the combinatorial
shadow of the glued space: a class is a cone together with the set of charts
that contain it compatibly, and the order relation mixes "face of" on cones
with reverse inclusion on chart sets.
"""

from __future__ import annotations

from itertools import combinations

from prevtrop import _lazy
from prevtrop.cone import Cone
from prevtrop.exactla import _Value, _integer_entry
from prevtrop.jsondoc import DocumentError, _json_field, _json_rows, _json_typed

__getattr__ = _lazy(globals(), "prevtrop.morphism", (
    "SysFanMorphism", "validate_morphism", "morphism_from_lattice_map"))


class ValidationIssue(_Value):
    """One named axiom violation; validation returns lists of these."""

    __slots__ = ("kind", "where", "detail")

    def __init__(self, kind, where, detail):
        self.kind = kind        # "fan", "symmetry", "subfan", "pointed", ...
        self.where = where      # chart labels (a chart triple for subfan)
        self.detail = detail

    def _key(self):
        return self.kind, self.where, self.detail

    def __str__(self):
        return "%s at %s: %s" % (self.kind, "/".join(map(str, self.where)),
                                 self.detail)


class Fan:
    """A finite face-closed collection of cones in a fixed lattice.

    Construction closes the input under faces, so callers may hand over
    maximal cones only.  Axiom checking (pairwise intersection in a common
    face, pointedness) is separate, in validate(), and reports rather than
    raises.
    """

    __slots__ = ("ambient_rank", "cones", "_keys", "_maximal")

    def __init__(self, cones, ambient_rank):
        given = {}
        for c in cones:
            if not isinstance(c, Cone):
                c = Cone.from_rays(c, ambient_rank)
            if c.ambient_rank != ambient_rank:
                raise ValueError("cone ambient rank mismatch")
            given[c.rays] = c
        # largest first: a proper face has lower dimension, so a given cone
        # already in the closure is a face of another and not maximal, and
        # its faces are in the closure too
        closed = {}
        maximal = []
        for c in sorted(given.values(), key=lambda c: -c.dim):
            if c.rays not in closed:
                maximal.append(c)
                for f in c.faces():
                    closed[f.rays] = f
        self.ambient_rank = ambient_rank
        self.cones = tuple(sorted(closed.values(), key=lambda c: (c.dim, c.rays)))
        self._keys = frozenset(closed)
        self._maximal = tuple(sorted(maximal, key=lambda c: (c.dim, c.rays)))

    def __eq__(self, other):
        return (isinstance(other, Fan) and self.ambient_rank == other.ambient_rank
                and self._keys == other._keys)

    def __hash__(self):
        return hash((self.ambient_rank, self._keys))

    def __contains__(self, cone):
        return isinstance(cone, Cone) and cone.rays in self._keys

    def __iter__(self):
        return iter(self.cones)

    def __len__(self):
        return len(self.cones)

    def __repr__(self):
        return "Fan(%d cones, rank %d)" % (len(self.cones), self.ambient_rank)

    def maximal_cones(self):
        return self._maximal

    def validate(self, where=()):
        """Every cone is pointed and every two cones meet in a common face.

        Only pairs of maximal cones are intersected: when two maximal cones
        meet in a common face, so do any faces of theirs.  So on an invalid
        fan the "fan" issues name pairs of maximal cones.
        """
        issues = []
        for c in self.cones:
            if not c.is_pointed():
                issues.append(ValidationIssue(
                    "pointed", where, "cone %r has a lineality space" % (c,)))
        for a, b in combinations(self.maximal_cones(), 2):
            meet = a.intersect(b)
            if not (a.has_face(meet) and b.has_face(meet)):
                issues.append(ValidationIssue(
                    "fan", where,
                    "cones %r and %r overlap without a common face" % (a, b)))
        return issues


class SystemOfFans:
    """Charts indexed by labels; a fan for every (unordered) pair of charts.

    entries maps label pairs to cone collections; a pair may be given in
    either order and is mirrored.  Giving both orders is allowed — axiom
    validation then checks that they agree instead of silently picking one.
    """

    def __init__(self, ambient_rank, labels, entries):
        if ambient_rank < 0:
            raise ValueError("ambient_rank %d is negative" % ambient_rank)
        labels = tuple(str(l) for l in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate chart labels")
        for l in labels:
            if "," in l or not l:
                raise ValueError("chart labels must be nonempty and comma-free")
        self.ambient_rank = ambient_rank
        self.labels = labels
        self._pos = {l: i for i, l in enumerate(labels)}
        given = {}
        for (a, b), cones in entries.items():
            a, b = str(a), str(b)
            if a not in self._pos or b not in self._pos:
                raise ValueError("unknown chart label in entry (%s, %s)" % (a, b))
            fan = cones if isinstance(cones, Fan) else Fan(cones, ambient_rank)
            if fan.ambient_rank != ambient_rank:
                raise ValueError("fan ambient rank mismatch")
            given[(a, b)] = fan
        self._given = given
        self._matrix = {}
        for i, a in enumerate(labels):
            for b in labels[i:]:
                fan = given.get((a, b), given.get((b, a)))
                if fan is None:
                    raise ValueError("missing fan entry for charts (%s, %s)" % (a, b))
                self._matrix[(a, b)] = fan
        self._poset = None
        self._separated = None

    def fan(self, a, b=None):
        """The fan glued between charts a and b (diagonal when b omitted)."""
        a = str(a)
        b = a if b is None else str(b)
        if a not in self._pos or b not in self._pos:
            raise KeyError("unknown chart label")
        if self._pos[a] <= self._pos[b]:
            return self._matrix[(a, b)]
        return self._matrix[(b, a)]

    def omega(self):
        if self._poset is None:
            self._poset = OmegaPoset(self)
        return self._poset


def validate_system(system):
    """All axiom violations of a system of fans, empty when valid."""
    issues = []
    labels = system.labels
    for (a, b), fan in sorted(system._matrix.items()):
        issues.extend(fan.validate(where=(a, b)))
    for (a, b), fan in sorted(system._given.items()):
        mirror = system._given.get((b, a))
        if a != b and mirror is not None and mirror != fan:
            if (a, b) < (b, a):
                issues.append(ValidationIssue(
                    "symmetry", (a, b),
                    "entries for (%s,%s) and (%s,%s) differ" % (a, b, b, a)))
    keys = {(a, b): system.fan(a, b)._keys for a in labels for b in labels}
    for a in labels:
        for b in labels:
            for c in labels:
                missing = (keys[a, b] & keys[b, c]) - keys[a, c]
                if not missing:
                    continue
                for cone in system.fan(a, b).cones:
                    if cone.rays in missing:
                        issues.append(ValidationIssue(
                            "subfan", (a, b, c),
                            "cone %r is glued via %s but missing from (%s,%s)"
                            % (cone, b, a, c)))
    return issues


class OmegaClass(_Value):
    """A chart class: a cone plus every chart containing it compatibly."""

    __slots__ = ("class_id", "cone", "members")

    def __init__(self, class_id, cone, members):
        self.class_id = class_id
        self.cone = cone
        self.members = members      # chart labels, in system label order

    def _key(self):
        return self.class_id, self.cone, self.members

    @property
    def representative(self):
        return self.members[0]

    def __repr__(self):
        return "[%r, %s]" % (list(self.cone.rays), self.representative)


def _names_a_class(class_id, classes):
    return type(class_id) is int and 0 <= class_id < len(classes)


def _root(parent, x):
    """The root of x in a union-find forest, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


class OmegaPoset:
    """Classes of (cone, chart) pairs under the gluing relation, ordered.

    (sigma, i) and (sigma, j) are identified exactly when sigma lies in the
    fan glued between i and j, so classes are found per cone, by a union-find
    over the charts whose fan holds it.  Transitivity is the subfan axiom;
    the union-find gives a gluing that is not transitive a well-defined (if
    unexpected) answer for diagnostics.  A cone glued between two charts must
    lie in both charts' own fans; when it does not, ValueError names the
    cone and the chart pair.
    The order is decided on demand and never stored; the maximal classes
    are read off the charts' fans (_maximal_classes).
    The poset keeps no reference to its system, which caches it: a back
    reference would leave every dropped system on a reference cycle.
    """

    def __init__(self, system):
        labels = system.labels
        # rays -> (cone, parent); parent maps labels to labels, in label order
        by_cone = {}
        for a in labels:
            for cone in system.fan(a, a):
                by_cone.setdefault(cone.rays, (cone, {}))[1][a] = a
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                for cone in system.fan(a, b):
                    parent = by_cone.get(cone.rays, (None, ()))[1]
                    for c in (a, b):
                        if c not in parent:
                            raise ValueError(
                                "cone %r is glued between charts %s and %s but "
                                "missing from the fan of chart %s" % (cone, a, b, c))
                    parent[_root(parent, a)] = _root(parent, b)
        # a cone's groups come out in order of their first member
        classes = []
        for rays in sorted(by_cone):
            cone, parent = by_cone[rays]
            groups = {}
            for a in parent:
                groups.setdefault(_root(parent, a), []).append(a)
            for members in groups.values():
                classes.append(OmegaClass(len(classes), cone, tuple(members)))
        self.classes = tuple(classes)
        self._by_pair = {(c.cone.rays, m): c for c in classes for m in c.members}

    def __len__(self):
        return len(self.classes)

    def __iter__(self):
        return iter(self.classes)

    def class_of(self, cone, label):
        """The class of the pair (cone, chart label)."""
        try:
            return self._by_pair[(cone.rays, str(label))]
        except KeyError:
            raise KeyError("cone %r is not in the fan of chart %s"
                           % (cone, label)) from None

    def leq(self, low, high):
        """Whether low's cone is a face of high's and low is glued into every
        chart that high is; an id that names no class is related to nothing."""
        ids = [c.class_id if isinstance(c, OmegaClass) else c for c in (low, high)]
        if not all(_names_a_class(k, self.classes) for k in ids):
            return False
        low, high = (self.classes[k] for k in ids)
        return high.representative in low.members and high.cone.has_face(low.cone)

    def order_pairs(self):
        """All (low, high) id pairs with low <= high, built on each call: a
        face of high's cone lies in one class whose members include high's."""
        return frozenset((self.class_of(f, h.representative).class_id, h.class_id)
                         for h in self.classes for f in h.cone.faces())


def strata(system):
    """All tropical strata as (class, dimension) in class order."""
    n = system.ambient_rank
    return tuple((cls, n - cls.cone.dim) for cls in system.omega())


def nonneg_strata(system):
    """All nonnegative strata as (class, face, dimension), deterministically.

    A stratum is a chart class together with a face of its cone; its points
    are interior to the image of the cone modulo the face, so the dimension
    is the difference of the two cone dimensions.
    """
    out = []
    for cls in system.omega():
        for face in cls.cone.faces():
            out.append((cls, face, cls.cone.dim - face.dim))
    return tuple(out)


# ---------------------------------------------------------------------------
# products, separation, support
# ---------------------------------------------------------------------------

def _product_cone(a, b):
    n, m = a.ambient_rank, b.ambient_rank
    rays = [r + (0,) * m for r in a.rays] + [(0,) * n + r for r in b.rays]
    return Cone.from_rays(rays, n + m)


def product(system_a, system_b, separator="|"):
    """The product system on the direct sum of the two lattices.

    Chart labels are joined with a separator that must appear in neither
    factor's labels, so product labels stay unambiguous.
    """
    for l in system_a.labels + system_b.labels:
        if separator in l:
            raise ValueError("separator %r occurs in label %r" % (separator, l))
    labels = [la + separator + lb
              for la in system_a.labels for lb in system_b.labels]
    entries = {}
    for la in system_a.labels:
        for lb in system_b.labels:
            for ma in system_a.labels:
                for mb in system_b.labels:
                    # the faces of a product cone are the products of faces,
                    # which Fan adds when it closes the entry
                    cones = [_product_cone(ca, cb)
                             for ca in system_a.fan(la, ma).maximal_cones()
                             for cb in system_b.fan(lb, mb).maximal_cones()]
                    entries[(la + separator + lb, ma + separator + mb)] = cones
    return SystemOfFans(system_a.ambient_rank + system_b.ambient_rank,
                        labels, entries)


def is_separated(system):
    """Gluing check over pairs of chart classes; (True, None) or (False, witness).

    The verdict is decided on pairs of maximal classes; the witness names the
    first two classes in class order whose cones meet badly: either their
    intersection is not a common face, or it is one but the two charts are
    not glued along it.  The verdict is decided once per system and cached
    on it, like the poset.
    """
    if system._separated is None:
        system._separated = _separation(system)
    return system._separated


def _separation(system):
    """The maximal classes' opens cover the space (a <= b puts a's open
    inside b's), and a space is separated iff every two opens of one affine
    cover are, so pairs of maximal classes decide the verdict.  That needs
    every two charts of a class to be glued along its cone, which the subfan
    axiom gives; without it the union-find classes can join charts that are
    not glued, and the ordered scan runs over all pairs.

    The witness is the first bad pair in class order.  Under the same
    condition, an open subscheme of a separated scheme is separated
    (Hartshorne, Algebraic Geometry, II, Cor. 4.6), so a pair (a, b) with
    a <= a' and b <= b' is good when the maximal classes a' and b' are equal
    or a good pair, and the scan skips it.  up[x] has bit k when class x is
    at or below the k-th maximal class, and reach[x] ORs the masks of those
    maximal classes' good partners (each its own partner)."""
    omega = system.omega()
    classes = omega.classes
    glued = {(a, b): system.fan(a, b)._keys
             for a in system.labels for b in system.labels}
    up, reach, bad = [0] * len(classes), [0] * len(classes), {}
    if all(c.cone.rays in glued[i, k]
           for c in classes for i, k in combinations(c.members, 2)):
        maximal = _maximal_classes(system)
        partners = [(1 << len(maximal)) - 1] * len(maximal)
        for (k, a), (l, b) in combinations(enumerate(maximal), 2):
            failure = _pair_failure(glued, a, b)
            if failure is not None:
                bad[a.class_id, b.class_id] = failure
                partners[k] &= ~(1 << l)
                partners[l] &= ~(1 << k)
        if not bad:
            return True, None
        for k, m in enumerate(maximal):
            for face in m.cone.faces():
                x = omega.class_of(face, m.representative).class_id
                up[x] |= 1 << k
                reach[x] |= partners[k]
    for (x, a), (y, b) in combinations(enumerate(classes), 2):
        if not reach[x] & up[y]:
            failure = bad.get((x, y)) or _pair_failure(glued, a, b)
            if failure is not None:
                return False, failure
    return True, None


def _maximal_classes(system):
    """The classes below no other, in class order: those whose cone is maximal
    in every member m's fan.  A cone D of m's fan properly over it gives the
    class of (D, m) above it, since fans are face-closed, and vice versa."""
    tops = {a: {c.rays for c in system._matrix[a, a].maximal_cones()}
            for a in system.labels}
    return [c for c in system.omega().classes
            if all(c.cone.rays in tops[m] for m in c.members)]


def _pair_failure(glued, a, b):
    """The witness (a, b, meet, reason) when classes a and b meet badly,
    else None; glued maps each chart pair to its fan's cone keys."""
    meet = a.cone.intersect(b.cone)
    if not (a.cone.has_face(meet) and b.cone.has_face(meet)):
        return a, b, meet, "intersection is not a common face"
    i, j = a.representative, b.representative
    if meet.rays not in glued[i, j]:
        return (a, b, meet, "charts %s and %s are not glued along the "
                            "intersection" % (i, j))
    return None


def support_is_full(system):
    """Whether the cones cover the whole vector space (separated systems only).

    Uses the boundary criterion for pure full-dimensional fans: full support
    is equivalent to every maximal cone having full dimension and every facet
    of a maximal cone being shared with exactly one other maximal cone.  A
    system without cones covers nothing, not even the origin.
    """
    ok, witness = is_separated(system)
    if not ok:
        raise ValueError("support test requires a separated system; %s"
                         % (witness[3],))
    maximal = [cls.cone for cls in _maximal_classes(system)]
    for c in maximal:
        if c.dim < system.ambient_rank:
            return False
        for facet in c.facets():
            shared = sum(1 for d in maximal if d != c and d.has_face(facet))
            if shared != 1:
                return False
    return bool(maximal)


# ---------------------------------------------------------------------------
# serialization helpers (used by the command line front end)
# ---------------------------------------------------------------------------

def system_to_data(system):
    fans = {}
    for i, a in enumerate(system.labels):
        for b in system.labels[i:]:
            fans["%s,%s" % (a, b)] = [
                [list(r) for r in c.rays]
                for c in system.fan(a, b).maximal_cones()]
    return {"ambient_rank": system.ambient_rank,
            "indices": list(system.labels),
            "fans": fans}


def system_from_data(data):
    labels = _json_field(data, "indices", list)
    for k, label in enumerate(labels):
        if not isinstance(label, str):
            raise DocumentError("indices[%d] must be a JSON string" % k)
    n = _integer_entry(_json_field(data, "ambient_rank"))
    entries = {}
    for key, cones in _json_field(data, "fans", dict).items():
        a, _, b = key.partition(",")
        if not _:
            raise ValueError("fan key %r is not 'i,j'" % (key,))
        where = 'fans["%s"]' % key
        entries[(a, b)] = [_json_rows(rays, "%s[%d]" % (where, k))
                           for k, rays in enumerate(_json_typed(cones, list, where))]
    return SystemOfFans(n, labels, entries)
