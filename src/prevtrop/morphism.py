"""Morphisms of systems of fans, loaded on first use through prevtrop.sysfan."""

from prevtrop.exactla import _Value
from prevtrop.sysfan import OmegaClass, ValidationIssue, _names_a_class


class SysFanMorphism(_Value):
    """A lattice map together with a map of chart classes."""

    __slots__ = ("source", "target", "lattice_map", "class_map")

    def __init__(self, source, target, lattice_map, class_map):
        self.source = source
        self.target = target
        self.lattice_map = lattice_map  # target_rank x source_rank
        self.class_map = class_map      # source class_id -> target class_id

    def _key(self):
        return self.source, self.target, self.lattice_map, self.class_map

    __hash__ = None     # class_map is a dict

    def image_class(self, cls):
        tgt_id = self.class_map[cls.class_id if isinstance(cls, OmegaClass)
                                else cls]
        classes = self.target.omega().classes
        if not _names_a_class(tgt_id, classes):
            raise KeyError("class id %r names no target class" % (tgt_id,))
        return classes[tgt_id]


def validate_morphism(morphism):
    """Check order preservation and cone containment; list of violations."""
    src = morphism.source.omega()
    tgt = morphism.target.omega()
    issues = []
    cmap = morphism.class_map
    for cls in src.classes:
        if cls.class_id not in cmap:
            issues.append(ValidationIssue(
                "class-map", (cls.representative,),
                "class %r has no image" % (cls,)))
        elif not _names_a_class(cmap[cls.class_id], tgt.classes):
            issues.append(ValidationIssue(
                "class-map", (cls.representative,),
                "class %r maps to %r, no target class" % (cls, cmap[cls.class_id])))
    if issues:
        return issues
    for cls in src.classes:
        img = tgt.classes[cmap[cls.class_id]]
        for r in cls.cone.rays:
            fr = morphism.lattice_map.apply(r)
            if img.cone.contains(fr)[0] == "outside":
                issues.append(ValidationIssue(
                    "containment", (cls.representative,),
                    "ray %r of %r maps outside %r" % (r, cls, img)))
    for a, b in sorted(src.order_pairs()):
        if not tgt.leq(cmap[a], cmap[b]):
            issues.append(ValidationIssue(
                "order", (str(a), str(b)),
                "class order %r <= %r is not preserved"
                % (src.classes[a], src.classes[b])))
    return issues


def morphism_from_lattice_map(source, target, lattice_map, chart_map):
    """Derive the class map of a toric morphism from a chart correspondence.

    chart_map sends each source chart label to a target chart label; each
    source cone must land inside some cone of the image chart's fan, and the
    smallest such cone determines the image class.  Raises ValueError when no
    such cone exists or when equivalent pairs disagree, i.e. when the data do
    not define a morphism.
    """
    src = source.omega()
    tgt = target.omega()
    class_map = {}
    for cls in src.classes:
        image_rays = [tuple(lattice_map.apply(r)) for r in cls.cone.rays]
        images = set()
        for member in cls.members:
            tlabel = str(chart_map[member])
            fan = target.fan(tlabel, tlabel)
            holding = [c for c in fan
                       if all(c.contains(fr)[0] != "outside" for fr in image_rays)]
            if not holding:
                raise ValueError(
                    "no cone of chart %s contains the image of %r"
                    % (tlabel, cls))
            smallest = min(holding, key=lambda c: (c.dim, c.rays))
            images.add(tgt.class_of(smallest, tlabel).class_id)
        if len(images) != 1:
            raise ValueError("chart map does not glue to a class map at %r"
                             % (cls,))
        class_map[cls.class_id] = images.pop()
    morphism = SysFanMorphism(source, target, lattice_map, class_map)
    problems = validate_morphism(morphism)
    if problems:
        raise ValueError("; ".join(map(str, problems)))
    return morphism
