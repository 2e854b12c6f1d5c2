"""Span and counter tracing of prevtrop's public functions, from outside.

The tracer replaces public functions and methods of the library modules
with wrappers for the duration of a traced pass and puts the originals back
afterwards; no file under ``src/`` is touched.  A module-level function is
replaced under every name it is bound to in any ``prevtrop`` module, so
calls made through ``from .cone import hilbert_basis`` style imports are
seen as well.

Every wrapped call records a span ``(name, start, end, parent, job)`` in
memory; ``ValuedScalar.__mul__`` is far too hot for that and only counts.
A layer's self time is the total duration of its spans minus the time
covered by their direct child spans.
"""

import sys
import time
from collections import Counter

# (module, attribute path, span name); the span name's prefix is the layer
SPANNED = [
    ("exactla", "rational_rank", "exactla.rational_rank"),
    ("exactla", "kernel_lattice", "exactla.kernel_lattice"),
    ("exactla", "hermite_normal_form", "exactla.hermite_normal_form"),
    ("exactla", "smith_normal_form", "exactla.smith_normal_form"),
    ("exactla", "solve_rational", "exactla.solve_rational"),
    ("exactla", "invert_unimodular", "exactla.invert_unimodular"),
    ("exactla", "cokernel_is_finite", "exactla.cokernel_is_finite"),
    ("cone", "Cone.from_rays", "cone.from_rays"),
    ("cone", "Cone.from_inequalities", "cone.from_inequalities"),
    ("cone", "Cone.faces", "cone.faces"),
    ("cone", "Cone.intersect", "cone.intersect"),
    ("cone", "Cone.contains", "cone.contains"),
    ("cone", "lattice_quotient", "cone.lattice_quotient"),
    ("cone", "hilbert_basis", "cone.hilbert_basis"),
    ("cone", "AffineSemigroup.relations", "cone.relations"),
    ("cone", "AffineSemigroup.decompose", "cone.decompose"),
    ("sysfan", "Fan.__init__", "sysfan.fan_init"),
    ("sysfan", "Fan.validate", "sysfan.fan_validate"),
    ("sysfan", "OmegaPoset.__init__", "sysfan.omega"),
    ("sysfan", "validate_system", "sysfan.validate_system"),
    ("sysfan", "is_separated", "sysfan.is_separated"),
    ("sysfan", "support_is_full", "sysfan.support_is_full"),
    ("sysfan", "product", "sysfan.product"),
    ("sysfan", "system_from_data", "sysfan.system_from_data"),
    ("sysfan", "system_to_data", "sysfan.system_to_data"),
    ("multiproj", "proj_system_of_fans", "multiproj.proj_system_of_fans"),
    ("multiproj", "ChartPoset.__init__", "multiproj.chart_poset"),
    ("multiproj", "is_relevant_subset", "multiproj.is_relevant_subset"),
    ("troppre", "point_from_chart_values", "troppre.point_from_chart_values"),
    ("troppre", "nonneg_point_from_chart_values",
     "troppre.nonneg_point_from_chart_values"),
    ("troppre", "nonneg_point", "troppre.nonneg_point"),
    ("troppre", "trop_eval", "troppre.trop_eval"),
    ("troppre", "compare_to_trop", "troppre.compare_to_trop"),
    ("troppre", "strata", "troppre.strata"),
    ("troppre", "nonneg_strata", "troppre.nonneg_strata"),
    ("troppre", "chart_polynomial", "troppre.chart_polynomial"),
    ("troppre", "trop_point", "troppre.trop_point"),
    ("tropembed", "coordinate_point", "tropembed.coordinate_point"),
    ("tropembed", "classical_point", "tropembed.classical_point"),
    ("tropembed", "trop_point", "tropembed.trop_point"),
    ("tropembed", "nonneg_trop_point", "tropembed.nonneg_trop_point"),
    ("tropembed", "kapranov_membership", "tropembed.kapranov_membership"),
    ("tropembed", "hypersurface", "tropembed.hypersurface"),
    ("tropembed", "restrict_to_chart", "tropembed.restrict_to_chart"),
    ("tropembed", "evaluate_polynomial", "tropembed.evaluate_polynomial"),
    ("tropembed", "refine_embedding", "tropembed.refine_embedding"),
    ("tropembed", "refined_classical", "tropembed.refined_classical"),
    ("tropembed", "refined_trop", "tropembed.refined_trop"),
    ("tropembed", "forget_refinement", "tropembed.forget_refinement"),
    ("tropembed", "separation_witness", "tropembed.separation_witness"),
    ("tropembed", "ClassicalChartPoint.eval", "tropembed.chart_point_eval"),
    ("cli", "main", "cli.main"),
]

LIBRARY_LAYERS = ("exactla", "cone", "sysfan", "multiproj", "troppre",
                  "tropembed")


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job]
        self.calls = Counter()
        self.active = Counter()  # name -> depth of open spans with that name
        self.stack = []
        self.job = None
        self.cone_keys = set()   # distinct (ambient_rank, rays) built
        self.hilbert_sizes = {}  # (ambient_rank, rays) -> generator count
        self.omega_classes = 0
        self.charts = 0
        self.relevant_subsets = 0
        self.value_coeffs = 0
        self.separated_intersects = 0
        self._restore = []

    # -- installation ---------------------------------------------------

    def install(self):
        modules = {name: sys.modules["prevtrop." + name]
                   for name in {m for m, _, _ in SPANNED}}
        for mod_name, path, span_name in SPANNED:
            owner, attr = _resolve(modules[mod_name], path)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(span_name, raw.__func__))
                self._set(owner, attr, wrapped)
            elif isinstance(owner, type):
                self._set(owner, attr, self._span(span_name, raw))
            else:
                wrapped = self._span(span_name, raw)
                for mod in _package_modules():
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._set(mod, key, wrapped)
        # count only: far too hot for spans
        scalar = modules["tropembed"].ValuedScalar
        counted = self._count("tropembed.scalar_mul", scalar.__dict__["__mul__"])
        for attr in ("__mul__", "__rmul__"):
            self._set(scalar, attr, counted)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn):
        spans = self.spans
        stack = self.stack
        calls = self.calls
        active = self.active
        clock = time.perf_counter
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            spans.append(record)
            stack.append(index)
            active[name] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                active[name] -= 1
                stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- reduction ------------------------------------------------------

    def self_times(self):
        """Per-layer self time in seconds and per-name total duration."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self = Counter()
        by_name = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            layer_self[name.split(".", 1)[0]] += end - start - child[k]
            by_name[name] += end - start
        return layer_self, by_name


def _after_from_rays(tracer, args, result):
    tracer.cone_keys.add((result.ambient_rank, result.rays))


def _after_intersect(tracer, args, result):
    if tracer.active["sysfan.is_separated"]:
        tracer.separated_intersects += 1


def _after_hilbert(tracer, args, result):
    cone = args[0]
    tracer.hilbert_sizes[(cone.ambient_rank, cone.rays)] = len(result.generators)


def _after_omega(tracer, args, result):
    tracer.omega_classes += len(args[0].classes)


def _after_proj(tracer, args, result):
    tracer.charts += len(result.system.labels)
    tracer.relevant_subsets += len(result.poset.subsets)


def _after_classical(tracer, args, result):
    tracer.value_coeffs += sum(len(v.num) + len(v.den)
                               for v in result.values.values())


_AFTER = {
    "cone.from_rays": _after_from_rays,
    "cone.from_inequalities": _after_from_rays,
    "cone.intersect": _after_intersect,
    "cone.hilbert_basis": _after_hilbert,
    "sysfan.omega": _after_omega,
    "multiproj.proj_system_of_fans": _after_proj,
    "tropembed.classical_point": _after_classical,
}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "prevtrop"
                                    or name.startswith("prevtrop."))]


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, keyed by metric name."""
    layer_self, by_name = tracer.self_times()
    calls = tracer.calls
    built = calls["cone.from_rays"] + calls["cone.from_inequalities"]
    out = {}
    for layer in LIBRARY_LAYERS:
        out[layer + ".self_s"] = (layer_self[layer], "s")
    for name in ("rational_rank", "kernel_lattice", "hermite_normal_form",
                 "smith_normal_form", "solve_rational", "invert_unimodular"):
        out["exactla.%s.calls" % name] = (calls["exactla." + name], "count")
    out.update({
        "cone.from_rays.calls": (calls["cone.from_rays"], "count"),
        "cone.from_inequalities.calls":
            (calls["cone.from_inequalities"], "count"),
        "cone.distinct_ratio":
            (len(tracer.cone_keys) / built if built else 0.0, "ratio"),
        "cone.faces.calls": (calls["cone.faces"], "count"),
        "cone.faces.s": (by_name["cone.faces"], "s"),
        "cone.intersect.calls": (calls["cone.intersect"], "count"),
        "cone.contains.calls": (calls["cone.contains"], "count"),
        "cone.hilbert_basis.calls": (calls["cone.hilbert_basis"], "count"),
        "cone.hilbert_basis.s": (by_name["cone.hilbert_basis"], "s"),
        "cone.hilbert_basis.generators":
            (sum(tracer.hilbert_sizes.values()), "count"),
        "cone.decompose.calls": (calls["cone.decompose"], "count"),
        "cone.decompose.s": (by_name["cone.decompose"], "s"),
        "sysfan.omega.s": (by_name["sysfan.omega"], "s"),
        "sysfan.omega.classes": (tracer.omega_classes, "count"),
        "sysfan.validate_system.s": (by_name["sysfan.validate_system"], "s"),
        "sysfan.fan_validate.calls": (calls["sysfan.fan_validate"], "count"),
        "sysfan.fan_init.calls": (calls["sysfan.fan_init"], "count"),
        "sysfan.is_separated.s": (by_name["sysfan.is_separated"], "s"),
        "sysfan.is_separated.intersects":
            (tracer.separated_intersects, "count"),
        "sysfan.support_is_full.s": (by_name["sysfan.support_is_full"], "s"),
        "sysfan.product.s": (by_name["sysfan.product"], "s"),
        "multiproj.proj_system_of_fans.s":
            (by_name["multiproj.proj_system_of_fans"], "s"),
        "multiproj.relevance_tests":
            (calls["multiproj.is_relevant_subset"], "count"),
        "multiproj.charts": (tracer.charts, "count"),
        "multiproj.relevant_subsets": (tracer.relevant_subsets, "count"),
    })
    for name in ("point_from_chart_values", "nonneg_point"):
        out["troppre.%s.calls" % name] = (calls["troppre." + name], "count")
        out["troppre.%s.s" % name] = (by_name["troppre." + name], "s")
    out["troppre.trop_eval.calls"] = (calls["troppre.trop_eval"], "count")
    out["troppre.compare_to_trop.calls"] = (calls["troppre.compare_to_trop"],
                                            "count")
    for name in ("coordinate_point", "classical_point", "trop_point",
                 "kapranov_membership", "refine_embedding",
                 "refined_classical", "forget_refinement"):
        out["tropembed.%s.s" % name] = (by_name["tropembed." + name], "s")
    out["tropembed.scalar_mul.calls"] = (calls["tropembed.scalar_mul"],
                                         "count")
    out["tropembed.value_coeffs"] = (tracer.value_coeffs, "count")
    return out
