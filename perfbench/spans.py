"""In-memory span tracing of curvedual's layers, installed from outside.

``install(tracer)`` wraps the public functions and methods of each layer
with span recorders: a class method on its class, a module-level
function in every curvedual namespace that binds it (``cli`` and
``fracideal`` import by name).  Scalar operations of ``fields`` (and a
few very hot predicates) are wrapped with counters only; they record no
span, so their time stays in the caller's self time.

Spans live in flat arrays until the pass ends; ``Tracer.layer_metrics``
derives every per-layer number from them and ``Tracer.dump`` writes them
out as gzipped TSV.  A span's self time is its duration minus the
durations of its direct children, accumulated as children close.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from fractions import Fraction
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._name_index = {}
        self.sid = array("q")
        self.parent = array("q")
        self.job = array("l")
        self.name = array("H")
        self.start = array("d")
        self.dur = array("d")
        self.self_dur = array("d")
        self.attr = array("d")
        self.flag = array("b")
        self.counts = {}
        self.q_max_bits = 0
        self.current_job = -1
        self._next = 0
        # open spans: [span id, summed duration of closed children]
        self._stack = [[-1, 0.0]]

    def _index(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def span(self, fn, name, pre=None, post=None):
        """Wrap fn so each call records a span.  pre(args, kwargs) or
        post(args, result) may return the span's (attr, flag) pair."""
        idx = self._index(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = pre(args, kwargs) if pre else (0, 0)
            sid = self._next
            self._next += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if post:
                    mark = post(args, result)
                return result
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stack[-1][1] += dur
                self.sid.append(sid)
                self.parent.append(stack[-1][0])
                self.job.append(self.current_job)
                self.name.append(idx)
                self.start.append(t0)
                self.dur.append(dur)
                self.self_dur.append(dur - frame[1])
                self.attr.append(mark[0])
                self.flag.append(1 if mark[1] else 0)

        return wrapper

    def counter(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def fraction_counter(self, fn, name):
        """Counter for a binary Fraction operator that also tracks the
        largest numerator or denominator bit length it produced."""
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(a, b):
            cell[0] += 1
            r = fn(a, b)
            if type(r) is Fraction:
                bits = max(r.numerator.bit_length(), r.denominator.bit_length())
                if bits > self.q_max_bits:
                    self.q_max_bits = bits
            return r

        return wrapper

    # -- derived numbers ---------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, busy s, self s, attr sum, attr max, flags."""
        agg = {name: [0, 0.0, 0.0, 0.0, 0.0, 0] for name in self.names}
        rows = [agg[name] for name in self.names]
        for idx, dur, own, attr, flag in zip(self.name, self.dur,
                                             self.self_dur, self.attr,
                                             self.flag):
            row = rows[idx]
            row[0] += 1
            row[1] += dur
            row[2] += own
            row[3] += attr
            if attr > row[4]:
                row[4] = attr
            row[5] += flag
        return agg

    def layer_metrics(self):
        agg = self.aggregate()
        out = {}

        def calls(name):
            return agg[name][0] if name in agg else 0

        def busy(name):
            return agg[name][1] if name in agg else 0.0

        def mean_attr(name):
            return agg[name][3] / agg[name][0] if calls(name) else 0.0

        def flag_ratio(name):
            return agg[name][5] / agg[name][0] if calls(name) else 0.0

        for metric, name in SPAN_METRICS:
            kind = metric.rsplit(".", 1)[1]
            out[metric] = calls(name) if kind == "calls" else busy(name)
        out["linalg.reduce.dim_mean"] = mean_attr("linalg.reduce")
        out["linalg.insert.useful_ratio"] = flag_ratio("linalg.insert")
        out["linalg.echelon.peak_dim"] = (agg["linalg.insert"][4]
                                          if calls("linalg.insert") else 0)
        out["curvering.window_final_max"] = (agg["curvering.build"][4]
                                             if calls("curvering.build") else 0)
        out["fracideal.colon.unknowns_mean"] = mean_attr("fracideal.colon")
        out["duality.canonical_module.cache_hit_ratio"] = flag_ratio(
            "duality.canonical_module")
        out["artin.middles_built"] = (int(agg["artin.enumerate_extensions"][3])
                                      if calls("artin.enumerate_extensions")
                                      else 0)
        for metric, name in COUNTER_METRICS:
            out[metric] = self.counts[name][0] if name in self.counts else 0
        out["fields.q_max_bits"] = self.q_max_bits
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for name, row in agg.items():
            out[f"{layer_of(name)}.self_s"] += row[2]
        return out

    def dump(self, path):
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\tjob\tname\tstart\tdur\tself\tattr\tflag\n")
            names = self.names
            for row in zip(self.sid, self.parent, self.job, self.name,
                           self.start, self.dur, self.self_dur, self.attr,
                           self.flag):
                fh.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{names[row[3]]}\t"
                         f"{row[4]:.9f}\t{row[5]:.9f}\t{row[6]:.9f}\t"
                         f"{row[7]:g}\t{row[8]}\n")


LAYERS = ("cli", "linalg", "laurent", "curvering", "fracideal",
          "duality", "artin", "toric2")


def layer_of(span_name):
    layer = span_name.split(".", 1)[0]
    # the ready-made family only builds rings, so it counts as ring closure
    return "curvering" if layer == "family" else layer


def _dim(args, kwargs):
    return len(args[0].rows), 0


def _insert_mark(args, result):
    return len(args[0].rows), result is not None


def _window(args, result):
    return result.window, 0


def _colon_unknowns(args, kwargs):
    receiver = args[0]
    return sum(receiver.tail) - sum(receiver.pole), 0


def _cache_hit(args, kwargs):
    drop = kwargs.get("drop_conditions", args[1] if len(args) > 1 else 0)
    hit = drop == 0 and getattr(args[0], "_canonical_module", None) is not None
    return 0, hit


def _middles(args, result):
    return len(result), 0


# (module, attribute path, span name, pre, post).  Functions outside the
# per-layer metrics are wrapped too, so their time is charged to their
# own layer rather than to the caller's.
SPANS = [
    ("linalg", "Echelon.reduce", "linalg.reduce", _dim, None),
    ("linalg", "Echelon.insert", "linalg.insert", None, _insert_mark),
    ("linalg", "Echelon.coords", "linalg.coords", None, None),
    ("linalg", "TrackedEchelon.insert", "linalg.tracked", None, None),
    ("linalg", "TrackedEchelon.express", "linalg.tracked", None, None),
    ("linalg", "kernel", "linalg.kernel", None, None),
    ("linalg", "intersect_spans", "linalg.intersect_spans", None, None),
    ("linalg", "dense_rank", "linalg.dense_rank", None, None),
    ("laurent", "Element.__mul__", "laurent.mul", None, None),
    ("laurent", "Element.__add__", "laurent.add", None, None),
    ("laurent", "parse_element", "laurent.parse", None, None),
    ("laurent", "format_element", "laurent.format", None, None),
    ("curvering", "build", "curvering.build", None, _window),
    ("curvering", "parse_curve_file", "curvering.parse", None, None),
    ("curvering", "format_curve_file", "curvering.format", None, None),
    ("curvering", "CurveRing.is_gorenstein", "curvering.is_gorenstein",
     None, None),
    ("curvering", "CurveRing.is_seminormal", "curvering.is_seminormal",
     None, None),
    ("family", "family_rings", "family.family_rings", None, None),
    ("family", "semigroup_spec", "family.semigroup_spec", None, None),
    ("family", "named_spec", "family.named_spec", None, None),
    ("fracideal", "FracIdeal.__init__", "fracideal.init", None, None),
    ("fracideal", "FracIdeal.colon", "fracideal.colon", _colon_unknowns, None),
    ("fracideal", "FracIdeal.__mul__", "fracideal.mul", None, None),
    ("fracideal", "FracIdeal.scale", "fracideal.scale", None, None),
    ("fracideal", "FracIdeal.intersect", "fracideal.intersect", None, None),
    ("fracideal", "FracIdeal.len_quotient", "fracideal.len_quotient",
     None, None),
    ("fracideal", "FracIdeal.is_principal", "fracideal.is_principal",
     None, None),
    ("fracideal", "FracIdeal.contains_module", "fracideal.contains_module",
     None, None),
    ("fracideal", "FracIdeal.contains_element", "fracideal.contains_element",
     None, None),
    ("fracideal", "FracIdeal.module_generators",
     "fracideal.module_generators", None, None),
    ("fracideal", "FracIdeal.rows_as_elements", "fracideal.rows_as_elements",
     None, None),
    ("fracideal", "from_generators", "fracideal.from_generators", None, None),
    ("fracideal", "random_ideal", "fracideal.random_ideal", None, None),
    ("fracideal", "random_ring_element", "fracideal.random_ring_element",
     None, None),
    ("fracideal", "herbrand", "fracideal.herbrand", None, None),
    ("fracideal", "slab_module", "fracideal.slab_module", None, None),
    ("fracideal", "normalization_module", "fracideal.normalization_module",
     None, None),
    ("fracideal", "unit_ideal", "fracideal.unit_ideal", None, None),
    ("fracideal", "maximal_ideal", "fracideal.maximal_ideal", None, None),
    ("duality", "canonical_module", "duality.canonical_module",
     _cache_hit, None),
    ("artin", "ext_routes", "artin.ext_routes", None, None),
    ("artin", "verify_claim4", "artin.verify_claim4", None, None),
    ("artin", "witness_cor3", "artin.witness_cor3", None, None),
    ("artin", "ext_lab_instance", "artin.ext_lab_instance", None, None),
    ("artin", "ext", "artin.ext", None, None),
    ("artin", "enumerate_extensions", "artin.enumerate_extensions",
     None, _middles),
    ("artin", "surjection_exists", "artin.surjection_exists", None, None),
    ("artin", "curve_quotient", "artin.curve_quotient", None, None),
    ("artin", "present_quotient", "artin.present_quotient", None, None),
    ("artin", "quotient_module", "artin.quotient_module", None, None),
    ("artin", "hom_space", "artin.hom_space", None, None),
    ("artin", "module_iso", "artin.module_iso", None, None),
    ("artin", "trivial_module", "artin.trivial_module", None, None),
    ("artin", "ArtinModule.__init__", "artin.module_init", None, None),
    ("artin", "ArtinModule.action_matrix", "artin.action_matrix", None, None),
    ("artin", "ArtinAlgebra.__init__", "artin.algebra_init", None, None),
    ("toric2", "AffineSemigroup2.__init__", "toric2.semigroup_init",
     None, None),
    ("toric2", "AffineSemigroup2.contains", "toric2.contains", None, None),
    ("toric2", "MonomialModule2.__init__", "toric2.module_init", None, None),
    ("toric2", "s2_hull", "toric2.s2_hull", None, None),
    ("toric2", "saturation", "toric2.saturation", None, None),
    ("toric2", "canonical_module_toric", "toric2.canonical_module_toric",
     None, None),
    ("toric2", "monomial_iso", "toric2.monomial_iso", None, None),
    ("toric2", "model", "toric2.model", None, None),
    ("cli", "main", "cli.main", None, None),
]

# (module, attribute path, counter name)
COUNTERS = [
    ("fields", "FFElement.__mul__", "fields.ff_mul"),
    ("fields", "FFElement.__add__", "fields.ff_addsub"),
    ("fields", "FFElement.__sub__", "fields.ff_addsub"),
    ("fields", "FFElement.inv", "fields.ff_inv"),
    ("fields", "FFElement.__bool__", "fields.ff_bool"),
    ("fracideal", "FracIdeal.__eq__", "fracideal.eq"),
    ("toric2", "MonomialModule2.hull_contains", "toric2.hull_contains"),
]

FRACTION_COUNTERS = [
    ("__mul__", "fields.q_mul"), ("__rmul__", "fields.q_mul"),
    ("__add__", "fields.q_addsub"), ("__radd__", "fields.q_addsub"),
    ("__sub__", "fields.q_addsub"), ("__rsub__", "fields.q_addsub"),
    ("__truediv__", "fields.q_div"), ("__rtruediv__", "fields.q_div"),
]

# (per-layer metric, span name) read as a call count or busy seconds
SPAN_METRICS = [
    ("linalg.reduce.calls", "linalg.reduce"),
    ("linalg.reduce.s", "linalg.reduce"),
    ("linalg.insert.calls", "linalg.insert"),
    ("linalg.insert.s", "linalg.insert"),
    ("linalg.kernel.calls", "linalg.kernel"),
    ("linalg.kernel.s", "linalg.kernel"),
    ("linalg.intersect_spans.s", "linalg.intersect_spans"),
    ("linalg.tracked.calls", "linalg.tracked"),
    ("linalg.tracked.s", "linalg.tracked"),
    ("laurent.mul.calls", "laurent.mul"),
    ("laurent.mul.s", "laurent.mul"),
    ("laurent.add.calls", "laurent.add"),
    ("laurent.add.s", "laurent.add"),
    ("curvering.build.calls", "curvering.build"),
    ("curvering.build.s", "curvering.build"),
    ("family.family_rings.s", "family.family_rings"),
    ("fracideal.init.calls", "fracideal.init"),
    ("fracideal.init.s", "fracideal.init"),
    ("fracideal.colon.calls", "fracideal.colon"),
    ("fracideal.colon.s", "fracideal.colon"),
    ("fracideal.mul.s", "fracideal.mul"),
    ("fracideal.scale.s", "fracideal.scale"),
    ("fracideal.intersect.s", "fracideal.intersect"),
    ("fracideal.from_generators.s", "fracideal.from_generators"),
    ("fracideal.random_ideal.s", "fracideal.random_ideal"),
    ("fracideal.len_quotient.s", "fracideal.len_quotient"),
    ("fracideal.is_principal.s", "fracideal.is_principal"),
    ("duality.canonical_module.calls", "duality.canonical_module"),
    ("duality.canonical_module.s", "duality.canonical_module"),
    ("artin.ext.s", "artin.ext"),
    ("artin.enumerate_extensions.s", "artin.enumerate_extensions"),
    ("artin.surjection_exists.s", "artin.surjection_exists"),
    ("artin.curve_quotient.s", "artin.curve_quotient"),
    ("artin.present_quotient.s", "artin.present_quotient"),
    ("artin.quotient_module.s", "artin.quotient_module"),
    ("artin.module_init.calls", "artin.module_init"),
    ("artin.module_init.s", "artin.module_init"),
    ("artin.hom_space.calls", "artin.hom_space"),
    ("artin.hom_space.s", "artin.hom_space"),
    ("artin.module_iso.calls", "artin.module_iso"),
    ("artin.module_iso.s", "artin.module_iso"),
    ("toric2.semigroup_init.s", "toric2.semigroup_init"),
    ("toric2.module_init.calls", "toric2.module_init"),
    ("toric2.module_init.s", "toric2.module_init"),
    ("toric2.contains.calls", "toric2.contains"),
    ("toric2.contains.s", "toric2.contains"),
    ("toric2.s2_hull.s", "toric2.s2_hull"),
    ("toric2.saturation.s", "toric2.saturation"),
    ("toric2.canonical_module_toric.s", "toric2.canonical_module_toric"),
]

COUNTER_METRICS = [
    ("fields.ff_mul.calls", "fields.ff_mul"),
    ("fields.ff_addsub.calls", "fields.ff_addsub"),
    ("fields.ff_inv.calls", "fields.ff_inv"),
    ("fields.ff_bool.calls", "fields.ff_bool"),
    ("fields.q_mul.calls", "fields.q_mul"),
    ("fields.q_addsub.calls", "fields.q_addsub"),
    ("fields.q_div.calls", "fields.q_div"),
    ("fracideal.eq.calls", "fracideal.eq"),
    ("toric2.hull_contains.calls", "toric2.hull_contains"),
]


def _rebind(original, wrapper):
    """Point every curvedual namespace that binds original at wrapper."""
    for modname, module in list(sys.modules.items()):
        if modname == "curvedual" or modname.startswith("curvedual."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _wrap(tracer, modname, path, make):
    module = sys.modules[f"curvedual.{modname}"]
    if "." in path:
        clsname, meth = path.split(".")
        cls = getattr(module, clsname)
        setattr(cls, meth, make(cls.__dict__[meth]))
    else:
        original = getattr(module, path)
        _rebind(original, make(original))


def install(tracer):
    """Wrap curvedual's layers; curvedual.cli must already be imported."""
    for modname, path, name, pre, post in SPANS:
        _wrap(tracer, modname, path,
              lambda fn, name=name, pre=pre, post=post:
              tracer.span(fn, name, pre, post))
    for modname, path, name in COUNTERS:
        _wrap(tracer, modname, path,
              lambda fn, name=name: tracer.counter(fn, name))
    for attr, name in FRACTION_COUNTERS:
        setattr(Fraction, attr,
                tracer.fraction_counter(Fraction.__dict__[attr], name))
