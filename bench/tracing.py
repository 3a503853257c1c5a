"""Runtime spans around the public functions and methods of evenlat.

Only the traced run installs them; ``src/`` is never edited. Each span keeps
its name, start, end, parent span and job id, in memory until the run ends.
A function imported by name into another module (``det`` into ``ogroup``,
``overlattice_from_glue`` into ``cli``, ...) is re-pointed in every evenlat
namespace, so internal calls are counted too.
"""

from __future__ import annotations

import inspect
import statistics
from fractions import Fraction
from time import perf_counter_ns

LAYERS = ("matrices", "quadmod", "lattices", "roots", "ogroup", "cosets", "cli")

# Called once per group element or matrix entry: a span each would cost more
# than the work, so their time stays in the caller's self time.
LEAF_HELPERS = {
    "matrices": {"row", "col", "submatrix", "to_int", "identity", "zeros",
                 "diagonal", "dot", "vec_gcd", "denominator_lcm"},
    "quadmod": {"elements", "add", "neg", "scale", "element_order", "lift",
                "q_value", "bilinear"},
    "lattices": {"inner", "norm"},
    "ogroup": {"quad", "mid_quad_half"},
    # argument parsing is what cli.main's self time is meant to show
    "cli": {"build_parser"},
}

# constructors and operators worth a span of their own
DUNDERS = {
    ("matrices", "Matrix"): {"__matmul__", "__pow__"},
    ("lattices", "EvenLattice"): {"__init__"},
    ("ogroup", "GroupElement"): {"__init__", "__matmul__"},
    ("ogroup", "ExtendedForm"): {"__init__"},
    ("cosets", "ScaledOrthogonal"): {"__init__"},
}

# per-layer metric -> span it is read from
SPANS = {
    "ogroup.classify": "ogroup.ExtendedForm.classify_witness",
    "ogroup.GroupElement.new": "ogroup.GroupElement.__init__",
    "matrices.matmul": "matrices.Matrix.__matmul__",
    "ogroup.orthogonal_inverse": "ogroup.ExtendedForm.orthogonal_inverse",
    "ogroup.complete_isotropic": "ogroup.ExtendedForm.complete_isotropic",
    "ogroup.element_from_word": "ogroup.ExtendedForm.element_from_word",
    "matrices.det": "matrices.det",
    "matrices.inverse": "matrices.inverse",
    "matrices.smith_normal_form": "matrices.smith_normal_form",
    "lattices.discriminant_group": "lattices.EvenLattice.discriminant_group",
    "quadmod.is_anisotropic": "quadmod.FiniteQuadraticModule.is_anisotropic",
    "quadmod.maximal_isotropic_subgroups":
        "quadmod.FiniteQuadraticModule.maximal_isotropic_subgroups",
    "lattices.overlattice_from_glue": "lattices.overlattice_from_glue",
    "roots.root_lattice": "roots.root_lattice",
    "cosets.make_scaled": "cosets.make_scaled",
    "cosets.reduce_right_coset": "cosets.reduce_right_coset",
    "cosets.reduce_double_coset": "cosets.reduce_double_coset",
    "cosets.normalizer_certificate": "cosets.normalizer_certificate",
    "cli.main": "cli.main",
}

# (metric, unit): calls and self time of a span, or a counter below
LAYER_METRICS = [
    ("ogroup.classify.calls", "count"),
    ("ogroup.classify.self_s", "s"),
    ("ogroup.GroupElement.new.calls", "count"),
    ("matrices.matmul.calls", "count"),
    ("matrices.matmul.self_s", "s"),
    ("matrices.matmul.rational_share", "ratio"),
    ("ogroup.orthogonal_inverse.self_s", "s"),
    ("ogroup.complete_isotropic.self_s", "s"),
    ("ogroup.complete_isotropic.word_len", "tokens"),
    ("ogroup.element_from_word.self_s", "s"),
    ("matrices.det.self_s", "s"),
    ("matrices.inverse.calls", "count"),
    ("matrices.inverse.self_s", "s"),
    ("matrices.smith_normal_form.self_s", "s"),
    ("lattices.discriminant_group.self_s", "s"),
    ("quadmod.is_anisotropic.self_s", "s"),
    ("quadmod.maximal_isotropic_subgroups.self_s", "s"),
    ("quadmod.glue_groups.count", "count"),
    ("quadmod.cap_exceeded.count", "count"),
    ("lattices.overlattice_from_glue.calls", "count"),
    ("lattices.overlattice_from_glue.self_s", "s"),
    ("roots.root_lattice.self_s", "s"),
    ("cosets.make_scaled.self_s", "s"),
    ("cosets.reduce_right_coset.self_s", "s"),
    ("cosets.reduce_double_coset.self_s", "s"),
    ("cosets.normalizer_certificate.self_s", "s"),
    ("cli.main.self_s", "s"),
]


def _has_fraction(x):
    rows = x.rows if hasattr(x, "rows") else (x,)
    return any(type(v) is Fraction for row in rows for v in row)


class Tracer:
    """Spans as tuples (name, start_ns, end_ns, parent, job, self_ns)."""

    def __init__(self, cap_error):
        self.spans = []
        self.stack = []  # [span index, nanoseconds spent in children]
        self.job = -1
        self.cap_error = cap_error
        self.caps = 0
        self.glue_groups = 0
        self.words = []
        self.rational_products = 0

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                # a refusal crosses several spans; count each exception once
                if isinstance(exc, self.cap_error) and not hasattr(exc, "traced"):
                    exc.traced = True
                    self.caps += 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans[idx] = (name, t0, t1, parent, self.job, t1 - t0 - frame[1])
            if after is not None:
                # bookkeeping outside the span; keep it out of the parent too
                h0 = perf_counter_ns()
                after(args, out)
                if stack:
                    stack[-1][1] += perf_counter_ns() - h0
            return out

        return traced

    def _after(self, name):
        if name == SPANS["matrices.matmul"]:
            def after(args, out):
                if _has_fraction(args[0]) or _has_fraction(args[1]):
                    self.rational_products += 1
            return after
        if name == SPANS["quadmod.maximal_isotropic_subgroups"]:
            def after(args, out):
                self.glue_groups += len(out)
            return after
        if name == SPANS["ogroup.complete_isotropic"]:
            def after(args, out):
                self.words.append(len(out.word))
            return after
        return None

    def install(self, ev):
        """Wrap every public function and method of the layer modules."""
        replaced = {}
        for layer in LAYERS:
            mod = getattr(ev, layer)
            skip = LEAF_HELPERS.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and attr not in skip:
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self.wrap(name, obj, self._after(name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj, skip)
        for mod in (ev.package, *(getattr(ev, layer) for layer in LAYERS)):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def _install_class(self, layer, cls, skip):
        extra = DUNDERS.get((layer, cls.__name__), set())
        for attr, raw in list(vars(cls).items()):
            if attr in skip or (attr.startswith("_") and attr not in extra):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self.wrap(name, raw, self._after(name))
            else:
                continue  # properties, enum members, class attributes
            setattr(cls, attr, wrapped)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self):
        calls, self_ns = {}, {}
        for name, _, _, _, _, own in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own
        out = {}
        for metric, unit in LAYER_METRICS:
            base, stat = metric.rsplit(".", 1)
            span = SPANS.get(base)
            if stat == "calls":
                value = calls.get(span, 0)
            elif stat == "self_s":
                value = self_ns.get(span, 0) / 1e9
            elif metric == "matrices.matmul.rational_share":
                n = calls.get(span, 0)
                value = self.rational_products / n if n else 0.0
            elif metric == "ogroup.complete_isotropic.word_len":
                value = statistics.fmean(self.words) if self.words else 0.0
            elif metric == "quadmod.glue_groups.count":
                value = self.glue_groups
            elif metric == "quadmod.cap_exceeded.count":
                value = self.caps
            out[metric] = {"value": value, "unit": unit}
        return out
