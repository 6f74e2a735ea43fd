"""Layer spans and counters, recorded by wrapping the package's public functions.

`Tracer.install` replaces each public function of a layer (a module of the
package), a few public methods that carry the counted work, and every other
name those functions are bound to (re-imports such as `filtration.ideal_image`)
by a wrapper.  A call that enters a layer from another layer, or from the
benchmark, opens a span (name, start, end, parent, op); a call inside its own
layer is only counted.  Spans stay in memory and are written when the run
ends.  A layer's self time is the time of its spans minus their child spans.

Hot helpers (`Monomial` methods, `MonomialIdeal.contains_monomial`, the
generator `compositions`) are not wrapped: a span per call would cost more than
the work.  Their time counts toward the layer that calls them.
"""

from __future__ import annotations

import functools
import inspect
import json
from math import prod
from time import perf_counter

LAYERS = ("monomials", "hilbert", "cohomology", "truncation", "filtration",
          "semigroup", "bounds", "cli")

# Which end-to-end metric a faster layer should move, on which workload, and
# which workload should show no change (it bypasses the layer).
LAYER_TABLE = {
    "cohomology": ("ops_per_s, op_p90_ms", "cohomology-wide", "verify-3var"),
    "truncation": ("op_p90_ms, ops_per_s", "verify-3var, some cli-mix", "cohomology-wide"),
    "monomials": ("op_p50_ms, ops_per_s", "cli-mix", "little on cohomology-wide"),
    "hilbert": ("op_p50_ms", "cli-mix", ""),
    "filtration": ("ops_per_s, peak_rss_mb", "cli-mix, verify-3var", ""),
    "semigroup": ("op_p50_ms", "cli-mix only", ""),
    "bounds": ("op_p50_ms", "cli-mix", ""),
    "cli": ("op_p50_ms", "cli-mix", ""),
    "trace": ("none", "all", ""),
}

# Public methods to wrap, per layer and class.
METHODS = {
    "monomials": {"MonomialIdeal": ("__add__", "__mul__", "power", "intersection", "colon",
                                    "colon_monomial", "saturation", "quotient_length",
                                    "graded_length", "smallest_contained_m_power")},
    "cohomology": {"CohomologyTable": ("__init__", "h")},
    "truncation": {"TruncatedAlgebra": ("__init__",), "Echelon": ("add", "reduce")},
    "filtration": {"PowerCache": ("power", "colength")},
}

# Calls counted under a metric name, whether they cross a layer or not.
COUNTED_CALLS = {
    "monomials.MonomialIdeal.__mul__": "monomials.products",
    "monomials.MonomialIdeal.colon": "monomials.colons",
    "monomials.MonomialIdeal.intersection": "monomials.intersections",
    "monomials.MonomialIdeal.quotient_length": "monomials.quotient_lengths",
    "monomials.MonomialIdeal.graded_length": "monomials.graded_lengths",
    "hilbert.hilbert_series": "hilbert.series",
    "hilbert.reconstruct_series": "hilbert.reconstructions",
    "cohomology.integer_rank": "cohomology.rank_calls",
    "cohomology.CohomologyTable.h": "cohomology.h_evals",
    "truncation.ideal_image": "truncation.images",
    "filtration.PowerCache.power": "filtration.power_calls",
    "filtration.ratliff_rush": "filtration.rr_closures",
    "semigroup.ideal_product_sg": "semigroup.sumsets",
    "semigroup.rr_sg": "semigroup.rr_closures",
}


def _after_minimalize(t, args, result):
    t.counts["monomials.minimalize_in"] += len(args[0])
    t.counts["monomials.minimalize_out"] += len(result)


def _after_table(t, args, result):
    table = args[0]
    t.counts["cohomology.tables_built"] += 1
    t.counts["cohomology.classes_enumerated"] += prod(r + 1 for r in table.rho)
    t.counts["cohomology.classes_nonzero"] += len(table.classes)


def _after_algebra(t, args, result):
    t.counts["truncation.max_columns"] = max(
        t.counts["truncation.max_columns"], len(args[0].monomials))


def _after_add(t, args, result):
    t.counts["truncation.rows_added" if result else "truncation.rows_rejected"] += 1


def _after_reduce(t, args, result):
    if result:
        bits = max(abs(v) for v in result.values()).bit_length()
        if bits > t.counts["truncation.max_coeff_bits"]:
            t.counts["truncation.max_coeff_bits"] = bits


# Hooks (tracer, args, result) run after every call of the named function.
AFTER = {
    "monomials.minimalize": _after_minimalize,
    "cohomology.CohomologyTable.__init__": _after_table,
    "truncation.TruncatedAlgebra.__init__": _after_algebra,
    "truncation.Echelon.add": _after_add,
    "truncation.Echelon.reduce": _after_reduce,
}

PER_LAYER_COUNTS = (
    "cohomology.tables_built", "cohomology.classes_enumerated", "cohomology.classes_nonzero",
    "cohomology.rank_calls", "cohomology.h_evals",
    "truncation.images", "truncation.rows_added", "truncation.rows_rejected",
    "truncation.max_coeff_bits", "truncation.max_columns",
    "monomials.products", "monomials.colons", "monomials.intersections",
    "monomials.minimalize_in", "monomials.minimalize_out", "monomials.quotient_lengths",
    "monomials.graded_lengths",
    "hilbert.series", "hilbert.reconstructions",
    "filtration.power_calls", "filtration.rr_closures",
    "filtration.reduction_retries",
    "semigroup.sumsets", "semigroup.rr_closures",
    "cli.output_bytes",
)


UNITS = {"truncation.max_coeff_bits": "bits", "cli.output_bytes": "bytes"}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []  # (name, start, end, parent index, op)
        self.stack: list[list] = []  # [span index, layer, start, child time, parent]
        self.op = -1
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(PER_LAYER_COUNTS + ("filtration.power_hits",), 0)
        self.power_cache_size = 0
        self._patches: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, layer: str, name: str, fn):
        count = COUNTED_CALLS.get(name)
        after = AFTER.get(name)
        counts = self.counts
        stack = self.stack
        spans = self.spans
        tracer = self
        materialize = name == "monomials.minimalize"
        power_hit = name == "filtration.PowerCache.power"
        retry = name == "filtration.reduction_number_wrt"
        not_a_reduction = self.package.errors.NotAReduction

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialize:
                args = (list(args[0]), *args[1:])
            if power_hit and args[1] < len(args[0]._powers):
                counts["filtration.power_hits"] += 1
            frame = None
            if not stack or stack[-1][1] != layer:
                tracer.calls[layer] += 1
                frame = [len(spans), layer, 0.0, 0.0, stack[-1][0] if stack else -1]
                spans.append(None)
                stack.append(frame)
                frame[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except not_a_reduction:
                if retry:
                    counts["filtration.reduction_retries"] += 1
                raise
            finally:
                if frame is not None:
                    end = perf_counter()
                    stack.pop()
                    duration = end - frame[2]
                    tracer.self_s[layer] += duration - frame[3]
                    if stack:
                        stack[-1][3] += duration
                    spans[frame[0]] = (name, frame[2], end, frame[4], tracer.op)
            if count:
                counts[count] += 1
            if after:
                after(tracer, args, result)
            return result

        return wrapper

    def _targets(self):
        """(layer, qualified name, owner, attribute, function) to wrap."""
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                cached = hasattr(obj, "cache_clear")
                if not (inspect.isfunction(obj) or cached):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                yield layer, f"{layer}.{attr}", module, attr, obj
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for attr in methods:
                    yield layer, f"{layer}.{cls_name}.{attr}", cls, attr, vars(cls)[attr]

    def install(self) -> None:
        wrapped = {}
        for layer, name, owner, attr, fn in self._targets():
            wrapper = self._wrapper(layer, name, fn)
            wrapped[id(fn)] = (fn, wrapper)
            self._patch(owner, attr, wrapper)
        # Every other binding of a wrapped function: re-imports between modules
        # and the package's own namespace.
        modules = [self.package.module] + [getattr(self.package, layer) for layer in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(module, attr, entry[1])

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        for name in PER_LAYER_COUNTS:
            out[name] = (c[name], UNITS.get(name, "count"))
        out["cohomology.class_yield"] = (
            _ratio(c["cohomology.classes_nonzero"], c["cohomology.classes_enumerated"]), "ratio")
        rows = c["truncation.rows_added"] + c["truncation.rows_rejected"]
        out["truncation.row_yield"] = (_ratio(c["truncation.rows_added"], rows), "ratio")
        out["filtration.power_hit_ratio"] = (
            _ratio(c["filtration.power_hits"], c["filtration.power_calls"]), "ratio")
        out["filtration.power_cache_size"] = (self.power_cache_size, "count")
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
