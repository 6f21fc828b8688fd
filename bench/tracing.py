"""Outside-in layer trace of quotcount, taken from the benchmark's own process.

`Tracer.install` replaces each module's public callables, under every name
a quotcount module looks them up by, with a wrapper that opens a span on
entry and closes it on exit.  A span has a layer name, a start, an end and
a parent (the span open when it started).  Spans are folded into per-layer
totals as they close instead of being kept: a traced pass makes millions of
`Cyc` operations.  A layer's self time is its spans' duration minus the
part their child spans cover.  Wrapper bookkeeping falls into the parent's
self time; `trace.overhead` reports its size.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

# layer -> (module, public callable) pairs it is made of.
LAYER_FUNCTIONS = {
    "cli": [("cli", name) for name in ("main", "run_batch", "run", "parse_insertions")],
    "twist": [("twist", name) for name in (
        "hypersurface_integral", "complete_intersection_integral",
        "hypersurface_integral_via_phi_expansion", "hypersurface_both_paths",
        "reduce_b_classes", "closed_form_projective", "closed_form_lg24",
        "tevelev_compare", "enumerativity_advisor")],
    "vi_engine": [("vi_engine", name) for name in (
        "vi_integral", "vi_integral_orbit_reduced", "duality_check", "j_factor")],
    "pool": [("vi_engine", "vi_integral_parallel")],
    "symfunc": [("symfunc", name) for name in (
        "elementary_prefix", "homogeneous_prefix", "elementary", "complete_homogeneous",
        "weighted_degree")],
    "qh_oracle": [("qh_oracle", name) for name in (
        "fixed_domain_count_g0", "pieri_multiply", "pieri_multiply_segre")],
    "cyclotomic.reduce": [("cyclotomic", "extract_rational"), ("cyclotomic", "field_equal")],
    "cyclotomic.inv": [("cyclotomic", "inv_one_minus_root")],
}
# layer -> Cyc methods it is made of (add covers add, sub and neg).
LAYER_METHODS = {
    "cyclotomic.mul": ("__mul__", "__rmul__"),
    "cyclotomic.add": ("__add__", "__sub__", "__neg__"),
}
ENGINE_ENTRY = ("vi_integral", "vi_integral_orbit_reduced")


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    outer_s: float = 0.0  # duration of the spans not nested in one of the same layer
    depth: int = 0
    self_by_parent: dict = field(default_factory=dict)


def _modules():
    import quotcount

    return [quotcount] + [importlib.import_module(f"quotcount.{name}") for name in (
        "cli", "twist", "vi_engine", "symfunc", "qh_oracle", "cyclotomic")]


def clear_caches() -> None:
    """Empty quotcount's memo tables, so a pass starts as a fresh process does.

    Call it while no tracer is installed: wrappers hide the tables.
    """
    for module in _modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _nonzero(x) -> int:
    return sum(1 for c in x._num if c)


class Tracer:
    """Per-layer call counts, self times and operation counts of one traced pass."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.subsets = 0
        self.coeff_products = 0
        self.rational_muls = 0
        self.total_bits = 0
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- hooks: counts taken from call arguments, outside the span ------------

    def _on_engine(self, args) -> None:
        self.subsets += args[0].subset_count

    def _on_mul(self, args) -> None:
        a, b = args
        if hasattr(b, "_num"):
            self.coeff_products += _nonzero(a) * _nonzero(b)
            self.rational_muls += a._den != 1 or b._den != 1
        else:
            self.coeff_products += _nonzero(a)
            self.rational_muls += a._den != 1 or getattr(b, "denominator", 1) != 1

    def _on_reduce(self, args) -> None:
        x = args[0]
        bits = max([abs(c).bit_length() for c in x._num] + [x._den.bit_length()])
        self.total_bits = max(self.total_bits, bits)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, layer: str, fn, hook=None):
        agg = self.layers.setdefault(layer, Layer())
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args)
            frame = [layer, 0.0]
            stack.append(frame)
            agg.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                agg.depth -= 1
                agg.calls += 1
                own = duration - frame[1]
                agg.self_s += own
                if not agg.depth:
                    agg.outer_s += duration
                key = None
                if stack:
                    stack[-1][1] += duration
                    key = stack[-1][0]
                agg.self_by_parent[key] = agg.self_by_parent.get(key, 0.0) + own

        return traced

    def install(self, layers=None) -> None:
        """Wrap the named layers (all by default) until `uninstall`."""
        from quotcount.cyclotomic import Cyc

        modules = _modules()
        for layer, targets in LAYER_FUNCTIONS.items():
            if layers is not None and layer not in layers:
                continue
            for module_name, name in targets:
                original = getattr(importlib.import_module(f"quotcount.{module_name}"), name, None)
                if original is None:
                    continue
                hook = None
                if name in ENGINE_ENTRY:
                    hook = self._on_engine
                elif name == "extract_rational":
                    hook = self._on_reduce
                wrapper = self._wrap(layer, original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, value))
                            setattr(module, attr, wrapper)
        for layer, methods in LAYER_METHODS.items():
            if layers is not None and layer not in layers:
                continue
            for name in methods:
                original = Cyc.__dict__[name]
                hook = self._on_mul if layer == "cyclotomic.mul" else None
                self._undo.append((Cyc, name, original))
                setattr(Cyc, name, self._wrap(layer, original, hook))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def layer(self, name: str) -> Layer:
        return self.layers.get(name, Layer())


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by BENCHMARK.json name."""
    out: dict[str, float] = {}
    for name in ("cli", "twist", "vi_engine", "symfunc", "cyclotomic.mul", "cyclotomic.add",
                 "cyclotomic.reduce", "cyclotomic.inv", "qh_oracle"):
        layer = tracer.layer(name)
        out[f"{name}.calls"] = layer.calls
        out[f"{name}.self_s"] = layer.self_s
    engine = tracer.layer("vi_engine")
    mul = tracer.layer("cyclotomic.mul")
    out["vi_engine.subsets"] = tracer.subsets
    out["vi_engine.us_per_subset"] = 1e6 * engine.outer_s / max(tracer.subsets, 1)
    out["cyclotomic.mul.coeff_products"] = tracer.coeff_products
    out["cyclotomic.mul.in_vi_engine_s"] = mul.self_by_parent.get("vi_engine", 0.0)
    out["cyclotomic.mul.in_symfunc_s"] = mul.self_by_parent.get("symfunc", 0.0)
    out["cyclotomic.mul.rational_share"] = tracer.rational_muls / max(mul.calls, 1)
    out["cyclotomic.total_bits"] = tracer.total_bits
    out["trace.overhead"] = traced_s / untraced_s
    out["trace.unattributed_s"] = traced_s - sum(layer.self_s for layer in tracer.layers.values())
    return out


COUNT_METRICS = (
    "cli.calls", "twist.calls", "vi_engine.calls", "symfunc.calls", "cyclotomic.mul.calls",
    "cyclotomic.add.calls", "cyclotomic.reduce.calls", "cyclotomic.inv.calls",
    "qh_oracle.calls", "pool.calls", "vi_engine.subsets", "cyclotomic.mul.coeff_products",
    "cyclotomic.total_bits",
)
