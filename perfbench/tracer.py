"""Per-module tracing from outside the library.

`Tracer.install()` replaces every public function bound in an hlvertex
module namespace (the package itself included) by a wrapper, one wrapper
per function however many namespaces bind it, and wraps the arithmetic
methods of QPoly and QRat.  `uninstall()` puts every original back.

Every wrapped call updates a per-function counter of calls, inclusive
seconds and self seconds.  A call that enters another module from the
one its caller belongs to is also recorded as a span (id, parent id, op
id, name, start, end), except in the hot layers: coefficient arithmetic,
weight helpers and the Littlewood-Richardson lookups run about a million
times a run, so they keep counters only.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import importlib
import sys
import time
import types

MODULES = ("coeffs", "weights", "symfunc", "vertexop", "kostka", "rewrite", "cli")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__neg__", "__truediv__", "__rtruediv__", "__pow__")
LR_LOOKUPS = ("symfunc.schur_product_expansion", "symfunc.skew_schur_expansion",
              "symfunc.lr_coefficient")
HOT_LAYERS = ("coeffs", "weights")
REWRITE_DRIVERS = ("rewrite.rewrite_dominant", "rewrite.shift_support",
                   "rewrite.swap_factors")

# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload it should move).  BENCHMARK.json lists the same names.
LAYER_METRICS = {
    "coeffs.qrat_ops": ("calls/op", "lower", "ops_per_s_at_ref on certify and rewrite; about nothing on kostka"),
    "coeffs.qpoly_ops": ("calls/op", "lower", "ops_per_s_at_ref on certify and rewrite; about nothing on kostka"),
    "coeffs.self_s": ("s/op", "lower", "ops_per_s_at_ref on certify and rewrite; about nothing on kostka"),
    "weights.straighten.calls": ("calls/op", "lower", "ops_per_s_at_ref on rewrite"),
    "weights.self_s": ("s/op", "lower", "ops_per_s_at_ref on rewrite"),
    "symfunc.lr_product.calls": ("calls/op", "lower", "ops_per_s_at_ref and op_tail_s_at_ref on certify; op_p50_s_at_ref on cli_cold"),
    "symfunc.lr_product.distinct_ratio": ("ratio", "higher", "ops_per_s_at_ref and op_tail_s_at_ref on certify; op_p50_s_at_ref on cli_cold"),
    "symfunc.lr_skew.calls": ("calls/op", "lower", "ops_per_s_at_ref and op_tail_s_at_ref on certify; op_p50_s_at_ref on cli_cold"),
    "symfunc.lr_skew.distinct_ratio": ("ratio", "higher", "ops_per_s_at_ref and op_tail_s_at_ref on certify; op_p50_s_at_ref on cli_cold"),
    "symfunc.lr.self_s": ("s/op", "lower", "ops_per_s_at_ref and op_tail_s_at_ref on certify; op_p50_s_at_ref on cli_cold"),
    "symfunc.skew.self_s": ("s/op", "lower", "ops_per_s_at_ref and op_tail_s_at_ref on certify; op_p50_s_at_ref on cli_cold"),
    "vertexop.apply_H.calls": ("calls/op", "lower", "ops_per_s_at_ref on certify"),
    "vertexop.apply_H.self_s": ("s/op", "lower", "ops_per_s_at_ref on certify"),
    "vertexop.apply_H.schur_pairs": ("pairs/op", "lower", "ops_per_s_at_ref on certify"),
    "vertexop.apply_H.schur_pair_reuse": ("ratio", "lower", "ops_per_s_at_ref on certify"),
    "kostka.kostant_series.calls": ("calls/op", "lower", "ops_per_s_at_ref and op_tail_s_at_ref on kostka"),
    "kostka.kostant_series.nonzero_ratio": ("ratio", "higher", "ops_per_s_at_ref and op_tail_s_at_ref on kostka"),
    "kostka.kostant_series.self_s": ("s/op", "lower", "ops_per_s_at_ref and op_tail_s_at_ref on kostka"),
    "kostka.kostka_kostant.self_s": ("s/op", "lower", "ops_per_s_at_ref and op_tail_s_at_ref on kostka"),
    "kostka.kostka_vertex.self_s": ("s/op", "lower", "stays small on kostka"),
    "rewrite.normalize.calls": ("calls/op", "lower", "ops_per_s_at_ref on rewrite"),
    "rewrite.normalize.self_s": ("s/op", "lower", "ops_per_s_at_ref on rewrite"),
    "rewrite.driver.self_s": ("s/op", "lower", "ops_per_s_at_ref on rewrite"),
    "rewrite.output_terms": ("terms/op", "lower", "ops_per_s_at_ref on rewrite"),
    "rewrite.evaluate.calls": ("calls/op", "lower", "ops_per_s_at_ref on certify"),
    "cli.interpreter_s": ("s", "lower", "setup_s and op_p50_s_at_ref on cli_cold"),
    "cli.import_s": ("s", "lower", "setup_s and op_p50_s_at_ref on cli_cold"),
    "cli.main.self_s": ("s/op", "lower", "setup_s and op_p50_s_at_ref on cli_cold"),
    "trace.overhead_ratio": ("ratio", "lower", "traced against untraced ops_per_s, per workload"),
}


class FnStats:
    __slots__ = ("calls", "incl_s", "self_s", "active", "keys", "extra")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.keys = None  # distinct argument tuples, where that is counted
        self.extra = {}

    def to_json(self) -> dict:
        out = {"calls": self.calls, "incl_s": self.incl_s, "self_s": self.self_s}
        if self.keys is not None:
            out["distinct"] = len(self.keys)
        out.update(self.extra)
        return out


def _apply_h_hook(stats: FnStats, args, result) -> None:
    """Count (block, Schur index) applications and distinct such pairs."""
    nu, f = args[0], args[1]
    support = f.support()
    stats.extra["schur_pairs"] = stats.extra.get("schur_pairs", 0) + len(support)
    nu = tuple(nu)
    stats.keys.update((nu, kappa) for kappa in support)


def _nonzero_hook(stats: FnStats, args, result) -> None:
    if not result.is_zero():
        stats.extra["nonzero"] = stats.extra.get("nonzero", 0) + 1


def _terms_hook(stats: FnStats, args, result) -> None:
    stats.extra["output_terms"] = stats.extra.get("output_terms", 0) + len(result.words())


def _distinct_args_hook(stats: FnStats, args, result) -> None:
    stats.keys.add(tuple(tuple(a) for a in args))


# functions whose distinct arguments (or argument pairs) are counted
_DISTINCT = ("vertexop.apply_H", "symfunc.schur_product_expansion",
             "symfunc.skew_schur_expansion")
_HOOKS = {
    "vertexop.apply_H": _apply_h_hook,
    "kostka.kostant_series": _nonzero_hook,
    "symfunc.schur_product_expansion": _distinct_args_hook,
    "symfunc.skew_schur_expansion": _distinct_args_hook,
}
for _name in REWRITE_DRIVERS:
    _HOOKS[_name] = _terms_hook


class Tracer:
    """Counters and spans for wrapped calls; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict = {}
        self.spans: list = []
        self.op_id = None
        self._op_span = None
        self._stack: list = []  # frames: [child seconds, layer, span id]
        self._next_span = 1
        self._patches: list = []
        self._wrappers: dict = {}

    # -- ops ------------------------------------------------------------

    def begin_op(self, op_id, name: str) -> None:
        self.op_id = op_id
        self._op_span = (self._next_span, name, self.clock())
        self._next_span += 1

    def end_op(self) -> None:
        span_id, name, start = self._op_span
        self.spans.append((span_id, None, self.op_id, name, start, self.clock()))
        self._op_span = None

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        """A wrapper for fn that counts under `name` in `layer`."""
        stats = self.stats.setdefault(name, FnStats())
        hook = _HOOKS.get(name)
        if name in _DISTINCT:
            stats.keys = set()
        spanning = layer not in HOT_LAYERS and name not in LR_LOOKUPS
        stack, clock, tracer = self._stack, self.clock, self

        def wrapper(*args, **kwargs):
            caller = stack[-1] if stack else None
            span_id = caller[2] if caller else (
                tracer._op_span[0] if tracer._op_span else None)
            parent_span = span_id
            new_span = spanning and (caller is None or caller[1] != layer)
            if new_span:
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [0.0, layer, span_id]
            stack.append(frame)
            stats.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                stats.active -= 1
                if stats.active == 0:  # outermost of a recursion only
                    stats.incl_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if new_span:
                    tracer.spans.append((span_id, parent_span, tracer.op_id, name,
                                         start, end))
            if hook is not None:
                hook(stats, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner, attr: str, fn, name: str, layer: str) -> None:
        wrapper = self._wrappers.get(fn)
        if wrapper is None:
            wrapper = self._wrappers[fn] = self.wrap(fn, name, layer)
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions of every hlvertex module namespace and
        the QPoly/QRat arithmetic methods."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module("hlvertex." + m) for m in MODULES]
        for ns in [sys.modules["hlvertex"]] + modules:
            for attr, value in list(vars(ns).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not home.startswith("hlvertex."):
                    continue
                layer = home.split(".", 1)[1]
                self._patch(ns, attr, value, f"{layer}.{value.__name__}", layer)
        coeffs = sys.modules["hlvertex.coeffs"]
        for cls in (coeffs.QPoly, coeffs.QRat):
            for attr in ARITHMETIC:
                fn = cls.__dict__.get(attr)
                if isinstance(fn, types.FunctionType):
                    self._patch(cls, attr, fn, f"coeffs.{cls.__name__}.{fn.__name__}",
                                "coeffs")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
        self._wrappers.clear()

    # -- results ----------------------------------------------------------

    def function_stats(self) -> dict:
        return {name: s.to_json() for name, s in self.stats.items() if s.calls}


def _sum(stats: dict, names, field: str) -> float:
    return sum(stats.get(n, {}).get(field, 0) for n in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, ops: int, interpreter_s: float, import_s: float,
                  overhead_ratio: float) -> dict:
    """The per-layer metrics from merged per-function stats of `ops` ops.
    Counts and seconds are per op; ratios are taken over the whole run."""
    names = list(stats)

    def in_layer(layer):
        return [n for n in names if n.startswith(layer + ".")]

    def per_op(x):
        return _ratio(x, ops)

    qrat = [n for n in names if n.startswith("coeffs.QRat.")]
    qpoly = [n for n in names if n.startswith("coeffs.QPoly.")]
    prod, skew_lr = "symfunc.schur_product_expansion", "symfunc.skew_schur_expansion"
    apply_h, series = "vertexop.apply_H", "kostka.kostant_series"
    get = lambda n, f: stats.get(n, {}).get(f, 0)  # noqa: E731
    values = {
        "coeffs.qrat_ops": per_op(_sum(stats, qrat, "calls")),
        "coeffs.qpoly_ops": per_op(_sum(stats, qpoly, "calls")),
        "coeffs.self_s": per_op(_sum(stats, in_layer("coeffs"), "self_s")),
        "weights.straighten.calls": per_op(get("weights.straighten", "calls")),
        "weights.self_s": per_op(_sum(stats, in_layer("weights"), "self_s")),
        "symfunc.lr_product.calls": per_op(get(prod, "calls")),
        "symfunc.lr_product.distinct_ratio": _ratio(get(prod, "distinct"), get(prod, "calls")),
        "symfunc.lr_skew.calls": per_op(get(skew_lr, "calls")),
        "symfunc.lr_skew.distinct_ratio": _ratio(get(skew_lr, "distinct"), get(skew_lr, "calls")),
        "symfunc.lr.self_s": per_op(_sum(stats, LR_LOOKUPS, "self_s")),
        "symfunc.skew.self_s": per_op(get("symfunc.skew", "self_s")),
        "vertexop.apply_H.calls": per_op(get(apply_h, "calls")),
        "vertexop.apply_H.self_s": per_op(get(apply_h, "self_s")),
        "vertexop.apply_H.schur_pairs": per_op(get(apply_h, "schur_pairs")),
        "vertexop.apply_H.schur_pair_reuse": _ratio(get(apply_h, "schur_pairs"),
                                                    get(apply_h, "distinct")),
        "kostka.kostant_series.calls": per_op(get(series, "calls")),
        "kostka.kostant_series.nonzero_ratio": _ratio(get(series, "nonzero"),
                                                      get(series, "calls")),
        "kostka.kostant_series.self_s": per_op(get(series, "self_s")),
        "kostka.kostka_kostant.self_s": per_op(get("kostka.kostka_kostant", "self_s")),
        "kostka.kostka_vertex.self_s": per_op(get("kostka.kostka_vertex", "self_s")),
        "rewrite.normalize.calls": per_op(get("rewrite.normalize", "calls")),
        "rewrite.normalize.self_s": per_op(get("rewrite.normalize", "self_s")),
        "rewrite.driver.self_s": per_op(_sum(stats, REWRITE_DRIVERS, "self_s")),
        "rewrite.output_terms": per_op(_sum(stats, REWRITE_DRIVERS, "output_terms")),
        "rewrite.evaluate.calls": per_op(get("rewrite.evaluate", "calls")),
        "cli.interpreter_s": interpreter_s,
        "cli.import_s": import_s,
        "cli.main.self_s": per_op(_sum(stats, in_layer("cli"), "self_s")),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": values[name], "unit": LAYER_METRICS[name][0]}
            for name in LAYER_METRICS}


def merge(into: dict, stats: dict) -> dict:
    """Add one process's function stats into a running total.  Distinct
    counts add up too: caches do not outlive a process."""
    for name, s in stats.items():
        total = into.setdefault(name, {})
        for field, value in s.items():
            total[field] = total.get(field, 0) + value
    return into
