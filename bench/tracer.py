"""Span tracer that wraps heislusin's public functions from outside.

The library has no tracing of its own, so the traced run patches it:
every public module-level function and every public method of a public
class in the seven layer modules is replaced by a wrapper that records
one span (function, parent span, start, end).  Arithmetic and other
dunder methods, properties and private helpers are left alone.  A
function imported into another module (``heislusin.cli.build_curve``,
``heislusin.curves.abs_integral``) or re-exported by the package is
patched under every such name, so each call is seen whichever name the
caller used.

Spans are kept in flat arrays in memory and written out when the run
ends; self time per layer is derived from them afterwards.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time
from fractions import Fraction

import numpy as np

LAYERS = (
    "polynomials",
    "intervalsets",
    "jets",
    "curves",
    "counterexample",
    "diffanalysis",
    "cli",
)


def _bits(*values) -> int:
    best = 0
    for v in values:
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    """Records one span per call of a wrapped heislusin function."""

    def __init__(self):
        self.names: list[str] = []  # span name per function id
        self.layer_of: list[int] = []  # index into LAYERS per function id
        self.fid = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.outer = array.array("b")  # 0 for a call nested in itself
        self.counters = {
            "max_operand": 0,
            "refined": 0,
            "refined_exact": 0,
            "max_bits": 0,
            "pair_calls": 0,
            "pair_hits": 0,
            "sieve_points": 0,
        }
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list[tuple] = []  # (owner, attr, original, wrapper)

    # -- patching -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function and method of the layer modules.

        The wrappers are made on the first call; later calls put the same
        wrappers back after `uninstall`, so span names stay the same."""
        if not self._patches:
            self._plan(package)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _plan(self, package) -> None:
        modules = [importlib.import_module("heislusin." + n) for n in LAYERS]
        wrappers = {}  # id(original function) -> wrapper
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(layer, attr, obj)
                elif inspect.isclass(obj):
                    self._plan_class(layer, obj)
        for mod in modules + [package]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patches.append((mod, attr, obj, wrappers[id(obj)]))

    def _plan_class(self, layer, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = "%s.%s" % (cls.__name__, attr)
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(self._wrap(layer, name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapper = self._wrap(layer, name, raw)
            else:
                continue
            self._patches.append((cls, attr, raw, wrapper))

    def _wrap(self, layer, name, fn):
        fid = len(self.names)
        self.names.append("%s.%s" % (layer, name))
        self.layer_of.append(LAYERS.index(layer))
        self._active.append(0)
        observe = _OBSERVERS.get(self.names[fid])
        if observe is not None:
            observe = functools.partial(observe, self, inspect.signature(fn))
        stack, active = self._stack, self._active
        fids, parents, starts, ends, outer = (
            self.fid, self.parent, self.start, self.end, self.outer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            outer.append(active[fid] == 0)
            starts.append(0.0)
            ends.append(0.0)
            active[fid] += 1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[fid] -= 1
                starts[idx] = t0
                ends[idx] = t1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- aggregation ----------------------------------------------------

    def mark(self) -> int:
        """Span count so far; pass to `summary` to cover later spans only."""
        return len(self.fid)

    def summary(self, since: int = 0) -> dict:
        """Inclusive time and calls per function, self time per layer."""
        fid = np.frombuffer(self.fid, dtype=np.int32)[since:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[since:]
        dur = (np.frombuffer(self.end, dtype=np.float64)[since:]
               - np.frombuffer(self.start, dtype=np.float64)[since:])
        outer = np.frombuffer(self.outer, dtype=np.int8)[since:].astype(bool)
        child = np.zeros(len(fid))
        has_parent = parent >= since
        np.add.at(child, parent[has_parent] - since, dur[has_parent])
        layer = np.asarray(self.layer_of, dtype=np.int64)[fid]
        self_time = np.bincount(layer, weights=dur - child, minlength=len(LAYERS))
        nfun = len(self.names)
        calls = np.bincount(fid, minlength=nfun)
        inclusive = np.bincount(fid[outer], weights=dur[outer], minlength=nfun)
        return {
            "self_s": {l: float(self_time[i]) for i, l in enumerate(LAYERS)},
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "s": {n: float(inclusive[i]) for i, n in enumerate(self.names)},
        }

    def reset_counters(self) -> None:
        for key in self.counters:
            self.counters[key] = 0

    def write(self, path, extra: dict) -> None:
        """Write every span and a summary as one JSON document."""
        doc = {
            "names": self.names,
            "columns": ["function", "parent", "start", "end"],
            "spans": [list(self.fid), list(self.parent),
                      list(self.start), list(self.end)],
        }
        doc.update(extra)
        with open(path, "w") as fh:
            json.dump(doc, fh)


# -- counters taken from arguments and results ---------------------------


def _operand_size(tracer, sig, args, kwargs, result):
    c = tracer.counters
    c["max_operand"] = max(c["max_operand"], len(args[0].intervals),
                           len(args[1].intervals))


def _refine(tracer, sig, args, kwargs, result):
    c = tracer.counters
    if args[0].exact is None:
        c["refined"] += 1
        c["refined_exact"] += result.exact is not None
    c["max_bits"] = max(c["max_bits"], _bits(result.lo, result.hi))


def _certified(tracer, sig, args, kwargs, result):
    c = tracer.counters
    c["max_bits"] = max(c["max_bits"], _bits(result.value, result.error))


def _pair_search(tracer, sig, args, kwargs, result):
    tracer.counters["pair_calls"] += 1
    tracer.counters["pair_hits"] += result is not None


def _sieve(tracer, sig, args, kwargs, result):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counters["sieve_points"] += (
        bound.arguments["grid"] + len(bound.arguments["extra_points"]))


_OBSERVERS = {
    "intervalsets.IntervalSet.subtract": _operand_size,
    "intervalsets.IntervalSet.intersect": _operand_size,
    "polynomials.refine_root": _refine,
    "polynomials.abs_integral": _certified,
    "polynomials.sup_norm": _certified,
    "counterexample.good_pair_search": _pair_search,
    "diffanalysis.whitney_sieve": _sieve,
}


# -- per-layer metrics ----------------------------------------------------

# metric prefix -> span name, for the inclusive-time and call metrics
_FUNCTIONS = {
    "intervalsets.subtract": "intervalsets.IntervalSet.subtract",
    "intervalsets.intersect": "intervalsets.IntervalSet.intersect",
    "polynomials.isolate_roots": "polynomials.isolate_roots",
    "polynomials.refine_root": "polynomials.refine_root",
    "polynomials.abs_integral": "polynomials.abs_integral",
    "jets.whitney_modulus": "jets.Jet.whitney_modulus",
    "jets.taylor_poly": "jets.Jet.taylor_poly",
    "curves.lift": "curves.lift",
    "curves.extendability_report": "curves.extendability_report",
    "curves.area_discrepancy": "curves.area_discrepancy",
    "curves.velocity": "curves.velocity",
    "curves.hermite_gap_fill": "curves.hermite_gap_fill",
    "counterexample.build_curve": "counterexample.build_curve",
    "counterexample.measure_report": "counterexample.measure_report",
    "counterexample.good_pair_search": "counterexample.good_pair_search",
    "diffanalysis.whitney_sieve": "diffanalysis.whitney_sieve",
    "diffanalysis.lp_remainder_ladder": "diffanalysis.lp_remainder_ladder",
    "cli.read_curve_csv": "cli.read_curve_csv",
    "cli.curve_to_csv": "cli.curve_to_csv",
}

# (metric name, unit): the per-layer metrics, in BENCHMARK.json order
PER_LAYER = (
    ("intervalsets.self_s", "s"),
    ("intervalsets.subtract.s", "s"),
    ("intervalsets.subtract.calls", "count"),
    ("intervalsets.intersect.s", "s"),
    ("intervalsets.intersect.calls", "count"),
    ("intervalsets.max_operand", "count"),
    ("intervalsets.slope", "1"),
    ("polynomials.self_s", "s"),
    ("polynomials.isolate_roots.s", "s"),
    ("polynomials.isolate_roots.calls", "count"),
    ("polynomials.refine_root.s", "s"),
    ("polynomials.refine_root.calls", "count"),
    ("polynomials.exact_root_ratio", "1"),
    ("polynomials.abs_integral.s", "s"),
    ("polynomials.abs_integral.calls", "count"),
    ("polynomials.max_bits", "bits"),
    ("polynomials.slope", "1"),
    ("jets.self_s", "s"),
    ("jets.whitney_modulus.s", "s"),
    ("jets.whitney_modulus.calls", "count"),
    ("jets.taylor_poly.calls", "count"),
    ("jets.slope", "1"),
    ("curves.self_s", "s"),
    ("curves.lift.s", "s"),
    ("curves.extendability_report.s", "s"),
    ("curves.area_discrepancy.s", "s"),
    ("curves.velocity.s", "s"),
    ("curves.velocity.calls", "count"),
    ("curves.hermite_gap_fill.s", "s"),
    ("curves.slope", "1"),
    ("counterexample.self_s", "s"),
    ("counterexample.build_curve.s", "s"),
    ("counterexample.measure_report.s", "s"),
    ("counterexample.good_pair_search.s", "s"),
    ("counterexample.good_pair_search.hit_ratio", "1"),
    ("counterexample.slope", "1"),
    ("diffanalysis.self_s", "s"),
    ("diffanalysis.whitney_sieve.s", "s"),
    ("diffanalysis.points_per_s", "1/s"),
    ("diffanalysis.lp_remainder_ladder.s", "s"),
    ("diffanalysis.slope", "1"),
    ("cli.self_s", "s"),
    ("cli.read_curve_csv.s", "s"),
    ("cli.curve_to_csv.s", "s"),
)


def layer_metrics(summary: dict, counters: dict) -> dict:
    """Per-layer metric values (slopes excluded) for one traced pass."""
    out = {}
    for layer in LAYERS:
        out[layer + ".self_s"] = summary["self_s"][layer]
    for prefix, span in _FUNCTIONS.items():
        out[prefix + ".s"] = summary["s"][span]
        out[prefix + ".calls"] = summary["calls"][span]
    c = counters
    out["intervalsets.max_operand"] = c["max_operand"]
    out["polynomials.exact_root_ratio"] = (
        c["refined_exact"] / c["refined"] if c["refined"] else 0.0)
    out["polynomials.max_bits"] = c["max_bits"]
    out["counterexample.good_pair_search.hit_ratio"] = (
        c["pair_hits"] / c["pair_calls"] if c["pair_calls"] else 0.0)
    sieve_s = summary["s"][_FUNCTIONS["diffanalysis.whitney_sieve"]]
    out["diffanalysis.points_per_s"] = (
        c["sieve_points"] / sieve_s if sieve_s > 0 else 0.0)
    return out


def fit_slope(sizes, times) -> float:
    """Least-squares exponent b of times ~ a * sizes**b over positive times."""
    pts = [(np.log(s), np.log(t)) for s, t in zip(sizes, times) if t > 0]
    if len(pts) < 2:
        return 0.0
    x, y = np.array(pts).T
    return float(np.polyfit(x, y, 1)[0])
