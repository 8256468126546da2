"""Spans around calls into eulerphi's public functions, and the per-layer
metrics derived from them.

A traced worker rebinds each target function, at every module attribute that
holds it, to a wrapper that records a span: name, start, end, parent span,
op index and a few attributes (table mode and size, points, bytes).  The
package files are not touched.  Functions called once per term, such as
`decomp.sawtooth`, are not wrapped.  Spans stay in memory until the worker
reports them.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

MODULES = ("primes", "products", "coeffs", "decomp", "volterra", "cli")


def _table_attrs(args, kwargs, result):
    return {"mode": result.mode, "N": result.N}


def _batch_points(args, kwargs, result):
    return {"points": len(result)}


def _grid_points(args, kwargs, result):
    return {"points": len(result.xs)}


def _saved_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"bytes": os.path.getsize(path)}


# "module.function" -> attributes taken from the call and its result
TARGETS = {
    "primes.primes_upto": None,
    "primes.smallest_prime_factor": None,
    "coeffs.sieve_alpha": _table_attrs,
    "coeffs.phi_table": _table_attrs,
    "coeffs.error_term": None,
    "coeffs.make_e2": None,
    "coeffs.growth_scan": None,
    "coeffs.series_identity_check": None,
    "coeffs.save_table": _saved_bytes,
    "coeffs.load_table": None,
    "products.c_constant": None,
    "products.a1_constant": None,
    "products.l_value": None,
    "products.compute_constants": None,
    "decomp.verify_identity_batch": _batch_points,
    "decomp.decompose": None,
    "decomp.g1": None,
    "decomp.f1_closed": None,
    "decomp.f1_values": None,
    "volterra.residual": _grid_points,
    "volterra.solve_from_e2": _grid_points,
    "volterra.homogeneous_probe": None,
    "cli.parse_config": None,
    "cli.get_table": None,
    "cli.run_command": None,
    "cli.emit_report": None,
}
# spans of these are split by the table mode they built
MODE_SPLIT = ("coeffs.sieve_alpha", "coeffs.phi_table")
MODES = ("float", "exact")


class Tracer:
    """Records nested spans of wrapped calls in one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": self.clock(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "op": self.op, "ok": False, "attrs": {}}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            span["ok"] = True
            if attrs:
                span["attrs"] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target at each name its callers look up.

        `from .coeffs import error_term` in decomp is a binding of its own,
        so every module of the package is searched for the original object.
        """
        modules = [importlib.import_module("eulerphi")] + [
            importlib.import_module(f"eulerphi.{m}") for m in MODULES]
        for target, attrs in TARGETS.items():
            modname, fname = target.split(".")
            original = getattr(importlib.import_module(f"eulerphi.{modname}"),
                               fname)
            wrapped = self.wrap(target, original, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return [s["end"] - s["start"] - covered(children[i], s["start"], s["end"])
            for i, s in enumerate(spans)]


def span_key(span: dict) -> str:
    mode = span["attrs"].get("mode")
    if span["name"] in MODE_SPLIT and mode:
        return f"{span['name']}.{mode}"
    return span["name"]


def _self_keys() -> list[str]:
    keys = []
    for target in TARGETS:
        if target in MODE_SPLIT:
            keys += [f"{target}.{m}" for m in MODES]
        else:
            keys.append(target)
    return keys


# name -> unit of every metric layer_metrics returns, plus the ones the
# caller adds: report bytes, which it reads from the report files, and the
# ones that compare traced and untraced passes or give raw wall times; all
# per-layer times are raw, not speed-corrected
COUNTS = {
    "coeffs.phi_table.entries": "count",
    "coeffs.save_table.bytes": "bytes",
    "coeffs.cache.hit_ratio": "ratio",
    "products.compute_constants.calls": "count",
    "decomp.points": "count",
    "volterra.grid_points": "count",
}
TRACE_METRICS = {"trace.run_s": "s", "trace.glue_s": "s"}
CALLER_METRICS = {"cli.emit_report.bytes": "bytes", "trace.overhead_s": "s",
                  "wall.run_s": "s", "wall.ref_s": "s"}
PER_LAYER_UNITS = {
    **{f"{k}.self_s": "s" for k in _self_keys()},
    **{f"{m}.self_s": "s" for m in MODULES},
    **COUNTS,
    **TRACE_METRICS,
    **CALLER_METRICS,
}


def layer_metrics(spans: list[dict], run_s: float) -> dict:
    """Per-layer metrics of one traced pass whose op sequence took run_s.

    `<key>.self_s` sums self time per wrapped function, `<module>.self_s`
    per module, and `trace.glue_s` is the part of run_s outside every span,
    so the self times plus the glue add up to run_s.
    """
    out = {name: 0.0 for name in PER_LAYER_UNITS
           if name not in TRACE_METRICS and name not in CALLER_METRICS}
    for s, t in zip(spans, self_times(spans)):
        key = f"{span_key(s)}.self_s"
        if key in out:
            out[key] += t
        out[f"{s['name'].split('.')[0]}.self_s"] += t
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    out["coeffs.phi_table.entries"] = sum(
        s["attrs"].get("N", -1) + 1 for s in by_name["coeffs.phi_table"])
    out["coeffs.save_table.bytes"] = sum(
        s["attrs"].get("bytes", 0) for s in by_name["coeffs.save_table"])
    requested = len(by_name["cli.get_table"])
    served = sum(s["ok"] for s in by_name["coeffs.load_table"])
    out["coeffs.cache.hit_ratio"] = served / requested if requested else 0.0
    out["products.compute_constants.calls"] = len(
        by_name["products.compute_constants"])
    out["decomp.points"] = len(by_name["decomp.decompose"]) + sum(
        s["attrs"].get("points", 0) for s in by_name["decomp.verify_identity_batch"])
    out["volterra.grid_points"] = sum(
        s["attrs"].get("points", 0)
        for s in by_name["volterra.residual"] + by_name["volterra.solve_from_e2"])
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    out["trace.run_s"] = run_s
    out["trace.glue_s"] = run_s - roots
    return out
