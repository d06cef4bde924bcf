"""Spans recorded from outside fibwork, and the per-layer metrics made from them.

The benchmark defines layers without touching the program: ``install``
replaces each public function with a wrapper that records one span (name,
start, end, parent id and a few counts) per call.  ``from .qpoly import
mul_q_analog`` copies the reference into the importing module, so a wrapper
is bound wherever any fibwork module holds the original object, not only in
the module that defines it.  Methods of ``PolyCache`` and ``ProductSpec`` are
wrapped on their classes.

``fib.fib`` and ``tilings.weight_degree`` run millions of times per run and
get no span; their cost shows as the self time of the tilings layer.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict


def _exact_div_fields(args, kwargs, result):
    return {"madds": len(result.coeffs) * len(args[1].coeffs)}


def _mul_q_analog_fields(args, kwargs, result):
    return {"coeffs_out": len(result.coeffs)}


def _tiling_polynomial_fields(args, kwargs, result):
    # the coefficients sum to the number of tilings enumerated
    return {"tilings": sum(result.coeffs)}


def _cache_get_fields(args, kwargs, result):
    if result is None:
        return {"misses": 1}
    cache, op, params = args
    return {"hits": 1, "bytes_read": os.path.getsize(cache.path_for(op, params))}


def _cache_put_fields(args, kwargs, result):
    return {"bytes_written": os.path.getsize(result)}


# (module, attribute, span name, fields).  An attribute "Class.method" wraps
# a method on its class.
LAYERS = (
    ("fibwork.fibonomial", "qfibonomial", "fibonomial.qfibonomial", None),
    ("fibwork.qpoly", "exact_div", "qpoly.exact_div", _exact_div_fields),
    ("fibwork.qpoly", "div_one_minus_q_power", "qpoly.div_one_minus_q_power", None),
    ("fibwork.qpoly", "mul_q_analog", "qpoly.mul_q_analog", _mul_q_analog_fields),
    ("fibwork.qpoly", "is_symmetric", "qpoly.is_symmetric", None),
    ("fibwork.qpoly", "is_unimodal", "qpoly.is_unimodal", None),
    ("fibwork.qpoly", "is_log_concave", "qpoly.is_log_concave", None),
    ("fibwork.tilings", "tiling_polynomial", "tilings.tiling_polynomial",
     _tiling_polynomial_fields),
    ("fibwork.chains", "decompose", "chains.decompose", None),
    ("fibwork.products", "ProductSpec.polynomial", "products.spec_polynomial", None),
    ("fibwork.products", "scan_products", "products.scan_products", None),
    ("fibwork.sweeps", "analyze_pair", "sweeps.analyze_pair", None),
    ("fibwork.sweeps", "poly_checksum", "sweeps.poly_checksum", None),
    ("fibwork.cache", "PolyCache.get", "cache.get", _cache_get_fields),
    ("fibwork.cache", "PolyCache.put", "cache.put", _cache_put_fields),
    ("fibwork.cli", "cmd_fibonomial", "cli.fibonomial", None),
    ("fibwork.cli", "cmd_verify_conjecture", "cli.verify-conjecture", None),
    ("fibwork.cli", "cmd_oracle_check", "cli.oracle-check", None),
    ("fibwork.cli", "cmd_lab_scan", "cli.lab-scan", None),
)


class Tracer:
    """Keeps spans in memory; ``write_jsonl`` writes them out at exit."""

    def __init__(self):
        # one (name, start_ns, end_ns, parent_id, fields) tuple per span,
        # indexed by span id; a slot is reserved when the span opens
        self.spans: list = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, fields=None):
        spans, open_ids, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_ids[-1] if open_ids else -1
            span_id = len(spans)
            spans.append(None)
            open_ids.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_ids.pop()
                spans[span_id] = (name, start, end, parent, None)
            if fields is not None:
                spans[span_id] = (name, start, end, parent, fields(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function; call after ``import fibwork.cli``."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "fibwork" or k.startswith("fibwork."))]
        for module_name, attr, span_name, fields in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(span_name, getattr(cls, method), fields))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original, fields)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent, fields) in enumerate(self.spans):
                line = {"id": span_id, "name": name, "parent": parent,
                        "start_ns": start, "end_ns": end}
                if fields:
                    line.update(fields)
                fh.write(json.dumps(line) + "\n")


SPAN_KEYS = ("id", "name", "parent", "start_ns", "end_ns")


def aggregate(path) -> dict:
    """Per span name: calls, busy_ns, self_ns, durations, summed counts.

    Self time is a span's duration minus the durations of its direct
    children; ``root_ns`` is the time covered by spans with no parent.
    Spans are written in id order and a parent opens before its children,
    so one pass suffices.
    """
    by_name: dict = defaultdict(
        lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0, "durations": [],
                 "counts": defaultdict(int)})
    names: list[str] = []
    root_ns = 0
    with open(path) as fh:
        for line in fh:
            span = json.loads(line)
            name = span["name"]
            duration = span["end_ns"] - span["start_ns"]
            names.append(name)
            entry = by_name[name]
            entry["calls"] += 1
            entry["busy_ns"] += duration
            entry["self_ns"] += duration
            entry["durations"].append(duration)
            if span["parent"] >= 0:
                by_name[names[span["parent"]]]["self_ns"] -= duration
            else:
                root_ns += duration
            for key, value in span.items():
                if key not in SPAN_KEYS:
                    entry["counts"][key] += value
    return {"layers": by_name, "root_ns": root_ns}


# (metric, unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("fibonomial.qfibonomial.calls", "count", "lower"),
    ("fibonomial.qfibonomial.busy_s", "s", "lower"),
    ("fibonomial.qfibonomial.p50_ms", "ms", "lower"),
    ("fibonomial.qfibonomial.p90_ms", "ms", "lower"),
    ("qpoly.exact_div.calls", "count", "lower"),
    ("qpoly.exact_div.busy_s", "s", "lower"),
    ("qpoly.exact_div.madds", "count", "lower"),
    ("qpoly.div_one_minus_q_power.calls", "count", "lower"),
    ("qpoly.div_one_minus_q_power.busy_s", "s", "lower"),
    ("qpoly.mul_q_analog.calls", "count", "lower"),
    ("qpoly.mul_q_analog.busy_s", "s", "lower"),
    ("qpoly.mul_q_analog.coeffs_out", "count", "lower"),
    ("qpoly.mul_q_analog.coeffs_per_s", "1/s", "higher"),
    ("qpoly.is_symmetric.busy_s", "s", "lower"),
    ("qpoly.is_unimodal.busy_s", "s", "lower"),
    ("qpoly.is_log_concave.busy_s", "s", "lower"),
    ("tilings.tiling_polynomial.calls", "count", "lower"),
    ("tilings.tiling_polynomial.busy_s", "s", "lower"),
    ("tilings.tilings", "count", "lower"),
    ("tilings.tilings_per_s", "1/s", "higher"),
    ("chains.decompose.calls", "count", "lower"),
    ("chains.decompose.busy_s", "s", "lower"),
    ("products.spec_polynomial.busy_s", "s", "lower"),
    ("products.specs", "count", "higher"),
    ("products.specs_per_s", "1/s", "higher"),
    ("sweeps.analyze_pair.busy_s", "s", "lower"),
    ("sweeps.analyze_pair.p50_ms", "ms", "lower"),
    ("sweeps.analyze_pair.p90_ms", "ms", "lower"),
    ("sweeps.poly_checksum.busy_s", "s", "lower"),
    ("cache.get.calls", "count", "lower"),
    ("cache.get.busy_s", "s", "lower"),
    ("cache.put.calls", "count", "lower"),
    ("cache.put.busy_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.bytes_read", "bytes", "lower"),
    ("cache.bytes_written", "bytes", "lower"),
    ("cli.fibonomial.self_s", "s", "lower"),
    ("cli.verify-conjecture.self_s", "s", "lower"),
    ("cli.oracle-check.self_s", "s", "lower"),
    ("cli.lab-scan.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_share", "ratio", "lower"),
)

# Counts that repeat exactly between runs of the same code on the same inputs.
EXACT = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes"))


def percentile(values: list, q: int) -> float:
    """q-th percentile (inclusive method); 0 when there are no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(agg: dict, wall_s: float) -> dict:
    """Per-layer metric values of one traced iteration (without overhead)."""
    layers = agg["layers"]

    def get(name):
        return layers.get(name) or {"calls": 0, "busy_ns": 0, "self_ns": 0,
                                    "durations": [], "counts": {}}

    def count(name, key):
        return get(name)["counts"].get(key, 0)

    def rate(n, busy_ns):
        return n / (busy_ns / 1e9) if busy_ns else 0.0

    out = {}
    for metric, _, _ in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = get(layer)["calls"]
        elif stat == "busy_s":
            out[metric] = get(layer)["busy_ns"] / 1e9
        elif stat == "self_s":
            out[metric] = get(layer)["self_ns"] / 1e9
        elif stat in ("p50_ms", "p90_ms"):
            out[metric] = percentile(get(layer)["durations"], int(stat[1:3])) / 1e6
    mul = get("qpoly.mul_q_analog")
    out["qpoly.exact_div.madds"] = count("qpoly.exact_div", "madds")
    out["qpoly.mul_q_analog.coeffs_out"] = mul["counts"].get("coeffs_out", 0)
    out["qpoly.mul_q_analog.coeffs_per_s"] = rate(
        out["qpoly.mul_q_analog.coeffs_out"], mul["busy_ns"])
    tilings = count("tilings.tiling_polynomial", "tilings")
    out["tilings.tilings"] = tilings
    out["tilings.tilings_per_s"] = rate(
        tilings, get("tilings.tiling_polynomial")["busy_ns"])
    specs = get("products.spec_polynomial")["calls"]
    out["products.specs"] = specs
    out["products.specs_per_s"] = rate(
        specs, get("products.scan_products")["busy_ns"])
    hits, misses = count("cache.get", "hits"), count("cache.get", "misses")
    out["cache.hits"] = hits
    out["cache.misses"] = misses
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cache.bytes_read"] = count("cache.get", "bytes_read")
    out["cache.bytes_written"] = count("cache.put", "bytes_written")
    out["trace.uncovered_share"] = max(0.0, wall_s - agg["root_ns"] / 1e9) / wall_s
    return out
