"""Per-layer metrics of a traced run, computed from its spans.

Layers are minsum's modules.  Every metric is reported on every
workload; a layer a workload never enters reports 0 (its calls, and
therefore its time, are zero there).  A metric that counts events is
divided by the traced operations, points or calls it came from, so a
faster commit, which fits more operations into the traced phase, does
not read as a worse one.
"""
from __future__ import annotations

import numpy as np

from workloads import median, tail_stat

RASTER_PATTERNS = ("two_smooth", "m_smooth", "one_nonsmooth", "known_smooth",
                   "known_one_nonsmooth", "two_nonsmooth_bounded")

# metric name -> unit, in BENCHMARK.json order
UNITS = {
    "cli.self_ms": "ms",
    "cli.import_s": "s",
    "serialize.load_scenario_ms": "ms",
    "serialize.csv_ns_per_cell": "ns",
    "serialize.svg_ns_per_cell": "ns",
    "serialize.csv_bytes": "bytes",
    "serialize.svg_bytes": "bytes",
    **{f"membership.rasterize_ns_per_cell.{p}": "ns" for p in RASTER_PATTERNS},
    "membership.rasterize_w2_ns_per_cell": "ns",
    "membership.rasterize_peak_alloc_mb": "MB",
    "membership.evaluate_us": "us",
    "membership.witness_p50_ms": "ms",
    "membership.witness_tail_ms": "ms",
    "membership.witness_fail_ratio": "ratio",
    "membership.witness_ok_ratio": "ratio",
    "geometry.eps_for_calls_per_op": "count",
    "geometry.as_vec_calls_per_op": "count",
    "geometry.eps_for_self_us": "us",
    "interpolation.certify_us": "us",
    "interpolation.geometric_ball_calls_per_op": "count",
    "bounds.reports_ms": "ms",
    "bounds.focal_us": "us",
    "oracle.cross_check_ms_per_point": "ms",
    "oracle.necessity_ms_per_instance": "ms",
    "oracle.qp_us": "us",
    "oracle.checked_ratio": "ratio",
    "oracle.indeterminate_ratio": "ratio",
    "projection.calls_per_op": "count",
    "projection.iterations_p50": "count",
    "projection.iterations_max": "count",
    "projection.self_ms_per_op": "ms",
    "projection.stagnated_ratio": "ratio",
    "projection.cap_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


# operation kind -> a traced function every operation of that kind enters
ENTERED = {"region": "membership.rasterize_region", "verify": "oracle.cross_check",
           "point": "membership.evaluate"}


class SpanView:
    """Span arrays looked up by function name ("module.function")."""

    def __init__(self, tracer, spans):
        self.sp = spans
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.dur = spans["end"] - spans["start"]
        self.top = spans["parent"] < 0

    def mask(self, name, top_only=False):
        if name not in self.ids:
            raise KeyError(f"{name} is not traced (perfbench/tracing.py TRACED)")
        m = self.sp["name"] == self.ids[name]
        return m & self.top if top_only else m

    def count(self, name) -> int:
        return int(np.count_nonzero(self.mask(name)))

    def durations(self, name, top_only=False):
        return self.dur[self.mask(name, top_only)]

    def layer_self_by_op(self, layer: str):
        """Self time of one layer's spans summed per operation, for the
        operations that entered the layer."""
        layer_ids = [i for name, i in self.ids.items() if name.startswith(layer + ".")]
        sel = np.isin(self.sp["name"], layer_ids) & (self.sp["op"] >= 0)
        ops = self.sp["op"][sel]
        if not len(ops):
            return np.zeros(0)
        totals = np.bincount(ops, weights=self.sp["self"][sel])
        return totals[np.unique(ops)]


def region_time_share(tracer, spans) -> dict:
    """Shares of the traced `region` calls' time spent in the raster
    kernel (rasterize_region) and in serialize (CSV and SVG text)."""
    v = SpanView(tracer, spans)
    total = v.durations("cli.main").sum()
    kernel = v.durations("membership.rasterize_region").sum()
    ser = (v.durations("serialize.raster_to_csv_text").sum()
           + v.durations("serialize.raster_to_svg_text").sum())
    return {"kernel": _ratio(kernel, total), "serialize": _ratio(ser, total)}


def _ratio(a, b) -> float:
    return float(a) / float(b) if b else 0.0


def per_layer(tracer, spans, ops, extra) -> dict:
    """Every per-layer metric from the traced phase's spans and ops."""
    v = SpanView(tracer, spans)
    for kind, name in ENTERED.items():
        # a binding the program no longer calls would read as 0 time
        missed = ({i for i, o in enumerate(ops) if o["kind"] == kind}
                  - set(spans["op"][v.mask(name)].tolist()))
        if missed:
            raise RuntimeError(f"{len(missed)} traced {kind} operations never entered {name}; "
                               "update perfbench/tracing.py and perfbench/layers.py")
    n_ops = max(1, sum(1 for o in ops if o["kind"] != "scenario"))
    out = {}
    out["cli.self_ms"] = median(v.layer_self_by_op("cli")) * 1e3
    out["cli.import_s"] = median(extra["import_times"])
    out["serialize.load_scenario_ms"] = median(v.durations("serialize.load_scenario")) * 1e3

    regions = [o for o in ops if o["kind"] == "region"]
    cells = sum(o["cells"] for o in regions)
    out["serialize.csv_ns_per_cell"] = _ratio(v.durations("serialize.raster_to_csv_text").sum() * 1e9, cells)
    out["serialize.svg_ns_per_cell"] = _ratio(v.durations("serialize.raster_to_svg_text").sum() * 1e9, cells)
    first = {}
    for o in regions:
        first.setdefault((o["preset"], o["workers"]), o)
    w1_first = [o for (p, w), o in first.items() if w == 1]
    out["serialize.csv_bytes"] = float(sum(o.get("csv_bytes", 0) for o in w1_first))
    out["serialize.svg_bytes"] = float(sum(o.get("svg_bytes", 0) for o in w1_first))

    # rasterize_region spans by the op that issued them
    rast = v.mask("membership.rasterize_region")
    rast_ops = spans["op"][rast]
    rast_dur = v.dur[rast]
    by_op = {int(o): float(d) for o, d in zip(rast_ops, rast_dur)}
    for pattern in RASTER_PATTERNS:
        sel = [i for i, o in enumerate(ops)
               if o["kind"] == "region" and o["workers"] == 1 and o["pattern"] == pattern]
        out[f"membership.rasterize_ns_per_cell.{pattern}"] = _ratio(
            sum(by_op.get(i, 0.0) for i in sel) * 1e9, sum(ops[i]["cells"] for i in sel))
    sel = [i for i, o in enumerate(ops) if o["kind"] == "region" and o["workers"] == 2]
    out["membership.rasterize_w2_ns_per_cell"] = _ratio(
        sum(by_op.get(i, 0.0) for i in sel) * 1e9, sum(ops[i]["cells"] for i in sel))
    out["membership.rasterize_peak_alloc_mb"] = extra.get("rasterize_peak_alloc_mb", 0.0)
    out["membership.evaluate_us"] = median(v.durations("membership.evaluate")) * 1e6

    witness = v.durations("membership.witness_gradients", top_only=True) * 1e3
    out["membership.witness_p50_ms"] = median(witness)
    out["membership.witness_tail_ms"] = tail_stat(witness)[0]
    points = [o for o in ops if o["kind"] == "point" and o["admits"]]
    out["membership.witness_fail_ratio"] = _ratio(
        sum(1 for o in points if o["error"] is not None), len(points))
    ok = sum(1 for o in points if o["error"] is None and o["certified_ok"]
             and all(o["certified_ok"]))
    out["membership.witness_ok_ratio"] = _ratio(ok, len(points))

    out["geometry.eps_for_calls_per_op"] = v.count("geometry.eps_for") / n_ops
    out["geometry.as_vec_calls_per_op"] = v.count("geometry.as_vec") / n_ops
    eps_sel = v.mask("geometry.eps_for")
    out["geometry.eps_for_self_us"] = _ratio(spans["self"][eps_sel].sum() * 1e6, eps_sel.sum())

    certify = sum(v.durations(f"interpolation.{f}", top_only=True).sum()
                  for f in ("minimizer_condition_margin", "witness_values", "check_interpolation"))
    n_cert = sum(len(o["certified_ok"]) for o in points)
    out["interpolation.certify_us"] = _ratio(certify * 1e6, n_cert)
    out["interpolation.geometric_ball_calls_per_op"] = v.count("interpolation.geometric_ball") / n_ops

    out["bounds.reports_ms"] = median(v.durations("bounds.scenario_bound_reports", top_only=True)) * 1e3
    out["bounds.focal_us"] = median(v.durations("membership.focal_point", top_only=True)) * 1e6

    verifies = [o for o in ops if o["kind"] == "verify"]
    total_points = sum(o.get("points", 0) for o in verifies)
    instances = sum(o.get("instances", 0) for o in verifies)
    out["oracle.cross_check_ms_per_point"] = _ratio(v.durations("oracle.cross_check").sum() * 1e3, total_points)
    out["oracle.necessity_ms_per_instance"] = _ratio(v.durations("oracle.necessity_sweep").sum() * 1e3, instances)
    out["oracle.qp_us"] = median(v.durations("oracle.qp_min_norm_gradient")) * 1e6
    out["oracle.checked_ratio"] = _ratio(sum(o.get("checked", 0) for o in verifies), total_points)
    out["oracle.indeterminate_ratio"] = _ratio(
        sum(o.get("indeterminate", 0) for o in verifies), total_points)

    results = tracer.projection_results
    iters = [it for _, it in results]
    proj = v.mask("_projection.cyclic_projection") | v.mask("_projection.block_cyclic_projection")
    out["projection.calls_per_op"] = len(results) / n_ops
    out["projection.iterations_p50"] = median(iters)
    out["projection.iterations_max"] = float(max(iters)) if iters else 0.0
    out["projection.self_ms_per_op"] = float(spans["self"][proj].sum()) * 1e3 / n_ops
    out["projection.stagnated_ratio"] = _ratio(
        sum(1 for s, _ in results if s == "stagnated"), len(results))
    out["projection.cap_ratio"] = _ratio(sum(1 for s, _ in results if s == "cap"), len(results))
    out["trace.overhead_ratio"] = extra["overhead_ratio"]
    if list(out) != list(UNITS):
        raise RuntimeError("per-layer metric list out of sync with UNITS")
    return {k: {"value": float(val), "unit": UNITS[k]} for k, val in out.items()}

