"""Span tracing installed from outside the program.

`Tracer.install()` replaces the module-level bindings of the traced
functions with wrappers.  A function imported by name (`from .geometry
import eps_for`) is bound in every importing module, so each binding
gets the wrapper.  A wrapper records one span per call (name, start,
end, parent span, operation id) into per-thread arrays kept in memory;
`Tracer.save()` writes them out when the run ends.

A layer's self time is a span's duration minus the part of it covered
by its child spans (the union of their intervals, since the raster's
worker threads can run children side by side).
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np

# home module -> traced functions; the span name is "<module>.<function>".
# Only functions whose spans a metric in layers.py reads, or whose time
# must be subtracted from a caller's self time (the calls cli.main makes
# into other modules), are wrapped: every wrapper adds to the traced time.
TRACED = {
    "cli": ("main",),
    "serialize": ("load_scenario", "raster_to_csv_text", "raster_to_svg_text"),
    "membership": ("evaluate", "rasterize_region", "witness_gradients", "focal_point"),
    "geometry": ("eps_for", "as_vec"),
    "interpolation": ("minimizer_condition_margin", "witness_values",
                      "check_interpolation", "geometric_ball"),
    "bounds": ("scenario_bound_reports",),
    "oracle": ("cross_check", "necessity_sweep", "qp_min_norm_gradient"),
    "_projection": ("cyclic_projection", "block_cyclic_projection"),
}

LAYERS = tuple(TRACED)


class _Buffer:
    """Spans finished on one thread."""

    def __init__(self):
        self.ident = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []


class Tracer:
    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._main = None
        self._restore = []
        self.names = []
        self.op = -1
        # (status, iterations) of every projection run, in call order
        self.projection_results = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, fn, name: str):
        # install() may run many times; a name keeps its first id
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        ids = self._ids
        clock = time.perf_counter
        is_projection = name.startswith("_projection.")
        tracer = self

        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            elif buf is not tracer._main and tracer._main.stack:
                # a worker thread's outermost call belongs to the span
                # that is open on the main thread (rasterize_region)
                parent = tracer._main.stack[-1]
            else:
                parent = -1
            ident = next(ids)
            stack.append(ident)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.ident.append(ident)
                buf.name.append(name_id)
                buf.parent.append(parent)
                buf.op.append(tracer.op)
                buf.start.append(t0)
                buf.end.append(t1)
            if is_projection and isinstance(result, tuple) and len(result) == 4:
                # (status, point or blocks, residual, iterations)
                tracer.projection_results.append((result[0], result[3]))
            return result

        return functools.wraps(fn)(wrapper)

    def install(self, package: str = "minsum"):
        """Wrap every traced function in every module of the package
        that binds it."""
        self._main = self._buffer()
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == package or k.startswith(package + "."))
        ]
        for home, names in TRACED.items():
            home_mod = sys.modules[f"{package}.{home}"]
            for fname in names:
                # a traced function that is gone would make its metrics
                # read 0, which looks like a gain: stop instead
                original = getattr(home_mod, fname, None)
                if original is None:
                    self.uninstall()
                    raise RuntimeError(
                        f"traced function {package}.{home}.{fname} not found; "
                        "update perfbench/tracing.py and perfbench/layers.py")
                wrapper = self._wrap(original, f"{home}.{fname}")
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapper)
                        self._restore.append((mod, fname, original))

    def uninstall(self):
        for mod, fname, original in reversed(self._restore):
            setattr(mod, fname, original)
        self._restore.clear()

    def spans(self) -> dict:
        """All finished spans as arrays sorted by span id, with their
        self time."""
        cols = {k: [] for k in ("ident", "name", "parent", "op", "start", "end")}
        for buf in self._buffers:
            for k in cols:
                cols[k].append(np.frombuffer(getattr(buf, k), dtype=getattr(buf, k).typecode))
        out = {
            k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()
        }
        order = np.argsort(out["ident"], kind="stable")
        out = {k: v[order] for k, v in out.items()}
        out["self"] = _self_times(out)
        return out

    def save(self, path: str, spans: dict):
        np.savez(path, names=np.array(self.names), **spans)


def _self_times(sp: dict) -> np.ndarray:
    """Duration minus the union of child intervals, per span."""
    dur = sp["end"] - sp["start"]
    covered = np.zeros_like(dur)
    if len(dur) == 0:
        return dur
    pos = np.searchsorted(sp["ident"], sp["parent"])
    has_parent = sp["parent"] >= 0
    pos = np.where(has_parent, np.minimum(pos, len(dur) - 1), 0)
    has_parent &= sp["ident"][pos] == sp["parent"]
    child = np.flatnonzero(has_parent)
    parent_pos = pos[child]
    # children sorted by (parent, start); sequential children of one
    # thread never overlap, so only parents with concurrent children
    # need the interval merge
    order = np.lexsort((sp["start"][child], parent_pos))
    child = child[order]
    parent_pos = parent_pos[order]
    starts = sp["start"][child]
    ends = sp["end"][child]
    np.add.at(covered, parent_pos, ends - starts)
    same = parent_pos[1:] == parent_pos[:-1]
    overlap = same & (starts[1:] < ends[:-1])
    for p in np.unique(parent_pos[1:][overlap]):
        sel = parent_pos == p
        total = 0.0
        cur_s, cur_e = None, None
        for s, e in zip(starts[sel], ends[sel]):
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        total += cur_e - cur_s
        covered[p] = total
    return dur - covered
