"""Spans around the public functions of each pcqa module, from outside.

`Tracer` is a context manager. On entry it replaces every traced function
in every loaded `pcqa` module namespace that holds it (a function imported
with ``from .x import f`` lives in several namespaces) and wraps the
`SpatialIndex` methods; on exit it puts the originals back. Each call
records one span (id, name, start, end, parent, unit) in memory, and some
calls also add counters read from their arguments or results. Counters
are kept per `unit`, a label the caller sets (one cycle of a workload).
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# (module, attribute) -> span name
FUNCTIONS = {
    ("pcqa.ply_io", "load_ply"): "ply_io.load",
    ("pcqa.ply_io", "save_ply"): "ply_io.save",
    ("pcqa.resample", "frequency_scores"): "resample.frequency_scores",
    ("pcqa.resample", "resample"): "resample.resample",
    ("pcqa.colorspace", "decompose"): "colorspace.decompose",
    ("pcqa.graphsim", "graphsim"): "graphsim.graphsim",
    ("pcqa.graphsim", "build_local_graph_pair"): "graphsim.local_graph",
    ("pcqa.graphsim", "score_graph"): "graphsim.score_graph",
    ("pcqa.baselines", "run_baselines"): "baselines.run",
    ("pcqa.baselines", "estimate_normals"): "baselines.estimate_normals",
    ("pcqa.baselines", "psnr_yuv"): "baselines.psnr_yuv",
    ("pcqa.distort", "apply_distortion"): "distort.apply",
    ("pcqa.evaluate", "evaluate_records"): "evaluate.evaluate_records",
}

# SpatialIndex method -> span name
METHODS = {
    "__init__": "spatial.build",
    "query_array": "spatial.query_array",
    "nearest": "spatial.nearest",
    "knn": "spatial.knn",
    "radius_query": "spatial.radius_query",
}


def _counters(name: str, args, result) -> dict:
    """Work counts read from one call's arguments or result."""
    if name in ("spatial.query_array", "spatial.nearest"):
        return {name + "_rows": len(args[1])}
    if name == "graphsim.local_graph":
        return {"graphsim.cluster_points": result.ref_cluster_size + result.dist_cluster_size}
    if name == "graphsim.graphsim":
        drawn = result.keypoints.count
        return {"graphsim.keypoints": drawn,
                "graphsim.scored": len(result.per_graph) - result.empty_graphs}
    return {}


class Tracer:
    """Record spans and counters while the context is active."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, dict[str, int]] = {}
        self.unit = "setup"
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # A pool thread's first span belongs to the main thread's
            # innermost open span, which is waiting on the pool.
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            with tracer._lock:
                span_id = len(tracer.spans)
                span = {"id": span_id, "name": name, "parent": parent,
                        "unit": tracer.unit, "start": time.perf_counter(), "end": None}
                tracer.spans.append(span)
            stack.append(span_id)
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            with tracer._lock:
                counts = tracer.counts.setdefault(str(span["unit"]), {})
                counts[name + "_calls"] = counts.get(name + "_calls", 0) + 1
                for key, value in _counters(name, args, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        import pcqa  # noqa: F401  (loads every module that gets patched)
        from pcqa.spatial import SpatialIndex

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "pcqa" or key.startswith("pcqa."))]
        for (module_name, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        for method, name in METHODS.items():
            self._patch(SpatialIndex, method, self._wrap(name, getattr(SpatialIndex, method)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def _covered(intervals, lo, hi) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_totals(spans) -> dict:
    """Per unit, per span name: total seconds and total self seconds.

    Self time is a span's duration minus the part of its interval that its
    child spans cover.
    """
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        wall = s["end"] - s["start"]
        own = wall - _covered(children.get(s["id"], []), s["start"], s["end"])
        unit = totals.setdefault(str(s["unit"]), {})
        unit[s["name"] + "_s"] = unit.get(s["name"] + "_s", 0.0) + wall
        unit[s["name"] + ".self_s"] = unit.get(s["name"] + ".self_s", 0.0) + own
    return totals
