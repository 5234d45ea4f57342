"""Spans around the package's layer boundaries, installed from outside.

Each hook replaces one module attribute, the name a caller looks up at
call time, with a wrapper that records (name, start, end, parent id) and
a few counts taken from the arguments or the result. Nothing inside the
package is edited. A hook whose attribute no longer exists is reported
as missing, and every metric that needs it is left out of the result.

Only the process that installed the hooks records spans. Pool workers
forked from it inherit the wrappers but pass straight through, so on a
run with workers > 1 the per-cluster work done in the pool is not seen.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time


def _n_first(args, _):
    return {"n": int(args[0])}


def _n_matrix(args, _):
    return {"n": int(args[0].shape[0])}


def _n_graph(args, _):
    return {"n": int(args[0].n)}


def _len_result(args, result):
    return {"items": len(result)}


def _edges_loaded(args, result):
    return {"edges": len(result.edges)}


def _sample(args, result):
    return {"coordinates": len(args[0]), "placed": result[1].placed,
            "requested": result[1].requested}


def _synthesis(args, result):
    counts = result.report.edge_counts
    return {"added": sum(v for k, v in counts.items() if k.startswith("added_")),
            "residual": result.report.residual_deficit_total}


# (module, attribute, span name, counts(args, result) -> dict, pickled)
# The attribute may be "Class.method"; the wrapper then replaces the method.
# A "pickled" hook wraps a function the pipeline sends to a process pool;
# pickle finds functions by their defining module, so the wrapper is
# installed there as well.
HOOKS = [
    ("pipeline", "load_edge_list", "graphs.load_edges", _edges_loaded, False),
    ("pipeline", "load_clustering", "graphs.load", None, False),
    ("pipeline", "build_csr", "graphs.load", None, False),
    ("pipeline", "read_stats_csv", "graphs.load", None, False),
    ("pipeline", "write_edge_list", "graphs.write", None, False),
    ("pipeline", "write_clustering", "graphs.write", None, False),
    ("pipeline", "split", "splitting.split", None, False),
    ("pipeline", "cluster_edge_tables", "cluster_stats.tables", _len_result, False),
    ("pipeline", "_stats_task", "cluster_stats.task", None, True),
    ("cluster_stats", "min_cut_of_edges", "mincut.stats", _n_first, False),
    ("pipeline", "build_block_matrix", "sbm.block_matrix", None, False),
    ("pipeline", "sample_dcsbm", "sbm.sample", _sample, False),
    ("repair", "repair_cluster_task", "repair.cluster", None, True),
    ("repair", "stoer_wagner_dense", "mincut.repair", _n_matrix, False),
    ("repair", "match_degrees_global", "repair.match_global", None, False),
    ("pipeline", "synthesize", "pipeline.synthesize", _synthesis, False),
    ("pipeline", "_build_work_items", "pipeline.work_items", None, False),
    ("pipeline", "_merge_arrays", "pipeline.merge", None, False),
    ("graphs", "EdgeSet.to_array", "graphs.to_array", None, False),
    ("graphs", "CsrGraph.edge_array", "graphs.to_array", None, False),
    ("cli", "load_edge_list", "graphs.load_edges", _edges_loaded, False),
    ("cli", "load_clustering", "graphs.load", None, False),
    ("cli", "build_csr", "graphs.load", None, False),
    ("cli", "compare_networks", "metrics.compare", None, False),
    ("metrics", "diameter_largest_component", "metrics.diameter", None, False),
    ("metrics", "cluster_mincut_map", "metrics.mincut_map", None, False),
    ("metrics", "global_min_cut", "mincut.metrics", _n_graph, False),
    ("metrics", "clustering_coefficients", "metrics.clustering", None, False),
    ("metrics", "mixing_parameter", "metrics.mixing", None, False),
    ("metrics", "nmi", "metrics.nmi_ari", None, False),
    ("metrics", "ari", "metrics.nmi_ari", None, False),
]


# spans that only hold layer spans; their own code is no layer's time
CONTAINERS = {"call", "pipeline.synthesize", "metrics.compare"}


class Recorder:
    """In-memory span list; spans are plain dicts so they serialise as JSON."""

    def __init__(self):
        self.spans: list = []
        self.missing: dict = {}     # "module.attribute" -> span name
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        # a span opened on a helper thread belongs to the main thread's span
        return self._main[-1] if self._main else None

    def span(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            with self._lock:
                sid = len(self.spans)
                rec = {"id": sid, "name": name, "parent": self._parent(),
                       "start": 0.0, "end": 0.0}
                self.spans.append(rec)
            stack = self._stack()
            stack.append(sid)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
            if counts is not None:
                try:
                    rec.update(counts(args, result))
                except (AttributeError, TypeError, IndexError, KeyError):
                    rec["counts_missing"] = True
            return result
        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, counts, pickled in HOOKS:
            try:
                module = importlib.import_module(f"synnetgen.{mod_name}")
            except ImportError:
                module = None
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if not callable(fn):
                self.missing[f"{mod_name}.{attr}"] = name
                continue
            wrapper = self.span(name, fn, counts)
            setattr(owner, leaf, wrapper)
            if pickled:
                home = importlib.import_module(fn.__module__)
                if getattr(home, fn.__name__, None) is fn:
                    setattr(home, fn.__name__, wrapper)


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_seconds(spans: list, name: str) -> float:
    """Summed duration of `name` spans minus the time their children cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return sum(s["end"] - s["start"] - _union_length(children.get(s["id"], []))
               for s in spans if s["name"] == name)


def layer_metrics(spans: list, missing: dict, wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced call: {name: (value, unit)}.

    A metric is left out when a hook it depends on is missing.
    """
    gone = set(missing.values())
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(*names):
        return sum(s["end"] - s["start"] for n in names for s in by_name.get(n, []))

    def count(name, key=None):
        # a span whose counts could not be read raises KeyError here
        return sum(s[key] if key else 1 for s in by_name.get(name, []))

    out: dict = {}

    def put(metric, needs, unit, value):
        if set(needs) & gone:
            return
        try:
            out[metric] = (float(value()) if unit != "count" else int(value()), unit)
        except KeyError:
            pass

    for caller in ("stats", "repair", "metrics"):
        span = f"mincut.{caller}"
        put(f"{span}.calls", [span], "count", lambda: count(span))
        put(f"{span}.s", [span], "s", lambda: dur(span))
        put(f"{span}.n_max", [span], "count",
            lambda: max((s["n"] for s in by_name.get(span, [])), default=0))
        put(f"{span}.n_sum", [span], "count", lambda: count(span, "n"))
    put("cluster_stats.stats_s", ["cluster_stats.tables", "cluster_stats.task"], "s",
        lambda: dur("cluster_stats.tables", "cluster_stats.task"))
    put("cluster_stats.clusters", ["cluster_stats.tables"], "count",
        lambda: count("cluster_stats.tables", "items"))
    repair_spans = [s["end"] - s["start"] for s in by_name.get("repair.cluster", [])]
    put("repair.cluster_s", ["repair.cluster"], "s", lambda: sum(repair_spans))
    put("repair.clusters", ["repair.cluster"], "count", lambda: len(repair_spans))
    put("repair.slowest_cluster_s", ["repair.cluster"], "s",
        lambda: max(repair_spans, default=0.0))
    put("repair.edges_added", ["pipeline.synthesize"], "count",
        lambda: count("pipeline.synthesize", "added"))
    put("repair.residual_deficit", ["pipeline.synthesize"], "count",
        lambda: count("pipeline.synthesize", "residual"))
    put("repair.match_global_s", ["repair.match_global"], "s",
        lambda: dur("repair.match_global"))
    put("sbm.block_matrix_s", ["sbm.block_matrix"], "s", lambda: dur("sbm.block_matrix"))
    put("sbm.sample_s", ["sbm.sample"], "s", lambda: dur("sbm.sample"))
    put("sbm.coordinates", ["sbm.sample"], "count", lambda: count("sbm.sample", "coordinates"))
    put("sbm.placed_ratio", ["sbm.sample"], "ratio",
        lambda: count("sbm.sample", "placed") / max(1, count("sbm.sample", "requested")))
    put("graphs.load_s", ["graphs.load", "graphs.load_edges"], "s",
        lambda: dur("graphs.load", "graphs.load_edges"))
    put("graphs.write_s", ["graphs.write"], "s", lambda: dur("graphs.write"))
    put("graphs.edges_loaded", ["graphs.load_edges"], "count",
        lambda: count("graphs.load_edges", "edges"))
    put("splitting.split_s", ["splitting.split"], "s", lambda: dur("splitting.split"))
    put("pipeline.synthesize_s", ["pipeline.synthesize"], "s",
        lambda: dur("pipeline.synthesize"))
    put("pipeline.self_s", ["pipeline.synthesize"], "s",
        lambda: self_seconds(spans, "pipeline.synthesize"))
    put("pipeline.work_items_s", ["pipeline.work_items"], "s",
        lambda: dur("pipeline.work_items"))
    put("pipeline.merge_s", ["pipeline.merge"], "s", lambda: dur("pipeline.merge"))
    put("graphs.to_array_s", ["graphs.to_array"], "s", lambda: dur("graphs.to_array"))
    for stat in ("diameter", "mincut_map", "clustering", "mixing", "nmi_ari"):
        span = f"metrics.{stat}"
        put(f"{span}_s", [span], "s", lambda: dur(span))
    put("trace.wall_s", [], "s", lambda: wall)
    put("trace.overhead_s", [], "s", lambda: wall - untraced_wall)
    # share of the traced call's wall time spent inside some layer span; the
    # own code of a container span (synthesize, compare_networks) is not covered
    put("trace.coverage", [], "ratio", lambda: _union_length(
        [(s["start"], s["end"]) for s in spans if s["name"] not in CONTAINERS]) / wall)
    return out


def counts_missing(spans: list) -> list:
    """Names of spans whose counts could not be read from args or result."""
    return sorted({s["name"] for s in spans if s.get("counts_missing")})
