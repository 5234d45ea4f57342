"""End-to-end synthetic network generation.

Dependency structure of one run:

    load -> split ----+----> clustered SBM --+--> per-cluster repair -+
         -> stats ----+                      |   (then global degree  |
                      +----> singleton SBM --+    matching for the    +-> merge
                                                  "plus" variant)

A run has two halves. _prepare does everything that does not depend on
the variant: stats, split, block matrices and both block model draws.
_finish does the rest for one variant: the per-cluster work items and
repair, the merge, the global degree matching for "plus", and the report.
synthesize prepares and finishes once; run_both_variants prepares once and
finishes once per variant. Every edge set that passes from one half to the
other is a canonical sorted int64 array, and so is what each cluster's
repair hands back: one array of local pairs with its per-stage counts.
After the last edge lands, a clustered node's residual deficit is read
from the output: its reference degree in the clustered part minus its
output degree there, where positive.

With workers > 1 one process pool serves the whole call: the stats tasks
run on it while the main process splits and draws both block models, then
the per-cluster repair of every finish fans out over it. Results are
aggregated in cluster id order, which keeps the output bytes identical for
any worker count at a fixed seed.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import repair as rp
from .cluster_stats import (
    _local_edge_groups,
    _pool,
    _stats_task,
    cluster_edge_tables,
    read_stats_csv,
    validate_stats_cover,
)
from .graphs import (
    Clustering,
    CsrGraph,
    GraphFormatError,
    build_csr,
    load_clustering,
    load_edge_list,
    write_clustering,
    write_edge_list,
)
from .sbm import build_block_matrix, degree_weights, sample_dcsbm
from .splitting import SplitResult, split

EDGES_FILE = "synthetic_network.tsv"
CLUSTERING_FILE = "ground_truth_clustering.tsv"
REPORT_FILE = "run_report.json"
RESIDUALS_FILE = "residual_deficits.csv"
SHORTFALL_FILE = "sbm_shortfall.csv"


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


@dataclass
class PipelineConfig:
    network: Path
    clustering: Path
    out_dir: Path
    variant: str = rp.VARIANT_PP
    seed: int = 0
    workers: int = 1
    stats_file: Path | None = None


@dataclass
class RunReport:
    variant: str
    seed: int
    workers: int
    nodes: int = 0
    edge_counts: dict = field(default_factory=dict)
    stage_seconds: dict = field(default_factory=dict)
    sbm: dict = field(default_factory=dict)
    residual_deficit_total: int = 0
    residual_node_count: int = 0

    def to_dict(self) -> dict:
        out = asdict(self)
        out["stage_seconds"] = {k: round(v, 6) for k, v in self.stage_seconds.items()}
        return out


@dataclass
class SynthesisResult:
    edges: np.ndarray          # canonical sorted, internal ids of the reference
    report: RunReport
    residuals: list            # (cluster_id, internal node id, unmet deficit)
    shortfalls: list           # (part, block_r, block_s, requested, dropped)
    stats: dict                # cluster id -> ClusterStats actually used


def _merge_arrays(n: int, parts: list) -> np.ndarray:
    """Union of disjoint canonical edge arrays, as one canonical array.

    Every union the pipeline makes is disjoint by construction, so a
    repeated edge is a fault and raises PipelineError("merge").
    """
    keys = np.concatenate([np.empty(0, dtype=np.int64)]
                          + [p[:, 0] * n + p[:, 1] for p in parts])
    keys.sort()
    repeated = int(np.count_nonzero(keys[1:] == keys[:-1]))
    if repeated:
        raise PipelineError("merge", f"{repeated} edges repeated across merged parts")
    return np.column_stack([keys // n, keys % n])


def _build_work_items(split_res: SplitResult, ref_deg: np.ndarray,
                      gc_sample: np.ndarray, stats: dict) -> list:
    """Per-cluster repair inputs from the sampled clustered part, by cluster id.

    ref_deg is every clustered node's degree in the clustered reference part;
    a member's budget is that less its sampled edges to other clusters.
    """
    index = split_res.c_c.index
    cross = gc_sample[index[gc_sample[:, 0]] != index[gc_sample[:, 1]]]
    budget = ref_deg - np.bincount(cross.ravel(), minlength=len(ref_deg))
    return [rp.ClusterWork(members=members, edges=local,
                           target_cut=stats[cid].mincut, budget=budget[members])
            for cid, members, local in _local_edge_groups(gc_sample, split_res.c_c)]


@contextmanager
def _stage(seconds: dict, name: str):
    """Time the with-body into seconds[name].

    A stage entered again adds to its seconds. Any error other than a
    PipelineError or a GraphFormatError is re-raised as PipelineError(name).
    """
    t = time.perf_counter()
    try:
        yield
    except (PipelineError, GraphFormatError):
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc
    finally:
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t


@dataclass
class _Prepared:
    """The variant-independent part of a run, shared by every finish."""

    g: CsrGraph
    seed: int
    split: SplitResult
    gc_ref_deg: np.ndarray     # degrees in the clustered reference part, local ids
    stats: dict
    gc_sample: np.ndarray      # canonical, clustered-part local ids
    gs_sample: np.ndarray      # canonical, parent ids
    sbm: dict                  # the run report's sbm section
    shortfalls: list
    stage_seconds: dict


def _prepare(g: CsrGraph, c: Clustering, seed: int, executor,
             stats: dict | None) -> _Prepared:
    """Stats, split, block matrices and both block model draws.

    executor is the map function of _pool. Injected stats must cover every
    multi-node cluster; a gap raises GraphFormatError, not a stage error.
    """
    seconds: dict = {}
    if stats is not None:
        validate_stats_cover(stats, c)
    else:
        # read after sampling: on a pool the tasks overlap split and sampling
        with _stage(seconds, "stats"):
            stats_results = executor(_stats_task, cluster_edge_tables(g, c))

    with _stage(seconds, "split"):
        split_res = split(g, c)
        gc_ref_deg = np.bincount(split_res.g_c_edges.ravel(),
                                 minlength=len(split_res.gc_nodes))

    with _stage(seconds, "block_matrices"):
        bm_c = build_block_matrix(split_res.g_c_edges, split_res.c_c)
        bm_s = build_block_matrix(split_res.g_s_edges, split_res.c_s)

    with _stage(seconds, "sampling"):
        w_c = gc_ref_deg.astype(np.float64)
        w_s = degree_weights(split_res.g_s_edges, g.n)
        seed_c, seed_s = (int(x) for x in
                          np.random.SeedSequence(seed).generate_state(2, np.uint64))
        gc_sample, rep_c = sample_dcsbm(bm_c, split_res.c_c, w_c, seed_c)
        gs_sample, rep_s = sample_dcsbm(bm_s, split_res.c_s, w_s, seed_s)

    if stats is None:
        with _stage(seconds, "stats"):
            stats = {s.cluster_id: s for s in stats_results}

    shortfalls = []
    for part, bm, rep, ids in (("clustered", bm_c, rep_c, split_res.c_c.cluster_ids),
                               ("singleton", bm_s, rep_s, split_res.c_s.cluster_ids)):
        for i in np.flatnonzero(rep.coordinate_shortfall).tolist():
            shortfalls.append((part,
                               int(ids[bm.r[i]]),
                               int(ids[bm.s[i]]),
                               int(bm.counts[i]),
                               int(rep.coordinate_shortfall[i])))
    sbm = {
        "clustered_requested": rep_c.requested,
        "clustered_shortfall": rep_c.shortfall,
        "singleton_requested": rep_s.requested,
        "singleton_shortfall": rep_s.shortfall,
    }
    return _Prepared(g=g, seed=seed, split=split_res, gc_ref_deg=gc_ref_deg,
                     stats=stats, gc_sample=gc_sample, gs_sample=gs_sample, sbm=sbm,
                     shortfalls=shortfalls, stage_seconds=seconds)


def _finish(prepared: _Prepared, variant: str, executor,
            workers: int) -> SynthesisResult:
    """Repair, merge, the global matcher for plus, and the report.

    Reads the prepared run and never changes it, so any number of finishes
    can share one. Its work items are built inside the repair stage, whose
    seconds include them.
    """
    split_res = prepared.split
    n_c = len(split_res.gc_nodes)
    gc_sample = prepared.gc_sample
    report = RunReport(variant=variant, seed=prepared.seed, workers=workers,
                       nodes=prepared.g.n, stage_seconds=dict(prepared.stage_seconds),
                       sbm=dict(prepared.sbm))
    seconds = report.stage_seconds

    with _stage(seconds, "repair"):
        items = _build_work_items(split_res, prepared.gc_ref_deg, gc_sample,
                                  prepared.stats)
        args = [(item, variant) for item in items]
        outcomes = list(executor(rp.repair_cluster_task, args))

    with _stage(seconds, "merge"):
        counts = np.array([out.counts for out in outcomes],
                          dtype=np.int64).reshape(-1, len(rp.STAGES)).sum(axis=0)
        # merged clustered part: sampled edges plus everything repair added
        gc_merged = _merge_arrays(n_c, [gc_sample] + [
            item.members[out.added] for item, out in zip(items, outcomes)])

    if variant == rp.VARIANT_PLUS:
        with _stage(seconds, "degree_match_global"):
            deficits = prepared.gc_ref_deg - np.bincount(gc_merged.ravel(), minlength=n_c)
            matched = rp.match_degrees_global(gc_merged, deficits)
            counts[rp.STAGES.index("degree_match")] += len(matched)
            if matched:
                gc_merged = _merge_arrays(
                    n_c, [gc_merged, np.array(matched, dtype=np.int64)])

    with _stage(seconds, "merge"):
        # a matcher leaves a node short by exactly its unmet deficit, and
        # nothing adds an edge after matching: residuals are read from the
        # output degrees, pp rows by (cluster id, node), plus rows by node
        unmet = prepared.gc_ref_deg - np.bincount(gc_merged.ravel(), minlength=n_c)
        short = np.flatnonzero(unmet > 0)
        if variant == rp.VARIANT_PP:
            short = short[np.argsort(split_res.c_c.index[short], kind="stable")]
        residuals = list(zip(split_res.c_c.assignment[short].tolist(),
                             split_res.gc_nodes[short].tolist(), unmet[short].tolist()))
        gc_parent = split_res.gc_nodes[gc_merged]
        final = _merge_arrays(prepared.g.n, [gc_parent, prepared.gs_sample])

        report.edge_counts = {
            "reference": prepared.g.m,
            "clustered_reference": len(split_res.g_c_edges),
            "singleton_reference": len(split_res.g_s_edges),
            "clustered_sampled": int(len(gc_sample)),
            "singleton_sampled": int(len(prepared.gs_sample)),
            **{f"added_{stage}": c for stage, c in zip(rp.STAGES, counts.tolist())},
            "output": int(len(final)),
        }
        report.residual_deficit_total = int(sum(r[2] for r in residuals))
        report.residual_node_count = len(residuals)
    return SynthesisResult(edges=final, report=report, residuals=residuals,
                           shortfalls=prepared.shortfalls, stats=prepared.stats)


def synthesize(g: CsrGraph, c: Clustering, variant: str, seed: int,
               workers: int = 1, stats: dict | None = None) -> SynthesisResult:
    """Generate a synthetic counterpart of (g, c). Pure in-memory pipeline."""
    if variant not in rp.VARIANTS:
        raise PipelineError("configure", f"unknown variant {variant!r}")
    with _pool(workers) as executor:
        prepared = _prepare(g, c, seed, executor, stats)
        return _finish(prepared, variant, executor, workers)


def _write_outputs(out_dir: Path, result: SynthesisResult, labels: np.ndarray,
                   c: Clustering) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    t = time.perf_counter()
    write_edge_list(result.edges, labels, out_dir / EDGES_FILE)
    write_clustering(c, labels, out_dir / CLUSTERING_FILE)
    with open(out_dir / RESIDUALS_FILE, "w", encoding="utf-8") as fh:
        fh.write("cluster,node,deficit\n")
        for cid, node, d in result.residuals:
            fh.write(f"{cid},{int(labels[node])},{d}\n")
    with open(out_dir / SHORTFALL_FILE, "w", encoding="utf-8") as fh:
        fh.write("part,block_r,block_s,requested,dropped\n")
        for row in result.shortfalls:
            fh.write(",".join(str(x) for x in row) + "\n")
    result.report.stage_seconds["write"] = time.perf_counter() - t
    with open(out_dir / REPORT_FILE, "w", encoding="utf-8") as fh:
        json.dump(result.report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_inputs(network, clustering, stats_file):
    """(labels, graph, clustering, stats or None, seconds to load the first three)."""
    t0 = time.perf_counter()
    loaded = load_edge_list(network)
    g = build_csr(loaded.edges, loaded.n)
    c = load_clustering(clustering, loaded.labels)
    load_s = time.perf_counter() - t0
    stats = read_stats_csv(stats_file) if stats_file is not None else None
    return loaded.labels, g, c, stats, load_s


def run_pipeline(cfg: PipelineConfig) -> SynthesisResult:
    """File-to-file run: load inputs, synthesize, write the output bundle."""
    labels, g, c, stats, load_s = _load_inputs(cfg.network, cfg.clustering,
                                               cfg.stats_file)
    result = synthesize(g, c, cfg.variant, cfg.seed, workers=cfg.workers,
                        stats=stats)
    result.report.stage_seconds["load"] = load_s
    _write_outputs(Path(cfg.out_dir), result, labels, c)
    return result


def run_both_variants(network, clustering, out_dir, seed: int = 0,
                      workers: int = 1, stats_file=None) -> dict:
    """Run both variants from one seed on one shared preparation.

    Loading, stats, split, block matrices and both block model draws run
    once, then each variant finishes from them; one process pool serves the
    whole call. So the two runs are a controlled comparison, each variant's
    output is the same as a single-variant run's at that seed, and each run
    report carries the shared stages' seconds, measured once. Outputs land
    in out_dir/plus and out_dir/pp.
    """
    out_dir = Path(out_dir)
    labels, g, c, stats, load_s = _load_inputs(network, clustering, stats_file)
    summary = {}
    with _pool(workers) as executor:
        prepared = _prepare(g, c, seed, executor, stats)
        for variant in rp.VARIANTS:
            result = _finish(prepared, variant, executor, workers)
            result.report.stage_seconds["load"] = load_s
            _write_outputs(out_dir / variant, result, labels, c)
            summary[variant] = result.report.to_dict()
    with open(out_dir / "comparison.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "runs": summary}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
