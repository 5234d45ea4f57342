"""End-to-end synthetic network generation.

Dependency structure of one run:

    load -> split ----+----> clustered SBM --+--> per-cluster repair -+
         -> stats ----+                      |   (then global degree  |
                      +----> singleton SBM --+    matching for the    +-> merge
                                                  "plus" variant)

With workers > 1 one process pool serves the whole call: the stats tasks
run on it while the main process splits and draws both block models, then
the per-cluster repair fans out over it. Results are aggregated in cluster
id order, which keeps the output bytes identical for any worker count at a
fixed seed.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import repair as rp
from .cluster_stats import (
    _chunksize,
    _stats_task,
    cluster_edge_tables,
    read_stats_csv,
    reference_degrees,
    validate_stats_cover,
)
from .graphs import (
    Clustering,
    CsrGraph,
    build_csr,
    load_clustering,
    load_edge_list,
    write_clustering,
    write_edge_list,
)
from .sbm import build_block_matrix, degree_weights, sample_dcsbm
from .splitting import SplitResult, split

log = logging.getLogger(__name__)

EDGES_FILE = "synthetic_network.tsv"
CLUSTERING_FILE = "ground_truth_clustering.tsv"
REPORT_FILE = "run_report.json"
RESIDUALS_FILE = "residual_deficits.csv"
SHORTFALL_FILE = "sbm_shortfall.csv"
STATS_FILE = "cluster_stats.csv"


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
    sbm_max_retries: int = 30
    partner_cap: int = rp.DEFAULT_PARTNER_CAP


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
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "seed": self.seed,
            "workers": self.workers,
            "nodes": self.nodes,
            "edge_counts": self.edge_counts,
            "stage_seconds": {k: round(v, 6) for k, v in self.stage_seconds.items()},
            "sbm": self.sbm,
            "residual_deficit_total": self.residual_deficit_total,
            "residual_node_count": self.residual_node_count,
            "warnings": self.warnings,
        }


@dataclass
class SynthesisResult:
    edges: np.ndarray          # canonical sorted, internal ids of the reference
    report: RunReport
    residuals: list            # (cluster_id, internal node id, unmet deficit)
    shortfalls: list           # (part, block_r, block_s, requested, dropped)
    stats: dict                # cluster id -> ClusterStats actually used


def _merge_arrays(n: int, parts: list) -> tuple[np.ndarray, int]:
    """Union of canonical edge arrays with duplicate count (packed-key dedup)."""
    parts = [p for p in parts if len(p)]
    if not parts:
        return np.empty((0, 2), dtype=np.int64), 0
    allp = np.concatenate(parts)
    keys = allp[:, 0] * n + allp[:, 1]
    uniq = np.unique(keys)
    dups = int(len(keys) - len(uniq))
    return np.column_stack([uniq // n, uniq % n]), dups


def _build_work_items(split_res: SplitResult, gc_sample: np.ndarray,
                      stats: dict) -> tuple[list, np.ndarray]:
    """Per-cluster repair inputs from the sampled clustered part.

    Returns (items sorted by cluster id, inter-cluster sampled edges).
    """
    g_c = split_res.g_c
    c_c = split_res.c_c
    n_c = g_c.n
    ref_deg = reference_degrees(g_c)
    sampled_deg = np.bincount(gc_sample.ravel(), minlength=n_c) if gc_sample.size \
        else np.zeros(n_c, dtype=np.int64)
    if gc_sample.size:
        au = c_c.assignment[gc_sample[:, 0]]
        av = c_c.assignment[gc_sample[:, 1]]
        same = au == av
        intra = gc_sample[same]
        inter = gc_sample[~same]
        keys = au[same]
        order = np.argsort(keys, kind="stable")
        intra = intra[order]
        keys = keys[order]
        uniq, starts = np.unique(keys, return_index=True)
        bounds = np.concatenate((starts, [len(keys)]))
        by_cluster = {int(cid): intra[bounds[i]:bounds[i + 1]]
                      for i, cid in enumerate(uniq)}
    else:
        inter = np.empty((0, 2), dtype=np.int64)
        by_cluster = {}
    items = []
    empty = np.empty((0, 2), dtype=np.int64)
    for cid in c_c.cluster_ids.tolist():
        members = c_c.members(cid)
        edges_parent = by_cluster.get(cid, empty)
        local = np.searchsorted(members, edges_parent) if edges_parent.size else empty
        size = len(members)
        intra_deg = np.bincount(local.ravel(), minlength=size) if local.size \
            else np.zeros(size, dtype=np.int64)
        items.append(rp.ClusterWork(
            cluster_id=cid,
            members=members,
            edges=set(map(tuple, local.tolist())),
            target_cut=stats[cid].mincut,
            ref_deg=ref_deg[members],
            ext_deg=sampled_deg[members] - intra_deg,
        ))
    return items, inter


@contextmanager
def _stage(report: RunReport, name: str):
    """Time the with-body into report.stage_seconds[name].

    A stage entered again adds to its seconds. Any error other than a
    PipelineError is re-raised as PipelineError(name).
    """
    t = time.perf_counter()
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc
    finally:
        seconds = report.stage_seconds
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t


def _map(executor, fn, items: list, workers: int):
    """Lazy in-order results of fn over items, computed on the pool if there is one.

    executor.map submits every task at once, so pool work starts before the
    results are read.
    """
    if executor is None:
        return map(fn, items)
    return executor.map(fn, items, chunksize=_chunksize(len(items), workers))


def synthesize(g: CsrGraph, c: Clustering, variant: str, seed: int,
               workers: int = 1, stats: dict | None = None,
               sbm_max_retries: int = 30,
               partner_cap: int = rp.DEFAULT_PARTNER_CAP) -> SynthesisResult:
    """Generate a synthetic counterpart of (g, c). Pure in-memory pipeline."""
    if variant not in rp.VARIANTS:
        raise PipelineError("configure", f"unknown variant {variant!r}")
    report = RunReport(variant=variant, seed=seed, workers=workers, nodes=g.n)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    with pool as executor:
        if stats is None:
            # read after sampling: on a pool the tasks overlap split and sampling
            with _stage(report, "stats"):
                stats_results = _map(executor, _stats_task, cluster_edge_tables(g, c), workers)

        with _stage(report, "split"):
            split_res = split(g, c)

        with _stage(report, "block_matrices"):
            bm_c = build_block_matrix(split_res.g_c.edge_array(), split_res.c_c)
            bm_s = build_block_matrix(split_res.g_s_edges, split_res.c_s)

        with _stage(report, "sampling"):
            w_c = reference_degrees(split_res.g_c).astype(np.float64)
            w_s = degree_weights(split_res.g_s_edges, g.n)
            seed_c, seed_s = (int(x) for x in
                              np.random.SeedSequence(seed).generate_state(2, np.uint64))
            gc_set, rep_c = sample_dcsbm(bm_c, split_res.c_c, w_c, seed_c,
                                         max_retries=sbm_max_retries)
            gs_set, rep_s = sample_dcsbm(bm_s, split_res.c_s, w_s, seed_s,
                                         max_retries=sbm_max_retries)

        with _stage(report, "stats"):
            if stats is None:
                stats = {s.cluster_id: s for s in stats_results}
            validate_stats_cover(stats, c)

        with _stage(report, "repair"):
            gc_sample = gc_set.to_array()
            items, _ = _build_work_items(split_res, gc_sample, stats)
            args = [(item, variant, partner_cap) for item in items]
            outcomes = list(_map(executor, rp.repair_cluster_task, args, workers))

    with _stage(report, "merge"):
        added_counts = {s: 0 for s in (rp.STAGE_MIN_DEGREE, rp.STAGE_STITCH,
                                       rp.STAGE_MINCUT, rp.STAGE_DEGREE_MATCH)}
        added_parent = []
        residuals = []
        for item, out in zip(items, outcomes):
            for stage_name, pairs in out.added.items():
                added_counts[stage_name] += len(pairs)
                if pairs:
                    local = np.array(pairs, dtype=np.int64)
                    added_parent.append(item.members[local])
            for lnode, d in sorted(out.residual.items()):
                residuals.append((item.cluster_id,
                                  int(split_res.gc_nodes[item.members[lnode]]),
                                  int(d)))
            report.warnings.extend(
                f"cluster {item.cluster_id}: {w}" for w in out.warnings)

        # merged clustered part: sampled edges plus everything repair added
        gc_merged, gc_dups = _merge_arrays(split_res.g_c.n, [gc_sample] + added_parent)
        if gc_dups:
            raise PipelineError(
                "merge", f"repair produced {gc_dups} duplicate edges")

    if variant == rp.VARIANT_PLUS:
        with _stage(report, "degree_match_global"):
            cur_deg = np.bincount(gc_merged.ravel(), minlength=split_res.g_c.n) \
                if gc_merged.size else np.zeros(split_res.g_c.n, dtype=np.int64)
            deficits = reference_degrees(split_res.g_c) - cur_deg
            edge_set = set(map(tuple, gc_merged.tolist()))
            matched, residual = rp.match_degrees_global(
                edge_set, deficits, partner_cap=partner_cap)
            added_counts[rp.STAGE_DEGREE_MATCH] += len(matched)
            if matched:
                gc_merged, _ = _merge_arrays(
                    split_res.g_c.n,
                    [gc_merged, np.array(matched, dtype=np.int64)])
            for node, d in sorted(residual.items()):
                parent = int(split_res.gc_nodes[node])
                residuals.append((int(c.assignment[parent]), parent, int(d)))

    with _stage(report, "merge"):
        gc_parent = split_res.gc_nodes[gc_merged] if gc_merged.size \
            else np.empty((0, 2), dtype=np.int64)
        gs_arr = gs_set.to_array()
        final, dups = _merge_arrays(g.n, [gc_parent, gs_arr])

        report.edge_counts = {
            "reference": g.m,
            "clustered_reference": int(split_res.g_c.m),
            "singleton_reference": len(split_res.g_s_edges),
            "clustered_sampled": int(len(gc_sample)),
            "singleton_sampled": int(len(gs_arr)),
            "added_min_degree": added_counts[rp.STAGE_MIN_DEGREE],
            "added_stitch": added_counts[rp.STAGE_STITCH],
            "added_mincut": added_counts[rp.STAGE_MINCUT],
            "added_degree_match": added_counts[rp.STAGE_DEGREE_MATCH],
            "merge_duplicates": dups,
            "output": int(len(final)),
        }
        expected = len(gc_parent) + len(gs_arr) - dups
        if len(final) != expected:
            raise PipelineError("merge", "edge conservation check failed")
        report.sbm = {
            "clustered_requested": rep_c.requested,
            "clustered_shortfall": rep_c.shortfall,
            "singleton_requested": rep_s.requested,
            "singleton_shortfall": rep_s.shortfall,
            "single_node_intra_blocks": rep_c.single_node_intra_blocks
            + rep_s.single_node_intra_blocks,
        }
        report.residual_deficit_total = int(sum(r[2] for r in residuals))
        report.residual_node_count = len(residuals)

        shortfalls = []
        for part, bm, rep in (("clustered", bm_c, rep_c),
                              ("singleton", bm_s, rep_s)):
            nz = np.flatnonzero(rep.coordinate_shortfall)
            for i in nz.tolist():
                shortfalls.append((part,
                                   int(bm.block_ids[bm.r[i]]),
                                   int(bm.block_ids[bm.s[i]]),
                                   int(bm.counts[i]),
                                   int(rep.coordinate_shortfall[i])))
    return SynthesisResult(edges=final, report=report, residuals=residuals,
                           shortfalls=shortfalls, stats=stats)


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


def run_pipeline(cfg: PipelineConfig) -> SynthesisResult:
    """File-to-file run: load inputs, synthesize, write the output bundle."""
    t0 = time.perf_counter()
    loaded = load_edge_list(cfg.network)
    g = build_csr(loaded.edges, loaded.n)
    c = load_clustering(cfg.clustering, loaded.labels)
    load_s = time.perf_counter() - t0
    stats = None
    if cfg.stats_file is not None:
        stats = read_stats_csv(cfg.stats_file)
        validate_stats_cover(stats, c)
    result = synthesize(g, c, cfg.variant, cfg.seed, workers=cfg.workers,
                        stats=stats, sbm_max_retries=cfg.sbm_max_retries,
                        partner_cap=cfg.partner_cap)
    result.report.stage_seconds["load"] = load_s
    _write_outputs(Path(cfg.out_dir), result, loaded.labels, c)
    return result


def run_both_variants(network, clustering, out_dir, seed: int = 0,
                      workers: int = 1, stats_file=None) -> dict:
    """Run both variants from one seed so they share the same block model draws.

    The sampled parts depend only on (seed, inputs), not on the variant, so
    running the two variants with the same seed is a controlled comparison.
    Outputs land in out_dir/plus and out_dir/pp.
    """
    out_dir = Path(out_dir)
    loaded = load_edge_list(network)
    g = build_csr(loaded.edges, loaded.n)
    c = load_clustering(clustering, loaded.labels)
    stats = None
    if stats_file is not None:
        stats = read_stats_csv(stats_file)
        validate_stats_cover(stats, c)
    summary = {}
    for variant in rp.VARIANTS:
        result = synthesize(g, c, variant, seed, workers=workers, stats=stats)
        _write_outputs(out_dir / variant, result, loaded.labels, c)
        summary[variant] = result.report.to_dict()
    with open(out_dir / "comparison.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "runs": summary}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
