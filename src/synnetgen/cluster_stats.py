"""Per-cluster summary statistics of a reference network.

For every cluster with more than one member: node count, intra-cluster
edge count, and the exact minimum cut of the cluster's induced subgraph.
These are the repair targets for the generation stages, so getting them
from a precomputed file must be interchangeable with recomputing them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import Clustering, CsrGraph, GraphFormatError
from .mincut import min_cut_of_edges

STATS_HEADER = ["cluster", "n", "m", "mincut"]


@dataclass(frozen=True)
class ClusterStats:
    cluster_id: int
    n: int
    m: int
    mincut: int


def cluster_edge_tables(g: CsrGraph, c: Clustering):
    """Intra-cluster edges of every multi-node cluster, in local indices.

    Returns a list of (cluster_id, size, local_edge_array) ordered by
    cluster id. Local node i is the cluster's i-th member in ascending
    parent id order.
    """
    arr = g.edge_array()
    tables = []
    if arr.size:
        au = c.assignment[arr[:, 0]]
        av = c.assignment[arr[:, 1]]
        intra = (au == av) & (c.node_sizes[arr[:, 0]] > 1)
        intra_edges = arr[intra]
        keys = au[intra]
        order = np.argsort(keys, kind="stable")
        intra_edges = intra_edges[order]
        keys = keys[order]
        uniq, starts = np.unique(keys, return_index=True)
        bounds = np.concatenate((starts, [len(keys)]))
        by_cluster = {int(cid): intra_edges[bounds[i]:bounds[i + 1]]
                      for i, cid in enumerate(uniq)}
    else:
        by_cluster = {}
    empty = np.empty((0, 2), dtype=np.int64)
    for cid in c.multi_cluster_ids.tolist():
        members = c.members(cid)
        edges = by_cluster.get(cid, empty)
        local = np.searchsorted(members, edges) if edges.size else edges
        tables.append((cid, len(members), local))
    return tables


def _stats_task(task) -> ClusterStats:
    cid, size, local_edges = task
    cut = min_cut_of_edges(size, local_edges)
    return ClusterStats(cluster_id=cid, n=size, m=int(len(local_edges)),
                        mincut=cut.value)


def compute_stats(g: CsrGraph, c: Clustering, workers: int = 1) -> dict[int, ClusterStats]:
    """ClusterStats for every cluster of size > 1, keyed by cluster id."""
    tasks = cluster_edge_tables(g, c)
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_stats_task, tasks, chunksize=_chunksize(len(tasks), workers)))
    else:
        results = [_stats_task(t) for t in tasks]
    return {s.cluster_id: s for s in results}


def _chunksize(n_tasks: int, workers: int) -> int:
    """Tasks per pool round trip: about eight chunks per worker."""
    return max(1, n_tasks // (max(1, workers) * 8))


def reference_degrees(g: CsrGraph) -> np.ndarray:
    """Degree of every node, the target sequence for degree matching."""
    return g.degrees.astype(np.int64)


def write_stats_csv(stats: dict[int, ClusterStats], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATS_HEADER)
        for cid in sorted(stats):
            s = stats[cid]
            writer.writerow([s.cluster_id, s.n, s.m, s.mincut])


def read_stats_csv(path) -> dict[int, ClusterStats]:
    """Read a stats CSV written by write_stats_csv (or produced upstream)."""
    path = Path(path)
    if not path.exists():
        raise GraphFormatError(f"{path}: file not found")
    out: dict[int, ClusterStats] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != STATS_HEADER:
            raise GraphFormatError(f"{path}: expected header {','.join(STATS_HEADER)}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise GraphFormatError(f"{path}: row {row_no}: expected 4 columns")
            try:
                cid, n, m, cut = (int(x) for x in row)
            except ValueError:
                raise GraphFormatError(f"{path}: row {row_no}: non-integer value")
            out[cid] = ClusterStats(cluster_id=cid, n=n, m=m, mincut=cut)
    return out


def validate_stats_cover(stats: dict[int, ClusterStats], c: Clustering) -> None:
    """Ensure injected stats cover every multi-node cluster of c."""
    missing = [int(cid) for cid in c.multi_cluster_ids if int(cid) not in stats]
    if missing:
        raise GraphFormatError(
            f"stats file missing clusters: {missing[:10]}"
            + (" ..." if len(missing) > 10 else "")
        )
