"""Per-cluster summary statistics of a reference network.

For every cluster with more than one member: node count, intra-cluster
edge count, and the exact minimum cut of the cluster's induced subgraph.
These are the repair targets for the generation stages, so getting them
from a precomputed file must be interchangeable with recomputing them.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .graphs import (Clustering, CsrGraph, GraphFormatError, _decode_input, _read_input,
                     _text_blocks)
from .mincut import min_cut_of_edges

STATS_HEADER = ["cluster", "n", "m", "mincut"]


@dataclass(frozen=True)
class ClusterStats:
    cluster_id: int
    n: int
    m: int
    mincut: int


def _local_edge_groups(edges: np.ndarray, c: Clustering):
    """Group a canonical edge array by cluster and localise it.

    Yields (cluster_id, members, local_edges) for every multi-node cluster
    of c in cluster id order. Local node i is the cluster's i-th member in
    ascending id order; edges between two clusters are dropped.
    """
    order, bounds = c.grouped
    sizes = np.diff(bounds)
    rank = np.empty(c.n, dtype=np.int64)
    rank[order] = np.arange(c.n) - np.repeat(bounds[:-1], sizes)
    keys = c.index[edges[:, 0]]
    same = keys == c.index[edges[:, 1]]
    keys = keys[same]
    local = rank[edges[same][np.argsort(keys, kind="stable")]]
    # only a multi-node cluster can hold an intra edge, so the multi-node
    # clusters' runs tile the sorted edges
    multi = np.flatnonzero(sizes > 1)
    runs = np.bincount(keys, minlength=len(sizes))[multi]
    groups = np.split(local, np.cumsum(runs)[:-1])
    for k, group in zip(multi.tolist(), groups):
        yield int(c.cluster_ids[k]), order[bounds[k]:bounds[k + 1]], group


def cluster_edge_tables(g: CsrGraph, c: Clustering):
    """(cluster_id, size, local intra edges) of every multi-node cluster, by id."""
    return [(cid, len(members), local)
            for cid, members, local in _local_edge_groups(g.edge_array(), c)]


def _stats_task(task) -> ClusterStats:
    cid, size, local_edges = task
    return ClusterStats(cluster_id=cid, n=size, m=int(len(local_edges)),
                        mincut=min_cut_of_edges(size, local_edges))


def compute_stats(g: CsrGraph, c: Clustering, workers: int = 1) -> dict[int, ClusterStats]:
    """ClusterStats for every cluster of size > 1, keyed by cluster id."""
    with _pool(workers) as executor:
        return {s.cluster_id: s for s in executor(_stats_task, cluster_edge_tables(g, c))}


def _usable_cpus() -> int:
    """CPUs this process may run on; os.cpu_count() with no affinity set (macOS)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@contextmanager
def _pool(workers: int):
    """Yield executor(fn, items): fn's lazy in-order results over a list.

    With workers > 1 it submits every task to one process pool at once, so
    the work starts before the results are read; otherwise it is map. The
    pool forks all its processes at the first submit, so workers is clamped
    to the CPUs this process may run on; results do not depend on it.
    """
    workers = min(workers, _usable_cpus())
    if workers <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        def executor(fn, items):
            # about eight chunks per worker
            return pool.map(fn, items, chunksize=max(1, len(items) // (workers * 8)))
        yield executor


def write_stats_csv(stats: dict[int, ClusterStats], path) -> None:
    """Rows by cluster id, CRLF line ends; dtype object writes any int as read."""
    rows = np.array([astuple(stats[cid]) for cid in sorted(stats)], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(STATS_HEADER) + "\r\n")
        fh.writelines(_text_blocks(rows, "%d,%d,%d,%d\r\n"))


def read_stats_csv(path) -> dict[int, ClusterStats]:
    """Read a stats CSV written by write_stats_csv (or produced upstream).

    A cluster may have one row only, and n, m and mincut may not be negative.
    """
    path = Path(path)
    text = _decode_input(path, _read_input(path))
    out: dict[int, ClusterStats] = {}
    reader = csv.reader(io.StringIO(text, newline=""))
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
        if min(n, m, cut) < 0:
            raise GraphFormatError(f"{path}: row {row_no}: negative n, m or mincut")
        if cid in out:
            raise GraphFormatError(f"{path}: row {row_no}: cluster {cid} repeated")
        out[cid] = ClusterStats(cluster_id=cid, n=n, m=m, mincut=cut)
    return out


def validate_stats_cover(stats: dict[int, ClusterStats], c: Clustering) -> None:
    """Ensure injected stats cover every multi-node cluster of c, each row
    with n equal to the cluster's member count."""
    _, bounds = c.grouped
    sizes = np.diff(bounds)
    multi = sizes > 1
    missing, wrong_n = [], []
    for cid, size in zip(c.cluster_ids[multi].tolist(), sizes[multi].tolist()):
        if cid not in stats:
            missing.append(cid)
        elif stats[cid].n != size:
            wrong_n.append(cid)
    for what, ids in (("missing clusters", missing),
                      ("n differs from the member count of clusters", wrong_n)):
        if ids:
            raise GraphFormatError(f"stats file {what}: {ids[:10]}"
                                   + (" ..." if len(ids) > 10 else ""))
