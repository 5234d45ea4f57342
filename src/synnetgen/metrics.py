"""Fidelity metrics between a reference network and a synthetic one.

Three scalar comparisons (absolute difference, relative difference, root
mean squared error over aligned sequences) applied to eight network
statistics, plus clustering agreement scores (NMI, ARI). Triangles are
counted by the degree-ordered forward method in wedge blocks of
_WEDGE_BLOCK, so their extra memory is O(m + block).
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .cluster_stats import _local_edge_groups
from .graphs import Clustering, CsrGraph, bfs_distances, build_csr, connected_components
from .mincut import global_min_cut

log = logging.getLogger(__name__)

DIAMETER_GUARD = 200_000
_WEDGE_BLOCK = 1 << 18  # wedges the triangle count checks per numpy step

MIXING_EDGE_FRACTION = "edge-fraction"
MIXING_NODE_MEAN = "node-mean"

ALIGN_IDENTITY = "identity"   # element i of both sequences is the same node
ALIGN_SORTED = "sorted"       # rank-aligned descending sequences


# ===== Scalar comparisons =====


def absolute_difference(s: float, s_syn: float) -> float:
    """Signed difference, reference minus synthetic."""
    return float(s) - float(s_syn)


def relative_difference(s: float, s_syn: float) -> float:
    """(s - s') / s; NaN when the reference value is zero."""
    s = float(s)
    if s == 0.0:
        return math.nan
    return (s - float(s_syn)) / s


def rmse(a, b) -> float:
    """Root mean squared error between two aligned sequences."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return math.nan
    return float(np.sqrt(np.mean((a - b) ** 2)))


# ===== Per-network statistics =====


def _triangles_per_node(g: CsrGraph) -> np.ndarray:
    """Triangles through each node, by the forward count (Chiba & Nishizeki).

    Nodes are renamed by their (degree, id) rank and each edge points
    from its smaller name to its larger, so each triangle is exactly one
    wedge (a pair of one node's out-edges) whose far ends are joined.
    Wedges are checked _WEDGE_BLOCK at a time against the sorted out-edge
    keys. A source's wedges come in ascending key order, so numpy's
    searchsorted starts each bisection where the previous one ended.
    """
    n = g.n
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), g.degrees))] = np.arange(n)
    up = np.repeat(rank, g.degrees) < rank[g.cols]
    key = np.repeat(rank, g.degrees)[up] * n + rank[g.cols[up]]  # source * n + target
    key.sort()
    # out-edge p pairs with each later out-edge of its source: wedges first[p]:first[p + 1]
    run_end = np.cumsum(np.bincount(key // n, minlength=n))
    first = np.concatenate(([0], np.cumsum(run_end[key // n] - np.arange(1, len(key) + 1))))
    tri = np.zeros(n, dtype=np.int64)
    for lo in range(0, int(first[-1]), _WEDGE_BLOCK):
        w = np.arange(lo, min(lo + _WEDGE_BLOCK, int(first[-1])))
        p = np.searchsorted(first, w, side="right") - 1
        ab = key[p] % n * n + key[w - first[p] + p + 1] % n
        hit = key[np.minimum(np.searchsorted(key, ab), len(key) - 1)] == ab
        np.add.at(tri, np.concatenate([key[p[hit]] // n, ab[hit] // n, ab[hit] % n]), 1)
    return tri[rank]


def clustering_coefficients(g: CsrGraph) -> tuple[float, float]:
    """(mean local coefficient, global coefficient).

    The local coefficient of a node with degree < 2 counts as 0 in the
    mean. The global coefficient is 3 * triangles / wedges (0 when there
    are no wedges).
    """
    deg = g.degrees.astype(np.float64)
    tri = _triangles_per_node(g)
    pairs = deg * (deg - 1) / 2.0
    eligible = deg >= 2
    local = np.zeros(g.n, dtype=np.float64)
    local[eligible] = tri[eligible] / pairs[eligible]
    mean_local = float(local.mean()) if g.n else 0.0
    wedges = float(pairs.sum())
    total_tri = float(tri.sum()) / 3.0
    global_coeff = 3.0 * total_tri / wedges if wedges > 0 else 0.0
    return mean_local, global_coeff


def _bounding_diameters(g: CsrGraph, nodes: np.ndarray) -> int:
    """Exact diameter of the connected component made of `nodes`.

    BoundingDiameters (Takes & Kosters, CIKM 2011). Each node keeps bounds
    lo <= ecc <= hi; a BFS from v with eccentricity e gives every w at
    distance d the bounds max(d, e - d) <= ecc(w) <= e + d, and the
    diameter lies in [max e, 2e]. Sources alternate between the candidate
    with the highest hi and the one with the lowest lo.
    """
    # ties in every pick go to the higher degree, then the smaller id
    nodes = nodes[np.lexsort((nodes, -g.degrees[nodes]))]
    k = len(nodes)
    lo = np.zeros(k, dtype=np.int64)
    hi = np.full(k, k, dtype=np.int64)  # no eccentricity reaches k
    alive = np.ones(k, dtype=bool)
    d_lo, d_hi = 0, k
    pick_high = True
    while d_lo < d_hi:
        if pick_high:
            i = int(np.where(alive, hi, -1).argmax())
        else:
            i = int(np.where(alive, lo, k).argmin())
        pick_high = not pick_high
        d = bfs_distances(g, int(nodes[i]))[nodes]
        ecc = int(d.max())
        np.maximum(lo, np.maximum(d, ecc - d), out=lo)
        np.minimum(hi, ecc + d, out=hi)
        d_lo = max(d_lo, ecc)
        d_hi = min(d_hi, 2 * ecc)
        alive &= (lo != hi) & ~((hi <= d_lo) & (2 * lo >= d_hi))
        # a dropped node's eccentricity is at most d_lo
        d_hi = min(d_hi, max(d_lo, int(hi[alive].max(initial=0))))
    return d_lo


def diameter_largest_component(g: CsrGraph) -> tuple[int, bool]:
    """Diameter of the largest connected component.

    Exact, from per-node eccentricity bounds that a few breadth-first
    searches tighten until the diameter's lower and upper bounds meet
    (see _bounding_diameters). Components above DIAMETER_GUARD nodes get a
    double-sweep lower bound instead; the second return value says
    whether the figure is exact.
    """
    if g.n == 0:
        return 0, True
    labels = connected_components(g)
    counts = np.bincount(labels)
    comp = int(np.argmax(counts))  # ties resolve to the smaller label
    nodes = np.flatnonzero(labels == comp)
    if len(nodes) == 1:
        return 0, True
    if len(nodes) > DIAMETER_GUARD:
        # argmax: the smallest id on the last BFS level
        far = int(np.argmax(bfs_distances(g, int(nodes[0]))))
        ecc = int(bfs_distances(g, far).max())
        log.warning("component of %d nodes exceeds diameter guard %d; "
                    "reporting double-sweep lower bound", len(nodes), DIAMETER_GUARD)
        return ecc, False
    return _bounding_diameters(g, nodes), True


def mixing_parameter(g: CsrGraph, c: Clustering,
                     mode: str = MIXING_EDGE_FRACTION) -> float:
    """Fraction of edges crossing clusters, or the per-node mean of that.

    Singleton nodes sit in their own clusters, so their edges always cross.
    """
    arr = g.edge_array()
    crossing = c.index[arr[:, 0]] != c.index[arr[:, 1]]
    if mode == MIXING_EDGE_FRACTION:
        if g.m == 0:
            return 0.0
        return float(crossing.sum()) / float(g.m)
    if mode == MIXING_NODE_MEAN:
        deg = g.degrees
        cross_deg = np.bincount(arr[crossing].ravel(), minlength=g.n)
        has_deg = deg > 0
        if not has_deg.any():
            return 0.0
        return float(np.mean(cross_deg[has_deg] / deg[has_deg]))
    raise ValueError(f"unknown mixing mode {mode!r}")


def outlier_clustered_edge_count(g: CsrGraph, c: Clustering) -> int:
    """Edges with exactly one singleton endpoint."""
    arr = g.edge_array()
    single = ~c.clustered_mask
    return int((single[arr[:, 0]] ^ single[arr[:, 1]]).sum())


def cluster_mincut_map(g: CsrGraph, c: Clustering) -> dict[int, int]:
    """Exact min cut of every multi-node cluster's induced subgraph."""
    return {cid: global_min_cut(build_csr(local, len(members)))
            for cid, members, local in _local_edge_groups(g.edge_array(), c)}


@dataclass
class NetworkStats:
    """Statistics of one network under one clustering.

    The sequences are raw and aligned: one degree per node, one min cut
    per multi-node cluster in cluster id order and one degree per
    singleton node, so two records on the same node universe and
    clustering compare entry by entry.
    """

    degrees: np.ndarray
    mincuts: np.ndarray
    diameter: int
    diameter_exact: bool
    outlier_clustered_edges: int
    outlier_degrees: np.ndarray
    local_clustering_mean: float
    global_clustering: float
    mixing: float


def compute_network_stats(g: CsrGraph, c: Clustering,
                          mixing_mode: str = MIXING_EDGE_FRACTION) -> NetworkStats:
    if c.n != g.n:
        raise ValueError("clustering does not cover the graph's nodes")
    cuts = cluster_mincut_map(g, c)
    diam, exact = diameter_largest_component(g)
    mean_local, global_coeff = clustering_coefficients(g)
    return NetworkStats(
        degrees=g.degrees,
        mincuts=np.array([cuts[cid] for cid in sorted(cuts)], dtype=np.int64),
        diameter=diam,
        diameter_exact=exact,
        outlier_clustered_edges=outlier_clustered_edge_count(g, c),
        outlier_degrees=g.degrees[c.singleton_nodes],
        local_clustering_mean=mean_local,
        global_clustering=global_coeff,
        mixing=mixing_parameter(g, c, mode=mixing_mode),
    )


# ===== Reference vs synthetic comparison =====


@dataclass
class MetricEntry:
    stat: str
    metric: str   # "rmse" | "relative" | "absolute"
    value: float
    note: str = ""


@dataclass
class MetricReport:
    entries: list = field(default_factory=list)
    alignment: str = ALIGN_IDENTITY
    mixing_mode: str = MIXING_EDGE_FRACTION

    def to_dict(self) -> dict:
        return {
            "alignment": self.alignment,
            "mixing_mode": self.mixing_mode,
            "metrics": [
                {"stat": e.stat, "metric": e.metric,
                 "value": None if math.isnan(e.value) else e.value,
                 "note": e.note}
                for e in self.entries
            ],
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("stat,metric,value,note\n")
            for e in self.entries:
                val = "" if math.isnan(e.value) else repr(e.value)
                fh.write(f"{e.stat},{e.metric},{val},{e.note}\n")


def compare_networks(g_ref: CsrGraph, g_syn: CsrGraph, c: Clustering,
                     alignment: str = ALIGN_IDENTITY,
                     mixing_mode: str = MIXING_EDGE_FRACTION) -> MetricReport:
    """Eight-statistic fidelity report, reference versus synthetic.

    Both graphs must live on the same node universe and share the
    clustering; each one's statistics come from compute_network_stats.
    Degree sequences compare node-by-node under the identity alignment
    (the default) or rank-by-rank when alignment="sorted"; min cut
    sequences align cluster-by-cluster.
    """
    if g_ref.n != g_syn.n or g_ref.n != c.n:
        raise ValueError("graphs and clustering must share one node universe")
    if alignment not in (ALIGN_IDENTITY, ALIGN_SORTED):
        raise ValueError(f"unknown alignment {alignment!r}")
    ref = compute_network_stats(g_ref, c, mixing_mode)
    syn = compute_network_stats(g_syn, c, mixing_mode)

    def seq_rmse(a, b) -> float:
        if alignment == ALIGN_SORTED:
            a, b = np.sort(a)[::-1], np.sort(b)[::-1]
        return rmse(a, b)

    def relative(stat, r, s, note="") -> MetricEntry:
        val = relative_difference(r, s)
        return MetricEntry(stat, "relative", val, note or (
            "undefined: reference is 0" if math.isnan(val) else ""))

    cut_note = "by-cluster-id" if alignment == ALIGN_IDENTITY else alignment
    exact = ref.diameter_exact and syn.diameter_exact
    entries = [
        MetricEntry("degree_sequence", "rmse",
                    seq_rmse(ref.degrees, syn.degrees), alignment),
        MetricEntry("mincut_sequence", "rmse", seq_rmse(ref.mincuts, syn.mincuts),
                    cut_note if len(ref.mincuts) else "no multi-node clusters"),
        relative("diameter", ref.diameter, syn.diameter,
                 "" if exact else "lower-bound"),
        relative("outlier_clustered_edges", ref.outlier_clustered_edges,
                 syn.outlier_clustered_edges),
        MetricEntry("outlier_degree_sequence", "rmse",
                    seq_rmse(ref.outlier_degrees, syn.outlier_degrees),
                    "" if len(ref.outlier_degrees) else "no outliers"),
        MetricEntry("local_clustering_mean", "absolute", absolute_difference(
            ref.local_clustering_mean, syn.local_clustering_mean)),
        MetricEntry("global_clustering", "absolute", absolute_difference(
            ref.global_clustering, syn.global_clustering)),
        MetricEntry("mixing_parameter", "absolute",
                    absolute_difference(ref.mixing, syn.mixing), mixing_mode),
    ]
    return MetricReport(entries=entries, alignment=alignment, mixing_mode=mixing_mode)


# ===== Clustering agreement =====


def _canonical_labels(arr) -> np.ndarray:
    """Relabel by first occurrence so label names cannot affect anything."""
    arr = np.asarray(arr)
    _, first, inverse = np.unique(arr, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return rank[inverse]


def _contingency(a, b):
    a = _canonical_labels(a)
    b = _canonical_labels(b)
    if len(a) != len(b):
        raise ValueError("partitions must cover the same nodes")
    ka = int(a.max()) + 1 if len(a) else 0
    kb = int(b.max()) + 1 if len(b) else 0
    keys, counts = np.unique(a * kb + b, return_counts=True)
    na = np.bincount(a, minlength=ka)
    nb = np.bincount(b, minlength=kb)
    return ka, kb, keys, counts, na, nb


def nmi(a, b) -> float:
    """Normalized mutual information with arithmetic-mean normalization.

    Exactly 1.0 when the partitions are identical up to relabeling; 0.0
    when the mutual information is zero. Invariant under any relabeling of
    either argument.
    """
    a = a.assignment if isinstance(a, Clustering) else a
    b = b.assignment if isinstance(b, Clustering) else b
    ka, kb, keys, counts, na, nb = _contingency(a, b)
    n = len(np.asarray(a))
    if n == 0:
        return 1.0
    # identical up to relabeling: exactly one nonzero per row and column
    if len(keys) == ka == kb:
        return 1.0
    na = na.astype(np.float64)
    nb = nb.astype(np.float64)
    h_a = -np.sum((na / n) * np.log(na / n))
    h_b = -np.sum((nb / n) * np.log(nb / n))
    denom = (h_a + h_b) / 2.0
    if denom <= 0.0:
        return 1.0  # both partitions trivial, hence identical
    pij = counts.astype(np.float64) / n
    pi = na[keys // kb] / n
    qj = nb[keys % kb] / n
    mi = float(np.sum(pij * (np.log(pij) - np.log(pi) - np.log(qj))))
    if mi <= 0.0:
        return 0.0
    return float(mi / denom)


def ari(a, b) -> float:
    """Adjusted Rand index under the permutation model."""
    a = a.assignment if isinstance(a, Clustering) else a
    b = b.assignment if isinstance(b, Clustering) else b
    ka, kb, keys, counts, na, nb = _contingency(a, b)
    n = len(np.asarray(a))
    if n == 0:
        return 1.0

    def comb2(x):
        x = np.asarray(x, dtype=np.int64)
        return x * (x - 1) // 2

    index = int(comb2(counts).sum())
    sum_a = int(comb2(na).sum())
    sum_b = int(comb2(nb).sum())
    total = int(comb2(np.array([n])).sum())
    expected = sum_a * sum_b / total if total else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))
