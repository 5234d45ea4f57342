"""Seeded planted references for the benchmark, written as plain files.

Nothing here imports the package under test or its test helpers, so an
edit to either cannot change what the benchmark feeds the program. A
planted cluster is a connected core whose exact minimum cut is known by
construction: a random tree has cut 1, a cycle has cut 2 and the Harary
graph H(k, n) has cut k (every cluster has at least five nodes, so
k <= 4 < n). Those known cuts are the targets the output check and the
stats CSV use.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Spec:
    """Shape of a planted reference. Sizes and targets are fixed multisets;
    the seed only decides their order, the core edges, the inter-cluster
    and singleton edges and the node labels, so run time varies little
    from seed to seed."""

    sizes: tuple            # cluster sizes, each >= 5
    cut_choices: tuple      # targets, assigned round-robin then shuffled
    singletons: int
    inter_ratio: float      # inter-cluster edges per intra-cluster edge


@dataclass
class Reference:
    edges: np.ndarray       # canonical (m, 2) internal ids, sorted
    assignment: np.ndarray  # internal id -> cluster id
    labels: np.ndarray      # internal id -> external label
    targets: dict           # cluster id -> (n, m, mincut) of the planted core


def spread_sizes(n_clusters: int, total: int, lo: int, hi: int) -> tuple:
    """n_clusters sizes between lo and hi summing to total, evenly spread."""
    sizes = np.linspace(lo, hi, n_clusters).round().astype(np.int64)
    sizes[-1] += total - int(sizes.sum())
    if sizes.min() < 5:
        raise ValueError("every cluster needs at least five nodes")
    return tuple(sizes.tolist())


def harary(k: int, n: int) -> np.ndarray:
    """Edges of the Harary graph H(k, n): k-edge-connected, ceil(kn/2) edges."""
    i = np.arange(n)
    parts = [np.column_stack([i, (i + d) % n]) for d in range(1, k // 2 + 1)]
    if k % 2:
        half = n // 2
        j = np.arange(half if n % 2 == 0 else half + 1)
        parts.append(np.column_stack([j, (j + half) % n]))
    return np.concatenate(parts)


def core(rng, size: int, cut: int) -> np.ndarray:
    """Connected core with exact min cut `cut` (1 to 4), local ids."""
    if cut == 1:
        child = np.arange(1, size)
        parent = (rng.random(size - 1) * child).astype(np.int64)
        return np.column_stack([parent, child])
    return harary(cut, size)


def _canonical_unique(pairs: np.ndarray, n: int) -> np.ndarray:
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys = np.unique(lo[lo != hi] * n + hi[lo != hi])
    return np.column_stack([keys // n, keys % n])


def _inter_cluster_edges(rng, count: int, assignment: np.ndarray, n_clustered: int,
                         taken: set) -> np.ndarray:
    """count distinct new edges between clustered nodes of different clusters.

    taken holds the keys u * n + v of edges already placed."""
    n = len(assignment)
    out = []
    while len(out) < count:
        u = rng.integers(0, n_clustered, size=2 * count)
        v = rng.integers(0, n_clustered, size=2 * count)
        ok = assignment[u] != assignment[v]
        for a, b in zip(np.minimum(u, v)[ok].tolist(), np.maximum(u, v)[ok].tolist()):
            if a * n + b not in taken:
                taken.add(a * n + b)
                out.append((a, b))
                if len(out) == count:
                    break
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def planted(spec: Spec, seed: int) -> Reference:
    rng = np.random.default_rng(seed)
    sizes = rng.permutation(np.array(spec.sizes, dtype=np.int64))
    cuts = np.resize(np.array(spec.cut_choices, dtype=np.int64), len(sizes))
    cuts = rng.permutation(cuts)
    n_clustered = int(sizes.sum())
    n = n_clustered + spec.singletons
    assignment = np.empty(n, dtype=np.int64)
    parts = []
    targets = {}
    base = 0
    for cid, (size, cut) in enumerate(zip(sizes.tolist(), cuts.tolist())):
        local = _canonical_unique(core(rng, size, cut), size)
        parts.append(local + base)
        assignment[base:base + size] = cid
        targets[cid] = (size, len(local), cut)
        base += size
    assignment[n_clustered:] = len(sizes) + np.arange(spec.singletons)
    intra = np.concatenate(parts)
    taken = set((intra[:, 0] * n + intra[:, 1]).tolist())
    inter = _inter_cluster_edges(rng, int(round(spec.inter_ratio * len(intra))),
                                 assignment, n_clustered, taken)
    # every singleton gets one to three edges into the clustered part
    degs = rng.integers(1, 4, size=spec.singletons)
    single = np.repeat(np.arange(n_clustered, n), degs)
    single = np.column_stack([rng.integers(0, n_clustered, size=len(single)), single])
    edges = _canonical_unique(np.concatenate([intra, inter, single]), n)
    return Reference(edges=edges, assignment=assignment,
                     labels=rng.permutation(n).astype(np.int64) * 3 + 1,
                     targets=targets)


def rewired(ref: Reference, seed: int, share: float) -> np.ndarray:
    """Copy of ref's edges with `share` of them moved to random new pairs.

    No node loses or gains more than one edge, so the degree RMSE between
    the two networks is sqrt(4 * moved / n) whatever the seed; only which
    edges move, and so the rest of the eval statistics, depends on it.
    """
    rng = np.random.default_rng([seed, 1])
    n = len(ref.labels)
    moved = int(round(share * len(ref.edges)))
    used = np.zeros(n, dtype=bool)
    drop = []
    for i in rng.permutation(len(ref.edges)).tolist():
        u, v = ref.edges[i]
        if not (used[u] or used[v]):
            used[u] = used[v] = True
            drop.append(i)
            if len(drop) == moved:
                break
    taken = set((ref.edges[:, 0] * n + ref.edges[:, 1]).tolist())
    free = rng.permutation(np.flatnonzero(~used)).tolist()
    new = []
    while len(new) < moved:
        u, v = sorted((free.pop(), free.pop()))
        if u * n + v not in taken:
            new.append((u, v))
    keep = np.delete(ref.edges, drop, axis=0)
    return _canonical_unique(np.concatenate([keep, np.array(new, dtype=np.int64)]), n)


def write_edges(edges: np.ndarray, labels: np.ndarray, path: Path) -> None:
    ext = labels[edges]
    ext.sort(axis=1)
    ext = ext[np.lexsort((ext[:, 1], ext[:, 0]))]
    path.write_text("".join(f"{a}\t{b}\n" for a, b in ext.tolist()), encoding="utf-8")


def write_clustering(ref: Reference, path: Path) -> None:
    order = np.argsort(ref.labels)
    rows = zip(ref.labels[order].tolist(), ref.assignment[order].tolist())
    path.write_text("".join(f"{a}\t{c}\n" for a, c in rows), encoding="utf-8")


def write_stats(ref: Reference, path: Path) -> None:
    rows = "".join(f"{cid},{n},{m},{cut}\n" for cid, (n, m, cut) in sorted(ref.targets.items()))
    path.write_text("cluster,n,m,mincut\n" + rows, encoding="utf-8")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
