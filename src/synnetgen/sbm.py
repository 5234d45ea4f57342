"""Block edge-count matrix and degree-weighted block model sampling.

The block matrix is a sparse upper-triangular tally of how many edges run
between each pair of clusters (diagonal = intra-cluster count, stored
once, not doubled). Sampling re-places exactly those per-pair counts,
drawing endpoints inside each cluster proportionally to a per-node weight
(reference degrees in practice), with bounded rejection of self-loops and
duplicates.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .graphs import Clustering

log = logging.getLogger(__name__)

DEFAULT_CHUNK_SIZE = 1 << 16
MAX_RETRIES = 30  # redraws per demanded edge before it counts as shortfall


@dataclass(frozen=True)
class BlockMatrix:
    """Sparse symmetric block tally in coordinate form.

    block_ids are the sorted cluster ids; r and s index into block_ids
    with r <= s, and counts[i] is the number of edges between blocks
    r[i] and s[i]. The counts sum to the tallied edge total.
    """

    block_ids: np.ndarray
    r: np.ndarray
    s: np.ndarray
    counts: np.ndarray

    @property
    def total_edges(self) -> int:
        return int(self.counts.sum())

    def __len__(self) -> int:
        return len(self.counts)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "s", "count"])
            for r, s, cnt in zip(self.r.tolist(), self.s.tolist(),
                                 self.counts.tolist()):
                writer.writerow([int(self.block_ids[r]), int(self.block_ids[s]), cnt])


def build_block_matrix(edges, c: Clustering,
                       chunk_size: int = DEFAULT_CHUNK_SIZE) -> BlockMatrix:
    """Tally edges into cluster-pair coordinates.

    Edges are processed in fixed-size chunks whose partial tallies are
    merged by coordinate, so the result is identical for any chunk size.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    ids = c.cluster_ids
    b = len(ids)
    bidx = np.searchsorted(ids, c.assignment)

    def tally(chunk):
        cu = bidx[chunk[:, 0]]
        cv = bidx[chunk[:, 1]]
        lo = np.minimum(cu, cv)
        hi = np.maximum(cu, cv)
        keys, counts = np.unique(lo * b + hi, return_counts=True)
        return keys, counts

    parts = [tally(arr[i:i + chunk_size]) for i in range(0, len(arr), chunk_size)]
    if parts:
        all_keys = np.concatenate([p[0] for p in parts])
        all_counts = np.concatenate([p[1] for p in parts])
        keys, inverse = np.unique(all_keys, return_inverse=True)
        counts = np.bincount(inverse, weights=all_counts).astype(np.int64)
    else:
        keys = np.empty(0, dtype=np.int64)
        counts = np.empty(0, dtype=np.int64)
    return BlockMatrix(block_ids=ids, r=keys // b if b else keys,
                       s=keys % b if b else keys, counts=counts)


@dataclass
class SampleReport:
    """Outcome of one sampling run."""

    requested: int
    placed: int
    shortfall: int
    coordinate_shortfall: np.ndarray  # aligned with the block matrix entries
    single_node_intra_blocks: int


def degree_weights(edges, n: int) -> np.ndarray:
    """Per-node endpoint weights: the node's degree in the given edge array."""
    return np.bincount(np.asarray(edges, dtype=np.int64).ravel(),
                       minlength=n).astype(np.float64)


def _draw(rng, cumw, nodes, k):
    """k weighted draws from a block. cumw is the cumulative weight vector."""
    total = cumw[-1]
    return nodes[np.searchsorted(cumw, rng.random(k) * total, side="right")]


def sample_dcsbm(bm: BlockMatrix, c: Clustering, weights,
                 seed: int) -> tuple[np.ndarray, SampleReport]:
    """Sample a simple graph realizing the block matrix counts.

    Returns the placed edges as a canonical (u < v, lexicographically
    sorted) int64 array, and the report.

    Every coordinate gets its own RNG stream derived from (seed, index),
    so the draw for one coordinate never depends on any other and the
    output is identical no matter how coordinates are scheduled. Each
    demanded edge gets at most MAX_RETRIES redraws before it is dropped
    and counted as shortfall. A block whose weights sum to zero falls
    back to uniform endpoints.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != c.n:
        raise ValueError("weights length must match node count")
    ids = c.cluster_ids
    lookup = np.searchsorted(ids, bm.block_ids)
    bad = (lookup >= len(ids)) | (ids[np.minimum(lookup, len(ids) - 1)] != bm.block_ids) \
        if len(ids) else np.ones(len(bm.block_ids), dtype=bool)
    if len(bm.block_ids) and bad.any():
        raise ValueError(
            f"block id {int(bm.block_ids[int(np.flatnonzero(bad)[0])])} has no members"
        )

    members: dict[int, np.ndarray] = {}
    cumws: dict[int, np.ndarray] = {}

    def block(bi: int):
        if bi not in members:
            nodes = c.members(int(bm.block_ids[bi]))
            w = weights[nodes]
            if w.sum() <= 0:
                w = np.ones(len(nodes), dtype=np.float64)
            members[bi] = nodes
            cumws[bi] = np.cumsum(w)
        return members[bi], cumws[bi]

    placed: list[tuple[int, int]] = []
    shortfall = np.zeros(len(bm), dtype=np.int64)
    lonely_blocks = 0

    for i in range(len(bm)):
        r = int(bm.r[i])
        s = int(bm.s[i])
        cnt = int(bm.counts[i])
        if cnt <= 0:
            continue
        nodes_r, cum_r = block(r)
        if r == s and len(nodes_r) == 1:
            # a single node cannot host intra-block edges
            shortfall[i] = cnt
            lonely_blocks += 1
            continue
        if r != s:
            nodes_s, cum_s = block(s)
            if len(nodes_r) == 1 and len(nodes_s) == 1:
                u, v = int(nodes_r[0]), int(nodes_s[0])
                placed.append((u, v) if u < v else (v, u))
                shortfall[i] = cnt - 1
                continue
        else:
            nodes_s, cum_s = nodes_r, cum_r
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        )
        seen: set[tuple[int, int]] = set()
        need = cnt
        for _ in range(MAX_RETRIES + 1):
            if need == 0:
                break
            du = _draw(rng, cum_r, nodes_r, need)
            dv = _draw(rng, cum_s, nodes_s, need)
            for u, v in zip(du.tolist(), dv.tolist()):
                if u == v:
                    continue
                key = (u, v) if u < v else (v, u)
                if key in seen:
                    continue
                seen.add(key)
            need = cnt - len(seen)
        placed.extend(seen)
        shortfall[i] = need

    if lonely_blocks:
        log.warning("%d single-node blocks demanded intra edges; dropped", lonely_blocks)
    total_short = int(shortfall.sum())
    if total_short:
        log.info("sampling shortfall: %d of %d edges dropped",
                 total_short, bm.total_edges)
    report = SampleReport(
        requested=bm.total_edges,
        placed=len(placed),
        shortfall=total_short,
        coordinate_shortfall=shortfall,
        single_node_intra_blocks=lonely_blocks,
    )
    # coordinates are disjoint block pairs, so the placed edges are unique
    arr = np.array(placed, dtype=np.int64).reshape(-1, 2)
    keys = np.sort(arr[:, 0] * c.n + arr[:, 1])
    return np.column_stack([keys // c.n, keys % c.n]), report
