"""Block edge-count matrix and degree-weighted block model sampling.

The block matrix is a sparse upper-triangular tally of how many edges run
between each pair of clusters (diagonal = intra-cluster count, stored
once, not doubled), counted by one np.unique over packed pair keys.
Sampling re-places exactly those per-pair counts, drawing endpoints
inside each cluster proportionally to a per-node weight (reference
degrees in practice), with bounded rejection of self-loops and
duplicates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graphs import Clustering

log = logging.getLogger(__name__)

MAX_RETRIES = 30  # redraws per demanded edge before it counts as shortfall


@dataclass(frozen=True)
class BlockMatrix:
    """Sparse symmetric block tally in coordinate form.

    r and s index the cluster_ids of the clustering it was tallied over,
    with r <= s, and counts[i] is the number of edges between blocks
    r[i] and s[i]. The counts sum to the tallied edge total.
    """

    r: np.ndarray
    s: np.ndarray
    counts: np.ndarray

    @property
    def total_edges(self) -> int:
        return int(self.counts.sum())

    def __len__(self) -> int:
        return len(self.counts)


def build_block_matrix(edges, c: Clustering) -> BlockMatrix:
    """Tally edges into cluster-pair coordinates, sorted by (r, s)."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    b = len(c.cluster_ids)
    cu = c.index[arr[:, 0]]
    cv = c.index[arr[:, 1]]
    keys, counts = np.unique(np.minimum(cu, cv) * b + np.maximum(cu, cv),
                             return_counts=True)
    return BlockMatrix(r=keys // b if b else keys,
                       s=keys % b if b else keys, counts=counts)


@dataclass
class SampleReport:
    """Outcome of one sampling run."""

    requested: int
    placed: int
    shortfall: int
    coordinate_shortfall: np.ndarray  # aligned with the block matrix entries


def degree_weights(edges, n: int) -> np.ndarray:
    """Per-node endpoint weights: the node's degree in the given edge array."""
    return np.bincount(np.asarray(edges, dtype=np.int64).ravel(),
                       minlength=n).astype(np.float64)


_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: a bijective bit avalanche on uint64 values."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _hash(key, x: np.ndarray) -> np.ndarray:
    """Keyed counter hash mix(key ^ mix(x)): a bijection of x for each key."""
    return _mix64(key ^ _mix64(x))


def sample_dcsbm(bm: BlockMatrix, c: Clustering, weights,
                 seed: int) -> tuple[np.ndarray, SampleReport]:
    """Sample a simple graph realizing the block matrix counts.

    Returns the placed edges as a canonical (u < v, lexicographically
    sorted) int64 array, and the report.

    Every uniform is the top 53 bits of a counter-based hash of (seed,
    coordinate index, round, draw index, endpoint side), so the draw for
    one coordinate never depends on any other and the output is identical
    no matter how coordinates are scheduled. An endpoint is one
    searchsorted of the uniform, scaled to its block's weight range, in
    the cumulative weights of all nodes grouped by block. Each round
    draws every still-short coordinate's missing edges at once; self-loops
    and edges the coordinate already holds are rejected, and after
    MAX_RETRIES redraw rounds what is still missing is counted as
    shortfall. A block whose weights sum to zero falls back to uniform
    endpoints.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != c.n:
        raise ValueError("weights length must match node count")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    # nodes grouped by cluster; cluster k is the contiguous run start[k]:stop[k]
    order, bounds = c.grouped
    start, stop = bounds[:-1], bounds[1:]
    size = stop - start
    owner = c.index[order]
    w = weights[order]
    w = np.where((np.bincount(owner, weights=w, minlength=len(size)) <= 0)[owner], 1.0, w)
    # one running sum over all clusters; degree weights are integers, so
    # every cluster's range (base, base + total] is exact
    cum = np.cumsum(w)
    base = np.concatenate(([0.0], cum))[start]
    total = cum[stop - 1] - base
    positive = np.flatnonzero(w > 0)
    # the last positive-weight position of each cluster: a pick rounded up
    # past the cluster's range lands there, never on a zero-weight node
    last = positive[np.searchsorted(positive, stop) - 1]

    def pick(k, u):
        at = np.searchsorted(cum, base[k] + u * total[k], side="right")
        return order[np.minimum(at, last[k])]

    # a copy: np.asarray may alias bm.counts, and need counts down in place
    need = np.asarray(bm.counts, dtype=np.int64).copy()

    n = c.n
    keys = owners = np.empty(0, dtype=np.int64)
    ends = np.column_stack([bm.r, bm.s])
    stream = _hash(_mix64(np.uint64(seed)), np.arange(len(bm), dtype=np.uint64))
    side = np.arange(2, dtype=np.uint64)
    for rnd in range(MAX_RETRIES + 1):
        short = np.flatnonzero(need)
        if not len(short):
            break
        k = need[short]
        coord = np.repeat(short, k)
        draw = np.arange(len(coord)) - np.repeat(np.cumsum(k) - k, k)
        # counter bits: round from bit 40 up, draw index, endpoint side in bit 0
        ctr = (np.uint64(rnd) << np.uint64(40)) | (draw.astype(np.uint64) << np.uint64(1))
        bits = _hash(stream[coord, None], ctr[:, None] | side)
        uv = pick(ends[coord], (bits >> np.uint64(11)) * 2.0 ** -53)
        ok = uv[:, 0] != uv[:, 1]
        cand = uv.min(axis=1)[ok] * n + uv.max(axis=1)[ok]
        # a node pair fixes its block pair, so keys never collide across
        # coordinates and one dedupe against the edges the short
        # coordinates already hold is the per-coordinate dedupe
        held = keys[need[owners] > 0]
        _, first = np.unique(np.concatenate([held, cand]), return_index=True)
        fresh = first[first >= len(held)] - len(held)
        keys = np.concatenate([keys, cand[fresh]])
        got = coord[ok][fresh]
        owners = np.concatenate([owners, got])
        need -= np.bincount(got, minlength=len(bm))

    total_short = int(need.sum())
    if total_short:
        log.info("sampling shortfall: %d of %d edges dropped",
                 total_short, bm.total_edges)
    report = SampleReport(
        requested=bm.total_edges,
        placed=len(keys),
        shortfall=total_short,
        coordinate_shortfall=need,
    )
    keys = np.sort(keys)
    return np.column_stack([keys // n, keys % n]), report
