"""Exact global minimum edge cut.

Stoer-Wagner over a dense weight matrix. global_min_cut and
min_cut_of_edges return the cut value only, which is all that cluster
stats and eval read; repair calls stoer_wagner_dense itself for the side
it adds an edge across. Intended cluster sizes are a few thousand nodes at
most; a size guard refuses anything larger instead of silently
approximating. One cut on n nodes holds about three n x n int64 matrices
at once (the adjacency, its working copy and a phase's active submatrix),
so the guard of 8,192 nodes bounds a cut at three 512 MiB matrices.
"""

from __future__ import annotations

import numpy as np

from .graphs import CsrGraph, bfs_distances, build_csr

SIZE_GUARD = 8_192

# key of a node already in the phase's added set; later row additions
# (at most the total edge weight) keep it below every real weight
_ADDED = np.int64(-(1 << 62))


class MinCutSizeError(RuntimeError):
    """Input exceeds the exact-cut size guard."""


def check_size(n: int) -> None:
    """Raise MinCutSizeError if an exact cut on n nodes exceeds SIZE_GUARD."""
    if n > SIZE_GUARD:
        raise MinCutSizeError(f"{n} nodes exceeds exact min cut guard {SIZE_GUARD}")


def stoer_wagner_dense(w: np.ndarray) -> tuple[int, list[int]]:
    """Minimum cut of a weighted undirected graph given as a dense matrix.

    w must be symmetric with a zero diagonal and at least 2 rows. Returns
    (value, side) with side listing the nodes on one shore of a minimum
    cut. All tie-breaks resolve toward smaller node ids, so the result is
    deterministic.
    """
    n = w.shape[0]
    wm = np.array(w, dtype=np.int64)
    groups = [[i] for i in range(n)]
    active = np.arange(n)
    best_value = None
    best_side: list[int] = []
    while len(active) > 1:
        a = len(active)
        # one phase works on the active submatrix; key holds each node's
        # weight to the added set, and _ADDED (below any weight) once added
        sub = wm[np.ix_(active, active)]
        key = sub[0].copy()
        key[0] = _ADDED
        prev_pos = 0
        last_pos = 0
        cut_of_phase = 0
        for _ in range(1, a):
            sel = int(key.argmax())
            cut_of_phase = int(key[sel])
            prev_pos = last_pos
            last_pos = sel
            key += sub[sel]
            key[sel] = _ADDED
        t = int(active[last_pos])
        s = int(active[prev_pos])
        if best_value is None or cut_of_phase < best_value:
            best_value = cut_of_phase
            best_side = list(groups[t])
        # merge t into s
        wm[s, :] += wm[t, :]
        wm[:, s] += wm[:, t]
        wm[s, s] = 0
        groups[s].extend(groups[t])
        active = active[active != t]
    return int(best_value), sorted(best_side)


def dense_adjacency(n: int, edges) -> np.ndarray:
    """n x n 0/1 int64 weight matrix of a simple graph given as an edge array."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    w = np.zeros((n, n), dtype=np.int64)
    w[arr[:, 0], arr[:, 1]] = 1
    w[arr[:, 1], arr[:, 0]] = 1
    return w


def global_min_cut(g: CsrGraph) -> int:
    """Exact global minimum edge cut value of a CsrGraph; see min_cut_of_edges."""
    return _min_cut(g, g.edge_array())


def min_cut_of_edges(n: int, edges) -> int:
    """Exact min cut value of a graph given by node count and an (m, 2) edge array.

    Graphs with fewer than two nodes, and disconnected graphs, have cut 0.
    """
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return _min_cut(build_csr(arr, n), arr)


def _min_cut(g: CsrGraph, arr: np.ndarray) -> int:
    """Min cut value of g, whose canonical edge array is arr."""
    check_size(g.n)
    if g.n <= 1 or (bfs_distances(g, 0) < 0).any():
        return 0
    return stoer_wagner_dense(dense_adjacency(g.n, arr))[0]
