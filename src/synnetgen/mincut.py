"""Exact global minimum edge cut.

Most cuts are settled without the cubic kernel, from proven lower bounds
on the cut value lambda, with delta the smallest degree:
- lambda = delta when n <= 2 delta + 1 (Chartrand 1966);
- one low-link DFS (Tarjan 1974) gives 0 for a disconnected graph, 1 for
  a connected one with a bridge and 2 for a bridgeless one.

Since lambda <= delta, the bound is the cut itself when it is below 2 or
equals delta. Only the other graphs reach stoer_wagner_dense, told the
bound so that it stops at the first phase that reaches it. global_min_cut
and min_cut_of_edges return the cut value only, which is all that cluster
stats and eval read; repair calls cut_floor and stoer_wagner_dense itself
for the side it adds an edge across.

Intended cluster sizes are a few thousand nodes at most; a size guard,
checked before any bound, refuses anything larger instead of silently
approximating. One kernel call on n nodes holds about three n x n int64
matrices at once (the adjacency, its working copy and a phase's active
submatrix), so the guard of 8,192 nodes bounds a cut at three 512 MiB
matrices.
"""

from __future__ import annotations

import numpy as np

from .graphs import CsrGraph, build_csr

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


def bridge_floor(adj) -> int:
    """Lower bound on the min cut of a simple graph from one low-link DFS.

    adj[v] lists the neighbours of node v, and the graph has at least two
    nodes. Returns 0 if the graph is disconnected, 1 if it is connected
    and has a bridge, and 2 if it is bridgeless.
    """
    n = len(adj)
    disc = [0] * n  # 1-based discovery time, 0 while unvisited
    low = [0] * n
    disc[0] = low[0] = seen = 1
    bridge = False
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        v, parent, it = stack[-1]
        for u in it:
            if not disc[u]:
                seen += 1
                disc[u] = low[u] = seen
                stack.append((u, v, iter(adj[u])))
                break
            if u != parent and disc[u] < low[v]:
                low[v] = disc[u]
        else:
            stack.pop()
            if parent >= 0:
                if low[v] > disc[parent]:
                    bridge = True
                elif low[v] < low[parent]:
                    low[parent] = low[v]
    if seen < n:
        return 0
    return 1 if bridge else 2


def cut_floor(adj, min_degree: int) -> int:
    """Proven lower bound on the min cut of a simple graph of >= 2 nodes.

    adj[v] lists the neighbours of node v and min_degree is the smallest
    degree. The bound is min_degree when n <= 2 * min_degree + 1, and
    bridge_floor otherwise. It equals the cut when it is below 2 or equal
    to min_degree.
    """
    if len(adj) <= 2 * min_degree + 1:
        return min_degree
    return bridge_floor(adj)


def stoer_wagner_dense(w: np.ndarray, floor: int = 0) -> tuple[int, list[int]]:
    """Minimum cut of a weighted undirected graph given as a dense matrix.

    w must be symmetric with a zero diagonal and at least 2 rows. Returns
    (value, side) with side listing the nodes on one shore of a minimum
    cut. All tie-breaks resolve toward smaller node ids, so the result is
    deterministic.

    floor must be a proven lower bound on the cut. The search stops at the
    first phase whose cut reaches it: no later phase cut is smaller, and
    only a strictly smaller one would replace the best, so the result is
    the same as without the stop.
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
            if best_value <= floor:
                break
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
    """Exact global minimum edge cut value of a CsrGraph.

    Graphs with fewer than two nodes, and disconnected graphs, have cut 0.
    """
    check_size(g.n)
    if g.n <= 1:
        return 0
    d = int(g.degrees.min())
    cols, offsets = g.cols.tolist(), g.offsets.tolist()
    floor = cut_floor([cols[offsets[v]:offsets[v + 1]] for v in range(g.n)], d)
    if floor < 2 or floor == d:
        return floor
    return stoer_wagner_dense(dense_adjacency(g.n, g.edge_array()), floor=floor)[0]


def min_cut_of_edges(n: int, edges) -> int:
    """Exact min cut value of a graph given by node count and an (m, 2) edge array."""
    return global_min_cut(build_csr(edges, n))
