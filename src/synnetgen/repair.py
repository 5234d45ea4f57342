"""Per-cluster edge repair stages.

Four operations run over a sampled cluster to push it back toward the
reference: minimum intra-degree enforcement, connected-component
stitching, minimum-cut repair, and degree-sequence matching. All stages
only ever add edges, and every tie-break resolves by ascending node id,
so a stage's output is a deterministic function of its input.

Two variant compositions exist. "plus" runs degree enforcement, then
stitching, then cut repair per cluster and leaves degree matching to one
global pass over the whole clustered part afterwards (edges may cross
clusters). "pp" stitches first (those edges count toward the degree
targets), then enforces degrees, repairs the cut, and matches degrees
inside the cluster only.

Degree enforcement and both degree matching modes run one greedy loop,
_deficit_matching, over a neighbour-set adjacency whose set sizes are
the degrees: enforcement aims at the floor, matching at the reference.

A cluster's repair returns one (k, 2) int64 array of the local pairs its
stages added, in STAGES order, with each stage's count. The matchers
return only their pairs; the pipeline reads what they left unmet from
the output degrees.

Cut repair always finds a pair to add: the kernel's side is one shore
(A, B) of a minimum cut, and if every pair across it were an edge, the
cut would be at least |A|*|B| >= size - 1 >= target, above its value.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .mincut import check_size, cut_floor, dense_adjacency, stoer_wagner_dense

# live candidates a deficient node scans for a partner before it retires
PARTNER_CAP = 64

VARIANT_PLUS = "plus"
VARIANT_PP = "pp"
VARIANTS = (VARIANT_PLUS, VARIANT_PP)

STAGES = ("min_degree", "stitch", "mincut", "degree_match")


@dataclass
class ClusterWork:
    """One cluster's repair input.

    members lists the cluster's node ids in the clustered subnetwork,
    ascending; edges is the canonical (m, 2) int64 array of the sampled
    intra-cluster edges in local indices (position within members).
    budget is each member's reference degree in the clustered subnetwork
    minus its sampled degree toward the rest of it, which stays fixed
    during repair: the intra-cluster degree that degree matching aims for.
    Repair reads an item and never changes it.
    """

    members: np.ndarray
    edges: np.ndarray
    target_cut: int
    budget: np.ndarray


@dataclass
class RepairOutcome:
    added: np.ndarray  # (k, 2) int64 canonical local pairs, stage by stage
    counts: tuple      # pairs each of STAGES added, in order


def _adjacency(size: int, edges: np.ndarray) -> list:
    """One cluster's neighbour sets, built from a local edge array.

    A member's degree is len(adj[v]). The array is left as it was.
    """
    adj = [set() for _ in range(size)]
    for u, v in edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _link(adj, u: int, v: int) -> tuple[int, int]:
    """Add the edge u-v to adj and return it as a canonical pair."""
    adj[u].add(v)
    adj[v].add(u)
    return (u, v) if u < v else (v, u)


def min_degree_target(k: int, size: int) -> int:
    """Intra-degree floor for a cluster: min(max(1, k), size - 1)."""
    return min(max(1, k), size - 1)


def _enforce_min_degree(adj: list, k: int) -> list:
    """Raise every member's intra-cluster degree to min(max(1, k), size-1).

    Deficient nodes pair most-deficient-first; a node with no deficient
    partner takes the lowest-degree non-adjacent member, ties by id.
    Returns the added local edges.
    """
    size = len(adj)
    t = min_degree_target(k, size)
    cur = {v: t - len(nbrs) for v, nbrs in enumerate(adj) if len(nbrs) < t}
    if not cur:
        return []
    # deg[u] < t <= size-1 leaves every deficient u a non-neighbour
    return _deficit_matching(cur, adj, cap=size, fallback=lambda u: min(
        (v for v in range(size) if v != u and v not in adj[u]),
        key=lambda v: (len(adj[v]), v)))


def _local_components(adj: list) -> list:
    """Connected components as member lists, ordered by smallest member."""
    seen = [False] * len(adj)
    comps = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def _stitch(adj: list) -> list:
    """Chain the cluster's components into one.

    Components are ordered by smallest member; one edge joins the lowest
    degree node (ties by id) of component i to that of component i+1.
    """
    comps = _local_components(adj)
    if len(comps) <= 1:
        return []
    # per-component representative picked before any stitch edge lands
    reps = [min(comp, key=lambda v: (len(adj[v]), v)) for comp in comps]
    return [_link(adj, a, b) for a, b in zip(reps, reps[1:])]


def _repair_mincut(adj: list, k: int) -> list:
    """Add edges until the cluster's exact min cut reaches min(k, size-1).

    Each round recomputes the cut and adds a single edge across it between
    the lowest-degree non-adjacent pair. A round ends the repair without
    the kernel when the cut's proven lower bound already meets the target.
    Returns the added local edges. A cluster larger than the exact cut's
    size guard raises MinCutSizeError before any cut matrix is allocated.
    """
    size = len(adj)
    added = []
    target = min(k, size - 1)
    if target <= 0:
        return added
    check_size(size)
    while True:
        floor = cut_floor(adj, min(map(len, adj)))
        if floor >= target:
            break
        w = dense_adjacency(size, [(u, v) for u in range(size) for v in adj[u]])
        value, side = stoer_wagner_dense(w, floor=floor)
        if value >= target:
            break
        inside = set(side)
        other = [v for v in range(size) if v not in inside]
        added.append(_link(adj, *_lowest_degree_cross_pair(adj, side, other)))
    return added


def _lowest_degree_cross_pair(adj: list, side_a: list, side_b: list):
    """Lowest-degree non-adjacent pair across a cut, ties by node id.

    Minimizes deg(a) + deg(b), breaking ties by the smaller sorted key
    ((deg, id) per endpoint). Returns None if every cross pair is already
    an edge.
    """
    deg = list(map(len, adj))
    a_sorted = sorted(side_a, key=lambda v: (deg[v], v))
    b_sorted = sorted(side_b, key=lambda v: (deg[v], v))
    best = None
    best_pair = None
    for a in a_sorted:
        if best is not None and deg[a] + deg[b_sorted[0]] > best[0]:
            break
        for b in b_sorted:
            s = deg[a] + deg[b]
            if best is not None and s > best[0]:
                break
            if b in adj[a]:
                continue
            # first valid b minimizes (deg, id) for this a; later equal-sum
            # pairs for the same a cannot beat it on the id tie-break
            key = (s, min(a, b), max(a, b))
            if best is None or key < best:
                best = key
                best_pair = (a, b)
            break
    return best_pair


def _deficit_matching(cur: dict, adj, cap: int = PARTNER_CAP, fallback=None) -> list:
    """The greedy max-deficit pairing behind every degree stage.

    cur maps node -> remaining deficit; only entries > 0 are considered.
    adj maps each of those nodes to its neighbour set (a list of sets for
    one cluster, a dict of sets for the global pass) and gains every pair
    added. Repeatedly takes the most deficient node (ties toward smaller
    id) and pairs it with the most deficient node it is not yet adjacent
    to, scanning at most cap live candidates. A node left without such a
    partner takes fallback(node) when a fallback is given, and otherwise
    retires with its remaining deficit unmet. Without a fallback, pairing
    only ever joins two deficient nodes, so no node is pushed past its
    target, and a node that is not retired ends with no deficit. Returns
    the added pairs.
    """
    heap = [(-d, v) for v, d in cur.items() if d > 0]
    heapq.heapify(heap)
    added = []
    while heap:
        nd, u = heapq.heappop(heap)
        if cur[u] != -nd:
            continue
        nbrs = adj[u]
        partner = None
        skipped = []
        scanned = 0
        while heap and scanned < cap:
            entry = heapq.heappop(heap)
            dv, v = -entry[0], entry[1]
            if cur[v] != dv:
                continue
            scanned += 1
            if v != u and v not in nbrs:
                partner = v
                break
            skipped.append(entry)
        for entry in skipped:
            heapq.heappush(heap, entry)
        if partner is None:
            if fallback is None:
                cur[u] = 0  # retired
                continue
            partner = fallback(u)
        added.append(_link(adj, u, partner))
        cur[u] -= 1
        # a fallback partner may have had no deficit to track
        cur[partner] = cur.get(partner, 0) - 1
        if cur[u] > 0:
            heapq.heappush(heap, (-cur[u], u))
        if cur[partner] > 0:
            heapq.heappush(heap, (-cur[partner], partner))
    return added


def _match_within(adj: list, budget: np.ndarray) -> list:
    """Deficit matching inside one cluster, on its current neighbour sets.

    A member's deficit is its budget (reference degree less its fixed
    outward edges) minus its current intra-cluster degree.
    """
    cur = {v: b - len(nbrs) for v, (b, nbrs) in enumerate(zip(budget.tolist(), adj))
           if b > len(nbrs)}
    return _deficit_matching(cur, adj)


def match_degrees_global(edges: np.ndarray, deficits: np.ndarray) -> list:
    """Degree matching over the whole clustered part; edges may cross clusters.

    edges is the canonical (m, 2) array of the current clustered part and
    is left unchanged. The matcher only ever tests a pair of two nodes
    with a positive deficit, so its private adjacency holds those nodes
    and only the edges between two of them.
    """
    need = deficits > 0
    nodes = np.flatnonzero(need).tolist()
    cur = dict(zip(nodes, deficits[need].tolist()))
    adj = {v: set() for v in nodes}
    for u, v in edges[need[edges[:, 0]] & need[edges[:, 1]]].tolist():
        adj[u].add(v)
        adj[v].add(u)
    return _deficit_matching(cur, adj)


def process_cluster(item: ClusterWork, variant: str) -> RepairOutcome:
    """Run one cluster through a variant's per-cluster stage sequence."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    adj = _adjacency(len(item.members), item.edges)
    if variant == VARIANT_PP:
        stitched = _stitch(adj)
        raised = _enforce_min_degree(adj, item.target_cut)
    else:
        raised = _enforce_min_degree(adj, item.target_cut)
        stitched = _stitch(adj)
    cut = _repair_mincut(adj, item.target_cut)
    matched = _match_within(adj, item.budget) if variant == VARIANT_PP else []
    stages = (raised, stitched, cut, matched)
    added = np.array(raised + stitched + cut + matched, dtype=np.int64).reshape(-1, 2)
    return RepairOutcome(added=added, counts=tuple(map(len, stages)))


def repair_cluster_task(args) -> RepairOutcome:
    """Process-pool entry point: args is (ClusterWork, variant)."""
    item, variant = args
    return process_cluster(item, variant)
