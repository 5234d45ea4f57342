"""Shared test fixtures: graph builders and independent oracles.

Oracles here are deliberately written the slow, obvious way (exhaustive
enumeration, O(n^3) loops, arbitrary precision arithmetic) so they cannot
share a bug with the fast implementations they check.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from pathlib import Path

import networkx as nx
import numpy as np

from synnetgen import Clustering, GraphFormatError, build_csr
from synnetgen.mincut import dense_adjacency, stoer_wagner_dense
from synnetgen.repair import PARTNER_CAP, _link, _lowest_degree_cross_pair
from synnetgen.sbm import MAX_RETRIES, SampleReport


# ===== Random graph builders =====


def random_edge_array(rng, n, p):
    """Random simple graph as a canonical edge array."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def random_graph(rng, n, p):
    return build_csr(random_edge_array(rng, n, p), n)


def random_clustering(rng, n, k):
    """Uniform random assignment of n nodes to k labels."""
    return Clustering(rng.integers(0, k, size=n))


def _cluster_core(rng, size, target_cut):
    """Connected cluster whose min cut lands at the target (1..4)."""
    if size == 2:
        return [(0, 1)]
    c = min(target_cut, size - 1)
    if c <= 1:
        # random tree
        return [(int(rng.integers(0, i)), i) for i in range(1, size)]
    if c == 2:
        return [(i, (i + 1) % size) for i in range(size)]
    h = nx.hkn_harary_graph(c, size)
    return [(min(u, v), max(u, v)) for u, v in h.edges()]


def planted_reference(rng, n_nodes, n_clusters, singleton_frac=0.08,
                      inter_frac=0.25, cut_choices=(1, 2, 3, 4)):
    """Planted-partition style reference network.

    Returns (edge_array, assignment). Clusters get connected cores with
    min cuts drawn from cut_choices; singletons attach to random clustered
    nodes; extra random inter-cluster edges are sprinkled on top.
    """
    n_single = int(round(n_nodes * singleton_frac))
    n_clustered = n_nodes - n_single
    assert n_clustered >= 5 * n_clusters, "not enough nodes for the clusters"
    # random composition with floor 5
    splits = np.sort(rng.choice(n_clustered - 5 * n_clusters + 1,
                                size=n_clusters - 1, replace=True))
    sizes = np.diff(np.concatenate(([0], splits, [n_clustered - 5 * n_clusters]))) + 5
    assert sizes.sum() == n_clustered and sizes.min() >= 5

    edges = set()
    assignment = np.empty(n_nodes, dtype=np.int64)
    base = 0
    for ci, size in enumerate(sizes.tolist()):
        target = int(rng.choice(cut_choices))
        for u, v in _cluster_core(rng, size, target):
            edges.add((base + u, base + v))
        assignment[base:base + size] = ci
        base += size
    intra_total = len(edges)
    # inter-cluster edges between random clustered nodes
    want = int(round(inter_frac * intra_total))
    tries = 0
    while want > 0 and tries < 20 * want:
        tries += 1
        u = int(rng.integers(0, n_clustered))
        v = int(rng.integers(0, n_clustered))
        if u == v or assignment[u] == assignment[v]:
            continue
        e = (min(u, v), max(u, v))
        if e in edges:
            continue
        edges.add(e)
        want -= 1
    # singletons: unique cluster ids, one to three edges each
    for i in range(n_single):
        node = n_clustered + i
        assignment[node] = n_clusters + i
        for _ in range(int(rng.integers(1, 4))):
            v = int(rng.integers(0, n_clustered))
            edges.add((min(node, v), max(node, v)))
    arr = np.array(sorted(edges), dtype=np.int64)
    return arr, assignment


def write_network_files(tmp_path, edge_array, assignment, prefix="ref"):
    """Write edge list and clustering files; returns their paths."""
    net = tmp_path / f"{prefix}_edges.tsv"
    clu = tmp_path / f"{prefix}_clusters.tsv"
    net.write_text(
        "".join(f"{u}\t{v}\n" for u, v in np.asarray(edge_array).tolist()),
        encoding="utf-8")
    clu.write_text(
        "".join(f"{i}\t{c}\n" for i, c in enumerate(np.asarray(assignment).tolist())),
        encoding="utf-8")
    return net, clu


# ===== Oracles =====


def reference_parse_int_pairs(path):
    """Line-by-line parse of a two-integer-column file, as an (m, 2) int64
    array: the loop graphs._parse_int_pairs runs on any file its bulk path
    does not take, with the same messages."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise GraphFormatError(f"{path}: file not found")
    pairs = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"{path}: line {line_no}: expected two integer columns, got {len(parts)}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"{path}: line {line_no}: non-integer token in {stripped!r}")
        if not all(-2**63 <= x < 2**63 for x in (a, b)):
            raise GraphFormatError(
                f"{path}: line {line_no}: integer outside the int64 range in {stripped!r}")
        pairs.append((a, b))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def brute_force_min_cut(n, edges):
    """Exhaustive minimum over all 2^(n-1) - 1 proper bipartitions."""
    if n <= 1:
        return 0
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64)
    cut = np.zeros(len(masks), dtype=np.int64)
    zeros = np.zeros(len(masks), dtype=np.int64)
    for u, v in edges:
        bu = ((masks >> u) & 1) if u < n - 1 else zeros
        bv = ((masks >> v) & 1) if v < n - 1 else zeros
        cut += bu != bv
    return int(cut.min())


def cut_across(edges, side):
    """Edge count across an explicit bipartition."""
    side = set(int(x) for x in side)
    return sum(1 for u, v in edges if (u in side) != (v in side))


def triangle_oracle(n, edges):
    """(triangles per node, wedges per node) by cubic enumeration."""
    adj = [[False] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = True
    tri = [0] * n
    for a, b, c in itertools.combinations(range(n), 3):
        if adj[a][b] and adj[b][c] and adj[a][c]:
            tri[a] += 1
            tri[b] += 1
            tri[c] += 1
    deg = [sum(row) for row in adj]
    wedges = [d * (d - 1) // 2 for d in deg]
    return tri, wedges


def local_coefficient_oracle(n, edges):
    tri, wedges = triangle_oracle(n, edges)
    vals = [t / w if w > 0 else 0.0 for t, w in zip(tri, wedges)]
    return sum(vals) / n if n else 0.0


def global_coefficient_oracle(n, edges):
    tri, wedges = triangle_oracle(n, edges)
    total_tri = sum(tri) / 3
    total_wedges = sum(wedges)
    return 3 * total_tri / total_wedges if total_wedges else 0.0


def min_edges_for_degree_floor(n, existing, t):
    """Smallest number of additions giving every node degree >= t.

    Exhaustive search over subsets of the missing edges, smallest first.
    Only sane for n <= 6.
    """
    existing = {(min(u, v), max(u, v)) for u, v in existing}
    missing = [e for e in itertools.combinations(range(n), 2) if e not in existing]
    deg = Counter()
    for u, v in existing:
        deg[u] += 1
        deg[v] += 1
    for k in range(len(missing) + 1):
        for subset in itertools.combinations(missing, k):
            d = deg.copy()
            for u, v in subset:
                d[u] += 1
                d[v] += 1
            if all(d[x] >= t for x in range(n)):
                return k
    raise AssertionError("unreachable: adding all missing edges saturates")


def cluster_members(c, cid):
    """Member node ids of cluster cid, ascending, by a scan of the assignment."""
    return np.flatnonzero(c.assignment == cid)


def reference_local_edge_groups(edges, c):
    """The grouping oracle: (cluster_id, members, local_edges) of every
    multi-node cluster of c, in cluster id order.

    Each cluster scans the assignment for its members and localises its
    intra edges with searchsorted, one cluster at a time.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    out = []
    for cid in sorted(set(c.assignment.tolist())):
        members = cluster_members(c, cid)
        if len(members) > 1:
            inside = np.isin(edges, members).all(axis=1)
            out.append((cid, members, np.searchsorted(members, edges[inside])))
    return out


def block_tally_oracle(edges, assignment):
    """Single-threaded dict tally of edges into cluster pairs."""
    tally = Counter()
    for u, v in edges:
        r, s = assignment[u], assignment[v]
        if r > s:
            r, s = s, r
        tally[(int(r), int(s))] += 1
    return dict(tally)


def reference_sample_dcsbm(bm, c, weights, seed):
    """The DC-SBM sampler written as a loop over block coordinates.

    Same contract as sample_dcsbm (self-loop rejection, per-coordinate
    dedupe, MAX_RETRIES redraw rounds, the single-node rules and the
    uniform fallback), but each coordinate draws from its own numpy
    Generator, so the two agree in distribution, not in bytes.
    """
    weights = np.asarray(weights, dtype=np.float64)

    def block(bi):
        nodes = cluster_members(c, int(c.cluster_ids[bi]))
        w = weights[nodes]
        return nodes, np.cumsum(w if w.sum() > 0 else np.ones(len(nodes)))

    def draw(rng, nodes, cumw, k):
        return nodes[np.searchsorted(cumw, rng.random(k) * cumw[-1], side="right")]

    placed = []
    shortfall = np.zeros(len(bm), dtype=np.int64)
    for i in range(len(bm)):
        r, s, cnt = int(bm.r[i]), int(bm.s[i]), int(bm.counts[i])
        if cnt <= 0:
            continue
        nodes_r, cum_r = block(r)
        nodes_s, cum_s = block(s)
        if r == s and len(nodes_r) == 1:
            shortfall[i] = cnt
            continue
        if r != s and len(nodes_r) == 1 and len(nodes_s) == 1:
            u, v = int(nodes_r[0]), int(nodes_s[0])
            placed.append((min(u, v), max(u, v)))
            shortfall[i] = cnt - 1
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        seen = set()
        need = cnt
        for _ in range(MAX_RETRIES + 1):
            if need == 0:
                break
            du = draw(rng, nodes_r, cum_r, need)
            dv = draw(rng, nodes_s, cum_s, need)
            seen.update((min(u, v), max(u, v))
                        for u, v in zip(du.tolist(), dv.tolist()) if u != v)
            need = cnt - len(seen)
        placed.extend(seen)
        shortfall[i] = need
    report = SampleReport(requested=bm.total_edges, placed=len(placed),
                          shortfall=int(shortfall.sum()), coordinate_shortfall=shortfall)
    return np.array(sorted(placed), dtype=np.int64).reshape(-1, 2), report


def local_edge_set(adj):
    """The canonical pairs of a cluster's neighbour-set list."""
    return {(u, v) for u, nbrs in enumerate(adj) for v in nbrs if u < v}


def reference_repair_mincut(adj, k):
    """_repair_mincut without its cut bounds: the full kernel every round.

    Same tie-breaks, so on equal input it must add the same edges in the
    same order. Returns (added, warnings): it keeps the branch that
    warns when every pair across the cut is already an edge.
    """
    size = len(adj)
    added = []
    warnings = []
    target = min(k, size - 1)
    if size < 2 or target <= 0:
        return added, warnings
    while True:
        value, side = stoer_wagner_dense(dense_adjacency(size, sorted(local_edge_set(adj))))
        if value >= target:
            break
        inside = set(side)
        other = [v for v in range(size) if v not in inside]
        pair = _lowest_degree_cross_pair(adj, sorted(inside), other)
        if pair is None:
            warnings.append(
                f"cut saturated at {value} (target {target}), no addable pair"
            )
            break
        added.append(_link(adj, *pair))
    return added, warnings


def reference_enforce_min_degree(adj, k):
    """The minimum-degree stage as its own heap loop, from before it became
    a call of the shared pairing loop: (added pairs, how many of them the
    fallback chose).

    Same heap, tie-breaks and fallback as repair._enforce_min_degree, so on
    equal input it adds the same pairs in the same order. It keeps its own
    degree list in step with the neighbour sets it extends.
    """
    size = len(adj)
    added = []
    fallbacks = 0
    if size < 2:
        return added, fallbacks
    t = min(max(1, k), size - 1)
    deg = [len(nbrs) for nbrs in adj]
    heap = [(-(t - deg[v]), v) for v in range(size) if deg[v] < t]
    heapq.heapify(heap)
    while heap:
        nd, u = heapq.heappop(heap)
        if t - deg[u] != -nd:
            continue
        # try the most deficient compatible partner first
        partner = None
        skipped = []
        while heap:
            entry = heapq.heappop(heap)
            dv, v = -entry[0], entry[1]
            if t - deg[v] != dv:
                continue
            if v != u and v not in adj[u]:
                partner = v
                break
            skipped.append(entry)
        for entry in skipped:
            heapq.heappush(heap, entry)
        if partner is None:
            # fall back to the lowest-degree member u is not adjacent to
            fallbacks += 1
            best = None
            for v in range(size):
                if v == u or v in adj[u]:
                    continue
                key = (deg[v], v)
                if best is None or key < best:
                    best = key
                    partner = v
            if partner is None:
                raise AssertionError("no non-adjacent partner for deficient node")
        added.append(_link(adj, u, partner))
        deg[u] += 1
        deg[partner] += 1
        for w in (u, partner):
            d = t - deg[w]
            if d > 0:
                heapq.heappush(heap, (-d, w))
    return added, fallbacks


def reference_deficit_matching(cur: dict, is_adjacent, add_edge):
    """The greedy max-deficit matcher as it was when it also returned its
    residuals: (added pairs, {retired node: deficit left unmet}).

    Same heap, tie-breaks and PARTNER_CAP scan as repair._deficit_matching,
    so on equal input it adds the same pairs in the same order.
    """
    heap = [(-d, v) for v, d in cur.items() if d > 0]
    heapq.heapify(heap)
    added = []
    residual = {}
    while heap:
        nd, u = heapq.heappop(heap)
        if cur.get(u, 0) != -nd:
            continue
        partner = None
        skipped = []
        scanned = 0
        while heap and scanned < PARTNER_CAP:
            entry = heapq.heappop(heap)
            dv, v = -entry[0], entry[1]
            if cur.get(v, 0) != dv:
                continue
            scanned += 1
            if v != u and not is_adjacent(u, v):
                partner = v
                break
            skipped.append(entry)
        for entry in skipped:
            heapq.heappush(heap, entry)
        if partner is None:
            residual[u] = cur[u]
            cur[u] = 0
            continue
        add_edge(u, partner)
        added.append((u, partner) if u < partner else (partner, u))
        cur[u] -= 1
        cur[partner] -= 1
        if cur[u] > 0:
            heapq.heappush(heap, (-cur[u], u))
        if cur[partner] > 0:
            heapq.heappush(heap, (-cur[partner], partner))
    return added, residual


def unmet_deficits(deficits, added):
    """{node: deficit left} after the pairs added: the pipeline's residual
    rule, deficit minus the degree the pairs gave, where positive."""
    deg = Counter(v for pair in added for v in pair)
    return {v: int(d) - deg[v] for v, d in enumerate(deficits) if d > deg[v]}


def nmi_oracle(a, b):
    """Direct entropy-sum NMI with arithmetic mean normalization."""
    import math

    a = list(map(int, a))
    b = list(map(int, b))
    n = len(a)
    ca = Counter(a)
    cb = Counter(b)
    cab = Counter(zip(a, b))
    h_a = -sum((c / n) * math.log(c / n) for c in ca.values())
    h_b = -sum((c / n) * math.log(c / n) for c in cb.values())
    mi = 0.0
    for (x, y), c in cab.items():
        p = c / n
        mi += p * math.log(p * n * n / (ca[x] * cb[y]))
    denom = (h_a + h_b) / 2
    if denom <= 0:
        return 1.0
    if mi <= 0:
        return 0.0
    return mi / denom


def ari_pair_oracle(a, b):
    """ARI from explicit O(n^2) pair counts."""
    n = len(a)
    n11 = n00 = n10 = n01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                n11 += 1
            elif same_a:
                n10 += 1
            elif same_b:
                n01 += 1
            else:
                n00 += 1
    num = 2 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return num / den


def structural_violations(g_out, c, stats):
    """Check every multi-node cluster of the output against its targets.

    stats maps cluster id -> ClusterStats of the reference. Returns a list
    of violation strings (empty means all guarantees hold): connectivity,
    exact min cut >= min(k, size-1), min intra degree >= min(max(1,k), size-1).
    """
    from synnetgen import global_min_cut
    from synnetgen.repair import min_degree_target

    arr = g_out.edge_array()
    bad = []
    for cid, s in stats.items():
        members = cluster_members(c, cid)
        size = len(members)
        if size < 2:
            continue
        inside = np.isin(arr, members).all(axis=1)
        sub = build_csr(np.searchsorted(members, arr[inside]), size)
        cut = global_min_cut(sub)
        need_cut = max(1, min(s.mincut, size - 1))
        if cut < need_cut:
            bad.append(f"cluster {cid}: cut {cut} < {need_cut}")
        t = min_degree_target(s.mincut, size)
        dmin = int(sub.degrees.min())
        if dmin < t:
            bad.append(f"cluster {cid}: min degree {dmin} < {t}")
    return bad


def edges_of(g):
    """Edge tuples of a CsrGraph, canonical."""
    return [tuple(e) for e in g.edge_array().tolist()]


def graph_from_edges(edges, n):
    return build_csr(np.array(sorted(set(edges)), dtype=np.int64).reshape(-1, 2), n)
