import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synnetgen import (
    ClusterWork,
    match_degrees_global,
    process_cluster,
)
from synnetgen import mincut, repair
from synnetgen.mincut import MinCutSizeError, stoer_wagner_dense
from synnetgen.repair import (
    PARTNER_CAP,
    STAGES,
    _adjacency,
    _deficit_matching,
    _enforce_min_degree,
    _match_within,
    _repair_mincut,
    _stitch,
    min_degree_target,
)

from helpers import (
    brute_force_min_cut,
    local_edge_set,
    min_edges_for_degree_floor,
    random_edge_array,
    reference_deficit_matching,
    reference_enforce_min_degree,
    reference_repair_mincut,
    unmet_deficits,
)


def canon(edges):
    """Canonical sorted int64 edge array of an iterable of pairs."""
    pairs = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def work(size, edges, k=1, ref=None, ext=None):
    ref = np.array(ref if ref is not None else [0] * size, dtype=np.int64)
    ext = np.array(ext if ext is not None else [0] * size, dtype=np.int64)
    return ClusterWork(
        members=np.arange(size, dtype=np.int64),
        edges=canon(edges),
        target_cut=k,
        budget=ref - ext,
    )


def local(size, edges):
    """A stage's input: the cluster's neighbour sets, which the stage extends."""
    return _adjacency(size, canon(edges))


def match_within(item):
    """Per-cluster degree matching as process_cluster runs it, on the
    item's neighbour sets: (added pairs, deficits the pipeline reads as
    residual from the degrees after them)."""
    added = _match_within(_adjacency(len(item.members), item.edges), item.budget)
    return added, unmet_deficits(deficits_of(item), added)


def with_added(item, *added):
    """The item's edges plus every pair in the given lists of added edges."""
    out = set(map(tuple, item.edges.tolist()))
    for pairs in added:
        out.update(pairs)
    return out


def repaired(item, out):
    """The cluster's edges after process_cluster returned outcome out."""
    return with_added(item, map(tuple, out.added.tolist()))


def stage_pairs(out):
    """stage -> the pairs it added, cut from out.added by out.counts."""
    parts = np.split(out.added, np.cumsum(out.counts)[:-1])
    return {stage: list(map(tuple, part.tolist())) for stage, part in zip(STAGES, parts)}


def deficits_of(item):
    """Each member's budget less its sampled intra-cluster degree."""
    return item.budget - degrees_of(item.edges.tolist(), len(item.members))


def residual_of(item, out):
    """Deficits left after process_cluster, by the pipeline's residual rule."""
    return unmet_deficits(deficits_of(item), out.added.tolist())


def degrees_of(edges, size):
    deg = [0] * size
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def components_of(edges, size):
    parent = list(range(size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    comps = {}
    for v in range(size):
        comps.setdefault(find(v), []).append(v)
    return sorted(comps.values(), key=min)


def test_min_degree_target_clamps():
    assert min_degree_target(3, 5) == 3
    assert min_degree_target(3, 3) == 2
    assert min_degree_target(0, 4) == 1
    assert min_degree_target(10, 2) == 1


def test_enforce_min_degree_isolated_nodes():
    lg = local(4, [])
    added = _enforce_min_degree(lg, 1)
    assert len(added) >= 2
    assert min(degrees_of(local_edge_set(lg), 4)) >= 1


def test_enforce_min_degree_idempotent_on_cycle():
    c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
    lg = local(4, c4)
    assert _enforce_min_degree(lg, 2) == []
    assert len(local_edge_set(lg)) == 4


def test_enforce_min_degree_five_isolated_k2():
    lg = local(5, [])
    added = _enforce_min_degree(lg, 2)
    deg = degrees_of(local_edge_set(lg), 5)
    assert min(deg) >= 2
    # exhaustive minimum is 5 edges; greedy pairing achieves it here
    assert min_edges_for_degree_floor(5, [], 2) == 5
    assert len(added) == 5


def test_enforce_min_degree_between_oracle_and_greedy_bound():
    rng = np.random.default_rng(61)
    for _ in range(40):
        size = int(rng.integers(2, 7))
        k = int(rng.integers(0, 4))
        t = min_degree_target(k, size)
        edges = [
            e for e in itertools.combinations(range(size), 2)
            if rng.random() < 0.3
        ]
        lg = local(size, edges)
        before = degrees_of(local_edge_set(lg), size)
        total_deficit = sum(max(0, t - d) for d in before)
        added = _enforce_min_degree(lg, k)
        deg = degrees_of(local_edge_set(lg), size)
        assert min(deg) >= t
        assert set(edges) <= local_edge_set(lg)  # only additions
        oracle = min_edges_for_degree_floor(size, edges, t)
        assert oracle <= len(added) <= total_deficit


def test_stitch_two_disjoint_edges():
    lg = local(4, [(0, 1), (2, 3)])
    added = _stitch(lg)
    assert len(added) == 1
    assert len(components_of(local_edge_set(lg), 4)) == 1


def test_stitch_connected_is_noop():
    lg = local(3, [(0, 1), (1, 2)])
    assert _stitch(lg) == []


def test_stitch_three_components_chains_min_degree_reps():
    # components {0}, {1,2}, {3,4,5}; reps: 0, 1 (tie by id), 3 (degree 1)
    lg = local(6, [(1, 2), (3, 4), (4, 5)])
    added = _stitch(lg)
    assert added == [(0, 1), (1, 3)]
    assert len(components_of(local_edge_set(lg), 6)) == 1


def test_stitch_oracle_random():
    """Endpoints are per-component (degree, id) minima, components chained."""
    rng = np.random.default_rng(71)
    for _ in range(40):
        size = int(rng.integers(2, 15))
        edges = [
            e for e in itertools.combinations(range(size), 2)
            if rng.random() < 0.12
        ]
        lg = local(size, edges)
        comps = components_of(set(map(tuple, edges)), size)
        deg = degrees_of(edges, size)
        reps = [min(c, key=lambda v: (deg[v], v)) for c in comps]
        expect = [
            (min(a, b), max(a, b)) for a, b in zip(reps, reps[1:])
        ]
        added = _stitch(lg)
        assert added == expect
        assert len(components_of(local_edge_set(lg), size)) == 1


def test_repair_mincut_path_to_two():
    lg = local(4, [(0, 1), (1, 2), (2, 3)])
    added = _repair_mincut(lg, 2)
    assert len(added) >= 1
    assert brute_force_min_cut(4, local_edge_set(lg)) >= 2


def test_repair_mincut_k4_noop():
    k4 = list(itertools.combinations(range(4), 2))
    lg = local(4, k4)
    assert _repair_mincut(lg, 3) == []


def test_repair_mincut_random_eight_node():
    rng = np.random.default_rng(81)
    trials = 0
    while trials < 30:
        edges = [
            e for e in itertools.combinations(range(8), 2)
            if rng.random() < 0.3
        ]
        if len(components_of(set(edges), 8)) != 1:
            continue
        trials += 1
        lg = local(8, edges)
        before = local_edge_set(lg)
        added = _repair_mincut(lg, 3)
        assert before <= local_edge_set(lg)
        assert len(local_edge_set(lg)) == len(before) + len(added)
        assert brute_force_min_cut(8, local_edge_set(lg)) >= 3


def test_repair_mincut_refuses_cluster_over_size_guard(monkeypatch):
    # the guard is checked before the first cut matrix is allocated
    monkeypatch.setattr(mincut, "SIZE_GUARD", 4)
    with pytest.raises(MinCutSizeError):
        _repair_mincut(local(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 2)
    # no cut needed: a target of 0 never reaches the guard
    assert _repair_mincut(local(5, []), 0) == []
    # at the guard is allowed
    assert _repair_mincut(local(4, [(0, 1), (1, 2), (2, 3)]), 2)


def test_repair_mincut_matches_kernel_every_round():
    # the oracle keeps a saturation branch; it never fires, as the shore
    # of a minimum cut always leaves a pair to add
    rng = np.random.default_rng(19)
    for _ in range(300):
        size = int(rng.integers(2, 13))
        edges = random_edge_array(rng, size, float(rng.uniform(0.1, 0.8))).tolist()
        k = int(rng.integers(1, 6))
        lg = local(size, edges)
        # half the clusters arrive as repair sees them: degrees raised, one piece
        if rng.random() < 0.5:
            _enforce_min_degree(lg, k)
            _stitch(lg)
        ref = local(size, local_edge_set(lg))
        expect, warnings = reference_repair_mincut(ref, k)
        assert warnings == []
        assert _repair_mincut(lg, k) == expect
        assert local_edge_set(lg) == local_edge_set(ref)


def test_repair_mincut_kernel_calls(monkeypatch):
    calls = []

    def counted(w, floor=0):
        calls.append(floor)
        return stoer_wagner_dense(w, floor=floor)

    monkeypatch.setattr(repair, "stoer_wagner_dense", counted)
    settled = [
        (local(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]), 1),  # connected, target 1
        (local(5, [(v, (v + 1) % 5) for v in range(5)]), 2),      # 5 nodes, delta 2
        (local(8, [(v, (v + 1) % 8) for v in range(8)]), 2),      # bridgeless, target 2
    ]
    for lg, k in settled:
        assert _repair_mincut(lg, k) == []
    assert calls == []
    bridged = local(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    assert _repair_mincut(bridged, 2) and calls
    assert brute_force_min_cut(6, local_edge_set(bridged)) >= 2


def test_repair_mincut_target_clamped_by_size():
    # size 3, k=5: target is 2, reachable
    lg = local(3, [(0, 1), (1, 2)])
    _repair_mincut(lg, 5)
    assert brute_force_min_cut(3, local_edge_set(lg)) >= 2


def test_match_per_cluster_triangle():
    item = work(3, [], ref=[2, 2, 2])
    added, residual = match_within(item)
    assert sorted(added) == [(0, 1), (0, 2), (1, 2)]
    assert residual == {}


def test_match_per_cluster_saturated_pair():
    item = work(2, [(0, 1)], ref=[3, 3])
    added, residual = match_within(item)
    assert added == []
    assert residual == {0: 2, 1: 2}


def test_match_per_cluster_counts_external_degree():
    # ref degree 2, one external edge each: only 1 intra deficit per node
    item = work(2, [], ref=[2, 2], ext=[1, 1])
    added, residual = match_within(item)
    assert added == [(0, 1)]
    assert residual == {}


def test_match_never_overshoots():
    rng = np.random.default_rng(91)
    for _ in range(50):
        size = int(rng.integers(2, 12))
        edges = [
            e for e in itertools.combinations(range(size), 2)
            if rng.random() < 0.2
        ]
        before = degrees_of(edges, size)
        ref = [int(d + rng.integers(0, 4)) for d in before]
        item = work(size, edges, ref=ref)
        added, _ = match_within(item)
        after = degrees_of(with_added(item, added), size)
        for v in range(size):
            assert after[v] <= ref[v] or after[v] == before[v]


def rmse_to(ref, deg):
    return math.sqrt(sum((r - d) ** 2 for r, d in zip(ref, deg)) / len(ref))


def test_match_rmse_never_increases():
    rng = np.random.default_rng(93)
    for _ in range(50):
        size = int(rng.integers(2, 14))
        edges = [
            e for e in itertools.combinations(range(size), 2)
            if rng.random() < 0.25
        ]
        before = degrees_of(edges, size)
        ref = [int(rng.integers(0, size)) for _ in range(size)]
        item = work(size, edges, ref=ref)
        added, _ = match_within(item)
        after = degrees_of(with_added(item, added), size)
        assert rmse_to(ref, after) <= rmse_to(ref, before)
        if added:
            assert rmse_to(ref, after) < rmse_to(ref, before)


def _optimal_residual(size, existing, deficits):
    """Exhaustive minimum summed residual over all no-overshoot additions."""
    missing = [
        e for e in itertools.combinations(range(size), 2) if e not in existing
    ]
    total = sum(deficits)
    best = total
    for k in range(len(missing), -1, -1):
        if total - 2 * k >= best:
            continue
        for subset in itertools.combinations(missing, k):
            deg = [0] * size
            for u, v in subset:
                deg[u] += 1
                deg[v] += 1
            if all(deg[v] <= deficits[v] for v in range(size)):
                best = min(best, total - 2 * k)
                break
    return best


def test_match_optimal_on_unit_deficits():
    # all deficits 1 on an empty graph is plain matching: greedy leaves
    # exactly one node unmatched iff the count is odd
    for size in range(2, 8):
        item = work(size, [], ref=[1] * size)
        _, residual = match_within(item)
        assert sum(residual.values()) == size % 2
        assert _optimal_residual(size, set(), [1] * size) == size % 2


def test_match_greedy_is_not_always_optimal():
    # known gap: greedy burns the high-deficit nodes on each other and
    # strands them mutually adjacent, where spreading the low-deficit
    # nodes across them would do better
    ref = [1, 1, 3, 3, 3]
    item = work(5, [], ref=ref)
    _, residual = match_within(item)
    assert sum(residual.values()) == 3
    assert _optimal_residual(5, set(), ref) == 1


def test_match_residual_at_least_optimum():
    rng = np.random.default_rng(99)
    for _ in range(30):
        size = int(rng.integers(2, 7))
        edges = {
            e for e in itertools.combinations(range(size), 2)
            if rng.random() < 0.4
        }
        before = degrees_of(edges, size)
        ref = [int(d + rng.integers(0, 3)) for d in before]
        deficits = [r - d for r, d in zip(ref, before)]
        item = work(size, sorted(edges), ref=ref)
        _, residual = match_within(item)
        got = sum(residual.values())
        assert got >= _optimal_residual(size, edges, deficits)


def test_match_global_star_not_overshoot():
    # highest-deficit node takes both edges; partners reach zero deficit
    edges = canon([])
    deficits = np.array([2, 1, 1])
    added = match_degrees_global(edges, deficits)
    assert sorted(added) == [(0, 1), (0, 2)]
    assert edges.shape == (0, 2)
    assert unmet_deficits(deficits, added) == {}


def test_match_global_zero_deficits_noop():
    edges = canon([(0, 1)])
    deficits = np.zeros(4, dtype=np.int64)
    added = match_degrees_global(edges, deficits)
    assert added == [] and unmet_deficits(deficits, added) == {}
    assert edges.tolist() == [[0, 1]]


def test_match_global_residual_when_saturated():
    edges = canon([(0, 1)])
    deficits = np.array([3, 1])
    added = match_degrees_global(edges, deficits)
    assert added == []
    assert unmet_deficits(deficits, added) == {0: 3, 1: 1}


def test_match_global_crosses_clusters():
    # two nodes in different clusters can still pair: nothing restricts ids
    added = match_degrees_global(canon([]), np.array([0, 1, 0, 1]))
    assert added == [(1, 3)]


def test_match_global_leaves_its_array_unchanged():
    rng = np.random.default_rng(111)
    arr = random_edge_array(rng, 40, 0.2)
    before = arr.copy()
    added = match_degrees_global(arr, rng.integers(0, 5, size=40))
    assert added
    assert arr.tolist() == before.tolist()


def test_match_global_equals_matching_over_all_edges():
    # the matcher keeps only edges between two deficient nodes; matching
    # over the full edge set must give exactly the same pairs
    rng = np.random.default_rng(113)
    for _ in range(60):
        n = int(rng.integers(2, 120))
        arr = random_edge_array(rng, n, float(rng.uniform(0.02, 0.6)))
        deficits = rng.integers(-2, 6, size=n)
        full = _adjacency(n, arr)
        cur = {v: int(d) for v, d in enumerate(deficits.tolist()) if d > 0}
        expect = _deficit_matching(cur, full)
        assert match_degrees_global(arr, deficits) == expect


def test_partner_cap_retires_after_scan():
    # node 0 adjacent to every other deficient node; cap smaller than the
    # candidate list forces retirement with residual
    size = PARTNER_CAP + 3
    edges = canon((0, v) for v in range(1, size))
    deficits = np.array([4] + [1] * (size - 1))
    added = match_degrees_global(edges, deficits)
    assert unmet_deficits(deficits, added).get(0) == 4
    # the remaining nodes pair among themselves
    assert len(added) == (size - 1) // 2
    # with the last two spokes gone, free partners sit past the cap: node 0
    # still retires after scanning PARTNER_CAP adjacent candidates
    edges = canon((0, v) for v in range(1, PARTNER_CAP + 1))
    added = match_degrees_global(edges, deficits)
    assert unmet_deficits(deficits, added).get(0) == 4
    assert all(0 not in pair for pair in added)


def test_process_cluster_satisfied_is_noop():
    c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
    for variant in ("plus", "pp"):
        item = work(4, c4, k=2, ref=[2, 2, 2, 2])
        out = process_cluster(item, variant)
        assert len(out.added) == 0 and sum(out.counts) == 0
        assert residual_of(item, out) == {}


def test_process_cluster_postconditions_small():
    item = work(4, [], k=1, ref=[1, 1, 1, 1])
    out = process_cluster(item, "pp")
    edges = repaired(item, out)
    deg = degrees_of(edges, 4)
    assert min(deg) >= 1
    assert len(components_of(edges, 4)) == 1
    assert len(out.added) == sum(out.counts) == len(edges)


def test_process_cluster_pp_sampled_ten_nodes():
    rng = np.random.default_rng(103)
    for trial in range(20):
        edges = [
            e for e in itertools.combinations(range(10), 2)
            if rng.random() < 0.12
        ]
        ref = [2 + int(rng.integers(0, 3)) for _ in range(10)]
        item = work(10, edges, k=2, ref=ref)
        out = process_cluster(item, "pp")
        out_edges = repaired(item, out)
        deg = degrees_of(out_edges, 10)
        assert min(deg) >= 2
        assert len(components_of(out_edges, 10)) == 1
        assert brute_force_min_cut(10, out_edges) >= 2
        assert list(stage_pairs(out)) == ["min_degree", "stitch", "mincut", "degree_match"]


def test_process_cluster_plus_has_no_degree_match_stage():
    item = work(5, [(0, 1)], k=1, ref=[2] * 5)
    out = process_cluster(item, "plus")
    assert stage_pairs(out)["degree_match"] == []
    # plus leaves the deficits of 3 and 4 to the global pass; pp meets them
    assert residual_of(item, out) == {3: 1, 4: 1}
    assert residual_of(item, process_cluster(item, "pp")) == {}


def test_process_cluster_rejects_unknown_variant():
    with pytest.raises(ValueError):
        process_cluster(work(2, []), "fancy")


def test_variants_order_stages_differently():
    # pp stitches before degree enforcement, so stitch edges count toward
    # the degree floor; plus enforces first and stitches after
    edges = [(0, 1), (2, 3)]
    pp_item = work(4, list(edges), k=1)
    plus_item = work(4, list(edges), k=1)
    pp_out = process_cluster(pp_item, "pp")
    plus_out = process_cluster(plus_item, "plus")
    # both satisfy the floor and connectivity either way
    for item, out in ((pp_item, pp_out), (plus_item, plus_out)):
        assert min(degrees_of(repaired(item, out), 4)) >= 1
        assert len(components_of(repaired(item, out), 4)) == 1
    # pp: the stitch edge already satisfies min degree, nothing more needed
    assert len(stage_pairs(pp_out)["stitch"]) == 1
    assert stage_pairs(pp_out)["min_degree"] == []
    # plus: degrees were already >= 1 before stitching
    assert stage_pairs(plus_out)["min_degree"] == []
    assert len(stage_pairs(plus_out)["stitch"]) == 1


def test_process_cluster_deterministic():
    rng = np.random.default_rng(107)
    edges = [
        e for e in itertools.combinations(range(12), 2) if rng.random() < 0.15
    ]
    ref = [int(rng.integers(1, 5)) for _ in range(12)]
    outs = []
    for _ in range(3):
        item = work(12, list(edges), k=2, ref=ref)
        outs.append(process_cluster(item, "pp"))
    assert outs[0].added.tolist() == outs[1].added.tolist() == outs[2].added.tolist()
    assert outs[0].counts == outs[1].counts == outs[2].counts
    assert residual_of(item, outs[0]) == residual_of(item, outs[1])


def test_repair_leaves_work_items_unchanged():
    rng = np.random.default_rng(109)
    edges = [
        e for e in itertools.combinations(range(12), 2) if rng.random() < 0.15
    ]
    ref = [int(rng.integers(1, 6)) for _ in range(12)]
    for variant in ("plus", "pp"):
        item = work(12, edges, k=3, ref=ref)
        before = item.edges.copy()
        out = process_cluster(item, variant)
        assert len(out.added) > 0
        assert item.edges.tolist() == before.tolist()
    item = work(12, edges, ref=ref)
    added, _ = match_within(item)
    assert added
    assert item.edges.tolist() == canon(edges).tolist()


def edge_lists(n, max_size=None):
    """Strategy: a list of distinct canonical pairs over n nodes."""
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return st.just([])
    return st.lists(st.sampled_from(pairs), unique=True, max_size=max_size)


@st.composite
def deficit_graphs(draw):
    """(n, edges, deficits): a random graph with deficits in -2..6, or hub
    0 adjacent to the first m of its equally deficient candidates, with m
    around PARTNER_CAP, so that it retires or finds a partner at the cap."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        edges = draw(edge_lists(n, max_size=3 * n))
        deficits = draw(st.lists(st.integers(-2, 6), min_size=n, max_size=n))
        return n, edges, deficits
    m = draw(st.integers(PARTNER_CAP - 2, PARTNER_CAP + 2))
    n = m + 1 + draw(st.integers(0, 3))
    edges = {(0, v) for v in range(1, m + 1)} | set(draw(edge_lists(n, max_size=n)))
    other = draw(st.integers(1, 2))
    deficits = [draw(st.integers(other + 1, 6))] + [other] * (n - 1)
    return n, sorted(edges), deficits


@settings(max_examples=300)
@given(deficit_graphs())
@example((PARTNER_CAP + 3, [(0, v) for v in range(1, PARTNER_CAP + 3)],
          [4] + [1] * (PARTNER_CAP + 2)))
def test_deficit_matching_matches_the_residual_oracle(case):
    # the matcher returns only its pairs; the deficits the pipeline reads
    # back from the degrees must equal the residuals the old matcher kept
    n, edges, deficits = case
    ref = set(edges)
    cur = {v: d for v, d in enumerate(deficits) if d != 0}
    added = _deficit_matching(dict(cur), local(n, edges))
    expect, residual = reference_deficit_matching(
        dict(cur), lambda u, v: (min(u, v), max(u, v)) in ref,
        lambda u, v: ref.add((min(u, v), max(u, v))))
    assert added == expect
    assert unmet_deficits(deficits, added) == residual


@st.composite
def min_degree_cases(draw):
    """(size, edges, k): a random graph on 1..25 nodes, or a near-complete
    one missing at most size pairs, with k in 0..12."""
    size = draw(st.integers(1, 25))
    if draw(st.booleans()):
        edges = draw(edge_lists(size))
    else:
        missing = set(draw(edge_lists(size, max_size=size)))
        edges = [e for e in itertools.combinations(range(size), 2) if e not in missing]
    return size, edges, draw(st.integers(0, 12))


def test_enforce_min_degree_matches_the_heap_oracle():
    # the stage is a call of the shared pairing loop; it must add the
    # pairs the old dedicated loop added, in the same order, and the
    # cases must reach the fallback that runs when no deficient partner
    # is left
    fallbacks = []

    @settings(max_examples=400)
    @given(min_degree_cases())
    @example((4, [(0, 1), (0, 2), (1, 2)], 2))
    def check(case):
        size, edges, k = case
        lg, ref = local(size, edges), local(size, edges)
        expect, used = reference_enforce_min_degree(ref, k)
        assert _enforce_min_degree(lg, k) == expect
        assert lg == ref
        fallbacks.append(used)

    check()
    assert sum(map(bool, fallbacks)) >= 20


@st.composite
def cluster_items(draw):
    size = draw(st.integers(1, 12))
    return ClusterWork(
        members=np.arange(size, dtype=np.int64) * 3 + 5,
        edges=canon(draw(edge_lists(size))),
        target_cut=draw(st.integers(0, 12)),
        budget=np.array(draw(st.lists(st.integers(-2, 12), min_size=size,
                                      max_size=size)), dtype=np.int64),
    )


@settings(max_examples=200)
@given(cluster_items(), st.sampled_from(["plus", "pp"]))
def test_process_cluster_returns_one_array_of_new_local_pairs(item, variant):
    # targets up to 12 on at most 12 nodes reach the complete graph
    out = process_cluster(item, variant)
    assert len(out.counts) == len(STAGES)
    assert sum(out.counts) == len(out.added)
    assert out.added.dtype == np.int64 and out.added.shape == (len(out.added), 2)
    rows = list(map(tuple, out.added.tolist()))
    assert all(0 <= u < v < len(item.members) for u, v in rows)
    assert len(set(rows)) == len(rows)
    assert not set(rows) & set(map(tuple, item.edges.tolist()))
    if variant == "plus":
        assert out.counts[STAGES.index("degree_match")] == 0
    # the repair postconditions: connected, degree floor, exact cut target
    size, k = len(item.members), item.target_cut
    edges = repaired(item, out)
    assert len(components_of(edges, size)) == 1
    assert min(degrees_of(edges, size)) >= min_degree_target(k, size)
    assert brute_force_min_cut(size, edges) >= min(k, size - 1)
