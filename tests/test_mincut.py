import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synnetgen import build_csr, connected_components, global_min_cut, min_cut_of_edges
from synnetgen import mincut
from synnetgen.mincut import (
    MinCutSizeError,
    bridge_floor,
    dense_adjacency,
    stoer_wagner_dense,
)

from helpers import brute_force_min_cut, cut_across, random_edge_array


def test_trivial_sizes():
    assert global_min_cut(build_csr(np.empty((0, 2), dtype=np.int64), 0)) == 0
    assert global_min_cut(build_csr(np.empty((0, 2), dtype=np.int64), 1)) == 0


def test_single_edge():
    assert global_min_cut(build_csr(np.array([[0, 1]]), 2)) == 1
    value, side = stoer_wagner_dense(dense_adjacency(2, np.array([[0, 1]])))
    assert value == 1
    assert side in ([0], [1])


def test_known_graphs():
    # path: cut 1
    path = build_csr(np.array([[0, 1], [1, 2], [2, 3]]), 4)
    assert global_min_cut(path) == 1
    # cycle: cut 2
    cyc = build_csr(np.array([[0, 1], [1, 2], [2, 3], [0, 3]]), 4)
    assert global_min_cut(cyc) == 2
    # K4: cut 3
    k4 = build_csr(np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]), 4)
    assert global_min_cut(k4) == 3
    # two triangles joined by a bridge: cut 1
    bridged = np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]])
    assert global_min_cut(build_csr(bridged, 6)) == 1
    value, side = stoer_wagner_dense(dense_adjacency(6, bridged))
    assert value == 1
    assert side in ([0, 1, 2], [3, 4, 5])


def test_disconnected_returns_zero_with_component():
    # two components
    assert global_min_cut(build_csr(np.array([[0, 1], [2, 3]]), 4)) == 0
    # isolated node also disconnects
    assert global_min_cut(build_csr(np.array([[0, 1]]), 3)) == 0


def test_size_guard(monkeypatch):
    g = build_csr(np.array([[0, 1]]), 2)
    monkeypatch.setattr(mincut, "SIZE_GUARD", 1)
    with pytest.raises(MinCutSizeError):
        global_min_cut(g)
    monkeypatch.setattr(mincut, "SIZE_GUARD", 5)
    with pytest.raises(MinCutSizeError):
        min_cut_of_edges(10, [])


def test_value_matches_exhaustive_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(120):
        n = int(rng.integers(2, 11))
        p = float(rng.uniform(0.1, 0.9))
        arr = random_edge_array(rng, n, p)
        expect = brute_force_min_cut(n, arr.tolist())
        value = global_min_cut(build_csr(arr, n))
        assert value == expect
        # on a connected graph, the dense kernel's side realizes the value
        if value > 0:
            dense_value, side = stoer_wagner_dense(dense_adjacency(n, arr))
            assert dense_value == value
            assert cut_across(arr.tolist(), side) == value
            assert 0 < len(side) < n


def test_weighted_dense_matches_contracted_multigraph():
    # parallel edges as weights: cut is weight across the partition
    w = np.zeros((4, 4), dtype=np.int64)
    w[0, 1] = w[1, 0] = 3
    w[1, 2] = w[2, 1] = 1
    w[2, 3] = w[3, 2] = 3
    value, side = stoer_wagner_dense(w)
    assert value == 1
    assert sorted(side) in ([0, 1], [2, 3])


def test_min_cut_of_edges_agrees_with_csr_route():
    rng = np.random.default_rng(33)
    disconnected = 0
    for p in (0.4, 0.1):
        for _ in range(60):
            n = int(rng.integers(2, 10))
            arr = random_edge_array(rng, n, p)
            g = build_csr(arr, n)
            value = global_min_cut(g)
            assert min_cut_of_edges(n, arr) == value
            if connected_components(g).max() > 0:
                disconnected += 1
                assert value == 0
    assert disconnected >= 30


def test_cross_check_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(55)
    for _ in range(40):
        n = int(rng.integers(3, 16))
        arr = random_edge_array(rng, n, 0.35)
        g = build_csr(arr, n)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(arr.tolist())
        if nx.is_connected(h):
            expect = nx.stoer_wagner(h)[0]
        else:
            expect = 0
        assert global_min_cut(g) == expect


def test_determinism_of_side():
    rng = np.random.default_rng(77)
    arr = random_edge_array(rng, 12, 0.3)
    w = dense_adjacency(12, arr)
    first = stoer_wagner_dense(w)
    for _ in range(5):
        assert stoer_wagner_dense(w) == first


# ===== Cut bounds: every shortcut must agree with the full kernel =====

MAX_EXAMPLES = 150

# two triangles joined by a bridge: n = 2 delta + 2 and the cut 1 < delta
BRIDGED_TRIANGLES = (6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


@st.composite
def graphs(draw):
    """(n, edges) of a simple graph on 2..12 nodes, labels shuffled.

    Shapes other than plain random ones are forced, because each sits on
    one side of a bound: trees (cut 1), cycles (bridgeless, cut 2),
    near-complete graphs (n <= 2 delta + 1) and disconnected graphs.
    """
    shape = draw(st.sampled_from(["random", "tree", "cycle", "near_complete",
                                  "disconnected"]))
    n = draw(st.integers(3 if shape == "cycle" else 2, 12))
    pairs = list(itertools.combinations(range(n), 2))
    if shape == "random":
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    elif shape == "tree":
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    elif shape == "cycle":
        edges = [(v, (v + 1) % n) for v in range(n)]
    elif shape == "near_complete":
        gone = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n // 2))
        edges = [e for e in pairs if e not in gone]
    else:
        split = draw(st.integers(1, n - 1))
        edges = [(u, v) for u, v in draw(st.lists(st.sampled_from(pairs), unique=True))
                 if (u < split) == (v < split)]
    perm = draw(st.permutations(range(n)))
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def nx_graph(n, edges):
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


def full_kernel_cut(n, edges):
    """The cut the kernel finds with no bound, 0 for a disconnected graph."""
    if not nx.is_connected(nx_graph(n, edges)):
        return 0
    return stoer_wagner_dense(dense_adjacency(n, np.array(edges)))[0]


@settings(max_examples=MAX_EXAMPLES)
@given(graphs())
@example(BRIDGED_TRIANGLES)
def test_bridge_floor_matches_networkx(graph):
    n, edges = graph
    h = nx_graph(n, edges)
    expect = 0 if not nx.is_connected(h) else 1 if nx.has_bridges(h) else 2
    assert bridge_floor([list(h.neighbors(v)) for v in range(n)]) == expect


@settings(max_examples=MAX_EXAMPLES)
@given(graphs())
@example(BRIDGED_TRIANGLES)
def test_value_front_ends_match_full_kernel(graph):
    n, edges = graph
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    expect = full_kernel_cut(n, edges)
    assert min_cut_of_edges(n, arr) == expect
    assert global_min_cut(build_csr(arr, n)) == expect


@settings(max_examples=MAX_EXAMPLES)
@given(graphs(), st.lists(st.integers(1, 3), min_size=66, max_size=66))
@example(BRIDGED_TRIANGLES, [1] * 66)
def test_floor_keeps_value_and_side(graph, weights):
    # edge weights stand for the parallel edges that contraction makes;
    # 66 covers every pair of 12 nodes
    n, edges = graph
    w = np.zeros((n, n), dtype=np.int64)
    for (u, v), x in zip(edges, weights):
        w[u, v] = w[v, u] = x
    full = stoer_wagner_dense(w, floor=-1)
    for f in range(full[0] + 1):
        assert stoer_wagner_dense(w, floor=f) == full
