import numpy as np
import pytest

from synnetgen import build_csr, connected_components, global_min_cut, min_cut_of_edges
from synnetgen.mincut import MinCutSizeError, stoer_wagner_dense

from helpers import brute_force_min_cut, cut_across, random_edge_array


def test_trivial_sizes():
    res = global_min_cut(build_csr(np.empty((0, 2), dtype=np.int64), 0))
    assert res.value == 0 and res.side.tolist() == []
    res = global_min_cut(build_csr(np.empty((0, 2), dtype=np.int64), 1))
    assert res.value == 0 and res.side.tolist() == []


def test_single_edge():
    res = global_min_cut(build_csr(np.array([[0, 1]]), 2))
    assert res.value == 1
    assert res.side.tolist() in ([0], [1])


def test_known_graphs():
    # path: cut 1
    path = build_csr(np.array([[0, 1], [1, 2], [2, 3]]), 4)
    assert global_min_cut(path).value == 1
    # cycle: cut 2
    cyc = build_csr(np.array([[0, 1], [1, 2], [2, 3], [0, 3]]), 4)
    assert global_min_cut(cyc).value == 2
    # K4: cut 3
    k4 = build_csr(np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]), 4)
    assert global_min_cut(k4).value == 3
    # two triangles joined by a bridge: cut 1
    bridged = build_csr(
        np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]]), 6
    )
    res = global_min_cut(bridged)
    assert res.value == 1
    assert sorted(res.side.tolist()) in ([0, 1, 2], [3, 4, 5])


def test_disconnected_returns_zero_with_component():
    g = build_csr(np.array([[0, 1], [2, 3]]), 4)
    res = global_min_cut(g)
    assert res.value == 0
    assert res.side.tolist() == [0, 1]
    # isolated node also disconnects
    g = build_csr(np.array([[0, 1]]), 3)
    res = global_min_cut(g)
    assert res.value == 0
    assert res.side.tolist() == [0, 1]


def test_size_guard():
    g = build_csr(np.array([[0, 1]]), 2)
    with pytest.raises(MinCutSizeError):
        global_min_cut(g, size_guard=1)
    with pytest.raises(MinCutSizeError):
        min_cut_of_edges(10, [], size_guard=5)


def test_value_matches_exhaustive_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(120):
        n = int(rng.integers(2, 11))
        p = float(rng.uniform(0.1, 0.9))
        arr = random_edge_array(rng, n, p)
        g = build_csr(arr, n)
        expect = brute_force_min_cut(n, arr.tolist())
        res = global_min_cut(g)
        assert res.value == expect
        # the reported side must realize the reported value
        if res.value > 0:
            assert cut_across(arr.tolist(), res.side) == res.value
            assert 0 < len(res.side) < n


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
            a = global_min_cut(g)
            b = min_cut_of_edges(n, arr)
            assert a.value == b.value
            assert a.side.tolist() == b.side.tolist()
            labels = connected_components(g)
            if labels.max() > 0:
                disconnected += 1
                assert a.value == 0
                assert a.side.tolist() == np.flatnonzero(labels == 0).tolist()
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
        assert global_min_cut(g).value == expect


def test_determinism_of_side():
    rng = np.random.default_rng(77)
    arr = random_edge_array(rng, 12, 0.3)
    g = build_csr(arr, 12)
    first = global_min_cut(g)
    for _ in range(5):
        again = global_min_cut(g)
        assert again.value == first.value
        assert again.side.tolist() == first.side.tolist()
