import numpy as np
import pytest

from synnetgen import Clustering, build_csr, split
from synnetgen.graphs import GraphFormatError
from synnetgen.splitting import fresh_singleton_ids

from helpers import random_clustering, random_edge_array


def _split_oracle(arr, assignment):
    """Per-edge python filter using independently computed cluster sizes."""
    from collections import Counter

    sizes = Counter(assignment.tolist())
    clustered = {i for i, a in enumerate(assignment.tolist()) if sizes[a] > 1}
    gc = [e for e in arr.tolist() if e[0] in clustered and e[1] in clustered]
    gs = [e for e in arr.tolist() if not (e[0] in clustered and e[1] in clustered)]
    return gc, gs, sorted(clustered)


def test_basic_split():
    # nodes 0..3 clustered (two pairs), 4 singleton
    arr = np.array([[0, 1], [2, 3], [1, 4], [0, 2]])
    c = Clustering([1, 1, 2, 2, 3])
    res = split(build_csr(arr, 5), c)
    assert res.gc_nodes.tolist() == [0, 1, 2, 3]
    assert res.g_c_edges.tolist() == [[0, 1], [0, 2], [2, 3]]
    assert res.g_s_edges.tolist() == [[1, 4]]
    assert res.c_c.assignment.tolist() == [1, 1, 2, 2]
    # singleton keeps the universe and gets a fresh id past the max
    assert res.c_s.n == 5
    assert res.c_s.assignment.tolist() == [1, 1, 2, 2, 4]


def test_fresh_singleton_ids_are_distinct_and_new():
    c = Clustering([7, 7, 3, 9, 9, 5])  # singletons: nodes 2 and 5
    ids = fresh_singleton_ids(c)
    assert ids.tolist() == [10, 11]
    assert c.singleton_nodes.tolist() == [2, 5]


def test_fresh_singleton_ids_reach_the_int64_maximum():
    c = Clustering([2**63 - 2, 2**63 - 2, 0])
    assert fresh_singleton_ids(c).tolist() == [2**63 - 1]


@pytest.mark.parametrize("assignment", [
    [2**63 - 2, 2**63 - 2, -2**63, -2**63, 0, 1, 2],  # would wrap onto -2**63
    [2**63 - 1, 2**63 - 1, 0],                        # would overflow at once
])
def test_fresh_singleton_ids_past_int64_rejected(assignment):
    c = Clustering(assignment)
    with pytest.raises(GraphFormatError, match=f"cluster id {max(assignment)} leaves "
                       f"no room in int64 for {len(c.singleton_nodes)} fresh"):
        fresh_singleton_ids(c)


def test_split_requires_matching_sizes():
    g = build_csr(np.array([[0, 1]]), 2)
    with pytest.raises(ValueError):
        split(g, Clustering([0, 0, 1]))


def test_all_singletons():
    arr = np.array([[0, 1], [1, 2]])
    c = Clustering([0, 1, 2])
    res = split(build_csr(arr, 3), c)
    assert len(res.gc_nodes) == 0
    assert res.g_c_edges.shape == (0, 2)
    assert res.g_s_edges.tolist() == arr.tolist()
    assert len(np.unique(res.c_s.assignment)) == 3


def test_single_cluster_no_singletons():
    arr = np.array([[0, 1], [0, 2], [1, 2]])
    c = Clustering([5, 5, 5])
    res = split(build_csr(arr, 3), c)
    assert res.g_c_edges.tolist() == arr.tolist()
    assert len(res.g_s_edges) == 0
    assert res.c_s.assignment.tolist() == [5, 5, 5]


def test_edge_partition_identity_random():
    """Mapped-back g_c_edges plus g_s_edges reproduce the input exactly."""
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(2, 60))
        arr = random_edge_array(rng, n, 0.15)
        c = random_clustering(rng, n, int(rng.integers(1, max(2, n // 2))))
        g = build_csr(arr, n)
        res = split(g, c)
        gc_expect, gs_expect, clustered = _split_oracle(arr, c.assignment)
        assert res.gc_nodes.tolist() == clustered
        back = res.gc_nodes[res.g_c_edges]
        assert back.tolist() == gc_expect
        assert res.g_s_edges.tolist() == gs_expect
        # exact partition: union is the input, intersection empty
        union = sorted(map(tuple, back.tolist())) + sorted(
            map(tuple, res.g_s_edges.tolist())
        )
        assert sorted(union) == sorted(map(tuple, arr.tolist()))
        # clustered part of c_s is untouched, singleton ids all fresh
        mask = c.clustered_mask
        assert np.array_equal(res.c_s.assignment[mask], c.assignment[mask])
        fresh = res.c_s.assignment[~mask]
        assert len(np.unique(fresh)) == len(fresh)
        if len(fresh) and len(c.cluster_ids):
            assert fresh.min() > c.assignment.max()
