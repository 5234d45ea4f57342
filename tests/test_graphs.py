import numpy as np
import pytest

from synnetgen import (
    Clustering,
    EdgeSet,
    GraphFormatError,
    build_csr,
    connected_components,
    load_clustering,
    load_edge_list,
    write_clustering,
    write_edge_list,
)
from synnetgen.graphs import gather_neighbors

from helpers import random_edge_array


def test_edge_set_canonicalizes_and_dedups():
    es = EdgeSet()
    assert es.add(3, 1)
    assert not es.add(1, 3)
    assert (1, 3) in es and (3, 1) in es
    assert len(es) == 1
    with pytest.raises(ValueError):
        es.add(2, 2)
    assert es.to_array().tolist() == [[1, 3]]


def test_edge_set_to_array_sorted():
    es = EdgeSet([(5, 2), (0, 9), (2, 5), (0, 1)])
    assert es.to_array().tolist() == [[0, 1], [0, 9], [2, 5]]


def test_empty_edge_set_array_shape():
    assert EdgeSet().to_array().shape == (0, 2)


def test_build_csr_invariants():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 30))
        arr = random_edge_array(rng, n, 0.3)
        g = build_csr(arr, n)
        assert g.n == n
        assert g.m == len(arr)
        assert len(g.offsets) == n + 1
        assert g.offsets[0] == 0 and g.offsets[-1] == 2 * g.m
        for u in range(n):
            nb = g.cols[g.offsets[u]:g.offsets[u + 1]]
            assert np.all(np.diff(nb) > 0)  # sorted, no dups
            assert u not in nb
        # both directions stored
        assert int(g.degrees.sum()) == 2 * g.m
        # canonical edge array round-trips
        assert g.edge_array().tolist() == arr.tolist()


def test_build_csr_rejects_out_of_range():
    with pytest.raises(IndexError):
        build_csr(np.array([[0, 5]]), 3)


def test_has_edge():
    g = build_csr(np.array([[0, 1], [1, 2]]), 4)

    def has_edge(u, v):
        return v in g.cols[g.offsets[u]:g.offsets[u + 1]]

    assert has_edge(0, 1) and has_edge(1, 0)
    assert has_edge(2, 1)
    assert not has_edge(0, 2)
    assert not has_edge(3, 0)


def test_csr_input_order_does_not_matter():
    edges = np.array([(0, 3), (1, 2), (0, 1)])
    a = build_csr(edges, 4)
    b = build_csr(edges[::-1, ::-1], 4)
    assert a.cols.tolist() == b.cols.tolist()
    assert a.offsets.tolist() == b.offsets.tolist()


def test_gather_neighbors_matches_loop():
    rng = np.random.default_rng(11)
    g = build_csr(random_edge_array(rng, 20, 0.2), 20)
    nodes = np.array([3, 3, 0, 17], dtype=np.int64)
    expect = np.concatenate([g.cols[g.offsets[u]:g.offsets[u + 1]] for u in nodes])
    got = gather_neighbors(g, nodes)
    assert got.tolist() == expect.tolist()


def test_clustering_basics():
    c = Clustering([4, 4, 9, 7, 9, 9])
    assert c.n == 6
    assert c.cluster_ids.tolist() == [4, 7, 9]
    assert c.index.tolist() == [0, 0, 2, 1, 2, 2]
    assert c.singleton_nodes.tolist() == [3]
    assert c.clustered_mask.tolist() == [True, True, True, False, True, True]
    order, bounds = c.grouped
    assert order.tolist() == [0, 1, 3, 2, 4, 5]
    assert bounds.tolist() == [0, 2, 3, 6]


def test_load_edge_list_basics(tmp_path):
    p = tmp_path / "net.tsv"
    p.write_text("# comment\n10 30\n30 10\n% other comment\n20\t30\n5 5\n\n")
    res = load_edge_list(p)
    assert res.labels.tolist() == [5, 10, 20, 30]
    assert res.n == 4
    assert res.self_loops_dropped == 1
    assert res.duplicates_dropped == 1
    # 10<->1, 20<->2, 30<->3 internally
    assert res.edges.tolist() == [[1, 3], [2, 3]]


def test_load_edge_list_returns_canonical_array(tmp_path):
    rng = np.random.default_rng(5)
    arr = random_edge_array(rng, 60, 0.1)
    rows = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in arr.tolist()]
    rows = [rows[i] for i in rng.permutation(len(rows))] + rows[:5]
    p = tmp_path / "net.tsv"
    p.write_text("".join(f"{u}\t{v}\n" for u, v in rows))
    res = load_edge_list(p)
    assert isinstance(res.edges, np.ndarray)
    assert res.edges.dtype == np.int64 and res.edges.shape == (len(arr), 2)
    assert (res.edges[:, 0] < res.edges[:, 1]).all()
    assert np.lexsort(res.edges.T[::-1]).tolist() == list(range(len(arr)))
    assert res.labels[res.edges].tolist() == arr.tolist()
    assert res.duplicates_dropped == 5


def test_self_loop_only_node_stays_in_universe(tmp_path):
    p = tmp_path / "net.tsv"
    p.write_text("1 2\n7 7\n")
    res = load_edge_list(p)
    assert res.labels.tolist() == [1, 2, 7]
    assert len(res.edges) == 1


def test_load_edge_list_errors(tmp_path):
    missing = tmp_path / "nope.tsv"
    with pytest.raises(GraphFormatError, match="file not found"):
        load_edge_list(missing)
    bad = tmp_path / "bad.tsv"
    bad.write_text("1 2\n3 x\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        load_edge_list(bad)
    wide = tmp_path / "wide.tsv"
    wide.write_text("1 2 3\n")
    with pytest.raises(GraphFormatError, match="two integer columns"):
        load_edge_list(wide)
    empty = tmp_path / "empty.tsv"
    empty.write_text("# nothing\n")
    with pytest.raises(GraphFormatError, match="no edges"):
        load_edge_list(empty)


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(2, 40))
        arr = random_edge_array(rng, n, 0.2)
        if len(arr) == 0:
            continue
        # scatter onto sparse external labels
        labels = np.sort(rng.choice(10_000, size=n, replace=False))
        p = tmp_path / f"rt{trial}.tsv"
        write_edge_list(arr, labels, p)
        res = load_edge_list(p)
        used = np.unique(labels[arr])
        assert res.labels.tolist() == used.tolist()
        ext = res.labels[res.edges]
        assert ext.tolist() == labels[arr].tolist()


def test_write_edge_list_bytes(tmp_path):
    p = tmp_path / "out.tsv"
    write_edge_list(np.array([[0, 1], [0, 2]]), np.array([10, 20, 30]), p)
    assert p.read_text() == "10\t20\n10\t30\n"
    write_edge_list(np.empty((0, 2), dtype=np.int64), np.array([10]), p)
    assert p.read_text() == ""


def test_load_clustering_and_errors(tmp_path):
    labels = np.array([5, 10, 20])
    p = tmp_path / "c.tsv"
    p.write_text("10 1\n5 1\n20 2\n")
    c = load_clustering(p, labels)
    assert c.assignment.tolist() == [1, 1, 2]

    p.write_text("10 1\n5 1\n20 2\n99 2\n")
    with pytest.raises(GraphFormatError, match="unknown node 99"):
        load_clustering(p, labels)

    p.write_text("10 1\n5 1\n10 2\n20 2\n")
    with pytest.raises(GraphFormatError, match="assigned more than once"):
        load_clustering(p, labels)

    p.write_text("10 1\n5 1\n")
    with pytest.raises(GraphFormatError, match="node 20 missing"):
        load_clustering(p, labels)


def test_load_clustering_names_the_earlier_offending_line(tmp_path):
    labels = np.array([5, 10, 20])
    p = tmp_path / "c.tsv"
    p.write_text("10 1\n99 2\n10 2\n5 1\n20 2\n")
    with pytest.raises(GraphFormatError, match="unknown node 99"):
        load_clustering(p, labels)

    p.write_text("10 1\n10 2\n99 2\n5 1\n20 2\n")
    with pytest.raises(GraphFormatError, match="node 10 assigned more than once"):
        load_clustering(p, labels)

    # a repeat of an unknown node is reported as unknown, at its first line
    p.write_text("5 1\n7 1\n7 1\n10 1\n20 2\n")
    with pytest.raises(GraphFormatError, match="unknown node 7"):
        load_clustering(p, labels)


def test_clustering_round_trip(tmp_path):
    labels = np.array([3, 6, 8, 11])
    c = Clustering([2, 0, 2, 5])
    p = tmp_path / "c.tsv"
    write_clustering(c, labels, p)
    assert p.read_text() == "3\t2\n6\t0\n8\t2\n11\t5\n"
    c2 = load_clustering(p, labels)
    assert c2.assignment.tolist() == c.assignment.tolist()


def test_connected_components_labels():
    # two components; labels follow ascending smallest member
    g = build_csr(np.array([[3, 4], [0, 1], [1, 2]]), 6)
    labels = connected_components(g)
    assert labels.tolist() == [0, 0, 0, 1, 1, 2]


def test_connected_components_random():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        arr = random_edge_array(rng, n, 0.08)
        g = build_csr(arr, n)
        labels = connected_components(g)
        # same label iff connected by a path: check via union-find oracle
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in arr.tolist():
            parent[find(u)] = find(v)
        for u in range(n):
            for v in range(n):
                assert (labels[u] == labels[v]) == (find(u) == find(v))
