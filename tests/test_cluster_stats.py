import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synnetgen import Clustering, ClusterStats, build_csr, cluster_stats, compute_stats
from synnetgen.cluster_stats import (
    _local_edge_groups,
    cluster_edge_tables,
    read_stats_csv,
    validate_stats_cover,
    write_stats_csv,
)
from synnetgen.graphs import GraphFormatError

from helpers import (
    brute_force_min_cut,
    cluster_members,
    random_clustering,
    random_edge_array,
    reference_local_edge_groups,
)


def test_four_cycle_cluster():
    # a 4-cycle cluster gives n=4, m=4, mincut=2
    arr = np.array([[0, 1], [1, 2], [2, 3], [0, 3], [0, 4]])
    c = Clustering([7, 7, 7, 7, 9])
    stats = compute_stats(build_csr(arr, 5), c)
    assert set(stats) == {7}
    s = stats[7]
    assert (s.n, s.m, s.mincut) == (4, 4, 2)


def test_only_multi_node_clusters_reported():
    arr = np.array([[0, 1], [1, 2], [2, 3]])
    c = Clustering([0, 0, 1, 2])
    stats = compute_stats(build_csr(arr, 4), c)
    assert set(stats) == {0}


def test_cluster_edge_tables_localization():
    # cluster members 2,5,9 -> local 0,1,2
    arr = np.array([[2, 5], [5, 9], [2, 7]])
    c = Clustering([1, 1, 4, 1, 1, 4, 1, 1, 1, 4])
    tables = cluster_edge_tables(build_csr(arr, 10), c)
    by_id = {cid: (size, local) for cid, size, local in tables}
    size, local = by_id[4]
    assert size == 3
    assert local.tolist() == [[0, 1], [1, 2]]


@st.composite
def clustered_graphs(draw):
    """(canonical edge array, assignment) over 1-60 nodes whose cluster ids
    come from a small sparse pool, negatives included."""
    n = draw(st.integers(1, 60))
    pool = draw(st.lists(st.integers(-40, 10**6), min_size=1, max_size=8, unique=True))
    assignment = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=5 * n))
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    return np.array(edges, dtype=np.int64).reshape(-1, 2), assignment


@settings(max_examples=200)
@given(clustered_graphs())
# no edges at all
@example((np.empty((0, 2), dtype=np.int64), [5, 5, -3, 5]))
# only singletons
@example((np.array([[0, 1], [1, 2]]), [9, 2, 40]))
# cluster 7 has no intra edge, ids are not contiguous
@example((np.array([[0, 2], [1, 3], [2, 3]]), [7, 1000, 7, 1000, 3]))
def test_local_edge_groups_match_reference(case):
    edges, assignment = case
    c = Clustering(assignment)
    assert c.cluster_ids[c.index].tolist() == c.assignment.tolist()
    got = list(_local_edge_groups(edges, c))
    want = reference_local_edge_groups(edges, c)
    assert [cid for cid, _, _ in got] == [cid for cid, _, _ in want]
    for (_, members, local), (_, ref_members, ref_local) in zip(got, want):
        assert members.tolist() == ref_members.tolist()
        assert local.shape == ref_local.shape
        assert local.tolist() == ref_local.tolist()


def test_stats_against_brute_force():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        arr = random_edge_array(rng, n, 0.2)
        c = random_clustering(rng, n, int(rng.integers(1, 6)))
        g = build_csr(arr, n)
        stats = compute_stats(g, c)
        assert list(stats) == [cid for cid, _, _ in reference_local_edge_groups(arr, c)]
        for cid, s in stats.items():
            members = cluster_members(c, cid)
            assert s.n == len(members)
            member_set = set(members.tolist())
            intra = [
                e for e in arr.tolist()
                if e[0] in member_set and e[1] in member_set
            ]
            assert s.m == len(intra)
            pos = {int(v): i for i, v in enumerate(members.tolist())}
            local = [(pos[u], pos[v]) for u, v in intra]
            if s.n <= 14:
                assert s.mincut == brute_force_min_cut(s.n, local)
            else:
                import networkx as nx

                h = nx.Graph()
                h.add_nodes_from(range(s.n))
                h.add_edges_from(local)
                expect = nx.stoer_wagner(h)[0] if nx.is_connected(h) else 0
                assert s.mincut == expect


def test_workers_do_not_change_results():
    rng = np.random.default_rng(29)
    arr = random_edge_array(rng, 60, 0.12)
    c = random_clustering(rng, 60, 8)
    g = build_csr(arr, 60)
    a = compute_stats(g, c, workers=1)
    b = compute_stats(g, c, workers=4)
    assert a == b


def test_pool_clamps_workers_to_usable_cpus(monkeypatch):
    # a recorder in place of the process pool: no process is ever started
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(cluster_stats, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cluster_stats.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    rng = np.random.default_rng(31)
    g = build_csr(random_edge_array(rng, 40, 0.15), 40)
    c = random_clustering(rng, 40, 5)
    assert compute_stats(g, c, workers=10_000) == compute_stats(g, c, workers=1)
    with cluster_stats._pool(2) as executor:
        assert list(executor(abs, [-1, 2])) == [1, 2]
    assert sizes == [3, 2]
    monkeypatch.setattr(cluster_stats.os, "sched_getaffinity", lambda pid: {0})
    with cluster_stats._pool(16) as executor:
        assert executor is map
    assert sizes == [3, 2]


def test_csv_round_trip(tmp_path):
    stats = {
        3: ClusterStats(3, 5, 7, 2),
        1: ClusterStats(1, 4, 4, 1),
    }
    p = tmp_path / "stats.csv"
    write_stats_csv(stats, p)
    text = p.read_text()
    assert text.splitlines()[0] == "cluster,n,m,mincut"
    assert text.splitlines()[1] == "1,4,4,1"  # sorted by cluster id
    assert read_stats_csv(p) == stats


def test_read_stats_errors(tmp_path):
    p = tmp_path / "s.csv"
    with pytest.raises(GraphFormatError, match="file not found"):
        read_stats_csv(p)
    p.write_text("wrong,header\n1,2,3,4\n")
    with pytest.raises(GraphFormatError, match="expected header"):
        read_stats_csv(p)
    p.write_text("cluster,n,m,mincut\n1,2,3\n")
    with pytest.raises(GraphFormatError, match="row 2"):
        read_stats_csv(p)
    p.write_text("cluster,n,m,mincut\n1,2,x,4\n")
    with pytest.raises(GraphFormatError, match="non-integer"):
        read_stats_csv(p)
    p.write_text("cluster,n,m,mincut\n20,3,3,2\n21,3,2,1\n20,3,3,2\n")
    with pytest.raises(GraphFormatError, match="row 4: cluster 20 repeated"):
        read_stats_csv(p)
    p.write_text("cluster,n,m,mincut\n21,3,2,1\n20,3,-4,-3\n")
    with pytest.raises(GraphFormatError, match="row 3: negative n, m or mincut"):
        read_stats_csv(p)


def test_validate_stats_cover():
    c = Clustering([0, 0, 1, 1, 2])
    validate_stats_cover({0: ClusterStats(0, 2, 1, 1), 1: ClusterStats(1, 2, 1, 1)}, c)
    with pytest.raises(GraphFormatError, match="missing clusters: \\[1\\]"):
        validate_stats_cover({0: ClusterStats(0, 2, 1, 1)}, c)
    # a row for the singleton cluster 2 is never read, so its n is not checked
    with pytest.raises(GraphFormatError, match="member count of clusters: \\[1\\]"):
        validate_stats_cover({0: ClusterStats(0, 2, 1, 1), 1: ClusterStats(1, 99, 7, 5),
                              2: ClusterStats(2, 5, 0, 0)}, c)
