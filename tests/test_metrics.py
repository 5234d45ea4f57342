import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from mpmath import mp, mpf
from mpmath import sqrt as mp_sqrt

from synnetgen import (
    Clustering,
    absolute_difference,
    ari,
    build_csr,
    compare_networks,
    compute_network_stats,
    nmi,
    relative_difference,
    rmse,
)
from synnetgen import metrics
from synnetgen.graphs import bfs_distances
from synnetgen.metrics import (
    clustering_coefficients,
    cluster_mincut_map,
    diameter_largest_component,
    mixing_parameter,
    outlier_clustered_edge_count,
)

from helpers import (
    ari_pair_oracle,
    brute_force_min_cut,
    cluster_members,
    global_coefficient_oracle,
    local_coefficient_oracle,
    nmi_oracle,
    planted_reference,
    random_clustering,
    random_edge_array,
    reference_local_edge_groups,
    triangle_oracle,
)

mp.dps = 50


def close_rel(got, want, tol=1e-12):
    return abs(got - want) <= tol * max(1.0, abs(want))


def test_scalar_comparison_basics():
    assert absolute_difference(3.5, 1.25) == 2.25
    assert relative_difference(4.0, 3.0) == 0.25
    assert math.isnan(relative_difference(0.0, 3.0))
    assert rmse([1, 2], [1, 2]) == 0.0
    assert rmse([3, 0], [0, 4]) == pytest.approx(math.sqrt(12.5))
    assert math.isnan(rmse([], []))
    with pytest.raises(ValueError):
        rmse([1, 2], [1])


def test_scalars_against_extended_precision():
    rng = np.random.default_rng(111)
    for _ in range(30):
        k = int(rng.integers(1, 200))
        scale = 10.0 ** rng.integers(-6, 7)
        a = rng.normal(0, scale, size=k)
        b = rng.normal(0, scale, size=k)
        want = float(mp_sqrt(sum((mpf(x) - mpf(y)) ** 2 for x, y in zip(a, b)) / k))
        assert close_rel(rmse(a, b), want)
        s, t = float(a[0]), float(b[0])
        if s != 0:
            assert close_rel(relative_difference(s, t),
                             float((mpf(s) - mpf(t)) / mpf(s)))
        assert close_rel(absolute_difference(s, t), float(mpf(s) - mpf(t)))


def test_clustering_coefficients_against_cubic_oracle(monkeypatch):
    rng = np.random.default_rng(121)
    graphs = [(n, random_edge_array(rng, n, p)) for n in range(15) for p in (0, 0.4, 1)]
    # a hub joined to a 6-clique and to 5 leaves: the hub ranks last
    hub = [(0, v) for v in range(1, 12)] + list(itertools.combinations(range(1, 7), 2))
    graphs.append((12, np.array(sorted(hub), dtype=np.int64)))
    for block in (1, 3, metrics._WEDGE_BLOCK):
        monkeypatch.setattr(metrics, "_WEDGE_BLOCK", block)
        for n, arr in graphs:
            g = build_csr(arr, n)
            tri = metrics._triangles_per_node(g)
            assert tri.tolist() == triangle_oracle(n, arr.tolist())[0]
            mean_local, global_c = clustering_coefficients(g)
            assert mean_local == pytest.approx(
                local_coefficient_oracle(n, arr.tolist()), abs=1e-12)
            assert global_c == pytest.approx(
                global_coefficient_oracle(n, arr.tolist()), abs=1e-12)


def test_triangle_count_memory_stays_bounded_on_a_star():
    # the matrix square of a 2000-leaf star holds 4M entries; the forward
    # count points every edge at the hub, which then has no wedge to close
    leaves = np.arange(1, 2001, dtype=np.int64)
    g = build_csr(np.column_stack([np.zeros_like(leaves), leaves]), 2001)
    tracemalloc.start()
    try:
        tri = metrics._triangles_per_node(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not tri.any()
    assert peak < 4 * 2**20


def test_triangle_free_and_complete():
    # star: no triangles anywhere
    star = build_csr(np.array([[0, 1], [0, 2], [0, 3]]), 4)
    mean_local, global_c = clustering_coefficients(star)
    assert mean_local == 0.0 and global_c == 0.0
    # K4: all coefficients 1
    k4 = build_csr(np.array(list(itertools.combinations(range(4), 2))), 4)
    mean_local, global_c = clustering_coefficients(k4)
    assert mean_local == pytest.approx(1.0)
    assert global_c == pytest.approx(1.0)


def test_diameter_paths_and_components():
    path = build_csr(np.array([[i, i + 1] for i in range(4)]), 5)
    assert diameter_largest_component(path) == (4, True)
    # larger component wins
    g = build_csr(np.array([[0, 1], [2, 3], [3, 4]]), 5)
    assert diameter_largest_component(g) == (2, True)
    # equal sizes: component with the smaller label wins
    g = build_csr(np.array([[0, 1], [1, 2], [3, 4], [4, 5], [3, 5]]), 6)
    assert diameter_largest_component(g) == (2, True)
    # isolated-only graph
    g = build_csr(np.empty((0, 2), dtype=np.int64), 3)
    assert diameter_largest_component(g) == (0, True)


def test_diameter_guard_lower_bound(monkeypatch):
    path = build_csr(np.array([[i, i + 1] for i in range(29)]), 30)
    monkeypatch.setattr(metrics, "DIAMETER_GUARD", 10)
    diam, exact = diameter_largest_component(path)
    assert not exact
    assert diam <= 29
    # double sweep is exact on trees, so the bound is tight here
    assert diam == 29


def test_diameter_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(131)
    for _ in range(15):
        n = int(rng.integers(2, 25))
        arr = random_edge_array(rng, n, 0.2)
        g = build_csr(arr, n)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(arr.tolist())
        comps = sorted(nx.connected_components(h), key=lambda s: (-len(s), min(s)))
        want = nx.diameter(h.subgraph(comps[0])) if len(comps[0]) > 1 else 0
        assert diameter_largest_component(g)[0] == want


def _assert_diameter_matches_networkx(h, rng):
    """Relabel h's nodes at random, then compare with networkx.diameter."""
    nx = pytest.importorskip("networkx")
    n = h.number_of_nodes()
    h = nx.relabel_nodes(h, dict(zip(h.nodes(), rng.permutation(n).tolist())))
    arr = np.sort(np.array(list(h.edges()), dtype=np.int64).reshape(-1, 2), axis=1)
    g = build_csr(np.unique(arr, axis=0), n)
    largest = min(nx.connected_components(h), key=lambda s: (-len(s), min(s)))
    want = nx.diameter(h.subgraph(largest).copy()) if len(largest) > 1 else 0
    assert diameter_largest_component(g) == (want, True)


def test_diameter_of_planted_references_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(137)
    for n_nodes, n_clusters in ((200, 4), (600, 8), (3000, 30)):
        arr, _ = planted_reference(rng, n_nodes, n_clusters)
        h = nx.Graph()
        h.add_nodes_from(range(n_nodes))
        h.add_edges_from(arr.tolist())
        _assert_diameter_matches_networkx(h, rng)


def test_diameter_of_structured_graphs_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(139)
    graphs = [nx.convert_node_labels_to_integers(nx.grid_2d_graph(r, c))
              for r, c in ((1, 7), (5, 5), (6, 11), (20, 3))]
    graphs += [nx.barbell_graph(6, 0), nx.barbell_graph(5, 9),
               nx.lollipop_graph(7, 1), nx.lollipop_graph(8, 15)]
    for n in (2, 3, 10, 60, 400):
        tree = nx.Graph()
        tree.add_nodes_from(range(n))
        tree.add_edges_from((int(rng.integers(0, i)), i) for i in range(1, n))
        graphs.append(tree)
    for h in graphs:
        _assert_diameter_matches_networkx(h, rng)


def test_diameter_with_two_equal_largest_components():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(149)
    pairs = [(nx.path_graph(6), nx.star_graph(5)), (nx.star_graph(5), nx.path_graph(6)),
             (nx.cycle_graph(9), nx.barbell_graph(3, 3))]
    for _ in range(4):
        trees = []
        for _ in range(2):
            t = nx.Graph()
            t.add_edges_from((int(rng.integers(0, i)), i) for i in range(1, 40))
            trees.append(t)
        pairs.append(tuple(trees))
    for a, b in pairs:
        h = nx.disjoint_union_all([a, b, nx.path_graph(3)])
        _assert_diameter_matches_networkx(h, rng)


def test_diameter_needs_few_breadth_first_searches(monkeypatch):
    calls = []

    def counted(g, source):
        calls.append(source)
        return bfs_distances(g, source)

    monkeypatch.setattr(metrics, "bfs_distances", counted)
    n = 4000
    arr, _ = planted_reference(np.random.default_rng(151), n, 40)
    diam, exact = diameter_largest_component(build_csr(arr, n))
    assert exact and diam > 0
    # a search from every node of the largest component would make ~n
    assert len(calls) < n / 10


def test_mixing_parameter_modes():
    # triangle inside one cluster plus one crossing edge
    g = build_csr(np.array([[0, 1], [0, 2], [1, 2], [2, 3]]), 4)
    c = Clustering([0, 0, 0, 1])
    assert mixing_parameter(g, c) == pytest.approx(0.25)
    # node means: [0, 0, 1/3, 1] -> 1/3
    assert mixing_parameter(g, c, mode="node-mean") == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        mixing_parameter(g, c, mode="weird")
    # all singletons: everything crosses
    assert mixing_parameter(g, Clustering([0, 1, 2, 3])) == 1.0
    # one cluster: nothing crosses
    assert mixing_parameter(g, Clustering([5, 5, 5, 5])) == 0.0
    # empty graph
    empty = build_csr(np.empty((0, 2), dtype=np.int64), 2)
    assert mixing_parameter(empty, Clustering([0, 1])) == 0.0


def test_outlier_clustered_edges_xor():
    g = build_csr(np.array([[0, 1], [0, 2], [2, 3], [3, 4]]), 5)
    # clusters: {0,1} multi; 2,3,4 singletons
    c = Clustering([0, 0, 1, 2, 3])
    # (0,2) crosses multi/singleton; (2,3) and (3,4) are singleton/singleton
    assert outlier_clustered_edge_count(g, c) == 1


def test_cluster_mincut_map_matches_brute_force():
    rng = np.random.default_rng(141)
    for _ in range(15):
        n = int(rng.integers(4, 25))
        arr = random_edge_array(rng, n, 0.25)
        g = build_csr(arr, n)
        c = random_clustering(rng, n, 4)
        cuts = cluster_mincut_map(g, c)
        assert list(cuts) == [cid for cid, _, _ in reference_local_edge_groups(arr, c)]
        for cid, value in cuts.items():
            members = cluster_members(c, cid)
            pos = {int(v): i for i, v in enumerate(members.tolist())}
            local = [
                (pos[u], pos[v]) for u, v in arr.tolist()
                if u in pos and v in pos
            ]
            assert value == brute_force_min_cut(len(members), local)


def test_compute_network_stats_shapes():
    rng = np.random.default_rng(151)
    arr = random_edge_array(rng, 20, 0.2)
    g = build_csr(arr, 20)
    # fresh ids make nodes 0..2 singletons
    c = Clustering(np.concatenate([[100, 101, 102],
                                   random_clustering(rng, 20, 5).assignment[3:]]))
    multi = reference_local_edge_groups(arr, c)
    assert len(c.singleton_nodes) >= 3 and multi
    stats = compute_network_stats(g, c)
    assert stats.degrees.tolist() == g.degrees.tolist()
    cuts = cluster_mincut_map(g, c)
    assert stats.mincuts.tolist() == [cuts[cid] for cid in sorted(cuts)]
    assert len(stats.mincuts) == len(multi)
    assert stats.outlier_degrees.tolist() == g.degrees[c.singleton_nodes].tolist()
    with pytest.raises(ValueError):
        compute_network_stats(g, Clustering([0, 1]))


def test_compare_identical_networks_is_zero():
    rng = np.random.default_rng(161)
    arr = random_edge_array(rng, 15, 0.3)
    g = build_csr(arr, 15)
    c = random_clustering(rng, 15, 3)
    report = compare_networks(g, g, c)
    stats = [e.stat for e in report.entries]
    assert stats == [
        "degree_sequence",
        "mincut_sequence",
        "diameter",
        "outlier_clustered_edges",
        "outlier_degree_sequence",
        "local_clustering_mean",
        "global_clustering",
        "mixing_parameter",
    ]
    for e in report.entries:
        if not math.isnan(e.value):
            assert e.value == 0.0


def test_compare_alignment_modes_differ():
    # same degree multiset on different nodes: sorted sees no error,
    # identity does
    ref = build_csr(np.array([[0, 1], [0, 2]]), 4)
    syn = build_csr(np.array([[3, 1], [3, 2]]), 4)
    c = Clustering([0, 0, 0, 0])
    ident = compare_networks(ref, syn, c)
    srt = compare_networks(ref, syn, c, alignment="sorted")
    assert {e.stat: e.value for e in ident.entries}["degree_sequence"] > 0
    assert {e.stat: e.value for e in srt.entries}["degree_sequence"] == 0.0
    with pytest.raises(ValueError):
        compare_networks(ref, syn, c, alignment="diagonal")


def test_compare_undefined_notes():
    ref = build_csr(np.array([[0, 1]]), 3)
    syn = build_csr(np.array([[1, 2]]), 3)
    c = Clustering([0, 1, 2])  # all singletons
    report = compare_networks(ref, syn, c)
    by_stat = {e.stat: e for e in report.entries}
    assert math.isnan(by_stat["mincut_sequence"].value)
    assert by_stat["mincut_sequence"].note == "no multi-node clusters"
    # everything is a singleton, so no edge has exactly one clustered end
    assert math.isnan(by_stat["outlier_clustered_edges"].value)
    assert "undefined" in by_stat["outlier_clustered_edges"].note
    # outliers exist, so the outlier degree rmse is defined
    assert not math.isnan(by_stat["outlier_degree_sequence"].value)


def test_compare_requires_shared_universe():
    a = build_csr(np.array([[0, 1]]), 2)
    b = build_csr(np.array([[0, 1]]), 3)
    with pytest.raises(ValueError):
        compare_networks(a, b, Clustering([0, 0]))


def test_report_serialization(tmp_path):
    ref = build_csr(np.array([[0, 1], [1, 2]]), 3)
    syn = build_csr(np.array([[0, 1]]), 3)
    report = compare_networks(ref, syn, Clustering([0, 0, 0]))
    jp = tmp_path / "m.json"
    cp = tmp_path / "m.csv"
    report.to_json(jp)
    report.to_csv(cp)
    data = json.loads(jp.read_text())
    assert data["alignment"] == "identity"
    assert len(data["metrics"]) == 8
    lines = cp.read_text().splitlines()
    assert lines[0] == "stat,metric,value,note"
    assert len(lines) == 9
    # round-trippable floats
    for row in lines[1:]:
        val = row.split(",")[2]
        if val:
            float(val)


def test_nmi_identical_and_permuted_exact():
    rng = np.random.default_rng(171)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        a = rng.integers(0, 6, size=n)
        assert nmi(a, a) == 1.0
        perm = rng.permutation(10)
        assert nmi(a, perm[a]) == 1.0
        assert ari(a, perm[a]) == 1.0


def test_nmi_against_entropy_oracle():
    rng = np.random.default_rng(181)
    for _ in range(40):
        n = int(rng.integers(2, 80))
        a = rng.integers(0, 5, size=n)
        b = rng.integers(0, 4, size=n)
        want = nmi_oracle(a.tolist(), b.tolist())
        assert close_rel(nmi(a, b), want, tol=1e-10)


def test_nmi_degenerate_cases():
    # both trivial: identical, so 1
    assert nmi([0, 0, 0], [5, 5, 5]) == 1.0
    # one trivial, one not: zero information
    assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0
    # independent blocks share no information beyond chance
    a = [0, 0, 1, 1]
    b = [0, 1, 0, 1]
    assert nmi(a, b) == pytest.approx(0.0, abs=1e-12)


def test_nmi_accepts_clustering_objects():
    c1 = Clustering([0, 0, 1])
    c2 = Clustering([7, 7, 3])
    assert nmi(c1, c2) == 1.0
    assert ari(c1, c2) == 1.0


def test_ari_against_pair_oracle():
    rng = np.random.default_rng(191)
    for _ in range(40):
        n = int(rng.integers(2, 50))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 5, size=n)
        want = ari_pair_oracle(a.tolist(), b.tolist())
        assert close_rel(ari(a, b), want, tol=1e-10)


def test_ari_bounds_and_degenerates():
    assert ari([0, 1, 2], [5, 6, 7]) == 1.0
    assert ari([0, 0, 0], [1, 1, 1]) == 1.0
    # anti-correlated pairs go negative
    assert ari([0, 0, 1, 1], [0, 1, 0, 1]) < 0.5
    rng = np.random.default_rng(201)
    vals = []
    for _ in range(50):
        a = rng.integers(0, 5, size=40)
        b = rng.integers(0, 5, size=40)
        vals.append(ari(a, b))
    # independent partitions scatter around zero
    assert abs(float(np.mean(vals))) < 0.05
