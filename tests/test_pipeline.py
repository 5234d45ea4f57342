import json
import time
from collections import Counter

import numpy as np
import pytest

from synnetgen import (
    Clustering,
    PipelineConfig,
    PipelineError,
    build_csr,
    compute_stats,
    nmi,
    run_both_variants,
    run_pipeline,
    split,
    synthesize,
)
from synnetgen import mincut, pipeline
from synnetgen.graphs import load_clustering, load_edge_list
from synnetgen.pipeline import _build_work_items, _merge_arrays

from helpers import (
    planted_reference,
    structural_violations,
    write_network_files,
)


@pytest.fixture(scope="module")
def small_reference():
    rng = np.random.default_rng(1000)
    arr, assignment = planted_reference(rng, 120, 8)
    g = build_csr(arr, 120)
    return g, Clustering(assignment)


def test_merge_arrays():
    # disjoint canonical parts merge into their canonical sorted union
    a = np.array([[0, 1], [1, 2]])
    b = np.array([[0, 3], [2, 3]])
    empty = np.empty((0, 2), dtype=np.int64)
    assert _merge_arrays(4, [a, b]).tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]
    assert _merge_arrays(4, [empty, b, empty]).tolist() == b.tolist()
    for parts in ([], [empty]):
        merged = _merge_arrays(4, parts)
        assert merged.shape == (0, 2) and merged.dtype == np.int64


def test_merge_arrays_rejects_a_repeated_edge():
    a = np.array([[0, 1], [1, 2]])
    b = np.array([[1, 2], [2, 3]])
    with pytest.raises(PipelineError, match="1 edges repeated") as exc:
        _merge_arrays(4, [a, b])
    assert exc.value.stage == "merge"


def test_build_work_items_external_degrees():
    # two clusters of two; sampled edges: one intra in cluster 0, one inter
    arr = np.array([[0, 1], [1, 2], [2, 3]])
    c = Clustering([0, 0, 1, 1])
    g = build_csr(arr, 4)
    res = split(g, c)
    stats = compute_stats(g, c)
    gc_sample = np.array([[0, 1], [1, 2]])
    ref_deg = np.bincount(res.g_c_edges.ravel(), minlength=len(res.gc_nodes))
    items = _build_work_items(res, ref_deg, gc_sample, stats)
    assert [it.members.tolist() for it in items] == [[0, 1], [2, 3]]
    assert items[0].edges.tolist() == [[0, 1]]
    assert items[1].edges.shape == (0, 2)
    # reference degrees restricted to the clustered subnetwork
    assert ref_deg.tolist() == [1, 2, 2, 1]
    # budget is reference degree less the sampled inter-cluster degree:
    # node 1 has the inter edge; cluster-1 side lands on node 2
    assert (ref_deg[items[0].members] - items[0].budget).tolist() == [0, 1]
    assert (ref_deg[items[1].members] - items[1].budget).tolist() == [1, 0]
    assert items[0].budget.tolist() == [1, 1]


def test_unknown_variant_raises():
    g = build_csr(np.array([[0, 1]]), 2)
    with pytest.raises(PipelineError, match="configure"):
        synthesize(g, Clustering([0, 0]), "fancy", seed=0)


def test_structural_guarantees_both_variants(small_reference):
    g, c = small_reference
    stats = compute_stats(g, c)
    for variant in ("plus", "pp"):
        result = synthesize(g, c, variant, seed=11)
        out = build_csr(result.edges, g.n)
        assert structural_violations(out, c, stats) == []
        # edge accounting holds
        ec = result.report.edge_counts
        additions = (ec["added_min_degree"] + ec["added_stitch"]
                     + ec["added_mincut"] + ec["added_degree_match"])
        assert ec["output"] == (ec["clustered_sampled"] + additions
                                + ec["singleton_sampled"])
        assert ec["output"] == len(result.edges)
        assert ec["reference"] == g.m


def test_variants_share_sampling(small_reference):
    g, c = small_reference
    plus = synthesize(g, c, "plus", seed=5)
    pp = synthesize(g, c, "pp", seed=5)
    assert (plus.report.edge_counts["clustered_sampled"]
            == pp.report.edge_counts["clustered_sampled"])
    assert (plus.report.edge_counts["singleton_sampled"]
            == pp.report.edge_counts["singleton_sampled"])
    assert plus.report.sbm == pp.report.sbm


def test_determinism_across_workers(small_reference):
    g, c = small_reference
    for variant in ("plus", "pp"):
        runs = [synthesize(g, c, variant, seed=3, workers=w) for w in (1, 2)]
        assert runs[0].edges.tolist() == runs[1].edges.tolist()
        assert runs[0].report.edge_counts == runs[1].report.edge_counts
        assert runs[0].residuals.tolist() == runs[1].residuals.tolist()
        assert ({part: rows.tolist() for part, rows in runs[0].shortfalls.items()}
                == {part: rows.tolist() for part, rows in runs[1].shortfalls.items()})


def test_stage_seconds_are_disjoint(small_reference):
    # stages do not overlap, so their seconds cannot add up to more than the call
    g, c = small_reference
    for variant in ("plus", "pp"):
        for workers in (1, 2):
            t = time.perf_counter()
            result = synthesize(g, c, variant, seed=3, workers=workers)
            wall = time.perf_counter() - t
            seconds = result.report.stage_seconds
            assert {"stats", "split", "block_matrices", "sampling", "repair",
                    "merge"} <= set(seconds)
            assert sum(seconds.values()) <= wall


def test_determinism_same_seed_same_result(small_reference):
    g, c = small_reference
    a = synthesize(g, c, "pp", seed=21)
    b = synthesize(g, c, "pp", seed=21)
    other = synthesize(g, c, "pp", seed=22)
    assert a.edges.tolist() == b.edges.tolist()
    assert a.edges.tolist() != other.edges.tolist()


def test_injected_stats_match_recomputation(small_reference):
    g, c = small_reference
    stats = compute_stats(g, c)
    a = synthesize(g, c, "pp", seed=9)
    b = synthesize(g, c, "pp", seed=9, stats=stats)
    assert a.edges.tolist() == b.edges.tolist()
    assert b.stats == stats


def test_repair_guard_applies_with_injected_stats(small_reference, monkeypatch):
    # injected stats compute no cut, so repair's own guard must refuse a
    # cluster over it before allocating the cut matrix
    g, c = small_reference
    stats = compute_stats(g, c)
    monkeypatch.setattr(mincut, "SIZE_GUARD", 4)
    with pytest.raises(PipelineError) as info:
        synthesize(g, c, "pp", seed=3, stats=stats)
    assert info.value.stage == "repair"
    assert "guard 4" in str(info.value)


def test_all_singletons_pipeline():
    # no clustered part at all: output is just the singleton model draw
    arr = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
    g = build_csr(arr, 4)
    c = Clustering([0, 1, 2, 3])
    result = synthesize(g, c, "pp", seed=1)
    ec = result.report.edge_counts
    assert ec["clustered_reference"] == 0
    assert ec["singleton_reference"] == 4
    assert ec["clustered_sampled"] == 0
    assert ec["added_min_degree"] == 0
    assert ec["output"] == ec["singleton_sampled"]
    assert result.residuals.shape == (0, 3)


def test_single_cluster_pipeline():
    arr = np.array([[0, 1], [0, 2], [1, 2], [1, 3], [2, 3]])
    g = build_csr(arr, 4)
    c = Clustering([5, 5, 5, 5])
    for variant in ("plus", "pp"):
        result = synthesize(g, c, variant, seed=2)
        ec = result.report.edge_counts
        assert ec["singleton_reference"] == 0
        assert ec["singleton_sampled"] == 0
        out = build_csr(result.edges, 4)
        stats = compute_stats(g, c)
        assert structural_violations(out, c, stats) == []


def test_cluster_with_no_intra_reference_edges():
    # cluster {0,1} only touches the singleton 2; the clustered part is
    # empty but the repair stages still connect the cluster
    arr = np.array([[0, 2], [1, 2]])
    g = build_csr(arr, 3)
    c = Clustering([0, 0, 1])
    result = synthesize(g, c, "pp", seed=4)
    ec = result.report.edge_counts
    assert ec["clustered_reference"] == 0
    # stitching or degree enforcement adds the one intra edge
    assert ec["added_min_degree"] + ec["added_stitch"] >= 1
    out_edges = set(map(tuple, result.edges.tolist()))
    assert (0, 1) in out_edges


def test_run_pipeline_writes_bundle(tmp_path, small_reference):
    g, c = small_reference
    net, clu = write_network_files(tmp_path, g.edge_array(), c.assignment)
    out = tmp_path / "out"
    cfg = PipelineConfig(network=net, clustering=clu, out_dir=out,
                         variant="pp", seed=6)
    result = run_pipeline(cfg)
    edges_file = out / "synthetic_network.tsv"
    clust_file = out / "ground_truth_clustering.tsv"
    report_file = out / "run_report.json"
    for p in (edges_file, clust_file, report_file,
              out / "residual_deficits.csv", out / "sbm_shortfall.csv"):
        assert p.exists()
    # the written network parses and matches the in-memory result
    loaded = load_edge_list(edges_file)
    assert loaded.edges.tolist() == result.edges.tolist()
    # ground truth clustering round-trips the input assignment
    c2 = load_clustering(clust_file, np.arange(g.n))
    assert nmi(c2, c) == 1.0
    assert c2.assignment.tolist() == c.assignment.tolist()
    report = json.loads(report_file.read_text())
    assert report["variant"] == "pp"
    assert report["seed"] == 6
    assert report["edge_counts"]["output"] == len(result.edges)
    assert "load" in report["stage_seconds"]
    # residuals file matches the result rows
    rows = (out / "residual_deficits.csv").read_text().splitlines()
    assert rows[0] == "cluster,node,deficit"
    assert len(rows) - 1 == len(result.residuals)


def test_run_pipeline_rerun_is_byte_identical(tmp_path, small_reference):
    g, c = small_reference
    net, clu = write_network_files(tmp_path, g.edge_array(), c.assignment)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_pipeline(PipelineConfig(network=net, clustering=clu, out_dir=out,
                                    variant="plus", seed=13, workers=1))
        outs.append((out / "synthetic_network.tsv").read_bytes())
    assert outs[0] == outs[1]


def test_run_pipeline_stats_file(tmp_path, small_reference):
    from synnetgen.cluster_stats import write_stats_csv

    g, c = small_reference
    net, clu = write_network_files(tmp_path, g.edge_array(), c.assignment)
    stats = compute_stats(g, c)
    sf = tmp_path / "stats.csv"
    write_stats_csv(stats, sf)
    r1 = run_pipeline(PipelineConfig(network=net, clustering=clu,
                                     out_dir=tmp_path / "with", seed=8,
                                     stats_file=sf))
    r2 = run_pipeline(PipelineConfig(network=net, clustering=clu,
                                     out_dir=tmp_path / "without", seed=8))
    assert r1.edges.tolist() == r2.edges.tolist()


def test_run_both_variants(tmp_path, small_reference):
    g, c = small_reference
    net, clu = write_network_files(tmp_path, g.edge_array(), c.assignment)
    out = tmp_path / "both"
    summary = run_both_variants(net, clu, out, seed=17)
    assert set(summary) == {"plus", "pp"}
    for variant in ("plus", "pp"):
        assert (out / variant / "synthetic_network.tsv").exists()
        assert summary[variant]["seed"] == 17
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["seed"] == 17
    assert (summary["plus"]["edge_counts"]["clustered_sampled"]
            == summary["pp"]["edge_counts"]["clustered_sampled"])


@pytest.mark.parametrize("workers", [1, 2])
def test_run_both_variants_matches_single_variant_runs(tmp_path, small_reference,
                                                        workers):
    # both variants finish from one preparation; a finish that changed
    # the shared preparation would make the second variant differ here
    g, c = small_reference
    net, clu = write_network_files(tmp_path, g.edge_array(), c.assignment)
    run_both_variants(net, clu, tmp_path / "both", seed=12, workers=workers)
    for variant in ("plus", "pp"):
        single = tmp_path / variant
        run_pipeline(PipelineConfig(network=net, clustering=clu, out_dir=single,
                                    variant=variant, seed=12, workers=workers))
        for name in (pipeline.EDGES_FILE, pipeline.CLUSTERING_FILE,
                     pipeline.RESIDUALS_FILE, pipeline.SHORTFALL_FILE):
            assert (tmp_path / "both" / variant / name).read_bytes() == \
                (single / name).read_bytes(), (variant, name)


def test_run_both_variants_prepares_once(tmp_path, small_reference, monkeypatch):
    g, c = small_reference
    net, clu = write_network_files(tmp_path, g.edge_array(), c.assignment)
    calls = Counter()

    def count(name):
        fn = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, wrapper)

    count("cluster_edge_tables")
    count("sample_dcsbm")
    run_both_variants(net, clu, tmp_path / "both", seed=12)
    # stats once, and one clustered plus one singleton draw
    assert calls == {"cluster_edge_tables": 1, "sample_dcsbm": 2}


# clusters 7 (even nodes 0-10) and 3 (odd nodes 1-11) interleave in node
# id; node 12 is a singleton. File labels are 5 * node + 1.
INTERLEAVED_EDGES = [
    (0, 4), (0, 6), (0, 10), (1, 5), (2, 8), (2, 10), (3, 9), (3, 11), (4, 7),
    (4, 8), (4, 10), (5, 6), (5, 9), (6, 10), (7, 11), (8, 9), (8, 10), (8, 11),
    (9, 11), (9, 12), (10, 12),
]


def test_residual_rows_follow_each_variants_order(tmp_path):
    # pp rows go by (cluster id, node), plus rows by node alone, so with
    # interleaved clusters neither order is the other's
    net, clu = tmp_path / "net.tsv", tmp_path / "clu.tsv"
    net.write_text("".join(f"{5 * u + 1}\t{5 * v + 1}\n" for u, v in INTERLEAVED_EDGES))
    clu.write_text("".join(f"{5 * v + 1}\t{7 if v % 2 == 0 else 3}\n" for v in range(12))
                   + "61\t20\n")
    run_both_variants(net, clu, tmp_path / "out", seed=1)
    rows = {variant: (tmp_path / "out" / variant / pipeline.RESIDUALS_FILE)
            .read_text().splitlines() for variant in ("plus", "pp")}
    assert rows["plus"] == ["cluster,node,deficit", "3,46,1", "7,51,1", "3,56,1"]
    assert rows["pp"] == ["cluster,node,deficit", "3,46,2", "3,56,2", "7,51,3"]
