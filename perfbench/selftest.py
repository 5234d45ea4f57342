"""Self-test of the benchmark at reduced sizes.

    python3 perfbench/selftest.py

Runs all four workloads on small planted references, untraced and traced,
and checks each result line against BENCHMARK.json's metric names and
units. Then checks that the benchmark refuses bad output and bad setups:
an output with one intra-cluster bridge removed counts as a failed call,
a missing hook leaves its metrics out instead of crashing, coverage
counts no container span's own time, and a copy of the benchmark without
the program's sources exits non-zero and prints no result. Takes about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np

import check
import inputs
import run
import spans

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL_10K = inputs.Spec(sizes=inputs.spread_sizes(10, 200, 10, 30),
                        cut_choices=(1, 2, 3, 4), singletons=20, inter_ratio=0.25)
SMALL = {
    "gen-pp-10k": replace(run.WORKLOADS["gen-pp-10k"], spec=SMALL_10K),
    "gen-plus-100k-tiny": replace(run.WORKLOADS["gen-plus-100k-tiny"], spec=inputs.Spec(
        sizes=(10,) * 20 + (6,) * 100 + (5,) * 120, cut_choices=(1, 2, 3, 4),
        singletons=600, inter_ratio=1.0)),
    "compare-10k-w2": replace(run.WORKLOADS["compare-10k-w2"], spec=SMALL_10K),
    "eval-4k": replace(run.WORKLOADS["eval-4k"], spec=inputs.Spec(
        sizes=inputs.spread_sizes(8, 160, 10, 30), cut_choices=(1, 2, 3, 4),
        singletons=16, inter_ratio=0.25)),
}
SEED = 3


def quiet(*_):
    pass


def check_schema(result: dict, trace: bool) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), got)
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float)), value


def smoke() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for name in SMALL:
        for trace in (False, True):
            check_schema(run.bench(name, SEED, 0.1, trace, SMALL, log=quiet), trace)
        print(f"ok  smoke {name}")


def remove_one_bridge(out: Path) -> None:
    """Drop one edge whose removal disconnects its cluster."""
    ref = inputs.planted(SMALL["gen-pp-10k"].spec, SEED)
    path = out / "synthetic_network.tsv"
    pairs = check.read_pairs(path)
    cluster = dict(zip(ref.labels.tolist(), ref.assignment.tolist()))
    for cid in sorted(ref.targets):
        g = nx.Graph((int(u), int(v)) for u, v in pairs.tolist()
                     if cluster[u] == cluster[v] == cid)
        bridge = next(nx.bridges(g), None)
        if bridge is not None:
            keep = [(u, v) for u, v in pairs.tolist() if {u, v} != set(bridge)]
            path.write_text("".join(f"{u}\t{v}\n" for u, v in keep), encoding="utf-8")
            return
    raise AssertionError("no intra-cluster bridge in the output")


def negative_bridge() -> None:
    judge = run.judge

    def tampered(w, out, *rest):
        remove_one_bridge(out)
        return judge(w, out, *rest)

    run.judge = tampered
    try:
        result = run.bench("gen-pp-10k", SEED, 0.5, False, SMALL, log=quiet)
    finally:
        run.judge = judge
    # only the tampered call fails; later calls match its untampered bytes
    assert result["failed"] == 1 and result["correct"] is False, result
    print("ok  removed bridge counts as a failed call")


def missing_hook() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    spans.HOOKS.append(("repair", "renamed_kernel", "mincut.repair", None, False))
    try:
        recorder = spans.Recorder()
        recorder.install()
    finally:
        spans.HOOKS.pop()
    assert recorder.missing == {"repair.renamed_kernel": "mincut.repair"}, recorder.missing
    out = spans.layer_metrics([], recorder.missing, 1.0, 1.0)
    assert "mincut.repair.calls" not in out and "mincut.stats.calls" in out, out
    print("ok  missing hook leaves its metrics out")


def span_accounting() -> None:
    def span(sid, name, parent, start, end, **extra):
        return dict(id=sid, name=name, parent=parent, start=start, end=end, **extra)

    trace = [span(0, "call", None, 0.0, 10.0),
             span(1, "pipeline.synthesize", 0, 1.0, 9.0),
             span(2, "sbm.sample", 1, 2.0, 6.0),
             span(3, "mincut.repair", 1, 6.0, 7.0, counts_missing=True)]
    out = spans.layer_metrics(trace, {}, 10.0, 10.0)
    # synthesize's own 3 s and the call's own 2 s are not covered
    assert abs(out["trace.coverage"][0] - 0.5) < 1e-12, out["trace.coverage"]
    assert abs(out["pipeline.self_s"][0] - 3.0) < 1e-12, out["pipeline.self_s"]
    assert spans.counts_missing(trace) == ["mincut.repair"]
    assert "mincut.repair.n_sum" not in out and "mincut.repair.s" in out, out
    print("ok  coverage leaves container self time out; unreadable counts are named")


def bare_checkout() -> None:
    bare = run.HERE / ".runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gen-pp-10k", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout.strip() == "", (proc.returncode, proc.stdout)
    print("ok  checkout without sources exits non-zero, no result")


def inputs_are_seeded() -> None:
    a = inputs.planted(SMALL_10K, 5)
    b = inputs.planted(SMALL_10K, 5)
    c = inputs.planted(SMALL_10K, 6)
    assert np.array_equal(a.edges, b.edges) and not np.array_equal(a.edges, c.edges)
    for size in range(5, 40):
        for k in (1, 2, 3, 4):
            g = nx.Graph(inputs.core(np.random.default_rng(size), size, k).tolist())
            assert nx.stoer_wagner(g)[0] == k, (size, k)
    print("ok  inputs are seeded and planted cuts are exact")


if __name__ == "__main__":
    inputs_are_seeded()
    smoke()
    negative_bridge()
    missing_hook()
    span_accounting()
    bare_checkout()
    print("selftest passed")
