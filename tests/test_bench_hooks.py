"""The benchmark's layer hooks still find every name they wrap.

perfbench/spans.py wraps module attributes of the package (for example
`repair.stoer_wagner_dense`). A rename or a bypass leaves a traced run
that still exits 0 but silently loses per-layer metrics. This test runs,
in a fresh process so the wrappers cannot leak into other tests, the
calls the benchmark's workloads make, and checks that every hook resolved
and was reached, every span's counts were read, the spans serialise as strict JSON, and
every per-layer metric BENCHMARK.json declares is produced.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from helpers import planted_reference, write_network_files

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys, time
from pathlib import Path

root, tmp = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
from spans import HOOKS, Recorder, counts_missing, layer_metrics

recorder = Recorder()
recorder.install()
from synnetgen import cli, pipeline
from synnetgen.cluster_stats import write_stats_csv

net, clu = tmp / "ref_edges.tsv", tmp / "ref_clusters.tsv"
t = time.perf_counter()
result = pipeline.run_pipeline(pipeline.PipelineConfig(
    network=net, clustering=clu, out_dir=tmp / "pp", variant="pp", seed=1))
write_stats_csv(result.stats, tmp / "stats.csv")
pipeline.run_pipeline(pipeline.PipelineConfig(
    network=net, clustering=clu, out_dir=tmp / "plus", variant="plus", seed=1,
    stats_file=tmp / "stats.csv"))
code = cli.main(["eval", "--reference", str(net),
                 "--synthetic", str(tmp / "pp" / "synthetic_network.tsv"),
                 "--clustering", str(clu), "--out", str(tmp / "eval")])
wall = time.perf_counter() - t
assert code == 0, code
json.dumps(recorder.spans, allow_nan=False)
print(json.dumps({
    "missing": recorder.missing,
    "counts_missing": counts_missing(recorder.spans),
    "unreached": sorted({h[2] for h in HOOKS} - {s["name"] for s in recorder.spans}),
    "metrics": sorted(layer_metrics(recorder.spans, recorder.missing, wall, wall)),
}))
"""


def test_every_benchmark_hook_resolves(tmp_path):
    arr, assignment = planted_reference(np.random.default_rng(4), 500, 6)
    write_network_files(tmp_path, arr, assignment)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["missing"] == {}
    assert got["counts_missing"] == []
    # a hook that resolves but is never called means the caller bypasses it;
    # eval computes no NMI or ARI, so only that span may stay empty
    assert set(got["unreached"]) <= {"metrics.nmi_ari"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in declared["per_layer"]}
    assert wanted - set(got["metrics"]) == set()
