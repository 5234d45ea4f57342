"""synnetgen benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload gen-pp-10k --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. The benchmark writes its seeded
inputs under perfbench/.runs/, then makes file-to-file calls into the
package, each from a fresh process (child.py), until --seconds of calls
are spent (at least one). The first successful call's output is checked
in full (check.py); every later call must reproduce its bytes. The last
line of stdout is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
See README.md for the workloads and what each metric should predict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import check
import inputs
from spans import counts_missing, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0      # a run must end within 180 s
SETUP_SAMPLES = 11      # set-up is timed in at least this many fresh processes


@dataclass(frozen=True)
class Workload:
    kind: str               # generate | compare | eval
    spec: inputs.Spec
    variant: str = ""
    workers: int = 1
    stats_file: bool = False
    rewire: float = 0.0     # eval: share of reference edges moved


PP_10K = inputs.Spec(sizes=inputs.spread_sizes(100, 9200, 46, 138),
                     cut_choices=(1, 2, 3, 4), singletons=800, inter_ratio=0.25)
TINY_100K = inputs.Spec(sizes=(10,) * 1000 + (6,) * 5000 + (5,) * 6000,
                        cut_choices=(1, 2, 3, 4), singletons=30000, inter_ratio=1.0)
EVAL_4K = inputs.Spec(sizes=inputs.spread_sizes(40, 3680, 46, 138),
                      cut_choices=(1, 2, 3, 4), singletons=320, inter_ratio=0.25)

WORKLOADS = {
    "gen-pp-10k": Workload("generate", PP_10K, variant="pp"),
    "gen-plus-100k-tiny": Workload("generate", TINY_100K, variant="plus", stats_file=True),
    "compare-10k-w2": Workload("compare", PP_10K, workers=2),
    "eval-4k": Workload("eval", EVAL_4K, rewire=0.1),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "degree_rmse": "degree"}


def make_inputs(w: Workload, seed: int, where: Path) -> tuple:
    """Write the workload's input files; returns (files, ref, ref_edges, syn_edges)."""
    where.mkdir(parents=True, exist_ok=True)
    ref = inputs.planted(w.spec, seed)
    files = {"network": where / "network.tsv", "clustering": where / "clustering.tsv"}
    inputs.write_edges(ref.edges, ref.labels, files["network"])
    inputs.write_clustering(ref, files["clustering"])
    if w.stats_file:
        files["stats"] = where / "stats.csv"
        inputs.write_stats(ref, files["stats"])
    syn_edges = None
    if w.kind == "eval":
        syn_edges = inputs.rewired(ref, seed, w.rewire)
        files["synthetic"] = where / "synthetic.tsv"
        inputs.write_edges(syn_edges, ref.labels, files["synthetic"])
    return files, ref, ref.edges, syn_edges


class Child:
    """One fresh process making one call; times set-up from spawn to 'ready'."""

    def __init__(self, request: dict, where: Path, tag: str):
        where.mkdir(parents=True, exist_ok=True)
        req_path = where / f"{tag}.request.json"
        req_path.write_text(json.dumps(request), encoding="utf-8")
        self.stderr_path = where / f"{tag}.stderr"
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(req_path)],
            stdout=subprocess.PIPE, stderr=self._stderr, text=True, cwd=str(ROOT))
        first = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0 if first.strip() == "ready" else None

    def finish(self, timeout: float):
        """(summary dict or None, error text)."""
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return None, "timed out"
        finally:
            self._stderr.close()
        if self.proc.returncode != 0 or self.setup_s is None:
            tail = self.stderr_path.read_text(encoding="utf-8").strip().splitlines()[-3:]
            return None, f"exit {self.proc.returncode}: " + " | ".join(tail)
        lines = out.strip().splitlines()
        return (json.loads(lines[-1]) if lines else {}), ""


def judge(w: Workload, out: Path, summary: dict, ref, ref_edges, syn_edges) -> tuple:
    """(problems, degree RMSE) for one call's full output check."""
    if w.kind == "eval":
        return check.check_eval(out, ref, ref_edges, syn_edges)
    if w.kind == "compare":
        problems, worst = [], 0.0
        for variant in ("plus", "pp"):
            p, r = check.check_generated(out / variant, ref, ref_edges)
            problems += [f"{variant}: {x}" for x in p]
            worst = max(worst, r)
        return problems, worst
    problems, rmse = check.check_generated(out, ref, ref_edges)
    if not w.stats_file:
        got = {int(k): tuple(v) for k, v in summary.get("stats", {}).items()}
        if got != ref.targets:
            problems.append("SynthesisResult.stats differ from the planted targets")
    return problems, rmse


def bench(name: str, seed: int, seconds: float, trace: bool,
          workloads: dict = WORKLOADS, log=print) -> dict:
    if not (ROOT / "src" / "synnetgen" / "__init__.py").is_file():
        raise FileNotFoundError(f"no synnetgen sources under {ROOT / 'src'}")
    w = workloads[name]
    start = time.perf_counter()
    runs = HERE / ".runs"
    work = runs / f"{name}-s{seed}-p{os.getpid()}"
    try:
        files, ref, ref_edges, syn_edges = make_inputs(w, seed, work / "in")
        digests = {k: inputs.sha256(p) for k, p in files.items()}
        base = {"kind": w.kind, "variant": w.variant, "workers": w.workers, "seed": seed,
                "files": {k: str(p) for k, p in files.items()}}
        setups, walls, rss, problems = [], [], [], []
        attempted = failed = 0
        reference_digest = rmse = None
        traced = None
        plan = ["plain", "traced"] if trace else ["plain"]
        inputs_s = time.perf_counter() - start
        check_s = 0.0

        def another_fits():
            # the next call is expected to take the median so far; stop
            # before it would overrun --seconds or the run's deadline
            expect = statistics.median(walls)
            return (sum(walls) + expect <= seconds
                    and time.perf_counter() - start + 3 * expect < DEADLINE_S)

        while plan or (not trace and walls and another_fits()):
            mode = plan.pop(0) if plan else "plain"
            out = work / f"out{attempted}"
            child = Child(dict(base, out=str(out), trace=mode == "traced"), work,
                          f"call{attempted}")
            attempted += 1
            summary, error = child.finish(DEADLINE_S - (time.perf_counter() - start))
            if child.setup_s is not None:
                setups.append(child.setup_s)
            if summary is None:
                failed += 1
                problems.append(f"call {attempted}: {error}")
                if error == "timed out":
                    break
                continue
            t = time.perf_counter()
            digest = check.output_digest(out)
            if reference_digest is None:
                reference_digest = digest
                found, rmse = judge(w, out, summary, ref, ref_edges, syn_edges)
            else:
                found = [] if digest == reference_digest else \
                    ["output differs from the first checked call's output"]
            check_s += time.perf_counter() - t
            shutil.rmtree(out, ignore_errors=True)
            if found:
                failed += 1
                problems += [f"call {attempted}: {p}" for p in found]
            if mode == "traced":
                traced = summary
            else:
                walls.append(summary["wall_s"])
                rss.append(summary["peak_rss_mb"])
        while len(setups) < SETUP_SAMPLES:
            probe = Child({"setup_only": True}, work, f"setup{len(setups)}")
            probe.finish(DEADLINE_S - (time.perf_counter() - start))
            if probe.setup_s is None:
                break
            setups.append(probe.setup_s)

        log(f"workload {name} seed {seed}: {attempted} calls, {failed} failed; "
            f"inputs {inputs_s:.1f} s, checks {check_s:.1f} s, "
            f"total {time.perf_counter() - start:.1f} s; call walls "
            + ", ".join(f"{x:.2f}" for x in walls))
        for k, v in digests.items():
            log(f"  input  {k:<11} sha256 {v}")
        log(f"  output sha256 {reference_digest}")
        for p in problems[:20]:
            log(f"  FAILED {p}")

        values = {}
        if walls:
            values["wall_s"] = statistics.median(walls)
            values["peak_rss_mb"] = statistics.median(rss)
        if setups:
            values["setup_s"] = statistics.median(setups)
        if rmse is not None and math.isfinite(rmse):
            values["degree_rmse"] = rmse
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()
                   if k in values}
        if trace:
            metrics = {}
            if traced is not None and walls:
                layers = layer_metrics(traced["spans"], traced["missing"],
                                       traced["wall_s"], statistics.median(walls))
                metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
                for hook in traced["missing"]:
                    log(f"  absent: hook {hook} not found, its metrics are left out")
                for span in counts_missing(traced["spans"]):
                    log(f"  absent: counts for span {span} not readable, "
                        "its count metrics are left out")
                (runs / f"{name}-s{seed}-trace.json").write_text(json.dumps(
                    {"spans": traced["spans"], "missing": traced["missing"],
                     "inputs": digests, "metrics": metrics}), encoding="utf-8")
        return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
