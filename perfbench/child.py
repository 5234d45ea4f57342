"""One timed call into the package, in a fresh process.

    python3 perfbench/child.py <request.json>

Prints "ready" once the package is imported (the parent times set-up up
to that line), then makes the call the request names and prints one JSON
line with its wall time, peak RSS and, when traced, the spans. With
"setup_only" it exits after "ready".
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _peak_rss_mb(workers: int) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        # the largest pool worker, which has been joined by now
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import synnetgen  # noqa: F401  (set-up is this import and what it pulls in)
    from synnetgen import cli, pipeline

    if not Path(synnetgen.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"synnetgen imported from {synnetgen.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    print("ready", flush=True)
    if req.get("setup_only"):
        return 0

    files = {k: Path(v) for k, v in req["files"].items()}
    out = Path(req["out"])
    kind = req["kind"]

    def call():
        if kind == "generate":
            return pipeline.run_pipeline(pipeline.PipelineConfig(
                network=files["network"], clustering=files["clustering"],
                out_dir=out, variant=req["variant"], seed=req["seed"],
                workers=req["workers"], stats_file=files.get("stats")))
        if kind == "compare":
            return pipeline.run_both_variants(
                files["network"], files["clustering"], out, seed=req["seed"],
                workers=req["workers"], stats_file=files.get("stats"))
        code = cli.main(["eval", "--reference", str(files["network"]),
                         "--synthetic", str(files["synthetic"]),
                         "--clustering", str(files["clustering"]), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"eval exited with code {code}")
        return None

    recorder = None
    if req["trace"]:
        from spans import Recorder
        recorder = Recorder()
        recorder.install()
        call = recorder.span("call", call)

    t0 = time.perf_counter()
    result = call()
    wall = time.perf_counter() - t0
    summary = {"wall_s": wall, "peak_rss_mb": _peak_rss_mb(req["workers"])}
    if kind == "generate":
        summary["stats"] = {str(cid): [s.n, s.m, s.mincut] for cid, s in result.stats.items()}
    if recorder is not None:
        summary["spans"] = recorder.spans
        summary["missing"] = recorder.missing
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
