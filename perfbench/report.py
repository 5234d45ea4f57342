"""Run every workload once untraced and once traced, and print the tables.

    python3 perfbench/report.py --seed 1

Prints the end-to-end metrics with their units per workload, the traced
per-layer table, and the attempted and failed call counts. Each run is a
separate `perfbench/run.py` process, exactly as the benchmark command
runs it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT))
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"    {line}")
    if proc.returncode != 0 or not lines:
        print(proc.stderr, file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def table(rows: dict, names: list) -> None:
    workloads = list(rows)
    width = max(len(n) for n in names) + 2
    print(" " * width + "".join(f"{w:>22}" for w in workloads))
    for name in names:
        cells = []
        for w in workloads:
            m = rows[w]["metrics"].get(name)
            cells.append(f"{m['value']:>14.6g} {m['unit']:<7}" if m else f"{'absent':>22}")
        print(f"{name:<{width}}" + "".join(cells))
    print(f"{'attempted/failed':<{width}}"
          + "".join(f"{str(rows[w]['attempted']) + '/' + str(rows[w]['failed']):>22}"
                    for w in workloads))
    print(f"{'correct':<{width}}" + "".join(f"{str(rows[w]['correct']):>22}" for w in workloads))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    plain, traced = {}, {}
    for w in names:
        print(f"{w}:")
        plain[w] = one(w, args.seed, spec["run_seconds"], 0)
        traced[w] = one(w, args.seed, spec["run_seconds"], 1)
    print("\nend to end (untraced)")
    table(plain, [m["name"] for m in spec["end_to_end"]])
    print("\nper layer (traced)")
    table(traced, [m["name"] for m in spec["per_layer"]])
    ok = all(r["correct"] for r in list(plain.values()) + list(traced.values()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
