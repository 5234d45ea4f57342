"""Golden output digests: the generator's and eval's output bytes, pinned.

Three small seeded planted references (a few large clusters, many tiny
clusters, a high singleton share) go through `compare-versions` at 1 and 2
workers, then `eval` of each variant against its reference, both with the
default modes and with `--alignment sorted --mixing node-mean`. The sha256 of
every output file, except the timing files run_report.json and
comparison.json, must equal tests/golden.json. The digests of the input
files are pinned too, so a change to the test helpers shows up as an input
mismatch rather than as a program regression.

A change that alters output on purpose regenerates the file with

    PYTHONPATH=src:tests python tests/test_golden.py

and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from synnetgen.cli import main

from helpers import planted_reference, write_network_files

GOLDEN = Path(__file__).with_name("golden.json")
TIMING_FILES = {"run_report.json", "comparison.json"}

# name -> (rng seed, planted_reference keyword arguments)
REFERENCES = {
    "large": (501, dict(n_nodes=250, n_clusters=3, singleton_frac=0.05)),
    "tiny": (502, dict(n_nodes=600, n_clusters=100, singleton_frac=0.1)),
    "singletons": (503, dict(n_nodes=500, n_clusters=15, singleton_frac=0.5)),
}
SEED = 17
# golden key -> extra eval arguments
EVAL_MODES = {
    "eval": [],
    "eval_sorted": ["--alignment", "sorted", "--mixing", "node-mean"],
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): _sha256(p)
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name not in TIMING_FILES}


def run_reference(name: str, tmp: Path) -> dict:
    """Digests of one reference's inputs, its outputs at 1 and 2 workers, and eval."""
    rng_seed, kwargs = REFERENCES[name]
    arr, assignment = planted_reference(np.random.default_rng(rng_seed), **kwargs)
    net, clu = write_network_files(tmp, arr, assignment)
    digests = {"inputs": {p.name: _sha256(p) for p in (net, clu)}}
    for workers in (1, 2):
        out = tmp / f"w{workers}"
        assert main(["compare-versions", "--network", str(net), "--clustering", str(clu),
                     "--seed", str(SEED), "--workers", str(workers),
                     "--out-dir", str(out)]) == 0
        digests[f"w{workers}"] = _tree_digests(out)
    # the two worker counts must agree, so eval runs on one of them, once
    # with the default modes and once with the other two
    for key, modes in EVAL_MODES.items():
        for variant in ("plus", "pp"):
            assert main(["eval", "--reference", str(net),
                         "--synthetic", str(tmp / "w1" / variant / "synthetic_network.tsv"),
                         "--clustering", str(clu), "--out", str(tmp / key / variant),
                         *modes]) == 0
        digests[key] = _tree_digests(tmp / key)
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_golden_digests(name, golden, tmp_path):
    got = run_reference(name, tmp_path)
    want = golden[name]
    assert got["inputs"] == want["inputs"], "test inputs changed, not the program"
    assert got["w1"] == want["outputs"]
    assert got["w2"] == want["outputs"]
    for key in EVAL_MODES:
        assert got[key] == want[key]


def _regenerate() -> None:
    import tempfile

    out = {}
    for name in sorted(REFERENCES):
        with tempfile.TemporaryDirectory() as tmp:
            got = run_reference(name, Path(tmp))
        assert got["w1"] == got["w2"], f"{name}: output depends on the worker count"
        out[name] = {"inputs": got["inputs"], "outputs": got["w1"],
                     **{key: got[key] for key in EVAL_MODES}}
    GOLDEN.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
