import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from synnetgen import Clustering, build_csr, compute_stats
from synnetgen.cli import main
from synnetgen.cluster_stats import read_stats_csv, write_stats_csv
from synnetgen.graphs import load_edge_list
from synnetgen.mincut import SIZE_GUARD
from synnetgen.pipeline import PipelineError

from helpers import planted_reference, structural_violations, write_network_files


@pytest.fixture(scope="module")
def ref_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ref")
    rng = np.random.default_rng(2000)
    arr, assignment = planted_reference(rng, 90, 6)
    net, clu = write_network_files(tmp, arr, assignment)
    return net, clu, arr, assignment


def test_generate_triangle(tmp_path):
    net = tmp_path / "tri.tsv"
    clu = tmp_path / "tri_c.tsv"
    net.write_text("0 1\n1 2\n0 2\n")
    clu.write_text("0 0\n1 0\n2 0\n")
    out = tmp_path / "out"
    rc = main(["generate", "--network", str(net), "--clustering", str(clu),
               "--variant", "pp", "--seed", "1", "--out-dir", str(out)])
    assert rc == 0
    loaded = load_edge_list(out / "synthetic_network.tsv")
    g = build_csr(loaded.edges, loaded.n)
    # triangle reference: mincut 2, so the output is a triangle again
    assert g.n == 3 and g.m == 3


def test_generate_structure(ref_files, tmp_path):
    net, clu, arr, assignment = ref_files
    out = tmp_path / "gen"
    rc = main(["generate", "--network", str(net), "--clustering", str(clu),
               "--variant", "plus", "--seed", "7", "--out-dir", str(out)])
    assert rc == 0
    loaded = load_edge_list(out / "synthetic_network.tsv")
    # output universe is a subset of the reference labels; rebuild over the
    # reference universe so cluster membership lines up
    n = len(assignment)
    remap = loaded.labels[loaded.edges]
    g = build_csr(remap, n)
    c = Clustering(assignment)
    ref = build_csr(arr, n)
    assert structural_violations(g, c, compute_stats(ref, c)) == []


def test_generate_rerun_identical_bytes(ref_files, tmp_path):
    net, clu, _, _ = ref_files
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main(["generate", "--network", str(net), "--clustering", str(clu),
                   "--seed", "42", "--out-dir", str(out)])
        assert rc == 0
        blobs.append((out / "synthetic_network.tsv").read_bytes())
    assert blobs[0] == blobs[1]


def test_exit_code_parse_errors(tmp_path):
    missing = tmp_path / "nope.tsv"
    clu = tmp_path / "c.tsv"
    clu.write_text("0 0\n")
    rc = main(["generate", "--network", str(missing), "--clustering", str(clu),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 2

    net = tmp_path / "net.tsv"
    net.write_text("0 1\n")
    bad = tmp_path / "bad.tsv"
    bad.write_text("0 0\n5 1\n")  # node 5 not in the network
    rc = main(["generate", "--network", str(net), "--clustering", str(bad),
               "--out-dir", str(tmp_path / "o2")])
    assert rc == 2


@pytest.mark.parametrize("bad", ["network", "clustering"])
def test_label_outside_int64_exits_two(tmp_path, capsys, bad):
    files = {"network": "1\t2\n2\t3\n", "clustering": "1\t0\n2\t0\n3\t0\n"}
    files[bad] += "3\t99999999999999999999\n"
    for name, text in files.items():
        (tmp_path / f"{name}.tsv").write_text(text)
    net, clu = tmp_path / "network.tsv", tmp_path / "clustering.tsv"
    rc = main(["generate", "--network", str(net), "--clustering", str(clu),
               "--out-dir", str(tmp_path / "gen")])
    assert rc == 2
    line = 3 if bad == "network" else 4
    assert f"line {line}: integer outside the int64 range" in capsys.readouterr().err
    if bad == "network":
        rc = main(["eval", "--reference", str(net), "--synthetic", str(net),
                   "--clustering", str(clu), "--out", str(tmp_path / "ev")])
        assert rc == 2


def test_exit_code_pipeline_error(tmp_path, monkeypatch):
    import synnetgen.cli as cli

    def boom(cfg):
        raise PipelineError("repair", "induced failure")

    monkeypatch.setattr(cli, "run_pipeline", boom)
    net = tmp_path / "net.tsv"
    clu = tmp_path / "c.tsv"
    net.write_text("0 1\n")
    clu.write_text("0 0\n1 0\n")
    rc = main(["generate", "--network", str(net), "--clustering", str(clu),
               "--out-dir", str(tmp_path / "o")])
    assert rc == 3


@pytest.fixture(scope="module")
def oversized_files(tmp_path_factory):
    """One path cluster a node over the exact min cut's size guard."""
    n = SIZE_GUARD + 1
    arr = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    return write_network_files(tmp_path_factory.mktemp("oversized"), arr,
                               np.zeros(n, dtype=np.int64))


@pytest.mark.parametrize("command", ["stats", "eval"])
def test_oversized_cluster_exits_three(oversized_files, tmp_path, capsys, command):
    net, clu = oversized_files
    inputs = (["--network", str(net)] if command == "stats"
              else ["--reference", str(net), "--synthetic", str(net)])
    rc = main([command, *inputs, "--clustering", str(clu),
               "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1
    assert "exceeds exact min cut guard" in errors[0]


def test_missing_required_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["generate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["generate", "compare-versions"])
def test_negative_seed_exits_two(ref_files, tmp_path, capsys, command):
    net, clu, _, _ = ref_files
    with pytest.raises(SystemExit) as exc:
        main([command, "--network", str(net), "--clustering", str(clu),
              "--seed", "-1", "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "expected a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", ["generate", "stats", "compare-versions"])
def test_non_positive_workers_exits_two(ref_files, tmp_path, capsys, command, workers):
    net, clu, _, _ = ref_files
    out_flag = "--out" if command == "stats" else "--out-dir"
    with pytest.raises(SystemExit) as exc:
        main([command, "--network", str(net), "--clustering", str(clu),
              "--workers", workers, out_flag, str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "expected an integer of at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_split_command(ref_files, tmp_path):
    net, clu, arr, assignment = ref_files
    out = tmp_path / "split"
    rc = main(["split", "--network", str(net), "--clustering", str(clu),
               "--out-dir", str(out)])
    assert rc == 0
    gc = load_edge_list(out / "clustered_edges.tsv")
    gs = load_edge_list(out / "singleton_edges.tsv")
    assert gc.n > 0 and gs.n > 0
    # the two sides partition the reference edge count
    assert len(gc.edges) + len(gs.edges) == len(arr)
    assert (out / "clustered_clustering.tsv").exists()
    assert (out / "singleton_clustering.tsv").exists()


def test_stats_command(ref_files, tmp_path):
    net, clu, arr, assignment = ref_files
    out = tmp_path / "stats.csv"
    rc = main(["stats", "--network", str(net), "--clustering", str(clu),
               "--out", str(out), "--workers", "2"])
    assert rc == 0
    got = read_stats_csv(out)
    n = len(assignment)
    want = compute_stats(build_csr(arr, n), Clustering(assignment))
    assert got == want


def test_stats_file_feeds_generate(ref_files, tmp_path):
    net, clu, _, _ = ref_files
    sf = tmp_path / "stats.csv"
    assert main(["stats", "--network", str(net), "--clustering", str(clu),
                 "--out", str(sf)]) == 0
    a = tmp_path / "with"
    b = tmp_path / "without"
    assert main(["generate", "--network", str(net), "--clustering", str(clu),
                 "--seed", "3", "--out-dir", str(a),
                 "--stats-file", str(sf)]) == 0
    assert main(["generate", "--network", str(net), "--clustering", str(clu),
                 "--seed", "3", "--out-dir", str(b)]) == 0
    assert (a / "synthetic_network.tsv").read_bytes() == \
        (b / "synthetic_network.tsv").read_bytes()


@pytest.mark.parametrize("command", ["generate", "compare-versions"])
def test_stats_file_missing_cluster_exits_two(ref_files, tmp_path, capsys, command):
    net, clu, arr, assignment = ref_files
    stats = compute_stats(build_csr(arr, len(assignment)), Clustering(assignment))
    last = max(stats)
    s = stats[last]
    # (rows to write, a line appended after them, the error it must give)
    cases = [
        ({cid: t for cid, t in stats.items() if cid != last}, "", "missing clusters"),
        (stats, f"{last},{s.n},{s.m},{s.mincut}\n", f"cluster {last} repeated"),
        ({**stats, last: replace(s, n=s.n + 1)}, "",
         f"n differs from the member count of clusters: [{last}]"),
        ({**stats, last: replace(s, m=-4, mincut=-3)}, "", "negative n, m or mincut"),
    ]
    sf = tmp_path / "stats.csv"
    for rows, extra, message in cases:
        write_stats_csv(rows, sf)
        with open(sf, "a", encoding="utf-8") as fh:
            fh.write(extra)
        rc = main([command, "--network", str(net), "--clustering", str(clu),
                   "--out-dir", str(tmp_path / "o"), "--stats-file", str(sf)])
        assert rc == 2
        assert message in capsys.readouterr().err


def test_eval_identity(ref_files, tmp_path):
    net, clu, _, _ = ref_files
    out = tmp_path / "eval"
    rc = main(["eval", "--reference", str(net), "--synthetic", str(net),
               "--clustering", str(clu), "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "metrics.json").read_text())
    assert data["alignment"] == "identity"
    for entry in data["metrics"]:
        if entry["value"] is not None:
            assert entry["value"] == 0.0
    assert (out / "metrics.csv").exists()


def test_eval_on_generated_output(ref_files, tmp_path):
    net, clu, _, _ = ref_files
    gen = tmp_path / "gen"
    assert main(["generate", "--network", str(net), "--clustering", str(clu),
                 "--seed", "11", "--out-dir", str(gen)]) == 0
    out = tmp_path / "metrics"
    rc = main(["eval", "--reference", str(net),
               "--synthetic", str(gen / "synthetic_network.tsv"),
               "--clustering", str(clu), "--out", str(out),
               "--alignment", "sorted", "--mixing", "node-mean"])
    assert rc == 0
    data = json.loads((out / "metrics.json").read_text())
    assert data["alignment"] == "sorted"
    assert data["mixing_mode"] == "node-mean"
    stats = {e["stat"]: e for e in data["metrics"]}
    # repair guarantees cuts at least meet the reference, so the rmse is finite
    assert stats["mincut_sequence"]["value"] is not None


def test_compare_versions_command(ref_files, tmp_path):
    net, clu, _, _ = ref_files
    out = tmp_path / "cmp"
    rc = main(["compare-versions", "--network", str(net),
               "--clustering", str(clu), "--seed", "9",
               "--out-dir", str(out)])
    assert rc == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert set(comparison["runs"]) == {"plus", "pp"}
    for variant in ("plus", "pp"):
        assert (out / variant / "synthetic_network.tsv").exists()


def test_console_script_entry_point(ref_files, tmp_path):
    net, clu, _, _ = ref_files
    out = tmp_path / "script"
    proc = subprocess.run(
        [sys.executable, "-m", "synnetgen.cli", "generate",
         "--network", str(net), "--clustering", str(clu),
         "--seed", "1", "--out-dir", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "synthetic_network.tsv").exists()
