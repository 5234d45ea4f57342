"""Output checks, run by the benchmark outside the timed region.

They read the files the program wrote and use numpy, scipy and networkx
only, never the package under test: minimum cuts come from
networkx.stoer_wagner.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import networkx as nx
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# run_report.json and comparison.json carry wall times, so they differ
# between runs by design; every other output file is deterministic
VOLATILE = {"run_report.json", "comparison.json"}


def read_pairs(path: Path) -> np.ndarray:
    text = Path(path).read_text(encoding="utf-8")
    return np.array(text.split(), dtype=np.int64).reshape(-1, 2)


def output_digest(out_dir: Path) -> str:
    """sha256 over the deterministic output files, names included."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        if path.name in VOLATILE:
            continue
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def to_internal(pairs: np.ndarray, labels_sorted: np.ndarray, problems: list) -> np.ndarray:
    """Map labelled pairs onto indices of labels_sorted, flagging strays."""
    idx = np.searchsorted(labels_sorted, pairs)
    idx = np.minimum(idx, len(labels_sorted) - 1)
    if pairs.size and not (labels_sorted[idx] == pairs).all():
        problems.append("edge endpoint outside the node universe")
    return idx


def degrees(edges: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(edges.ravel(), minlength=n).astype(np.float64)


def degree_rmse(ref: np.ndarray, syn: np.ndarray, n: int) -> float:
    return float(np.sqrt(np.mean((degrees(ref, n) - degrees(syn, n)) ** 2)))


def check_network(edges: np.ndarray, assignment: np.ndarray, targets: dict) -> list:
    """Structural guarantees of one generated network, in internal ids.

    targets maps cluster id -> (n, m, mincut) of the reference cluster.
    """
    problems = []
    n = len(assignment)
    if (edges[:, 0] == edges[:, 1]).any():
        problems.append("self-loop in output")
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    if len(np.unique(lo * n + hi)) != len(edges):
        problems.append("duplicate edge in output")
    intra = edges[assignment[edges[:, 0]] == assignment[edges[:, 1]]]
    deg = np.bincount(intra.ravel(), minlength=n)
    # components of the intra-cluster graph: one per cluster when every
    # cluster is connected
    graph = coo_matrix((np.ones(len(intra)), (intra[:, 0], intra[:, 1])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    order = np.argsort(assignment[intra[:, 0]], kind="stable")
    intra = intra[order]
    keys = assignment[intra[:, 0]]
    by_cluster = np.argsort(assignment, kind="stable")
    sorted_ids = assignment[by_cluster]
    for cid, (size, _, k) in sorted(targets.items()):
        first, last = np.searchsorted(sorted_ids, [cid, cid + 1])
        members = by_cluster[first:last]
        if len(members) != size:
            problems.append(f"cluster {cid}: {len(members)} members, expected {size}")
            continue
        if len(np.unique(comp[members])) != 1:
            problems.append(f"cluster {cid}: not connected")
            continue
        floor = min(max(1, k), size - 1)
        if deg[members].min() < floor:
            problems.append(f"cluster {cid}: intra-degree {int(deg[members].min())} < {floor}")
        lo_i, hi_i = np.searchsorted(keys, [cid, cid + 1])
        g = nx.Graph()
        g.add_nodes_from(members.tolist())
        g.add_edges_from(intra[lo_i:hi_i].tolist())
        cut, _ = nx.stoer_wagner(g)
        if cut < min(k, size - 1):
            problems.append(f"cluster {cid}: min cut {cut} < {min(k, size - 1)}")
    return problems


def check_generated(out_dir: Path, ref, ref_edges: np.ndarray) -> tuple:
    """(problems, degree RMSE) of one generate output directory.

    ref is the planted inputs.Reference; ref_edges its canonical edges.
    Node ids in the output are ref.labels, so they map back through a sort.
    """
    problems: list = []
    order = np.argsort(ref.labels)
    labels_sorted = ref.labels[order]
    syn = to_internal(read_pairs(Path(out_dir) / "synthetic_network.tsv"), labels_sorted,
                      problems)
    syn = order[syn]
    if problems:
        return problems, math.nan
    problems += check_network(syn, ref.assignment, ref.targets)
    return problems, degree_rmse(ref_edges, syn, len(ref.labels))


def check_eval(out_dir: Path, ref, ref_edges: np.ndarray, syn_edges: np.ndarray) -> tuple:
    """(problems, degree RMSE) of one eval output directory.

    The report's degree RMSE and mixing difference must equal a
    recomputation from the inputs, and the diameter must be exact.
    """
    problems = []
    report = json.loads((Path(out_dir) / "metrics.json").read_text(encoding="utf-8"))
    entries = {e["stat"]: e for e in report["metrics"]}
    n = len(ref.labels)
    rmse = degree_rmse(ref_edges, syn_edges, n)
    a = ref.assignment

    def mixing(e):
        return float((a[e[:, 0]] != a[e[:, 1]]).sum()) / len(e)

    expect = {"degree_sequence": rmse,
              "mixing_parameter": mixing(ref_edges) - mixing(syn_edges)}
    for stat, value in expect.items():
        got = entries.get(stat, {}).get("value")
        if got is None or not math.isclose(got, value, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"eval {stat} = {got}, recomputed {value}")
    if entries.get("diameter", {}).get("note") == "lower-bound" or "diameter" not in entries:
        problems.append("eval diameter is not exact")
    return problems, float(entries.get("degree_sequence", {}).get("value") or math.nan)
