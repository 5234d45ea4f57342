"""Command line entry points.

Exit codes: 0 on success, 2 for unreadable or malformed inputs, 3 when a
pipeline stage fails or a cluster is too large for an exact min cut.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import repair as rp
from .cluster_stats import compute_stats, write_stats_csv
from .graphs import (
    GraphFormatError,
    _sorted_unique,
    build_csr,
    load_clustering,
    load_edge_list,
    write_clustering,
    write_edge_list,
)
from .metrics import ALIGN_IDENTITY, ALIGN_SORTED, MIXING_EDGE_FRACTION, \
    MIXING_NODE_MEAN, compare_networks
from .mincut import MinCutSizeError
from .pipeline import PipelineConfig, PipelineError, _load_inputs, run_both_variants, \
    run_pipeline
from .splitting import split

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PIPELINE = 3

log = logging.getLogger(__name__)


def _seed(text: str) -> int:
    """The --seed type: a non-negative integer; argparse exits 2 on anything else."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _workers(text: str) -> int:
    """The --workers type: an integer of at least 1; argparse exits 2 on anything else."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text}")
    return value


def _add_generate(sub):
    p = sub.add_parser("generate", help="generate a synthetic network")
    p.add_argument("--network", required=True, type=Path)
    p.add_argument("--clustering", required=True, type=Path)
    p.add_argument("--variant", choices=list(rp.VARIANTS), default=rp.VARIANT_PP)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=_workers, default=1)
    p.add_argument("--out-dir", required=True, type=Path)
    p.add_argument("--stats-file", type=Path, default=None,
                   help="precomputed cluster stats CSV (cluster,n,m,mincut)")
    return p


def _cmd_generate(args) -> int:
    cfg = PipelineConfig(
        network=args.network,
        clustering=args.clustering,
        out_dir=args.out_dir,
        variant=args.variant,
        seed=args.seed,
        workers=args.workers,
        stats_file=args.stats_file,
    )
    result = run_pipeline(cfg)
    counts = result.report.edge_counts
    log.info("wrote %d edges to %s", counts["output"], args.out_dir)
    return EXIT_OK


def _cmd_split(args) -> int:
    labels, g, c, _, _ = _load_inputs(args.network, args.clustering, None)
    res = split(g, c)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gc_labels = labels[res.gc_nodes]
    write_edge_list(res.g_c_edges, gc_labels, out / "clustered_edges.tsv")
    write_edge_list(res.g_s_edges, labels, out / "singleton_edges.tsv")
    write_clustering(res.c_c, gc_labels, out / "clustered_clustering.tsv")
    write_clustering(res.c_s, labels, out / "singleton_clustering.tsv")
    return EXIT_OK


def _cmd_stats(args) -> int:
    _, g, c, _, _ = _load_inputs(args.network, args.clustering, None)
    stats = compute_stats(g, c, workers=args.workers)
    write_stats_csv(stats, args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    ref = load_edge_list(args.reference)
    syn = load_edge_list(args.synthetic)
    # shared universe: every label either side mentions
    labels = _sorted_unique(np.concatenate([ref.labels, syn.labels]))

    def rebuild(res):
        remap = np.searchsorted(labels, res.labels)
        return build_csr(remap[res.edges], len(labels))

    g_ref = rebuild(ref)
    g_syn = rebuild(syn)
    c = load_clustering(args.clustering, labels)
    report = compare_networks(g_ref, g_syn, c, alignment=args.alignment,
                              mixing_mode=args.mixing)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.to_json(out / "metrics.json")
    report.to_csv(out / "metrics.csv")
    for e in report.entries:
        log.info("%s %s = %s%s", e.stat, e.metric, e.value,
                 f" ({e.note})" if e.note else "")
    return EXIT_OK


def _cmd_compare(args) -> int:
    summary = run_both_variants(args.network, args.clustering, args.out_dir,
                                seed=args.seed, workers=args.workers,
                                stats_file=args.stats_file)
    log.info("%s", json.dumps({k: v["edge_counts"] for k, v in summary.items()}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synnetgen",
        description="Community-preserving synthetic network generation and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_generate(sub)

    p = sub.add_parser("split", help="write the clustered/singleton split")
    p.add_argument("--network", required=True, type=Path)
    p.add_argument("--clustering", required=True, type=Path)
    p.add_argument("--out-dir", required=True, type=Path)

    p = sub.add_parser("stats", help="per-cluster n, m, and exact min cut")
    p.add_argument("--network", required=True, type=Path)
    p.add_argument("--clustering", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--workers", type=_workers, default=1)

    p = sub.add_parser("eval", help="fidelity metrics, reference vs synthetic")
    p.add_argument("--reference", required=True, type=Path)
    p.add_argument("--synthetic", required=True, type=Path)
    p.add_argument("--clustering", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--alignment", choices=[ALIGN_IDENTITY, ALIGN_SORTED],
                   default=ALIGN_IDENTITY)
    p.add_argument("--mixing", choices=[MIXING_EDGE_FRACTION, MIXING_NODE_MEAN],
                   default=MIXING_EDGE_FRACTION)

    p = sub.add_parser("compare-versions",
                       help="run both variants from one seed and shared draws")
    p.add_argument("--network", required=True, type=Path)
    p.add_argument("--clustering", required=True, type=Path)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--workers", type=_workers, default=1)
    p.add_argument("--out-dir", required=True, type=Path)
    p.add_argument("--stats-file", type=Path, default=None)
    return parser


HANDLERS = {
    "generate": _cmd_generate,
    "split": _cmd_split,
    "stats": _cmd_stats,
    "eval": _cmd_eval,
    "compare-versions": _cmd_compare,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except (GraphFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (PipelineError, MinCutSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
