"""Community-aware synthetic network generation and fidelity evaluation."""

from .graphs import (
    Clustering,
    CsrGraph,
    EdgeSet,
    GraphFormatError,
    build_csr,
    connected_components,
    load_clustering,
    load_edge_list,
    write_clustering,
    write_edge_list,
)
from .mincut import global_min_cut, min_cut_of_edges
from .splitting import SplitResult, split
from .cluster_stats import ClusterStats, compute_stats
from .sbm import BlockMatrix, build_block_matrix, degree_weights, sample_dcsbm
from .repair import (
    VARIANT_PLUS,
    VARIANT_PP,
    ClusterWork,
    match_degrees_global,
    process_cluster,
)
from .pipeline import (
    PipelineConfig,
    PipelineError,
    RunReport,
    SynthesisResult,
    run_both_variants,
    run_pipeline,
    synthesize,
)
from .metrics import (
    MetricReport,
    NetworkStats,
    absolute_difference,
    ari,
    compare_networks,
    compute_network_stats,
    nmi,
    relative_difference,
    rmse,
)

__version__ = "0.1.0"
