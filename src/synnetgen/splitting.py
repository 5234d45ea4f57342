"""Split a reference network into its clustered and singleton parts.

The clustered part is the subgraph induced by all nodes whose cluster has
more than one member; the singleton part is every remaining edge (at least
one endpoint is a singleton), kept over the full node universe. Together
the two edge sets partition the reference edges exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Clustering, CsrGraph, GraphFormatError


@dataclass
class SplitResult:
    g_c_edges: np.ndarray    # clustered-side edges over local ids, canonical
    gc_nodes: np.ndarray     # local id -> parent id, ascending
    c_c: Clustering          # original cluster ids, over local ids
    g_s_edges: np.ndarray    # singleton-side edges over parent ids, canonical
    c_s: Clustering          # over parent ids; singletons get fresh ids


def fresh_singleton_ids(c: Clustering) -> np.ndarray:
    """Cluster id for each singleton node: max input id + rank of node id.

    Raises GraphFormatError when the fresh ids would pass the int64 maximum.
    """
    count = len(c.singleton_nodes)
    top = int(c.cluster_ids.max()) if len(c.cluster_ids) else 0
    if top > 2**63 - 1 - count:
        raise GraphFormatError(f"cluster id {top} leaves no room in int64 for "
                               f"{count} fresh singleton cluster ids")
    return top + 1 + np.arange(count, dtype=np.int64)


def split(g: CsrGraph, c: Clustering) -> SplitResult:
    """Partition g's edges by whether both endpoints are clustered.

    Pure edge filtering over the tabular edge list; no intermediate
    adjacency is built. The local ids cover every clustered node, even one
    left isolated in the clustered part.
    """
    if c.n != g.n:
        raise ValueError(f"clustering covers {c.n} nodes, graph has {g.n}")
    arr = g.edge_array()
    clustered = c.clustered_mask
    both = clustered[arr[:, 0]] & clustered[arr[:, 1]]
    gc_parent = arr[both]
    gs_arr = arr[~both]
    gc_nodes = np.flatnonzero(clustered)
    mark = np.full(g.n, -1, dtype=np.int64)
    mark[gc_nodes] = np.arange(len(gc_nodes), dtype=np.int64)
    c_c = Clustering(c.assignment[gc_nodes])

    assign_s = c.assignment.copy()
    singles = c.singleton_nodes
    assign_s[singles] = fresh_singleton_ids(c)
    return SplitResult(
        g_c_edges=mark[gc_parent],  # mark is increasing, so still canonical
        gc_nodes=gc_nodes,
        c_c=c_c,
        g_s_edges=gs_arr,
        c_s=Clustering(assign_s),
    )
