"""Graph substrate: structures, I/O, statistics, generators, samplers.

Two adjacency backends implement the read-only :class:`GraphView` protocol
that every scheduling algorithm in :mod:`repro.core` consumes:

* :class:`SocialGraph` — mutable dict-of-sets adjacency, for
  construction and churn;
* :class:`CSRGraph` — a frozen numpy CSR snapshot (dense ``0..n-1`` node
  ids, sorted adjacency slices) powering the vectorized kernels of the
  algorithm hot path.

Static schedulers run on CSR: CHITCHAT freezes dense-id graphs with
:func:`to_csr` and relabels any other graph once at its boundary, handing
the schedule back in the caller's labels.  Churn maintenance relabels the
same way and keeps a mutable :class:`SocialGraph` beside an edge-id index.
"""

from repro.graph.csr import CSRGraph
from repro.graph.digraph import Edge, Node, SocialGraph
from repro.graph.view import (
    GraphView,
    NeighborSetCache,
    edge_list,
    has_dense_int_ids,
    sorted_array_intersect,
    to_csr,
    wedge_nodes,
)
from repro.graph.generators import (
    configuration_model_graph,
    erdos_renyi_graph,
    forest_fire_graph,
    rmat_graph,
    social_copying_graph,
    watts_strogatz_graph,
)
from repro.graph.io import iter_edge_list, read_edge_list, write_edge_list
from repro.graph.sampling import breadth_first_sample, random_walk_sample, sample_graph
from repro.graph.stats import (
    DegreeSummary,
    GraphStats,
    average_clustering,
    count_wedges,
    degree_histogram,
    degree_summary,
    gini_coefficient,
    local_clustering,
    powerlaw_exponent_estimate,
    reciprocity,
    summarize,
)

__all__ = [
    "CSRGraph",
    "DegreeSummary",
    "Edge",
    "GraphStats",
    "GraphView",
    "NeighborSetCache",
    "Node",
    "SocialGraph",
    "average_clustering",
    "edge_list",
    "has_dense_int_ids",
    "sorted_array_intersect",
    "to_csr",
    "wedge_nodes",
    "breadth_first_sample",
    "configuration_model_graph",
    "count_wedges",
    "degree_histogram",
    "degree_summary",
    "erdos_renyi_graph",
    "forest_fire_graph",
    "gini_coefficient",
    "iter_edge_list",
    "local_clustering",
    "powerlaw_exponent_estimate",
    "random_walk_sample",
    "read_edge_list",
    "reciprocity",
    "rmat_graph",
    "sample_graph",
    "social_copying_graph",
    "summarize",
    "watts_strogatz_graph",
    "write_edge_list",
]
