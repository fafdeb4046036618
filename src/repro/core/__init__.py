"""Core contribution: schedules, cost model, CHITCHAT, PARALLELNOSY.

Every algorithm here reads the social graph through the
:class:`~repro.graph.view.GraphView` protocol, so both adjacency backends
work interchangeably: the mutable dict-of-sets
:class:`~repro.graph.digraph.SocialGraph` and the frozen numpy
:class:`~repro.graph.csr.CSRGraph` snapshot.  Scheduler entry points take a
``backend=`` parameter: ``"auto"`` (default) freezes dense-id graphs with
at least :data:`~repro.graph.view.CSR_FASTPATH_THRESHOLD` nodes to CSR
before running — on that path hub-graph construction, singleton pricing,
hybrid decisions, and the densest-subgraph oracle's element filtering all
run as vectorized kernels over flat edge arrays, while ``"dict"``/``"csr"``
force a backend.  Both backends are property-tested to produce identical
schedules and costs (``tests/test_graphview.py``), so the fast path is a
pure performance choice.

The CHITCHAT schedulers additionally take an ``oracle=`` parameter
selecting the densest-subgraph oracle: ``"peel"`` (the paper's factor-2
peeling, default) or ``"exact"`` (the parametric max-flow subsystem of
:mod:`repro.flow`, true optima).  Shared float-comparison tolerances
live in :mod:`repro.core.tolerances`.
"""

from repro.core.active import (
    ActiveSchedule,
    active_cost,
    reachable_views,
    to_passive,
)
from repro.core.async_model import (
    accumulated_cost,
    effective_workload,
    frontier,
    knee_period,
    staleness_bound,
)
from repro.core.baselines import (
    BASELINES,
    hybrid_schedule,
    pull_all_schedule,
    push_all_schedule,
)
from repro.core.chitchat import (
    ChitchatScheduler,
    ChitchatStats,
    chitchat_schedule,
    chitchat_with_stats,
)
from repro.core.cost import (
    cost_breakdown,
    hybrid_edge_cost,
    improvement_ratio,
    predicted_throughput,
    pull_edge_cost,
    push_edge_cost,
    schedule_cost,
)
from repro.core.coverage import CoverageReport, check_coverage, validate_schedule
from repro.core.densest import (
    DensestResult,
    OracleCutoff,
    densest_subgraph,
    unweighted_densest_subgraph,
)
from repro.core.exact import optimal_schedule, optimality_gap
from repro.core.hubgraph import HubGraph, build_hub_graph, single_consumer_hub_graph
from repro.core.incremental import IncrementalMaintainer, reoptimized_cost
from repro.core.parallelnosy import (
    Candidate,
    IterationResult,
    ParallelNosyOptimizer,
    improvement_history,
    parallel_nosy_schedule,
    parallel_nosy_with_history,
)
from repro.core.serialize import (
    load_schedule,
    load_workload,
    save_schedule,
    save_workload,
)
from repro.core.pruning import (
    cleanup_schedule,
    count_redundant_memberships,
    hub_usage_histogram,
    prune_schedule,
    swap_to_cheaper_direct,
)
from repro.core.schedule import RequestSchedule

__all__ = [
    "ActiveSchedule",
    "BASELINES",
    "accumulated_cost",
    "effective_workload",
    "frontier",
    "knee_period",
    "staleness_bound",
    "load_schedule",
    "load_workload",
    "save_schedule",
    "save_workload",
    "Candidate",
    "ChitchatScheduler",
    "ChitchatStats",
    "CoverageReport",
    "DensestResult",
    "OracleCutoff",
    "HubGraph",
    "IncrementalMaintainer",
    "IterationResult",
    "ParallelNosyOptimizer",
    "RequestSchedule",
    "active_cost",
    "build_hub_graph",
    "check_coverage",
    "chitchat_schedule",
    "chitchat_with_stats",
    "cleanup_schedule",
    "count_redundant_memberships",
    "hub_usage_histogram",
    "prune_schedule",
    "swap_to_cheaper_direct",
    "cost_breakdown",
    "densest_subgraph",
    "hybrid_edge_cost",
    "hybrid_schedule",
    "improvement_history",
    "improvement_ratio",
    "optimal_schedule",
    "optimality_gap",
    "parallel_nosy_schedule",
    "parallel_nosy_with_history",
    "predicted_throughput",
    "pull_all_schedule",
    "pull_edge_cost",
    "push_all_schedule",
    "push_edge_cost",
    "reachable_views",
    "reoptimized_cost",
    "schedule_cost",
    "single_consumer_hub_graph",
    "to_passive",
    "unweighted_densest_subgraph",
    "validate_schedule",
]
