"""Core contribution: schedules, cost model, CHITCHAT, PARALLELNOSY.

Every algorithm here accepts the social graph through the
:class:`~repro.graph.view.GraphView` protocol — the mutable dict-of-sets
:class:`~repro.graph.digraph.SocialGraph` or the frozen numpy
:class:`~repro.graph.csr.CSRGraph` snapshot.  Static schedulers run on
CSR: CHITCHAT freezes a dense-id graph, or relabels any other graph once
at its boundary and translates the schedule back, so hub-graph
construction, singleton pricing and the densest-subgraph oracle's element
filtering always run as vectorized kernels over flat edge arrays.
PARALLELNOSY and the baselines run on the view they are given (their
dict and CSR runs are property-tested identical in
``tests/test_graphview.py``).  Churn maintenance
(:class:`~repro.core.delta.DeltaScheduler`) relabels to dense ids the
same way and keeps a mutable graph beside an append-only edge-id index,
so its repairs feed the oracle the same dense input.

The CHITCHAT schedulers additionally take an ``oracle=`` parameter
selecting the densest-subgraph oracle: ``"peel"`` (the paper's factor-2
peeling, default) or ``"exact"`` (the parametric max-flow subsystem of
:mod:`repro.flow`, true optima).  Shared float-comparison tolerances
live in :mod:`repro.core.tolerances`.

Schedules follow a churning graph through
:class:`~repro.core.delta.DeltaScheduler`: ``apply`` alone is the
paper's section 3.3 maintenance policy (new and broken edges served
directly by the hybrid rule), and ``repair`` re-runs the greedy over the
region the events dirtied.
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
from repro.core.delta import DeltaScheduler
from repro.core.densest import (
    DensestResult,
    OracleCutoff,
    densest_subgraph,
    unweighted_densest_subgraph,
)
from repro.core.exact import optimal_schedule, optimality_gap
from repro.core.hubgraph import HubGraph, build_hub_graph, single_consumer_hub_graph
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
    "DeltaScheduler",
    "DensestResult",
    "OracleCutoff",
    "HubGraph",
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
    "schedule_cost",
    "single_consumer_hub_graph",
    "to_passive",
    "unweighted_densest_subgraph",
    "validate_schedule",
]
