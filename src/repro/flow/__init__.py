"""Parametric max-flow subsystem: the exact densest-subgraph oracle.

Three layers, bottom up:

* :mod:`repro.flow.maxflow` — push-relabel on flat paired-arc arrays,
  with warm restarts after capacity raises *and* capacity decreases
  (the preflow is repaired in place: overflowing flow is cancelled and
  the deficit drained out of the downstream paths).  Two
  interchangeable solvers: the numpy-vectorized *wave* kernel (batched
  pushes over the active frontier in descending level sweeps,
  segment-minima relabels, vectorized reverse-BFS global relabeling)
  and the pure-Python FIFO discharge *loop* kept from PR 3 as the
  reference and the small-network tier; ``method="auto"`` picks by
  network size (:data:`WAVE_AUTO_MIN_ARCS`).
* :mod:`repro.flow.parametric` — Goldberg's fractional-programming
  construction for the weighted hypergraph densest-subgraph problem,
  solved by a Dinkelbach density search that seeds ``λ`` at the best
  single-vertex density and reuses the residual network across
  iterations.
* :mod:`repro.flow.batched_solve` — the block-diagonal batched tier:
  :class:`BatchedNetwork` stacks many independent hub networks into one
  flat arena and discharges them all in shared wave sweeps, so k
  Dinkelbach solves cost one kernel invocation per round instead of k.
  :class:`FlowStats` profiles the tier (invocation counts, blocks per
  batch, freeze/discharge/relabel time split).
* :mod:`repro.flow.exact_oracle` — the :class:`ExactOracle` adapter
  exposing the peel oracle's exact calling contract to the CHITCHAT
  schedulers, plus the ``oracle="peel"|"exact"`` mode validation.  The
  adapter is a *session*: per-hub flow problems persist across calls
  (LRU-capped at :data:`ORACLE_SESSION_HUBS`) and are warm-started —
  each call repairs the previous preflow, since coverage only shrinks
  each hub's element set.  :class:`MultiHubSession` drives several
  hubs' Dinkelbach iterations through the batched arena at once (the
  scheduler's opt-in ``batch_k=`` speculative top-k evaluation; off by
  default).

The schedulers in :mod:`repro.core` take an ``oracle=`` parameter wiring
this subsystem in; ``"peel"`` (the default) never solves a flow network
at runtime.  The E14 benchmark (``benchmarks/chitchat_perf.py``)
measures this subsystem's kernels against each other and against the
peel on the E13 workload's hub-graphs.
"""

from repro.flow.batched_solve import BatchedNetwork, BlockTemplate, FlowStats
from repro.flow.exact_oracle import (
    ORACLE_MODES,
    ORACLE_SESSION_HUBS,
    ExactOracle,
    MultiHubSession,
    validate_oracle_mode,
)
from repro.flow.maxflow import (
    ADAPTIVE_WARM_RELABEL,
    FLOW_METHODS,
    WAVE_AUTO_MIN_ARCS,
    WARM_RELABEL_MAX_STRETCH,
    FlowError,
    FlowMidSolveError,
    FlowNetwork,
    FlowNotFrozenError,
    compile_grouped,
    validate_flow_method,
)
from repro.flow.parametric import (
    DenseSelection,
    ParametricDensest,
    densest_selection,
)

__all__ = [
    "ADAPTIVE_WARM_RELABEL",
    "FLOW_METHODS",
    "ORACLE_MODES",
    "ORACLE_SESSION_HUBS",
    "WARM_RELABEL_MAX_STRETCH",
    "WAVE_AUTO_MIN_ARCS",
    "BatchedNetwork",
    "BlockTemplate",
    "DenseSelection",
    "ExactOracle",
    "FlowError",
    "FlowMidSolveError",
    "FlowNetwork",
    "FlowNotFrozenError",
    "FlowStats",
    "MultiHubSession",
    "ParametricDensest",
    "compile_grouped",
    "densest_selection",
    "validate_flow_method",
    "validate_oracle_mode",
]
