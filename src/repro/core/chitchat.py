"""CHITCHAT: the O(log n)-approximation algorithm (paper section 3.1).

The DISSEMINATION problem maps to SET-COVER: the ground set is the edge set
``E``; candidates are (a) singleton edges served directly at the hybrid cost
``c*(e) = min(rp(u), rc(v))`` and (b) hub-graphs, which cover their push
legs, pull legs, and cross-edges at the cost of the not-yet-paid legs.

The greedy SET-COVER step — "pick the candidate with minimum cost per newly
covered element" — cannot enumerate the exponentially many hub-graphs, so
Algorithm 1 uses an oracle: for every hub ``w``, the weighted
densest-subgraph peeling of :mod:`repro.core.densest` finds the best
sub-hub-graph of ``G(w)``; a priority queue keeps the per-hub champions.

Combined guarantee (Theorem 4): ``O(2 ln n) = O(ln n)``.

Lazy oracle re-evaluation
-------------------------
Algorithm 1 line 14 invalidates, after every selection, each hub whose
hub-graph contains a covered element — for a social graph that is the two
endpoints *plus every wedge intermediary*, so an eager implementation
re-oracles a near-quadratic number of hubs over a run.  This scheduler
applies the CELF trick instead, exploiting a monotonicity split:

* **covering elements only raises** a hub's optimum cost per element (the
  same vertex weights buy less coverage).  A covering event that takes
  none of the elements a hub's champion covers leaves that champion
  feasible at its old cost ``c``, and since ``c ≤ 2·OPT_old ≤ 2·OPT_new``
  it is still the factor-2 answer Lemma 1 asks for (Theorem 4 is
  unchanged) — the champion and its heap entry are *retained*, for every
  oracle (``stats.champions_retained``).  An event that does take one of
  its elements downgrades the entry to the certified optimum bound
  recorded at the last oracle call — still a valid *lower bound* — and
  marks the hub dirty; a dirty entry is re-oracled only when it reaches
  the heap top (a clean top entry is therefore a factor-2 answer to the
  whole step);
* **paying a push/pull leg lowers** the owning hub-graph's vertex weight
  and can cheapen its champion below the stale key, so the (few) hubs
  incident to newly scheduled legs are refreshed eagerly.

Two further cuts avoid oracle work entirely: the bootstrap prices every
hub's trivial champion lower bound in one vectorized pass (no peeling) and
skips hubs that provably can never beat the singletons covering their own
elements; and lazy recomputes pass the cheapest competing candidate as an
``upper_bound`` so the oracle can abandon non-competitive hubs after an
``O(m)`` probe (:class:`~repro.core.densest.OracleCutoff`).

A retained peel champion is the peel of the state the hub was *last
evaluated at*, not of the current one, so under ``oracle="peel"`` the
schedule is a function of evaluation order — of every heap key — and
lazy mode is cost-equivalent to the eager ``lazy=False`` reference
(every step a factor-2 step in both; costs within a few 1e-5 of each
other at n = 3000), **not** byte-identical to it.  Under
``oracle="exact"`` a retained champion is still the optimum and the two
modes stay byte-identical (property-tested).  Every heap key is
backend-independent, so dict and CSR runs issue the identical oracle-call
sequence either way.  ``tests/test_step_certificate.py`` checks the
factor-2 claim at every greedy step against a cold exact oracle.

Oracle modes
------------
The densest-subgraph oracle itself is pluggable (``oracle=``): the
default ``"peel"`` is the paper's factor-2 weighted peeling, ``"exact"``
the parametric max-flow oracle of :mod:`repro.flow`.  Retention is the
same rule for both; what exactness adds is the *downgrade*: when an
event does take one of an exact champion's elements, the certified bound
the entry falls back to is the optimum itself less a float margin rather
than a factor-2 certificate — dirty hubs resurface only when genuinely
competitive — and a retained exact champion is still exactly optimal,
which is what keeps lazy and eager byte-identical there.
The exact oracle is a *warm session*: each per-hub flow problem
persists across calls and repairs its previous preflow instead of
resetting, since coverage only ever shrinks a hub's element set (see
:class:`~repro.flow.exact_oracle.ExactOracle`).

Approximately-greedy mode (ε)
-----------------------------
``epsilon=`` relaxes the greedy selection in lazy mode: when the heap
top is a *dirty* hub — whose key is a certified lower bound on its true
champion cost — and some *clean* candidate (a singleton, or a clean hub
champion further down the heap) is priced within ``(1 + ε)`` of that
bound, the clean candidate is selected outright and the dirty hub's
re-evaluation is skipped (``stats.epsilon_accepts``).  Every candidate's
true cost is at least its key and the dirty top holds the minimum key,
so the accepted cost is at most ``(1 + ε)`` times the true step optimum
— the CELF++-style lever that trades a bounded per-step slack for
fewer oracle calls.  ``epsilon=0`` (the default) disables the
relaxation entirely and stays byte-identical to exact greedy
(property-tested on both backends and both oracles).

The scheduler runs on any :class:`~repro.graph.view.GraphView`.  With
``backend="auto"`` (the default) large dense-id graphs are frozen into a
:class:`~repro.graph.csr.CSRGraph` first; on that backend the singleton
prices and bootstrap bounds are computed in vectorized passes over the
edge arrays, and the oracle filters hub-graph elements with a dense
edge-id bitmask.  Both backends produce identical schedules
(property-tested).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.baselines import hybrid_schedule
from repro.core.cost import hybrid_edge_cost, schedule_cost
from repro.core.densest import (
    DensestResult,
    OracleCutoff,
    ScheduleMirror,
    densest_subgraph,
)
from repro.core.hubgraph import HubGraph, build_hub_graph
from repro.core.tolerances import EPS_ACCEPT_SLACK, OPT_BOUND_MARGIN
from repro.core.schedule import RequestSchedule
from repro.errors import ReproError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import Edge, Node
from repro.flow.exact_oracle import (
    ExactOracle,
    MultiHubSession,
    validate_oracle_mode,
)
from repro.flow.maxflow import validate_flow_method
from repro.graph.view import (
    GraphView,
    NeighborSetCache,
    affected_hubs,
    as_graph_view,
    edge_list,
    edge_ranks,
    node_ranks,
)
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.workload.rates import Workload

#: Heap entry: (cost key, node rank tiebreak, hub, version, champion).
#: ``champion`` is ``None`` for unpriced entries (bootstrap bounds and
#: oracle cutoffs) — those hubs are in the dirty set and re-oracled when
#: they reach the heap top.
HubEntry = tuple[float, int, Node, int, "DensestResult | None"]

#: Sentinel returned by ``ChitchatScheduler._epsilon_accept`` when the
#: relaxation resolves the greedy step in favor of the best singleton.
_SINGLETON_WINS = object()


class ChitchatStats(StatsView):
    """Diagnostics accumulated during a CHITCHAT run.

    ``oracle_calls`` counts full densest-subgraph evaluations — peels and
    exact max-flow solves alike (cheap no-op calls on fully covered
    hub-graphs included, matching the eager accounting) — of which
    ``exact_oracle_calls`` went through the parametric max-flow oracle;
    ``oracle_early_exits`` counts bounded probes the oracle abandoned via
    its pre-evaluation lower bound; ``oracle_calls_saved`` is the number
    of full evaluations the eager invalidation rule would have run along
    *this run's own* selection sequence that the lazy dirty-hub heap
    never needed (0 in eager mode; an eager run's selections can differ
    under the peel, so this is not ``eager.oracle_calls`` minus ours);
    ``hubs_pruned`` counts hubs the lazy bootstrap proved can never beat
    their own singletons; ``champions_retained`` counts (coverage event,
    hub) pairs where the event shrank the hub-graph but took none of the
    elements its champion covers, so the hub kept champion and heap entry
    untouched (lazy mode, every oracle: a peel champion stays a factor-2
    answer, an exact one stays optimal);
    ``epsilon_accepts`` counts greedy steps the ``(1 + ε)`` relaxation
    resolved with a clean candidate instead of re-evaluating the dirty
    heap top (0 whenever ``epsilon=0``).

    The warm-session counters mirror the :class:`ExactOracle` session
    (all 0 under ``oracle="peel"``): ``warm_solves`` — exact solves that
    resumed the hub's previous preflow instead of resetting it;
    ``preflow_repairs`` — capacity decreases that had to cancel routed
    flow; ``flow_passes`` — total flow-solver work units (loop
    discharges / wave sweeps), the E15 warm-vs-cold benchmark metric.
    Two memory gauges mirror the session's network cache:
    ``oracle_evictions`` — networks evicted under its
    :data:`~repro.flow.exact_oracle.ORACLE_SESSION_HUBS` cap — and
    ``peak_cached_networks`` — the most networks it held at once.

    The batched-tier counters mirror the session's
    :class:`~repro.flow.batched_solve.FlowStats` (the arena ones stay 0
    without the exact oracle, and under the default ``batch_k=0``):
    ``kernel_invocations`` —
    flow-solver entries, sequential and arena alike (the E18 headline
    metric); ``batched_solves`` / ``batched_blocks`` — arena dispatches
    and the hub problems they carried (``blocks_per_batch`` is their
    ratio); ``batch_freeze_seconds`` / ``batch_discharge_seconds`` /
    ``batch_relabel_seconds`` — the batched tier's kernel time split
    (arena assembly / wave sweeps / exact-label BFS share);
    ``flow_solve_seconds`` — the sequential tier's solve wall.

    Since ISSUE 8 this is a :class:`~repro.obs.metrics.StatsView` over
    the scheduler's metrics registry: scheduler-phase counters live at
    the view's node, the warm-session counters under its ``oracle``
    child, and the flow/arena counters under ``oracle/flow`` — the same
    cells the session's :class:`~repro.flow.batched_solve.FlowStats`
    binds, so ``registry.snapshot()`` and these fields always agree.
    The field names, defaults, and arithmetic are unchanged.
    """

    _FIELDS = {
        "hub_selections": (("hub_selections",), "counter"),
        "singleton_selections": (("singleton_selections",), "counter"),
        "oracle_calls": (("oracle_calls",), "counter"),
        "exact_oracle_calls": (("exact_oracle_calls",), "counter"),
        "oracle_early_exits": (("oracle_early_exits",), "counter"),
        "oracle_calls_saved": (("oracle_calls_saved",), "counter"),
        "hubs_pruned": (("hubs_pruned",), "counter"),
        "champions_retained": (("champions_retained",), "counter"),
        "epsilon_accepts": (("epsilon_accepts",), "counter"),
        "warm_solves": (("oracle", "warm_solves"), "counter"),
        "preflow_repairs": (("oracle", "preflow_repairs"), "counter"),
        "flow_passes": (("oracle", "flow_passes"), "counter"),
        "oracle_evictions": (("oracle", "evictions"), "counter"),
        "peak_cached_networks": (("oracle", "peak_cached"), "gauge"),
        "kernel_invocations": (
            ("oracle", "flow", "kernel_invocations"),
            "counter",
        ),
        "batched_solves": (
            ("oracle", "flow", "arena", "batched_solves"),
            "counter",
        ),
        "batched_blocks": (
            ("oracle", "flow", "arena", "batched_blocks"),
            "counter",
        ),
        "batch_freeze_seconds": (
            ("oracle", "flow", "arena", "freeze_seconds"),
            "timer",
        ),
        "batch_discharge_seconds": (
            ("oracle", "flow", "arena", "discharge_seconds"),
            "timer",
        ),
        "batch_relabel_seconds": (
            ("oracle", "flow", "arena", "relabel_seconds"),
            "timer",
        ),
        "flow_solve_seconds": (("oracle", "flow", "solve_seconds"), "timer"),
        "edges_covered_by_hubs": (("edges_covered_by_hubs",), "counter"),
        "final_cost": (("final_cost",), "gauge"),
    }
    _LIST_FIELDS = ("selection_log",)

    @property
    def blocks_per_batch(self) -> float:
        """Mean hub problems per batched arena dispatch (0 when unused)."""
        if self.batched_solves == 0:
            return 0.0
        return self.batched_blocks / self.batched_solves


class ChitchatScheduler:
    """Stateful CHITCHAT runner (use :func:`chitchat_schedule` for one-shots).

    Parameters
    ----------
    graph, workload:
        The DISSEMINATION instance.  ``graph`` may be either adjacency
        backend.
    max_cross_edges:
        Optional per-hub cross-edge bound (the MapReduce ``b`` of section
        3.2), trading optimization opportunities for memory/time on dense
        hubs.
    record_log:
        When True, every greedy selection is appended to
        ``stats.selection_log`` as ``(kind, cost_per_element, covered)``.
    backend:
        ``"auto"`` (default) applies the CSR fast path above
        :data:`~repro.graph.view.CSR_FASTPATH_THRESHOLD` nodes; ``"csr"``
        and ``"dict"`` force a backend.
    lazy:
        When True (default) hubs invalidated by coverage-only events keep
        their champion while the events miss it and are otherwise
        re-oracled lazily via the CELF dirty-hub heap (see the module
        docstring); ``False`` restores the eager Algorithm 1 line 14
        refresh — far more oracle calls for a byte-identical schedule
        under ``oracle="exact"`` and a cost-equivalent one under the peel.
    oracle:
        ``"peel"`` (default) uses the factor-2 weighted peeling of
        :mod:`repro.core.densest`; ``"exact"`` the parametric max-flow
        oracle of :mod:`repro.flow`, whose champions are true optima, so
        a dirtied hub is parked a float margin below its true cost
        instead of at a factor-2 certificate.  Its session is always
        warm: each oracle call repairs the preflow the hub's previous
        call left behind — coverage only removes element arcs, leg
        payments only shrink vertex weights — instead of rebuilding the
        flow from zero.
    epsilon:
        ``(1 + ε)`` relaxation of the greedy selection (lazy mode only):
        a dirty heap top whose certified lower-bound key is within
        ``(1 + ε)`` of a clean candidate's exact price is skipped
        instead of re-evaluated, and the clean candidate is selected —
        each accepted step costs at most ``(1 + ε)`` times the true
        step optimum.  ``0.0`` (default) disables the relaxation and is
        byte-identical to exact greedy.
    batch_k:
        Speculative batch width of the exact oracle's multi-hub flow
        tier (lazy mode; off by default — ``0``/``1`` disable, and
        :data:`~repro.core.tolerances.BATCH_K` is the documented width
        for callers who opt in): when the heap top is dirty, up to
        ``batch_k`` *contiguous* dirty
        top entries are popped together and solved in one
        block-diagonal arena pass
        (:class:`~repro.flow.exact_oracle.MultiHubSession`) instead of
        one flow problem at a time.  Refreshing the runners-up is
        speculation on where the heap top goes next — the greedy winner
        is re-derived from the refreshed *true* costs with the same
        tie-breaks, so the schedule is byte-identical at ``epsilon=0``
        at every width (property-tested), and with ``epsilon > 0`` the
        relaxation can accept clean champions straight from the batch.
        Per-hub solves are the default because the ledger measured the
        arena slower on ``copying_exact`` and its speculative networks
        added about 45 MB of peak memory.
    method:
        Flow kernel of the exact oracle's per-hub networks: ``"auto"``
        (default), ``"wave"`` or ``"loop"``.  Checked at construction
        under every oracle, though only ``oracle="exact"`` uses it.
        Kernel choice is a pure perf knob: schedules are byte-identical
        across methods (property-tested).
    """

    def __init__(
        self,
        graph: GraphView,
        workload: Workload,
        max_cross_edges: int | None = None,
        record_log: bool = False,
        backend: str = "auto",
        lazy: bool = True,
        oracle: str = "peel",
        epsilon: float = 0.0,
        batch_k: int = 0,
        method: str = "auto",
    ) -> None:
        validate_oracle_mode(oracle)
        validate_flow_method(method)
        if epsilon < 0.0:
            raise ReproError(f"epsilon must be >= 0, got {epsilon!r}")
        if batch_k < 0:
            raise ReproError(f"batch_k must be >= 0, got {batch_k!r}")
        self.graph = as_graph_view(graph, backend)
        self.workload = workload
        self.max_cross_edges = max_cross_edges
        #: Per-run metrics registry; ``stats`` and the oracle session's
        #: ``flow_stats`` are views over its ``scheduler`` subtree, so
        #: ``self.metrics.snapshot()`` exports everything at once.
        self.metrics = MetricsRegistry()
        self.stats = ChitchatStats(node=self.metrics.node("scheduler"))
        self._record_log = record_log
        self._lazy = lazy
        self._epsilon = float(epsilon)
        self._exact = (
            ExactOracle(
                method=method,
                metrics=self.metrics.node("scheduler", "oracle"),
            )
            if oracle == "exact"
            else None
        )
        self._batch_k = int(batch_k)
        self._multi = (
            MultiHubSession(self._exact)
            if self._exact is not None and self._batch_k >= 2
            else None
        )
        self.schedule = RequestSchedule()
        edges = edge_list(self.graph)
        self._uncovered: set[Edge] = set(edges)
        # dense edge-id mirrors of the scheduler state (CSR mode): the
        # oracle filters hub-graph elements and prices legs with vectorized
        # lookups instead of Python set membership
        self._mirror: ScheduleMirror | None = None
        singleton_costs: list[float] | None = None
        if isinstance(self.graph, CSRGraph):
            self._mirror = ScheduleMirror(self.graph, workload, edges)
            if self._mirror.arrays is not None:
                src, dst = self.graph.edge_arrays()
                singleton_costs = np.minimum(
                    self._mirror.arrays.rp[src], self._mirror.arrays.rc[dst]
                ).tolist()
        if singleton_costs is None:  # non-dense rates: price per edge
            singleton_costs = [hybrid_edge_cost(e, workload) for e in edges]
        self._adjacency = NeighborSetCache(self.graph)
        self._rank = node_ranks(self.graph)
        # hubs that can relay at all (static degrees; checked once) — the
        # bool mask backs the vectorized bootstrap, the set the hot loops
        self._eligible_mask: np.ndarray | None = None
        if isinstance(self.graph, CSRGraph):
            self._eligible_mask = (self.graph.in_degrees() > 0) & (
                self.graph.out_degrees() > 0
            )
            self._eligible: set[Node] = set(
                np.nonzero(self._eligible_mask)[0].tolist()
            )
        else:
            self._eligible = {
                node
                for node in self.graph.nodes()
                if self.graph.in_degree(node) > 0
                and self.graph.out_degree(node) > 0
            }
        self._hub_version: dict[Node, int] = {}
        self._hub_cache: dict[Node, HubGraph] = {}
        # each hub's live full champion (absent after cutoffs/retires);
        # backs the lazy retention check in _invalidate
        self._champion: dict[Node, DensestResult] = {}
        self._hub_heap: list[HubEntry] = []
        # hubs whose heap key is a stale-but-valid lower bound, re-oracled
        # only when their entry reaches the heap top (lazy mode)
        self._dirty: set[Node] = set()
        # hubs with a live heap entry (retired / pruned hubs are absent)
        self._queued: set[Node] = set()
        # best certified lower bound on each hub's *true optimum* cost per
        # element — valid across coverage events (unlike a fresh peel's
        # output, which is only 2-approximate and can dip when elements
        # vanish);
        # reset whenever the hub is re-oracled, which eager weight-drop
        # refreshes guarantee happens before any weight can fall
        self._opt_lb: dict[Node, float] = {}
        # per-hub oracle-input versions: bumped whenever a covering event
        # or leg payment touches the hub-graph.  A cutoff records the
        # version it probed (``_bound_state``); when the parked entry
        # resurfaces at the same version the probe would reproduce the
        # same bound — and a popped entry's key never exceeds the bar — so
        # the redundant probe is skipped and the peel runs directly.
        self._state_version: dict[Node, int] = {}
        self._bound_state: dict[Node, int] = {}
        # full peels the eager invalidation rule would have issued
        self._eager_equivalent = 0
        self._bootstrapped = False
        self._singleton_heap: list[tuple[float, int, Edge]] = [
            (cost, erank, e)
            for cost, erank, e in zip(
                singleton_costs, edge_ranks(self.graph, edges, self._rank), edges
            )
        ]
        heapq.heapify(self._singleton_heap)

    # ------------------------------------------------------------------
    def run(self) -> RequestSchedule:
        """Execute the greedy loop until every edge is covered."""
        with trace.span("scheduler.run") as run_span:
            if not self._bootstrapped:
                self._bootstrapped = True
                with trace.span("scheduler.bootstrap"):
                    if self._lazy:
                        self._seed_lazy_heap()
                    else:
                        for node in self.graph.nodes():
                            if node in self._eligible:
                                self._refresh_hub(node)
            while self._uncovered:
                singleton = self._best_singleton()
                limit = singleton[0] if singleton is not None else math.inf
                hub_entry = self._pop_best_hub_entry(limit)
                if hub_entry is not None:
                    self._apply_hub(hub_entry[4])
                elif singleton is not None:
                    heapq.heappop(self._singleton_heap)
                    self._apply_singleton(singleton[2])
                else:  # pragma: no cover - defensive; singletons always exist
                    raise RuntimeError(
                        "no candidate available but edges remain uncovered"
                    )
            run_span.set(
                hub_selections=self.stats.hub_selections,
                singleton_selections=self.stats.singleton_selections,
                oracle_calls=self.stats.oracle_calls,
            )
        if self._lazy:
            self.stats.oracle_calls_saved = (
                self._eager_equivalent - self.stats.oracle_calls
            )
        if self._exact is not None:
            self.stats.warm_solves = self._exact.warm_solves
            self.stats.preflow_repairs = self._exact.preflow_repairs
            self.stats.flow_passes = self._exact.flow_passes
            self.stats.oracle_evictions = self._exact.evictions
            self.stats.peak_cached_networks = self._exact.peak_cached
            flow_stats = self._exact.flow_stats
            self.stats.kernel_invocations = flow_stats.kernel_invocations
            self.stats.batched_solves = flow_stats.batched_solves
            self.stats.batched_blocks = flow_stats.batched_blocks
            self.stats.batch_freeze_seconds = flow_stats.freeze_seconds
            self.stats.batch_discharge_seconds = flow_stats.discharge_seconds
            self.stats.batch_relabel_seconds = flow_stats.relabel_seconds
            self.stats.flow_solve_seconds = flow_stats.solve_seconds
        self.stats.final_cost = schedule_cost(self.schedule, self.workload)
        return self.schedule

    # ------------------------------------------------------------------
    # Candidate maintenance
    # ------------------------------------------------------------------
    def _seed_lazy_heap(self) -> None:
        """Price every hub's trivial champion lower bound; peel nothing.

        With untouched weights, any sub-hub-graph of ``w`` covers at most
        ``1 + min(outdeg(x), outdeg(w))`` elements per selected producer
        ``x`` (its leg plus its possible cross-edges) and one element per
        selected consumer ``y``, so by the mediant inequality the champion
        costs at least::

            LB(w) = min(min_x rp(x) / (1 + min(outdeg(x), outdeg(w))),
                        min_y rc(y))

        — a valid heap key until one of ``G(w)``'s legs is paid for (an
        eager refresh replaces the entry then).  A hub whose bound exceeds
        the dearest possible hybrid price among its own elements::

            M(w) = max(min(max_x rp(x), rc(w)),
                       min(rp(w), max_y rc(y)),
                       min(max_x rp(x), max_y rc(y)))

        can never win a greedy step before a leg payment (every element it
        could cover has a strictly cheaper singleton available), so it is
        not seeded at all.  The last term of ``M`` prices hypothetical
        cross-edges and always dominates both bounds, so the prune can
        only fire for hubs provably *cross-free* (every predecessor's sole
        successor is the hub itself): there the per-producer cap is 1 and
        the cross term drops, leaving the sharper pair ::

            LB(w) = min(min_x rp(x), min_y rc(y))
            M(w)  = max(min(max_x rp(x), rc(w)), min(rp(w), max_y rc(y)))

        On the CSR backend everything comes from one vectorized pass over
        the adjacency arrays.
        """
        graph = self.graph
        entries: list[HubEntry] = []
        pruned = 0
        arrays = self._mirror.arrays if self._mirror is not None else None
        if isinstance(graph, CSRGraph) and arrays is not None:
            n = graph.num_nodes
            indeg = graph.in_degrees()
            outdeg = graph.out_degrees()
            eligible = self._eligible_mask
            self._eager_equivalent += int(eligible.sum())
            rp, rc = arrays.rp, arrays.rc
            outdeg_f = outdeg.astype(np.float64)
            in_ptr, in_idx = graph.in_indptr, graph.in_indices
            out_ptr, out_idx = graph.out_indptr, graph.out_indices
            # per-predecessor ratios / rates, segment-reduced per hub
            # (empty in-slices occupy no room in in_idx, so the non-empty
            # segments tile the flat array and reduceat sees exactly them)
            hub_out = np.repeat(outdeg_f, indeg)
            x_ratio = rp[in_idx] / (1.0 + np.minimum(outdeg_f[in_idx], hub_out))
            x_min = np.full(n, np.inf)
            x_min_plain = np.full(n, np.inf)
            x_max = np.zeros(n)
            pred_max_out = np.zeros(n, dtype=np.int64)
            nz_in = np.nonzero(indeg)[0]
            if nz_in.size:
                starts = in_ptr[:-1][nz_in]
                x_min[nz_in] = np.minimum.reduceat(x_ratio, starts)
                x_min_plain[nz_in] = np.minimum.reduceat(rp[in_idx], starts)
                x_max[nz_in] = np.maximum.reduceat(rp[in_idx], starts)
                pred_max_out[nz_in] = np.maximum.reduceat(outdeg[in_idx], starts)
            y_min = np.full(n, np.inf)
            y_max = np.zeros(n)
            nz_out = np.nonzero(outdeg)[0]
            if nz_out.size:
                starts = out_ptr[:-1][nz_out]
                y_min[nz_out] = np.minimum.reduceat(rc[out_idx], starts)
                y_max[nz_out] = np.maximum.reduceat(rc[out_idx], starts)
            # a predecessor whose only successor is the hub contributes no
            # cross-edge; when that holds for all of them, both bounds
            # drop their cross terms (see docstring)
            crossfree = pred_max_out <= 1
            lower = (
                np.where(
                    crossfree,
                    np.minimum(x_min_plain, y_min),
                    np.minimum(x_min, y_min),
                )
                * OPT_BOUND_MARGIN
            )
            leg_dearest = np.maximum(
                np.minimum(x_max, rc), np.minimum(rp, y_max)
            )
            dearest = np.where(
                crossfree,
                leg_dearest,
                np.maximum(leg_dearest, np.minimum(x_max, y_max)),
            )
            seed = eligible & ~(lower > dearest)
            pruned = int(eligible.sum()) - int(seed.sum())
            for hub in np.nonzero(seed)[0].tolist():
                self._hub_version[hub] = 1
                self._dirty.add(hub)
                entries.append((float(lower[hub]), hub, hub, 1, None))
        else:
            workload = self.workload
            for hub in graph.nodes():
                if hub not in self._eligible:
                    continue
                self._eager_equivalent += 1
                out_w = graph.out_degree(hub)
                lower = math.inf
                lower_plain = math.inf
                x_max = 0.0
                crossfree = True
                for x in graph.predecessors(hub):
                    rpx = workload.rp(x)
                    out_x = graph.out_degree(x)
                    if out_x > 1:
                        crossfree = False
                    lower = min(lower, rpx / (1.0 + min(out_x, out_w)))
                    lower_plain = min(lower_plain, rpx)
                    x_max = max(x_max, rpx)
                y_min = math.inf
                y_max = 0.0
                for y in graph.successors(hub):
                    rcy = workload.rc(y)
                    y_min = min(y_min, rcy)
                    y_max = max(y_max, rcy)
                lower = min(lower_plain if crossfree else lower, y_min)
                lower *= OPT_BOUND_MARGIN
                dearest = max(
                    min(x_max, workload.rc(hub)),
                    min(workload.rp(hub), y_max),
                )
                if not crossfree:
                    dearest = max(dearest, min(x_max, y_max))
                if lower > dearest:
                    pruned += 1
                    continue
                self._hub_version[hub] = 1
                self._dirty.add(hub)
                entries.append((lower, self._rank[hub], hub, 1, None))
        self.stats.hubs_pruned = pruned
        self._hub_heap = entries
        for _key, _rank, hub, _version, _result in entries:
            self._queued.add(hub)
            self._opt_lb[hub] = _key
        heapq.heapify(self._hub_heap)

    @trace.traced("scheduler.refresh")
    def _refresh_hub(self, hub: Node, upper_bound: float | None = None) -> None:
        """Recompute hub ``w``'s champion sub-hub-graph and (re)queue it.

        With ``upper_bound`` (lazy recomputes) the oracle may abandon the
        peel once its pre-peel relaxation proves the champion cannot beat
        the current best candidate; the certified bound is requeued as a
        dirty entry (still a valid lower bound) instead of a champion.
        """
        version = self._hub_version.get(hub, 0) + 1
        self._hub_version[hub] = version
        self._dirty.discard(hub)
        if hub not in self._eligible:
            return  # cannot relay anything
        hub_graph = self._hub_cache.get(hub)
        if hub_graph is None:
            hub_graph = build_hub_graph(self.graph, hub, self.max_cross_edges)
            self._hub_cache[hub] = hub_graph
        oracle = self._exact if self._exact is not None else densest_subgraph
        mirror = self._mirror
        result = oracle(
            hub_graph,
            self.workload,
            self.schedule,
            self._uncovered,
            uncovered_mask=mirror.uncovered_mask if mirror else None,
            arrays=mirror.arrays if mirror else None,
            upper_bound=upper_bound,
        )
        self._install_result(hub, version, result)

    def _install_result(
        self,
        hub: Node,
        version: int,
        result: DensestResult | OracleCutoff | None,
    ) -> None:
        """Install one oracle outcome: requeue, retire, or crown the hub.

        The single write path for oracle results — the sequential
        :meth:`_refresh_hub` and the batched :meth:`_refresh_hubs_batched`
        both land here, so champion/bound bookkeeping cannot drift
        between them.
        """
        if isinstance(result, OracleCutoff):
            self.stats.oracle_early_exits += 1
            self._dirty.add(hub)
            self._queued.add(hub)
            self._champion.pop(hub, None)
            self._opt_lb[hub] = result.lower_bound
            self._bound_state[hub] = self._state_version.get(hub, 0)
            heapq.heappush(
                self._hub_heap,
                (result.lower_bound, self._rank[hub], hub, version, None),
            )
            return
        self.stats.oracle_calls += 1
        if self._exact is not None:
            self.stats.exact_oracle_calls += 1
        if result is None or not result.covered:
            # no uncovered element left in this hub-graph: coverage only
            # shrinks further, so the hub is retired until a leg payment
            # routes it back through an eager refresh
            self._queued.discard(hub)
            self._champion.pop(hub, None)
            return
        self._queued.add(hub)
        self._champion[hub] = result
        self._opt_lb[hub] = result.opt_lower_bound
        heapq.heappush(
            self._hub_heap,
            (result.cost_per_element, self._rank[hub], hub, version, result),
        )

    def _gather_dirty_top(self, limit: float) -> list[tuple[float, Node]]:
        """Pop up to ``batch_k`` contiguous live dirty top ``(key, hub)``s.

        Stops at the first clean entry (it may be this step's winner),
        the first key above ``limit`` (a singleton wins regardless), or
        the batch width.  The popped entries are *not* reinserted — the
        batched refresh requeues every gathered hub at its true cost or
        refreshed probe bound.  Called with a live dirty top, so at
        least one hub comes back.
        """
        heap = self._hub_heap
        gathered: list[tuple[float, Node]] = []
        while heap and len(gathered) < self._batch_k:
            key, _rank, hub, version, _result = heap[0]
            if version != self._hub_version.get(hub, 0):
                heapq.heappop(heap)
                continue
            if key > limit or hub not in self._dirty:
                break
            heapq.heappop(heap)
            gathered.append((key, hub))
        return gathered

    @trace.traced("scheduler.batched_refresh")
    def _refresh_hubs_batched(
        self, gathered: list[tuple[float, Node]], limit: float
    ) -> None:
        """Recompute several hubs' champions in one batched oracle call.

        The hub-graphs go through the
        :class:`~repro.flow.exact_oracle.MultiHubSession` arena as one
        block-diagonal flow solve (batching exists only under
        ``oracle="exact"``).  Each hub carries the same bounded-probe bar
        the sequential path would have passed — the cheapest *competing*
        candidate: the limit, the next heap key, or another gathered
        hub's certified key — so speculative evaluation pays an O(m)
        probe, not a full solve, for
        hubs that provably cannot win this step.  Hubs whose probe was
        already memoized for this state skip the probe (it cannot cut
        off twice), exactly as the sequential path peels them directly.
        Installed results are true champions or refreshed certified
        bounds either way, so the greedy winner re-derives from the same
        keys with unchanged tie-breaks as the one-at-a-time refresh.
        """
        keys = [key for key, _hub in gathered]
        next_key = self._hub_heap[0][0] if self._hub_heap else math.inf
        jobs: list[tuple[Node, HubGraph, int, float | None]] = []
        for idx, (_key, hub) in enumerate(gathered):
            version = self._hub_version.get(hub, 0) + 1
            self._hub_version[hub] = version
            self._dirty.discard(hub)
            if hub not in self._eligible:  # pragma: no cover - defensive
                continue  # gathered entries only exist for eligible hubs
            if self._bound_state.get(hub) == self._state_version.get(hub, 0):
                bar: float | None = None  # probed this state already
            else:
                other = keys[1] if idx == 0 else keys[0]
                bar = min(limit, next_key, other)
            hub_graph = self._hub_cache.get(hub)
            if hub_graph is None:
                hub_graph = build_hub_graph(
                    self.graph, hub, self.max_cross_edges
                )
                self._hub_cache[hub] = hub_graph
            jobs.append((hub, hub_graph, version, bar))
        mirror = self._mirror
        results = self._multi(
            [hub_graph for _hub, hub_graph, _version, _bar in jobs],
            self.workload,
            self.schedule,
            self._uncovered,
            uncovered_mask=mirror.uncovered_mask if mirror else None,
            arrays=mirror.arrays if mirror else None,
            upper_bounds=[bar for _hub, _hub_graph, _version, bar in jobs],
        )
        for (hub, _hub_graph, version, _bar), result in zip(jobs, results):
            self._install_result(hub, version, result)

    @trace.traced("scheduler.heap_pop")
    def _pop_best_hub_entry(self, limit: float = math.inf) -> HubEntry | None:
        """Pop and return the winning clean hub entry, or ``None``.

        ``None`` means the best singleton (priced ``limit``) wins this
        greedy step.  Discards stale-version entries.  In lazy mode, an
        entry whose hub is dirty carries a lower bound of the true
        champion cost, so it is re-oracled only when it reaches the heap
        top — a *clean* top entry is therefore the global best hub
        candidate.  Each recompute passes the cheapest competing
        candidate (``limit`` = best singleton, or the next heap key) as
        the oracle's ``upper_bound`` so hubs that cannot win this step
        abandon after an O(m) probe.  With ``epsilon > 0`` a dirty top
        may instead be resolved by :meth:`_epsilon_accept` without any
        oracle work.
        """
        heap = self._hub_heap
        while heap:
            entry = heap[0]
            key, _rank, hub, version, _result = entry
            if version != self._hub_version.get(hub, 0):
                heapq.heappop(heap)
                continue
            if key > limit:
                # every entry's true cost is at least its key: a singleton
                # wins this step regardless of what a recompute would find
                return None
            if hub not in self._dirty:
                return heapq.heappop(heap)
            if self._epsilon > 0.0:
                outcome = self._epsilon_accept(limit)
                if outcome is _SINGLETON_WINS:
                    return None
                if outcome is not None:
                    return outcome
                # no clean candidate within (1 + ε): fall through to the
                # exact re-evaluation of the dirty top
            if self._multi is not None:
                gathered = self._gather_dirty_top(limit)
                if len(gathered) >= 2:
                    # speculative top-k batch: refresh the contiguous dirty
                    # prefix in one block-diagonal arena pass, then re-derive
                    # the winner from the installed true costs — identical to
                    # refreshing each hub one at a time at the heap top
                    self._refresh_hubs_batched(gathered, limit)
                    continue
                hub = gathered[0][1]
            else:
                heapq.heappop(heap)
            if self._bound_state.get(hub) == self._state_version.get(hub, 0):
                # this exact state was already probed (the parked bound is
                # the probe's answer, and a popped key never exceeds the
                # bar) — a second probe cannot cut off, peel directly
                self._refresh_hub(hub)
            else:
                bar = limit if not heap else min(limit, heap[0][0])
                self._refresh_hub(hub, upper_bound=bar)
        return None

    def _epsilon_accept(self, limit: float):
        """Resolve a dirty heap top by the ``(1 + ε)`` relaxation.

        Preconditions: the heap top is a live dirty entry with key
        ``anchor ≤ limit``.  Every candidate's true cost is at least its
        key and ``anchor`` is the minimum key, so the true step optimum
        is at least ``anchor``.  If some *clean* candidate — a clean hub
        entry within the scanned prefix, or the best singleton — is
        priced at most ``(1 + ε)·anchor``, selecting it costs at most
        ``(1 + ε)`` times the step optimum, and the dirty hubs scanned
        over are simply left parked (their bounds stay valid).

        Returns the popped clean entry, :data:`_SINGLETON_WINS`, or
        ``None`` when nothing clean is in range (caller re-evaluates the
        dirty top exactly, as at ``epsilon = 0``).
        """
        heap = self._hub_heap
        anchor = heap[0][0]
        threshold = (1.0 + self._epsilon) * anchor + EPS_ACCEPT_SLACK
        parked: list[HubEntry] = []
        found: HubEntry | None = None
        while heap:
            entry = heap[0]
            key, _rank, hub, version, _result = entry
            if version != self._hub_version.get(hub, 0):
                heapq.heappop(heap)
                continue
            if key > threshold or key > limit:
                break
            if hub in self._dirty:
                parked.append(heapq.heappop(heap))
                continue
            found = heapq.heappop(heap)
            break
        for entry in parked:
            heapq.heappush(heap, entry)
        if found is not None:
            self.stats.epsilon_accepts += 1
            trace.instant("scheduler.epsilon_accept", kind="hub")
            return found
        if limit <= threshold:
            self.stats.epsilon_accepts += 1
            trace.instant("scheduler.epsilon_accept", kind="singleton")
            return _SINGLETON_WINS
        return None

    def _best_singleton(self) -> tuple[float, int, Edge] | None:
        while self._singleton_heap:
            entry = self._singleton_heap[0]
            if entry[2] in self._uncovered:
                return entry
            heapq.heappop(self._singleton_heap)
        return None

    # ------------------------------------------------------------------
    # Selection application
    # ------------------------------------------------------------------
    def _cover(self, edges, edge_ids: np.ndarray | None) -> None:
        """Drop ``edges`` from the uncovered set (and its bitmask mirror)."""
        self._uncovered.difference_update(edges)
        if self._mirror is not None:
            self._mirror.cover(edges, edge_ids)

    def _add_push(self, edge: Edge) -> None:
        self.schedule.add_push(edge)
        if self._mirror is not None:
            self._mirror.add_push(edge)

    def _add_pull(self, edge: Edge) -> None:
        self.schedule.add_pull(edge)
        if self._mirror is not None:
            self._mirror.add_pull(edge)

    def _apply_hub(self, result: DensestResult) -> None:
        hub = result.hub
        newly = result.covered & self._uncovered
        if not newly:  # stale despite version match; defensive
            self._refresh_hub(hub)
            return
        for x in result.x_selected:
            self._add_push((x, hub))
        for y in result.y_selected:
            self._add_pull((hub, y))
        for edge in result.covered:
            u, v = edge
            if u != hub and v != hub:  # cross-edge: piggybacked through hub
                self.schedule.cover_via_hub(edge, hub)
        self._cover(result.covered, result.covered_ids)
        self.stats.hub_selections += 1
        self.stats.edges_covered_by_hubs += len(newly)
        if self._record_log:
            self.stats.selection_log.append(
                ("hub", result.cost_per_element, len(newly))
            )
        # the selection's own hub-graph lost vertex weights (its legs were
        # just paid) — the only hub whose champion can get cheaper
        self._invalidate(result.covered, weight_drops=(hub,))

    def _apply_singleton(self, edge: Edge) -> None:
        u, v = edge
        if self.workload.rp(u) <= self.workload.rc(v):
            self._add_push(edge)
            drops = (v,)  # edge is the push leg x -> w of G(v)
        else:
            self._add_pull(edge)
            drops = (u,)  # edge is the pull leg w -> y of G(u)
        self._cover((edge,), None)
        self.stats.singleton_selections += 1
        if self._record_log:
            self.stats.selection_log.append(
                ("singleton", hybrid_edge_cost(edge, self.workload), 1)
            )
        self._invalidate([edge], weight_drops=drops)

    def _invalidate(self, covered_edges, weight_drops: tuple[Node, ...]) -> None:
        """Algorithm 1 line 14, split by how a hub's champion can move.

        Covering elements only *raises* a hub's optimum, so in lazy mode a
        hub whose champion the event missed keeps it (still a factor-2
        answer), and a hub whose champion lost an element falls back to
        its certified optimum bound — a valid lower bound — and is merely
        marked dirty.  Paying a leg *lowers* the owning hub-graph's
        vertex weight, which can cheapen its champion below the stale key,
        so ``weight_drops`` (the selection's own hub, or the singleton's
        push/pull counterpart) is refreshed eagerly.  Eager mode refreshes
        every affected hub, exactly as published.
        """
        affected = affected_hubs(self._adjacency, covered_edges)
        affected &= self._eligible
        if self._lazy:
            self._eager_equivalent += len(affected)
            versions = self._state_version
            for hub in affected:
                versions[hub] = versions.get(hub, 0) + 1
            for hub in weight_drops:
                versions[hub] = versions.get(hub, 0) + 1
            for hub in affected & self._queued:
                if hub in self._dirty:
                    continue  # key already a valid optimum lower bound
                if hub in weight_drops:
                    continue  # the eager refresh below replaces its entry
                champion = self._champion.get(hub)
                if champion is not None and champion.covered.isdisjoint(
                    covered_edges
                ):
                    # the event removed nothing this champion covers and
                    # paid none of its hub's legs, so it is still feasible
                    # at the same cost c; the hub's optimum only rose, so
                    # c <= 2 * OPT_old <= 2 * OPT_new (an exact champion
                    # stays optimal) — keep the entry clean, it needs no
                    # re-evaluation until an event takes one of its elements
                    self.stats.champions_retained += 1
                    continue
                # the champion lost an element, so its key no longer prices
                # a candidate that exists — downgrade it to the certified
                # optimum bound recorded at the last oracle call (for an
                # exact champion that is the optimum itself less a float
                # margin, so the downgrade is nearly free)
                version = self._hub_version.get(hub, 0) + 1
                self._hub_version[hub] = version
                self._dirty.add(hub)
                heapq.heappush(
                    self._hub_heap,
                    (self._opt_lb[hub], self._rank[hub], hub, version, None),
                )
            # weight-drop refreshes happen at the current state, so their
            # probes certify fresh bounds — bounding them by the best
            # singleton parks hubs whose residual champion can't compete
            singleton = self._best_singleton()
            bar = singleton[0] if singleton is not None else None
            for hub in weight_drops:
                if hub in self._eligible:
                    self._refresh_hub(hub, upper_bound=bar)
        else:
            for hub in affected:
                self._refresh_hub(hub)


def chitchat_schedule(
    graph: GraphView,
    workload: Workload,
    max_cross_edges: int | None = None,
    backend: str = "auto",
    lazy: bool = True,
    oracle: str = "peel",
    epsilon: float = 0.0,
    batch_k: int = 0,
    method: str = "auto",
) -> RequestSchedule:
    """Run CHITCHAT on a DISSEMINATION instance and return the schedule."""
    return ChitchatScheduler(
        graph,
        workload,
        max_cross_edges,
        backend=backend,
        lazy=lazy,
        oracle=oracle,
        epsilon=epsilon,
        batch_k=batch_k,
        method=method,
    ).run()


def chitchat_with_stats(
    graph: GraphView,
    workload: Workload,
    max_cross_edges: int | None = None,
    backend: str = "auto",
    lazy: bool = True,
    oracle: str = "peel",
    epsilon: float = 0.0,
    batch_k: int = 0,
    method: str = "auto",
) -> tuple[RequestSchedule, ChitchatStats]:
    """Like :func:`chitchat_schedule` but also returns run diagnostics."""
    scheduler = ChitchatScheduler(
        graph,
        workload,
        max_cross_edges,
        record_log=True,
        backend=backend,
        lazy=lazy,
        oracle=oracle,
        epsilon=epsilon,
        batch_k=batch_k,
        method=method,
    )
    schedule = scheduler.run()
    return schedule, scheduler.stats


def greedy_upper_bound(graph: GraphView, workload: Workload) -> float:
    """Cost of the hybrid schedule — CHITCHAT can never do worse.

    CHITCHAT's candidate pool contains every hybrid singleton, so its greedy
    solution is upper-bounded by the hybrid cost; tests assert this bound.
    """
    return schedule_cost(hybrid_schedule(graph, workload), workload)
