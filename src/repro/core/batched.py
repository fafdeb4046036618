"""BATCHEDCHITCHAT — a scalable variant of CHITCHAT (paper future work).

Section 4.4 of the paper closes with: the gap between CHITCHAT and
PARALLELNOSY "suggest[s] interesting future work on the design of
techniques to scale the CHITCHAT algorithm to very large datasets".  This
module implements the natural such technique, combining the two published
algorithms:

* like CHITCHAT, candidates come from the weighted densest-subgraph oracle
  over *full* hub-graphs (not just single-consumer ones), keeping the
  richer candidate space responsible for CHITCHAT's quality;
* like PARALLELNOSY, many candidates are applied per round instead of one:
  each round computes every hub's champion independently (embarrassingly
  parallel, like phase 1), sorts them by cost-per-newly-covered-element,
  and greedily accepts champions that do not *conflict* with an already
  accepted one (no shared uncovered element and no shared leg whose weight
  the earlier acceptance changed) — the sequential-scan analogue of edge
  locking.

The oracle work per round is one pass over the hubs, versus CHITCHAT's
re-oracling of every touched hub after every single selection; rounds
shrink geometrically, so the number of oracle calls drops from
``O(selections × avg-touched-hubs)`` to ``O(rounds × hubs)``.  The greedy
guarantee degrades (accepted champions other than the round's first may be
stale), which is exactly the quality/scalability trade the ablation bench
quantifies.

The per-round refresh shares CHITCHAT's lazy-oracle machinery (``lazy=True``,
the default): dirty hubs are probed in ascending order of their cached
bounds with the round's acceptance threshold as the oracle ``upper_bound``,
so hubs that provably cannot be accepted this round abandon after an O(m)
probe (:class:`~repro.core.densest.OracleCutoff`) and their certified
bounds are cached until a later round's threshold (or a dirtying event)
makes them competitive again.  Lazy and eager rounds accept identical
champion sets (property-tested).
"""

from __future__ import annotations

import math

from repro.core.baselines import hybrid_schedule
from repro.core.cost import hybrid_edge_cost, schedule_cost
from repro.core.densest import (
    DensestResult,
    OracleCutoff,
    ScheduleMirror,
    densest_subgraph,
)
from repro.core.hubgraph import HubGraph, build_hub_graph
from repro.core.schedule import RequestSchedule
from repro.core.tolerances import BATCH_K, COST_EPS, EPS_ACCEPT_SLACK
from repro.errors import ReproError
from repro.flow.exact_oracle import (
    ExactOracle,
    MultiHubSession,
    use_exact,
    validate_oracle_mode,
)
from repro.graph.csr import CSRGraph
from repro.graph.digraph import Edge, Node
from repro.graph.view import (
    GraphView,
    NeighborSetCache,
    affected_hubs,
    as_graph_view,
    edge_list,
    node_ranks,
)
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.workload.rates import Workload


class BatchedStats(StatsView):
    """Run diagnostics: rounds, oracle calls, acceptance behavior.

    ``oracle_calls`` counts full densest-subgraph evaluations (peels and
    exact max-flow solves; ``exact_oracle_calls`` is the flow subset);
    ``oracle_early_exits`` counts bounded probes abandoned via the
    oracle's pre-evaluation lower bound; ``oracle_calls_saved`` is how
    many full evaluations the eager per-round refresh would have run that
    the lazy bounds avoided (0 in eager mode); ``champions_retained``
    counts hubs kept clean across a round because no acceptance touched
    their exact champion's covered set; ``epsilon_deferred`` counts dirty
    re-evaluations the ``(1 + ε)`` relaxation deferred to a later round
    because the hub's certified bound proved it at best marginal under
    the round's acceptance bar (0 whenever ``epsilon=0``; unlike
    ``ChitchatStats.epsilon_accepts``, which counts accepted clean
    candidates, this counter measures skipped work — the names differ
    because the events differ).

    ``warm_solves`` / ``preflow_repairs`` / ``flow_passes`` mirror the
    :class:`~repro.flow.exact_oracle.ExactOracle` warm-session counters
    exactly as on :class:`~repro.core.chitchat.ChitchatStats` (0 under
    ``oracle="peel"``), and ``kernel_invocations`` / ``batched_solves``
    / ``batched_blocks`` mirror the oracle's
    :class:`~repro.flow.batched_solve.FlowStats` profile of the batched
    block-diagonal flow tier (``batch_k=``).

    Since ISSUE 8 this is a :class:`~repro.obs.metrics.StatsView`: the
    round counters live at the view's node, the warm-session counters
    under its ``oracle`` child, and the flow counters under
    ``oracle/flow`` (shared with the session's ``FlowStats`` cells when
    the run's registry is wired through).  Field names, defaults, and
    arithmetic are unchanged.
    """

    _FIELDS = {
        "rounds": (("rounds",), "counter"),
        "oracle_calls": (("oracle_calls",), "counter"),
        "exact_oracle_calls": (("exact_oracle_calls",), "counter"),
        "oracle_early_exits": (("oracle_early_exits",), "counter"),
        "oracle_calls_saved": (("oracle_calls_saved",), "counter"),
        "champions_retained": (("champions_retained",), "counter"),
        "epsilon_deferred": (("epsilon_deferred",), "counter"),
        "warm_solves": (("oracle", "warm_solves"), "counter"),
        "preflow_repairs": (("oracle", "preflow_repairs"), "counter"),
        "flow_passes": (("oracle", "flow_passes"), "counter"),
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
        "champions_accepted": (("champions_accepted",), "counter"),
        "champions_rejected": (("champions_rejected",), "counter"),
        "singleton_fallbacks": (("singleton_fallbacks",), "counter"),
    }
    _LIST_FIELDS = ("round_coverage",)


class BatchedChitchat:
    """Round-based bulk-greedy CHITCHAT.

    Parameters
    ----------
    graph, workload:
        The DISSEMINATION instance; ``graph`` may be either adjacency
        backend (``backend="auto"`` freezes large dense-id graphs to CSR).
    max_cross_edges:
        Per-hub cross-edge bound forwarded to hub-graph construction.
    acceptance_slack:
        A champion is accepted only if its cost-per-element is within this
        multiplicative factor of the round's best champion (1.0 accepts
        only ties with the best; larger values accept more per round and
        converge in fewer rounds at some quality risk).  Default 2.0.
    lazy:
        When True (default) dirty hubs are re-oracled with the round's
        acceptance threshold as an early-exit bound and certified bounds
        are cached across rounds; ``False`` restores the fully eager
        per-round refresh.  Both modes accept identical champions.
    oracle:
        Densest-subgraph oracle selection, as in
        :class:`~repro.core.chitchat.ChitchatScheduler`: ``"peel"``
        (default), ``"exact"`` (parametric max-flow, true optima), or
        ``"auto"`` (exact up to
        :data:`~repro.flow.exact_oracle.EXACT_AUTO_MAX_ELEMENTS`
        elements per hub-graph).  Exact champions additionally survive
        rounds whose acceptances miss their covered set without being
        re-oracled (lazy mode).
    epsilon:
        ``(1 + ε)`` relaxation of the lazy round refresh: a dirty hub
        whose certified optimum bound ``b`` satisfies
        ``b · (1 + ε) ≥ bar`` (the round's running acceptance bar) is
        deferred to a later round without an oracle call — even if its
        true champion squeaked under the bar, it was within ``(1 + ε)``
        of rejection.  Bounds stay valid across coverage events (the
        optimum is monotone under covering) and are dropped when a
        hub's legs are paid.  ``0.0`` (default) disables the relaxation
        and leaves the accepted champion sets untouched.
    warm:
        Cross-call warm starts of the exact oracle's per-hub flow
        problems, exactly as on
        :class:`~repro.core.chitchat.ChitchatScheduler`: ``True`` (the
        default) repairs each hub's previous preflow across rounds,
        ``False`` restores per-call cold solves.  Accepted champion sets
        are identical either way (property-tested); irrelevant under
        ``oracle="peel"``.
    batch_k:
        Width of the batched block-diagonal flow tier: each round's
        dirty exact-eligible hubs are solved in arena passes of up to
        this many blocks (one
        :class:`~repro.flow.batched_solve.BatchedNetwork` solve instead
        of per-hub kernel invocations).  Batched hubs are fully
        evaluated instead of bound-probed; a hub the probe would have
        cut off carries a true cost above the round's acceptance
        threshold, so the accepted champion sets are unchanged (only
        probe/eval counters differ).  ``None`` (default) uses
        :data:`~repro.core.tolerances.BATCH_K`; ``0`` or ``1`` disables
        batching; irrelevant under ``oracle="peel"``.
    method:
        Flow kernel of the exact oracle's networks and arenas, exactly
        as on :class:`~repro.core.chitchat.ChitchatScheduler`
        (``"auto"``/``"wave"``/``"loop"``/``"jit"``; a pure perf knob,
        irrelevant under ``oracle="peel"``).
    """

    def __init__(
        self,
        graph: GraphView,
        workload: Workload,
        max_cross_edges: int | None = None,
        acceptance_slack: float = 2.0,
        backend: str = "auto",
        lazy: bool = True,
        oracle: str = "peel",
        epsilon: float = 0.0,
        warm: bool = True,
        batch_k: int | None = None,
        method: str = "auto",
    ) -> None:
        if acceptance_slack < 1.0:
            raise ValueError("acceptance_slack must be >= 1.0")
        if epsilon < 0.0:
            raise ReproError(f"epsilon must be >= 0, got {epsilon!r}")
        if batch_k is not None and batch_k < 0:
            raise ReproError(f"batch_k must be >= 0, got {batch_k!r}")
        self.graph = as_graph_view(graph, backend)
        self.workload = workload
        self.max_cross_edges = max_cross_edges
        self.acceptance_slack = acceptance_slack
        self.schedule = RequestSchedule()
        #: Per-run metrics registry; ``stats`` and the oracle session's
        #: ``flow_stats`` are views over its ``scheduler`` subtree.
        self.metrics = MetricsRegistry()
        self.stats = BatchedStats(node=self.metrics.node("scheduler"))
        self._lazy = lazy
        self._epsilon = float(epsilon)
        self._oracle_mode = validate_oracle_mode(oracle)
        self._exact = (
            ExactOracle(
                warm=warm,
                method=method,
                metrics=self.metrics.node("scheduler", "oracle"),
            )
            if oracle != "peel"
            else None
        )
        self._batch_k = BATCH_K if batch_k is None else int(batch_k)
        self._multi = (
            MultiHubSession(self._exact)
            if self._exact is not None and self._batch_k >= 2
            else None
        )
        edges = edge_list(self.graph)
        self._uncovered: set[Edge] = set(edges)
        # dense edge-id mirrors of the scheduler state (CSR mode)
        self._mirror: ScheduleMirror | None = (
            ScheduleMirror(self.graph, workload, edges)
            if isinstance(self.graph, CSRGraph)
            else None
        )
        self._adjacency = NeighborSetCache(self.graph)
        self._rank = node_ranks(self.graph)
        self._hub_cache: dict[Node, HubGraph] = {}
        self._champion_cache: dict[Node, DensestResult | None] = {}
        # clean hubs whose last probe was an OracleCutoff: certified lower
        # bounds on their champion cost, valid until the hub is dirtied
        self._bound_cache: dict[Node, float] = {}
        # every hub's last certified lower bound on its *true optimum*
        # cost per element — valid across coverage events (the optimum is
        # monotone under covering), dropped when the hub's legs are paid;
        # backs the (1 + ε) skip of dirty re-evaluations
        self._opt_bound: dict[Node, float] = {}
        self._dirty: set[Node] = set(self.graph.nodes())
        # exact champions kept clean by the retention check since the
        # last round's refresh (merged into the eager accounting there)
        self._retained: set[Node] = set()
        # full peels the eager per-round refresh would have issued
        self._eager_equivalent = 0

    # ------------------------------------------------------------------
    def _champions(self) -> list[DensestResult]:
        """Champions of every eligible hub; only *dirty* hubs re-oracle.

        A hub is dirty when a previous acceptance covered one of its
        elements or paid for one of its legs; clean hubs keep their cached
        champion.  This is the same invalidation rule CHITCHAT applies
        after each single selection (Algorithm 1 line 14), amortized over
        a whole round.

        Lazy mode adds two cuts that provably change no acceptance: each
        oracle call is bounded by ``slack × best-champion-so-far`` (the
        running value only overestimates the round's final threshold, so a
        cutoff hub would have been rejected anyway), and clean hubs with a
        cached bound above the bar are skipped without any call.

        With ``epsilon > 0`` a third cut may change marginal acceptances:
        a *dirty* hub whose cached certified optimum bound ``b`` (valid
        across coverage events) satisfies ``b·(1+ε) ≥ bar`` is deferred
        to a later round without any call — its champion was at best
        within ``(1+ε)`` of the acceptance bar.  The hub stays dirty, so
        it is re-examined once the bar rises past its bound.
        """
        dirty_set = set(self._dirty)
        jobs: list[tuple[float, int, Node]] = []
        for hub in dirty_set:
            if self.graph.in_degree(hub) == 0 or self.graph.out_degree(hub) == 0:
                self._champion_cache[hub] = None
                self._bound_cache.pop(hub, None)
                self._opt_bound.pop(hub, None)
                continue
            jobs.append((0.0, self._rank[hub], hub))
        self._eager_equivalent += len(jobs)
        # hubs whose exact champion survived the previous round untouched:
        # eager would have re-oracled them, the retention check did not
        kept = self._retained - dirty_set
        self._eager_equivalent += len(kept)
        self.stats.champions_retained += len(kept)
        self._retained.clear()
        if self._lazy:
            jobs += [
                (bound, self._rank[hub], hub)
                for hub, bound in self._bound_cache.items()
                if hub not in dirty_set
            ]
        jobs.sort(key=lambda job: job[:2])
        self._dirty.clear()
        # incumbent: cheapest *clean* cached champion (true values only —
        # a dirty hub's stale cost may overestimate after a leg payment)
        best = min(
            (
                r.cost_per_element
                for hub, r in self._champion_cache.items()
                if r is not None and hub not in dirty_set
            ),
            default=math.inf,
        )
        # Batched flow tier: this round's dirty exact-eligible hubs are
        # solved in block-diagonal arena passes of up to ``batch_k``
        # blocks.  Each chunk carries the live acceptance bar as its
        # probe bound — hubs whose O(m) pre-peel relaxation proves them
        # above the bar are parked as certified bounds (exactly the
        # sequential loop's cutoff path) instead of paying a full
        # Dinkelbach solve.  A cut-off hub's true cost exceeds the bar,
        # which only tightens as ``best`` drops, so it would have been
        # rejected in the acceptance scan anyway — accepted champion
        # sets are unchanged, only which tier did the work differs.
        handled: set[Node] = set()
        if self._multi is not None:
            bar0: float | None = None
            if self._lazy and math.isfinite(best):
                bar0 = best * self.acceptance_slack + COST_EPS
            batch_jobs: list[tuple[Node, HubGraph]] = []
            for _bound, _job_rank, hub in jobs:
                if hub not in dirty_set:
                    continue  # clean bound hubs keep the cheap skip path
                if self._epsilon > 0.0 and bar0 is not None:
                    bound = self._opt_bound.get(hub)
                    if (
                        bound is not None
                        and bound * (1.0 + self._epsilon) + EPS_ACCEPT_SLACK
                        >= bar0
                    ):
                        # defers under the initial bar, hence under the
                        # (only smaller) live bar too — leave it to the
                        # sequential loop's deferral accounting
                        continue
                hub_graph = self._hub_cache.get(hub)
                if hub_graph is None:
                    hub_graph = build_hub_graph(
                        self.graph, hub, self.max_cross_edges
                    )
                    self._hub_cache[hub] = hub_graph
                if use_exact(self._oracle_mode, hub_graph):
                    batch_jobs.append((hub, hub_graph))
            if len(batch_jobs) >= 2:
                mirror = self._mirror
                for start in range(0, len(batch_jobs), self._batch_k):
                    chunk = batch_jobs[start : start + self._batch_k]
                    bar: float | None = None
                    if self._lazy and math.isfinite(best):
                        bar = best * self.acceptance_slack + COST_EPS
                    results = self._multi(
                        [hg for _hub, hg in chunk],
                        self.workload,
                        self.schedule,
                        self._uncovered,
                        uncovered_mask=mirror.uncovered_mask if mirror else None,
                        arrays=mirror.arrays if mirror else None,
                        upper_bounds=[bar] * len(chunk),
                    )
                    for (hub, _hg), result in zip(chunk, results):
                        handled.add(hub)
                        if isinstance(result, OracleCutoff):
                            self.stats.oracle_early_exits += 1
                            self._bound_cache[hub] = result.lower_bound
                            self._opt_bound[hub] = result.lower_bound
                            self._champion_cache.pop(hub, None)
                            continue
                        self.stats.oracle_calls += 1
                        self.stats.exact_oracle_calls += 1
                        self._bound_cache.pop(hub, None)
                        if result is not None and result.covered:
                            self._champion_cache[hub] = result
                            self._opt_bound[hub] = result.opt_lower_bound
                            if result.cost_per_element < best:
                                best = result.cost_per_element
                        else:
                            self._champion_cache[hub] = None
                            self._opt_bound.pop(hub, None)
        for cached_bound, _rank, hub in jobs:
            if hub in handled:
                continue
            bar: float | None = None
            if self._lazy and math.isfinite(best):
                bar = best * self.acceptance_slack + COST_EPS
            if hub not in dirty_set:
                # clean hub with a certified bound: skip it while the bar
                # sits below the bound; once past, peel directly — its
                # state is unchanged, so a re-probe would reproduce the
                # cached bound (deterministic) and can never cut off
                if bar is not None and cached_bound > bar:
                    continue
                bar = None
            elif self._epsilon > 0.0 and bar is not None:
                # (1 + ε) relaxation: a dirty hub whose certified optimum
                # bound proves it at best marginal under the bar is
                # deferred — stays dirty, re-examined when the bar rises
                bound = self._opt_bound.get(hub)
                if (
                    bound is not None
                    and bound * (1.0 + self._epsilon) + EPS_ACCEPT_SLACK
                    >= bar
                ):
                    self.stats.epsilon_deferred += 1
                    self._champion_cache.pop(hub, None)
                    self._dirty.add(hub)
                    continue
            hub_graph = self._hub_cache.get(hub)
            if hub_graph is None:
                hub_graph = build_hub_graph(self.graph, hub, self.max_cross_edges)
                self._hub_cache[hub] = hub_graph
            oracle = densest_subgraph
            exact = self._exact is not None and use_exact(
                self._oracle_mode, hub_graph
            )
            if exact:
                oracle = self._exact
            mirror = self._mirror
            result = oracle(
                hub_graph,
                self.workload,
                self.schedule,
                self._uncovered,
                uncovered_mask=mirror.uncovered_mask if mirror else None,
                arrays=mirror.arrays if mirror else None,
                upper_bound=bar,
            )
            if isinstance(result, OracleCutoff):
                self.stats.oracle_early_exits += 1
                self._bound_cache[hub] = result.lower_bound
                self._opt_bound[hub] = result.lower_bound
                self._champion_cache.pop(hub, None)
                continue
            self.stats.oracle_calls += 1
            if exact:
                self.stats.exact_oracle_calls += 1
            self._bound_cache.pop(hub, None)
            if result is not None and result.covered:
                self._champion_cache[hub] = result
                self._opt_bound[hub] = result.opt_lower_bound
                if result.cost_per_element < best:
                    best = result.cost_per_element
            else:
                self._champion_cache[hub] = None
                self._opt_bound.pop(hub, None)
        self.stats.oracle_calls_saved = (
            self._eager_equivalent - self.stats.oracle_calls
        )
        champions = [r for r in self._champion_cache.values() if r is not None]
        champions.sort(key=lambda r: (r.cost_per_element, self._rank[r.hub]))
        return champions

    def _mark_affected(self, covered_edges) -> None:
        """Dirty every hub whose hub-graph contains a covered element.

        Exception (lazy + exact oracle): a hub whose cached champion is a
        true optimum *and* shares no element with ``covered_edges`` keeps
        it clean — the optimum is monotone under coverage and the maximal
        optimal subgraph never contained the covered elements, so a
        re-evaluation would reproduce the cached champion exactly.  Leg
        payments need no carve-out: an acceptance pays only its own hub's
        legs, and that hub's champion always intersects its own covered
        set.

        :class:`~repro.core.chitchat.ChitchatScheduler` applies the same
        rule to peel champions too (Lemma 1 keeps them factor-2 answers);
        that is deliberately *not* ported here — no perf-ledger workload
        runs this scheduler, ROADMAP slates it for removal in favour of
        ``ChitchatScheduler(batch_k=)``, and its lazy == eager identity
        under the peel is still asserted by ``tests/test_lazy_chitchat.py``.
        """
        affected = affected_hubs(self._adjacency, covered_edges)
        if self._lazy and self._exact is not None:
            retained = {
                hub
                for hub in affected
                if (champ := self._champion_cache.get(hub)) is not None
                and champ.exact
                and champ.covered.isdisjoint(covered_edges)
            }
            affected -= retained
            self._retained |= retained
        self._dirty |= affected

    def _add_push(self, edge: Edge) -> None:
        self.schedule.add_push(edge)
        if self._mirror is not None:
            self._mirror.add_push(edge)

    def _add_pull(self, edge: Edge) -> None:
        self.schedule.add_pull(edge)
        if self._mirror is not None:
            self._mirror.add_pull(edge)

    def _apply(self, result: DensestResult) -> int:
        """Apply an accepted champion; returns newly covered edge count."""
        hub = result.hub
        newly = result.covered & self._uncovered
        for x in result.x_selected:
            self._add_push((x, hub))
        for y in result.y_selected:
            self._add_pull((hub, y))
        for edge in result.covered:
            u, v = edge
            if u != hub and v != hub:
                self.schedule.cover_via_hub(edge, hub)
        self._uncovered -= result.covered
        if self._mirror is not None:
            self._mirror.cover(result.covered, result.covered_ids)
        return len(newly)

    def _beats_singletons(self, result: DensestResult) -> bool:
        """Acceptance rule preserving the ≤-hybrid cost invariant.

        Accept a champion only if its cost per element does not exceed the
        cheapest direct-service price of *any* edge it covers: then every
        covered element is charged at most its hybrid cost ``c*``, so the
        final schedule never exceeds the hybrid baseline (the same charging
        argument that bounds sequential greedy SET-COVER).
        """
        cheapest = min(
            hybrid_edge_cost(edge, self.workload) for edge in result.covered
        )
        return result.cost_per_element <= cheapest + COST_EPS

    def _sync_session_stats(self) -> None:
        """Mirror the exact-oracle session counters into ``self.stats``.

        Called after every round (not just at the end of :meth:`run`) so
        callers driving :meth:`run_round` directly see counters as
        current as the inline ones (``oracle_calls`` etc.).
        """
        if self._exact is not None:
            self.stats.warm_solves = self._exact.warm_solves
            self.stats.preflow_repairs = self._exact.preflow_repairs
            self.stats.flow_passes = self._exact.flow_passes
            flow_stats = self._exact.flow_stats
            self.stats.kernel_invocations = flow_stats.kernel_invocations
            self.stats.batched_solves = flow_stats.batched_solves
            self.stats.batched_blocks = flow_stats.batched_blocks

    @trace.traced("scheduler.round")
    def run_round(self) -> int:
        """One bulk round; returns the number of edges covered."""
        champions = self._champions()
        self._sync_session_stats()
        if not champions:
            return 0
        covered_this_round = 0
        touched_legs: set[Edge] = set()
        applied: list[DensestResult] = []
        best_cpe = champions[0].cost_per_element
        threshold = best_cpe * self.acceptance_slack + COST_EPS
        for result in champions:
            if result.cost_per_element > threshold or not self._beats_singletons(
                result
            ):
                self.stats.champions_rejected += 1
                continue
            hub = result.hub
            legs = {(x, hub) for x in result.x_selected}
            legs |= {(hub, y) for y in result.y_selected}
            newly = result.covered & self._uncovered
            # Conflict: a previously accepted champion consumed one of our
            # elements or scheduled one of our legs (stale weights/counts).
            if len(newly) != len(result.covered) or (legs & touched_legs):
                self.stats.champions_rejected += 1
                self._dirty.add(hub)  # recompute a fresh champion next round
                continue
            covered_this_round += self._apply(result)
            touched_legs |= legs
            applied.append(result)
            # the acceptance pays the hub's own legs, which can lower its
            # true optimum below any previously certified bound
            self._opt_bound.pop(hub, None)
            self.stats.champions_accepted += 1
        for result in applied:
            self._mark_affected(result.covered)
        self.stats.rounds += 1
        self.stats.round_coverage.append(covered_this_round)
        return covered_this_round

    def run(self, max_rounds: int = 50) -> RequestSchedule:
        """Run rounds to exhaustion, then finish remaining edges hybrid.

        Remaining singletons are served with the hybrid rule, mirroring
        CHITCHAT's singleton candidates: once no hub champion beats the
        per-edge cost ``c*``, direct service is the greedy-optimal move
        for every leftover edge anyway.
        """
        with trace.span("scheduler.run") as span:
            for _ in range(max_rounds):
                if self.run_round() == 0:
                    break
            span.set(rounds=self.stats.rounds)
        rank = self._rank
        for edge in sorted(self._uncovered, key=lambda e: (rank[e[0]], rank[e[1]])):
            u, v = edge
            if self.workload.rp(u) <= self.workload.rc(v):
                self._add_push(edge)
            else:
                self._add_pull(edge)
            self.stats.singleton_fallbacks += 1
        self._uncovered.clear()
        if self._mirror is not None:
            self._mirror.cover_all()
        self._sync_session_stats()
        return self.schedule


def batched_chitchat_schedule(
    graph: GraphView,
    workload: Workload,
    max_cross_edges: int | None = None,
    acceptance_slack: float = 2.0,
    max_rounds: int = 50,
    backend: str = "auto",
    lazy: bool = True,
    oracle: str = "peel",
    epsilon: float = 0.0,
    warm: bool = True,
    batch_k: int | None = None,
    method: str = "auto",
) -> RequestSchedule:
    """One-shot BATCHEDCHITCHAT run returning a feasible schedule."""
    runner = BatchedChitchat(
        graph,
        workload,
        max_cross_edges,
        acceptance_slack,
        backend=backend,
        lazy=lazy,
        oracle=oracle,
        epsilon=epsilon,
        warm=warm,
        batch_k=batch_k,
        method=method,
    )
    return runner.run(max_rounds)


def batched_chitchat_with_stats(
    graph: GraphView,
    workload: Workload,
    max_cross_edges: int | None = None,
    acceptance_slack: float = 2.0,
    max_rounds: int = 50,
    backend: str = "auto",
    lazy: bool = True,
    oracle: str = "peel",
    epsilon: float = 0.0,
    warm: bool = True,
    batch_k: int | None = None,
    method: str = "auto",
) -> tuple[RequestSchedule, BatchedStats]:
    """Like :func:`batched_chitchat_schedule`, returning diagnostics too."""
    runner = BatchedChitchat(
        graph,
        workload,
        max_cross_edges,
        acceptance_slack,
        backend=backend,
        lazy=lazy,
        oracle=oracle,
        epsilon=epsilon,
        warm=warm,
        batch_k=batch_k,
        method=method,
    )
    schedule = runner.run(max_rounds)
    return schedule, runner.stats


def quality_gap_vs_hybrid(
    graph: GraphView, workload: Workload, schedule: RequestSchedule
) -> float:
    """Improvement ratio over the hybrid baseline (reporting helper)."""
    base = schedule_cost(hybrid_schedule(graph, workload), workload)
    return base / schedule_cost(schedule, workload)


def champion_is_profitable(result: DensestResult, workload: Workload) -> bool:
    """Whether a champion beats serving its covered edges individually.

    True when its cost-per-element is below the mean hybrid cost of the
    edges it covers — a cheap sanity filter exposed for experimentation.
    """
    if not result.covered:
        return False
    mean_hybrid = sum(
        hybrid_edge_cost(edge, workload) for edge in result.covered
    ) / len(result.covered)
    return result.cost_per_element <= mean_hybrid
