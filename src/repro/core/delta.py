"""Delta scheduling under churn: localized repair of a CHITCHAT run.

:class:`~repro.core.incremental.IncrementalMaintainer` implements the
paper's production rule (section 3.3) exactly: new and broken edges are
served directly and never re-piggybacked, so schedule quality decays
until a full re-run.  :class:`DeltaScheduler` closes that gap.  It wraps
a completed :class:`~repro.core.chitchat.ChitchatScheduler` run and, on
every edge insert/delete or rate-change event, repairs *only the dirtied
region* of the schedule — re-running the greedy SET-COVER step over just
the re-opened elements instead of the whole edge set.

Event application (constant amortized bookkeeping per event)
------------------------------------------------------------
Events first apply the incremental maintainer's feasibility-preserving
rules — a new edge is served directly by the hybrid rule, a removed leg
downgrades the covers relayed over it — while accumulating a *residue*:
the set of edges whose current direct service might be improvable
(fresh direct serves, downgraded covers, legs freed when their last
cover disappeared, and direct edges incident to a re-priced user).
Duplicate adds, removals of absent edges, and value-identical rate
events are counted no-ops and touch nothing, so a no-op stream leaves
the schedule byte-identical.

Localized repair (the greedy over the dirtied region)
-----------------------------------------------------
:meth:`DeltaScheduler.repair` turns the residue into the *element set*
(residue edges that still exist, are direct-served, and are not load-
bearing legs of a live cover — a refcount per leg guards that), strips
their direct service, and re-runs the CHITCHAT greedy over exactly those
elements.  Candidate hubs are the elements' endpoints and wedge
intermediaries: a hub outside that set has **no re-opened element in its
hub-graph**, so its oracle champion over the element set is empty and
its existing assignments provably survive the event.  The same two-hop
join ``succ(u) ∩ pred(v)`` that discovers the candidates also records
which re-opened elements each candidate can serve, and every candidate's
hub-graph is built *restricted to those elements*
(``build_hub_graph(..., elements=...)``, which documents why the
champion — hence the maintained schedule — is byte-identical to the
maximal hub-graph's): per-event work is sized by what was re-opened,
not by the hubs' degrees, the E16 bench's headline.
(The lazy heap's end-of-run bound certificates are *not* reused here:
uncovering elements can lower a champion's cost below its certified
lower bound, which is exactly the direction the certificates do not
cover.)  Candidate champions come from the same pluggable oracle stack
as the full run — the factor-2 peel or the warm
:class:`~repro.flow.exact_oracle.ExactOracle` session.  A repair's flow
networks are compiled over its restricted hub-graphs, so they are small
and live for that repair's own monotone covering sequence (warm preflow
repair between its oracle calls); a hub whose next repair happens to
re-open the same incidence shape reuses the compiled network, cold-
restarted first (:meth:`ExactOracle.invalidate` — a new element set
re-opens coverage non-monotonically, breaking the warm diff's contract).

Invariants (asserted by ``tests/test_delta_schedule.py``)
---------------------------------------------------------
* **Feasibility** — after every ``apply`` and every ``repair`` the
  schedule serves every live edge (events direct-serve before repair
  re-optimizes; singletons are always available to the repair greedy).
* **Monotone repair** — a greedy step is taken only at cost per element
  at most the cheapest remaining singleton, so each repaired element is
  charged at most its own hybrid price: ``repair`` never costs more
  than leaving the residue served directly.
* **Bounded locality** — a work bound, not just a candidate bound: a
  repair over re-opened elements ``E`` evaluates only their endpoint and
  wedge hubs and materializes at most ``3 · Σ_{(u,v)∈E} (2 + |succ(u) ∩
  pred(v)|)`` hub-graph elements (``DeltaStats.elements_materialized``)
  — each element is a leg in two hub-graphs and a cross-edge, with its
  two endpoints, in one per wedge — independent of any hub's degree
  (unless ``max_cross_edges`` forces maximal builds).
* **Exact cost tracking** — :meth:`cost` is maintained incrementally
  (O(degree) per rate event, O(1) per service change) and equals the
  full rescan.
"""

from __future__ import annotations

import heapq
import math

from repro.core.densest import DensestResult, densest_subgraph
from repro.core.hubgraph import HubGraph, build_hub_graph
from repro.core.schedule import RequestSchedule
from repro.errors import ScheduleError, WorkloadError
from repro.flow.exact_oracle import ExactOracle, validate_oracle_mode
from repro.flow.maxflow import validate_flow_method
from repro.graph.digraph import Edge, Node, SocialGraph
from repro.graph.view import edge_list
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.workload.churn import ChurnEvent
from repro.workload.rates import Workload

__all__ = ["DeltaScheduler", "DeltaStats"]


class DeltaStats(StatsView):
    """Diagnostics of a delta-maintenance run.

    Event counters: ``events_applied`` (every ``apply`` call),
    ``edges_added``/``edges_removed``/``rate_changes`` (effective events
    by kind), ``noop_events`` (duplicate adds, removals of absent edges,
    value-identical rate events), ``covers_broken`` (piggybacked edges
    downgraded to direct service by a removed leg), ``legs_freed``
    (push/pull legs whose last dependent cover disappeared, re-opened
    for optimization).

    Repair counters: ``repairs`` (``repair`` calls), ``elements_reopened``
    (direct-served edges the repairs re-optimized), ``hub_refreshes`` —
    oracle champion evaluations during repair, the E16 bounded-re-work
    metric (compare a from-scratch run's ``oracle_calls``) — of which
    ``exact_refreshes`` went through the parametric max-flow oracle;
    ``elements_materialized`` — hub-graph elements (vertices plus
    cross-edges) built for those evaluations, the work the bounded-
    locality invariant bounds;
    ``sessions_invalidated`` — warm flow sessions cold-restarted because
    a repair re-opened coverage under their hubs; ``hub_selections`` /
    ``singleton_selections`` — greedy choices made by repairs.

    ``maintained_cost`` is the incrementally tracked schedule cost after
    the latest event/repair (equals the full rescan; property-tested).
    """

    _FIELDS = {
        "events_applied": (("events_applied",), "counter"),
        "edges_added": (("edges_added",), "counter"),
        "edges_removed": (("edges_removed",), "counter"),
        "rate_changes": (("rate_changes",), "counter"),
        "noop_events": (("noop_events",), "counter"),
        "covers_broken": (("covers_broken",), "counter"),
        "legs_freed": (("legs_freed",), "counter"),
        "repairs": (("repairs",), "counter"),
        "elements_reopened": (("elements_reopened",), "counter"),
        "hub_refreshes": (("hub_refreshes",), "counter"),
        "elements_materialized": (("elements_materialized",), "counter"),
        "exact_refreshes": (("exact_refreshes",), "counter"),
        "hub_selections": (("hub_selections",), "counter"),
        "singleton_selections": (("singleton_selections",), "counter"),
        "sessions_invalidated": (("sessions_invalidated",), "counter"),
        "maintained_cost": (("maintained_cost",), "gauge"),
    }


class DeltaScheduler:
    """Maintains a near-greedy schedule over a mutating instance.

    The scheduler owns the graph, rates, and schedule it is given (pass
    copies to keep the originals): mutate them only through
    :meth:`apply` / :meth:`repair` so the reverse indexes, leg
    refcounts, and the running cost stay consistent.

    Parameters
    ----------
    graph:
        Mutable :class:`~repro.graph.digraph.SocialGraph` (CSR runs
        convert via :meth:`from_scheduler`).
    workload:
        Rates at wrap time; the scheduler keeps its own mutable copy —
        rate events re-price it, and users first seen mid-stream enter
        at the initial minimum positive rates (the
        :class:`~repro.core.incremental.IncrementalMaintainer` floor
        rule).
    schedule:
        A feasible schedule for ``graph`` (validated unless
        ``validate=False``), typically a completed CHITCHAT run's.
    oracle, method, max_cross_edges:
        The repair greedy's oracle stack, with the same semantics (and
        the same up-front validation) as on
        :class:`~repro.core.chitchat.ChitchatScheduler`: ``"peel"``
        (default) or ``"exact"`` (warm parametric max-flow sessions).
        ``max_cross_edges`` (default ``None``) makes repairs build
        maximal, truncated hub-graphs as the full run does, at
        O(hub degree) per evaluation.
    """

    def __init__(
        self,
        graph: SocialGraph,
        workload: Workload,
        schedule: RequestSchedule,
        oracle: str = "peel",
        method: str = "auto",
        max_cross_edges: int | None = None,
        validate: bool = True,
    ) -> None:
        validate_oracle_mode(oracle)
        validate_flow_method(method)
        self.graph = graph
        self.schedule = schedule
        self.max_cross_edges = max_cross_edges
        if validate and not schedule.is_feasible(graph):
            raise ScheduleError(
                "DeltaScheduler requires a feasible schedule to wrap"
            )
        #: Live rate tables; ``self.workload`` is a view over them, so
        #: rate events mutate in place and every oracle call sees the
        #: current prices.  (Never call ``as_arrays`` on this workload —
        #: the dense cache would freeze the mutable rates.)
        self._production: dict[Node, float] = dict(workload.production)
        self._consumption: dict[Node, float] = dict(workload.consumption)
        self.workload = Workload(
            production=self._production, consumption=self._consumption
        )
        self._rp_floor = min(
            (r for r in self._production.values() if r > 0), default=1.0
        )
        self._rc_floor = min(
            (r for r in self._consumption.values() if r > 0), default=1.0
        )
        # reverse index of hub_cover plus a per-leg refcount: a direct
        # edge that doubles as a live cover's leg cannot be re-opened
        # (dropping its push/pull would break the cover for zero gain)
        self._by_hub: dict[Node, set[Edge]] = {}
        self._leg_need: dict[Edge, int] = {}
        for edge, hub in schedule.hub_cover.items():
            self._by_hub.setdefault(hub, set()).add(edge)
            self._bump_leg((edge[0], hub))
            self._bump_leg((hub, edge[1]))
        self._cost = sum(self._rp(u) for u, _v in schedule.push) + sum(
            self._rc(v) for _u, v in schedule.pull
        )
        #: Direct-served edges whose assignment an event may have left
        #: improvable; consumed (and re-screened) by :meth:`repair`.
        self._residue: set[Edge] = set()
        self.metrics = MetricsRegistry()
        self.stats = DeltaStats(node=self.metrics.node("delta"))
        self._exact = (
            ExactOracle(
                method=method,
                metrics=self.metrics.node("delta", "oracle"),
            )
            if oracle == "exact"
            else None
        )
        self.stats.maintained_cost = self._cost

    @classmethod
    def from_scheduler(cls, scheduler, **options) -> "DeltaScheduler":
        """Wrap a completed scheduler run (any graph backend).

        Copies the run's graph into a mutable :class:`SocialGraph` and
        deep-copies the schedule, so the wrapped run's own state stays
        untouched.  ``options`` forward to the constructor.
        """
        graph = SocialGraph(edge_list(scheduler.graph))
        return cls(
            graph,
            scheduler.workload,
            scheduler.schedule.copy(),
            **options,
        )

    # ------------------------------------------------------------------
    # Rate access and cost-tracked schedule mutation
    # ------------------------------------------------------------------
    def _rp(self, user: Node) -> float:
        rate = self._production.get(user)
        return self._rp_floor if rate is None else rate

    def _rc(self, user: Node) -> float:
        rate = self._consumption.get(user)
        return self._rc_floor if rate is None else rate

    def _ensure_user(self, user: Node) -> None:
        if user not in self._production:
            self._production[user] = self._rp_floor
            self._consumption[user] = self._rc_floor

    def _add_push(self, edge: Edge) -> None:
        if edge not in self.schedule.push:
            self.schedule.push.add(edge)
            self._cost += self._rp(edge[0])

    def _add_pull(self, edge: Edge) -> None:
        if edge not in self.schedule.pull:
            self.schedule.pull.add(edge)
            self._cost += self._rc(edge[1])

    def _remove_push(self, edge: Edge) -> None:
        if edge in self.schedule.push:
            self.schedule.push.discard(edge)
            self._cost -= self._rp(edge[0])

    def _remove_pull(self, edge: Edge) -> None:
        if edge in self.schedule.pull:
            self.schedule.pull.discard(edge)
            self._cost -= self._rc(edge[1])

    def _serve_directly(self, edge: Edge) -> None:
        if edge in self.schedule.push or edge in self.schedule.pull:
            return  # already served directly (e.g. as another cover's leg)
        u, v = edge
        if self._rp(u) <= self._rc(v):
            self._add_push(edge)
        else:
            self._add_pull(edge)

    # ------------------------------------------------------------------
    # Leg refcounts
    # ------------------------------------------------------------------
    def _bump_leg(self, leg: Edge) -> None:
        self._leg_need[leg] = self._leg_need.get(leg, 0) + 1

    def _drop_leg(self, leg: Edge) -> None:
        count = self._leg_need.get(leg, 0) - 1
        if count > 0:
            self._leg_need[leg] = count
            return
        self._leg_need.pop(leg, None)
        # the leg edge itself (if still a live social edge) stays served
        # by its push/pull but no cover depends on it anymore — it can be
        # re-opened for cheaper service through some other hub
        if self.graph.has_edge(*leg) and (
            leg in self.schedule.push or leg in self.schedule.pull
        ):
            self._residue.add(leg)
            self.stats.legs_freed += 1

    def _release_cover(self, edge: Edge, hub: Node) -> None:
        """Drop ``edge``'s cover through ``hub`` and unpin its legs."""
        self.schedule.hub_cover.pop(edge, None)
        covered = self._by_hub.get(hub)
        if covered is not None:
            covered.discard(edge)
        self._drop_leg((edge[0], hub))
        self._drop_leg((hub, edge[1]))

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: ChurnEvent) -> bool:
        """Apply one churn event; returns whether anything changed.

        Feasibility is restored immediately (direct service); quality
        recovery is deferred to :meth:`repair`.  No-op events (duplicate
        adds, removals of absent edges, value-identical rate events)
        change nothing at all — a stream of them leaves the schedule
        byte-identical.
        """
        with trace.span("delta.event") as span:
            span.set(kind=event.kind)
            if event.kind == "add":
                changed = self._apply_add(event.edge)
            elif event.kind == "remove":
                changed = self._apply_remove(event.edge)
            elif event.kind == "rate":
                changed = self._apply_rate(event.user, event.rp, event.rc)
            else:  # pragma: no cover - ChurnEvent validates kinds
                raise WorkloadError(f"unknown event kind {event.kind!r}")
            self.stats.events_applied += 1
            if not changed:
                self.stats.noop_events += 1
            else:
                self.stats.maintained_cost = self._cost
            span.set(changed=changed)
        return changed

    def apply_events(self, events, repair_every: int = 1) -> RequestSchedule:
        """Apply a stream, repairing every ``repair_every`` events.

        ``repair_every=0`` disables intermediate repairs; a final
        :meth:`repair` always runs, so the returned schedule is the
        fully maintained one.
        """
        if repair_every < 0:
            raise WorkloadError(
                f"repair_every must be >= 0, got {repair_every}"
            )
        for index, event in enumerate(events, start=1):
            self.apply(event)
            if repair_every and index % repair_every == 0:
                self.repair()
        self.repair()
        return self.schedule

    def _apply_add(self, edge: Edge) -> bool:
        u, v = edge
        if self.graph.has_edge(u, v):
            return False
        self._ensure_user(u)
        self._ensure_user(v)
        self.graph.add_edge(u, v)
        self.stats.edges_added += 1
        self._serve_directly(edge)
        self._residue.add(edge)
        return True

    def _apply_remove(self, edge: Edge) -> bool:
        u, v = edge
        if not self.graph.has_edge(u, v):
            return False
        self.graph.remove_edge(u, v)
        self.stats.edges_removed += 1
        self._residue.discard(edge)
        # the edge itself no longer needs service
        self._remove_push(edge)
        self._remove_pull(edge)
        if edge in self.schedule.hub_cover:
            self._release_cover(edge, self.schedule.hub_cover[edge])
        # covers relayed over this edge break: the edge was the push leg
        # (v acting as hub) or the pull leg (u acting as hub)
        broken: list[tuple[Edge, Node]] = []
        for covered in self._by_hub.get(v, ()):
            if covered[0] == u:
                broken.append((covered, v))
        for covered in self._by_hub.get(u, ()):
            if covered[1] == v:
                broken.append((covered, u))
        for covered, hub in broken:
            self._release_cover(covered, hub)
            self.stats.covers_broken += 1
            self._serve_directly(covered)
            self._residue.add(covered)
        return True

    def _apply_rate(self, user: Node, rp: float, rc: float) -> bool:
        self._ensure_user(user)
        old_rp = self._production[user]
        old_rc = self._consumption[user]
        if rp == old_rp and rc == old_rc:
            return False
        self.stats.rate_changes += 1
        # O(degree): re-price the user's scheduled legs and re-open its
        # direct-served incident edges (covers are free and stay put)
        push_out = 0
        pull_in = 0
        if user in self.graph:
            for succ in self.graph.successors_view(user):
                edge = (user, succ)
                in_push = edge in self.schedule.push
                if in_push:
                    push_out += 1
                if in_push or edge in self.schedule.pull:
                    self._residue.add(edge)
            for pred in self.graph.predecessors_view(user):
                edge = (pred, user)
                in_pull = edge in self.schedule.pull
                if in_pull:
                    pull_in += 1
                if in_pull or edge in self.schedule.push:
                    self._residue.add(edge)
        self._cost += (rp - old_rp) * push_out + (rc - old_rc) * pull_in
        self._production[user] = rp
        self._consumption[user] = rc
        return True

    # ------------------------------------------------------------------
    # Localized repair
    # ------------------------------------------------------------------
    def repair(self) -> int:
        """Re-optimize the residue; returns the number of elements re-opened.

        Strips the direct service of every re-openable residue edge and
        re-runs the greedy SET-COVER step over exactly that element set,
        with candidate hubs restricted to the elements' endpoints and
        wedge intermediaries (no other hub's champion can cover a
        re-opened element).  Each greedy step is charged at most the
        cheapest remaining singleton, so the repaired assignment never
        costs more than the direct service it replaces.
        """
        with trace.span("delta.repair") as span:
            self.stats.repairs += 1
            elements = [
                edge
                for edge in self._residue
                if self.graph.has_edge(*edge)
                and self._leg_need.get(edge, 0) == 0
                and edge not in self.schedule.hub_cover
                and (edge in self.schedule.push or edge in self.schedule.pull)
            ]
            self._residue.clear()
            refreshes_before = self.stats.hub_refreshes
            if elements:
                self._repair_elements(elements)
                self.stats.maintained_cost = self._cost
            span.set(
                elements=len(elements),
                refreshes=self.stats.hub_refreshes - refreshes_before,
            )
        return len(elements)

    def _repair_elements(self, elements: list[Edge]) -> None:
        self.stats.elements_reopened += len(elements)
        for edge in elements:
            self._remove_push(edge)
            self._remove_pull(edge)
        uncovered: set[Edge] = set(elements)

        # candidate hubs and the elements each can serve: (u, v) is a
        # leg of u and of v and a cross-edge of every wedge intermediary
        # succ(u) & pred(v).  The locality certificate — a hub outside
        # this map has no re-opened element in its hub-graph — and the
        # whole input of each candidate's (restricted) hub-graph build.
        serves: dict[Node, list[Edge]] = {}
        for edge in uncovered:
            u, v = edge
            serves.setdefault(u, []).append(edge)
            serves.setdefault(v, []).append(edge)
            for w in self.graph.successors_view(u) & self.graph.predecessors_view(v):
                serves.setdefault(w, []).append(edge)
        candidates = sorted(
            (
                hub
                for hub in serves
                if self.graph.in_degree(hub) > 0 and self.graph.out_degree(hub) > 0
            ),
            key=repr,
        )
        if self._exact is not None:
            # the re-opened elements grew these hubs' coverage back —
            # non-monotonic for the warm preflow diff, so cold-restart
            # once; calls within this repair then warm-repair as usual
            for hub in candidates:
                self._exact.invalidate(hub)
            self.stats.sessions_invalidated += len(candidates)

        singletons = [
            (min(self._rp(u), self._rc(v)), repr((u, v)), (u, v))
            for u, v in uncovered
        ]
        heapq.heapify(singletons)

        # candidate hub -> its hub-graph for this repair
        hub_graphs: dict[Node, HubGraph] = {}
        version: dict[Node, int] = {}
        heap: list[tuple[float, str, Node, int, DensestResult]] = []
        for hub in candidates:
            hub_graphs[hub] = self._repair_hub_graph(hub, serves[hub])
            self._queue_champion(hub, uncovered, hub_graphs, version, heap)

        while uncovered:
            while singletons and singletons[0][2] not in uncovered:
                heapq.heappop(singletons)
            limit = singletons[0][0] if singletons else math.inf
            winner: DensestResult | None = None
            while heap:
                key, _rank, hub, ver, result = heap[0]
                if ver != version.get(hub, 0):
                    heapq.heappop(heap)
                    continue
                if key > limit:
                    break
                if not result.covered <= uncovered:
                    # a previous selection covered part of this champion:
                    # its price is stale, recompute at the current state
                    heapq.heappop(heap)
                    self._queue_champion(
                        hub, uncovered, hub_graphs, version, heap
                    )
                    continue
                winner = heapq.heappop(heap)[4]
                break
            if winner is not None:
                self._apply_repair_hub(
                    winner, uncovered, hub_graphs, version, heap
                )
            elif singletons:
                _cost, _rank, edge = heapq.heappop(singletons)
                self._apply_repair_singleton(
                    edge, uncovered, hub_graphs, version, heap
                )
            else:  # pragma: no cover - defensive; singletons always exist
                raise ScheduleError(
                    "repair ran out of candidates with elements uncovered"
                )

    def _repair_hub_graph(self, hub: Node, elements: list[Edge]) -> HubGraph:
        """``hub``'s hub-graph for one repair: just ``elements``, the
        re-opened elements it can serve — O(len(elements)), not O(degree).

        ``max_cross_edges`` alone keeps the maximal build: truncation clips
        a prefix of the maximal enumeration order.
        """
        if self.max_cross_edges is not None:
            hub_graph = build_hub_graph(self.graph, hub, self.max_cross_edges)
        else:
            hub_graph = build_hub_graph(self.graph, hub, elements=elements)
        self.stats.elements_materialized += hub_graph.num_elements
        return hub_graph

    def _queue_champion(
        self,
        hub: Node,
        uncovered: set[Edge],
        hub_graphs: dict[Node, HubGraph],
        version: dict[Node, int],
        heap: list,
    ) -> None:
        """(Re)compute ``hub``'s champion over the element set and queue it."""
        version[hub] = version.get(hub, 0) + 1
        if not uncovered:
            return
        oracle = self._exact if self._exact is not None else densest_subgraph
        result = oracle(hub_graphs[hub], self.workload, self.schedule, uncovered)
        self.stats.hub_refreshes += 1
        if self._exact is not None:
            self.stats.exact_refreshes += 1
        if result is None or not result.covered:
            return  # nothing of the element set left in this hub-graph
        heapq.heappush(
            heap,
            (result.cost_per_element, repr(hub), hub, version[hub], result),
        )

    def _apply_repair_hub(
        self,
        result: DensestResult,
        uncovered: set[Edge],
        hub_graphs: dict[Node, HubGraph],
        version: dict[Node, int],
        heap: list,
    ) -> None:
        hub = result.hub
        for x in result.x_selected:
            self._add_push((x, hub))
        for y in result.y_selected:
            self._add_pull((hub, y))
        for edge in result.covered:
            u, v = edge
            if u != hub and v != hub:  # cross-edge piggybacked through hub
                self.schedule.cover_via_hub(edge, hub)
                self._by_hub.setdefault(hub, set()).add(edge)
                self._bump_leg((u, hub))
                self._bump_leg((hub, v))
        uncovered -= result.covered
        self.stats.hub_selections += 1
        # the selection paid this hub-graph's legs: its champion can only
        # get cheaper, so refresh it eagerly (other hubs' champions only
        # rise; the staleness check at the heap top re-prices them)
        if hub in hub_graphs:
            self._queue_champion(hub, uncovered, hub_graphs, version, heap)

    def _apply_repair_singleton(
        self,
        edge: Edge,
        uncovered: set[Edge],
        hub_graphs: dict[Node, HubGraph],
        version: dict[Node, int],
        heap: list,
    ) -> None:
        u, v = edge
        if self._rp(u) <= self._rc(v):
            self._add_push(edge)
            drop = v  # edge is the push leg x -> w of G(v)
        else:
            self._add_pull(edge)
            drop = u  # edge is the pull leg w -> y of G(u)
        uncovered.discard(edge)
        self.stats.singleton_selections += 1
        if drop in hub_graphs:
            self._queue_champion(drop, uncovered, hub_graphs, version, heap)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def cost(self) -> float:
        """Current schedule cost, maintained incrementally.

        Equals ``schedule_cost(self.schedule, self.workload)`` up to
        float summation order (property-tested); rate events adjust it
        in O(degree), service changes in O(1).
        """
        return self._cost

    def pending(self) -> int:
        """Residue edges awaiting the next :meth:`repair`."""
        return len(self._residue)

    def is_feasible(self) -> bool:
        """Whether the maintained schedule serves every live edge."""
        return self.schedule.is_feasible(self.graph)
