"""Schedule maintenance under churn: the paper's rule plus localized repair.

:class:`DeltaScheduler` keeps a schedule feasible while the graph and
rates change.  :meth:`DeltaScheduler.apply` alone is the paper's
production rule (section 3.3): new and broken edges are served directly
and never re-piggybacked, so schedule quality decays until a full re-run
(Figure 5, :mod:`repro.experiments.fig5_incremental`).
:meth:`DeltaScheduler.repair` closes that gap: wrapping a completed
:class:`~repro.core.chitchat.ChitchatScheduler` run (or any feasible
schedule), it repairs *only the dirtied region* — re-running the greedy
SET-COVER step over just the re-opened elements instead of the whole
edge set.

Event application (constant amortized bookkeeping per event)
------------------------------------------------------------
Events apply the feasibility-preserving rules of section 3.3 — a new
edge is served directly by the hybrid rule, a removed leg downgrades the
covers relayed over it to direct service (unless the edge is already
served directly on either side, so it is never paid twice) — while
accumulating a *residue*: the set of edges whose current direct service
might be improvable (fresh direct serves, downgraded covers, legs freed
when their last cover disappeared, and direct edges incident to a
re-priced user).
Duplicate adds, removals of absent edges, and value-identical rate
events are counted no-ops and touch nothing, so a no-op stream leaves
the schedule byte-identical.  A ``leg → covers`` index maps every leg
edge to the covers relayed over it, so a removal finds exactly the
covers it breaks in one lookup.

Localized repair (the greedy over the dirtied region)
-----------------------------------------------------
:meth:`DeltaScheduler.repair` turns the residue into the *element set*
(residue edges that still exist, are direct-served, and are not load-
bearing legs of a live cover — the leg index guards that), strips
their direct service, and re-runs the CHITCHAT greedy over exactly those
elements.  Candidate hubs are the *relays*: wedge intermediaries
``w ∈ succ(u) ∩ pred(v)`` of some re-opened ``(u, v)``.  A hub with no
re-opened element in its hub-graph has an empty champion, and one whose
only re-opened elements are its own legs cannot win either: a leg is paid
only when its own element is covered, so such a champion costs a mean of
its legs' full rates — never below the cheapest ``min(rp, rc)`` singleton
among them.  Dropping those hubs hands only exact (and float-rounding)
ties to the singleton rule.  The two-hop join that discovers the relays
also records which re-opened elements each can serve — its cross-edges
plus the re-opened legs it is an endpoint of — and every relay's
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

Dense ids
---------
Like :class:`~repro.core.chitchat.ChitchatScheduler`, the scheduler
relabels users once at its boundary, in the same tie-break order (the
identity on ``0..n-1`` ids; a user first seen mid-stream takes the next
id), and repairs break ties in ``repr`` order of those ids.  The graph
keeps an append-only edge-id index, and one growing
:class:`~repro.core.densest.ScheduleMirror` is the oracle's only input.
Every public face is in the caller's labels.

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
  repair over re-opened elements ``E`` evaluates only their relays and
  materializes at most ``Σ_{(u,v)∈E} (2 + 3·|succ(u) ∩ pred(v)|)``
  hub-graph elements (``DeltaStats.elements_materialized``) — each
  element is a leg in at most two relays' hub-graphs and a cross-edge,
  with its two endpoints, in one per wedge — independent of any hub's
  degree.
* **Exact cost tracking** — :meth:`cost` is maintained incrementally
  (O(degree) per rate event, O(1) per service change) and equals the
  full rescan.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.chitchat import _label_order, _relabel_schedule
from repro.core.densest import DensestResult, ScheduleMirror, densest_subgraph
from repro.core.hubgraph import HubGraph, build_hub_graph
from repro.core.schedule import RequestSchedule
from repro.errors import GraphError, ScheduleError, WorkloadError
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
    ``singleton_selections`` — greedy choices made by repairs (endpoint-
    only hubs are no candidates, so they no longer take singleton ties:
    12 886 → 1 742 hub selections on the seed-1 ledger churn stream).

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


class _ChurnGraph:
    """The scheduler's dense-id graph: mutable adjacency plus edge ids.

    ``social`` holds the adjacency; ``ids[u][v]`` is the id of the live
    edge ``u -> v``, its index into the
    :class:`~repro.core.densest.ScheduleMirror` vectors (keyed per
    producer, like the adjacency, so a lookup probes two small dicts).
    The ids are append-only: a new edge takes the next id and a removed
    edge's id is retired, never reused.  Restricted hub-graph builds read
    them through :meth:`edge_id`.
    """

    __slots__ = ("social", "ids", "issued")

    def __init__(self, social: SocialGraph) -> None:
        self.social = social
        self.ids: dict[int, dict[int, int]] = {u: {} for u in social}
        for edge_id, (u, v) in enumerate(social.edges()):
            self.ids[u][v] = edge_id
        #: ids handed out so far: the next edge's id
        self.issued = social.num_edges

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.ids.get(u, ())

    def edge_id(self, u: int, v: int) -> int:
        try:
            return self.ids[u][v]
        except KeyError:
            raise GraphError(f"edge {u!r} -> {v!r} is not in the graph") from None

    def add_edge(self, u: int, v: int) -> int:
        """Insert ``u -> v``; returns its (new) id."""
        self.social.add_edge(u, v)
        edge_id = self.ids.setdefault(u, {})[v] = self.issued
        self.issued += 1
        return edge_id

    def remove_edge(self, u: int, v: int) -> int:
        """Delete ``u -> v``; returns the id it retires."""
        self.social.remove_edge(u, v)
        return self.ids[u].pop(v)


class DeltaScheduler:
    """Maintains a near-greedy schedule over a mutating instance.

    The scheduler owns the graph, rates, and schedule it is given (pass
    copies to keep the originals): mutate them only through
    :meth:`apply` / :meth:`repair` so the leg index and the running
    cost stay consistent.

    Parameters
    ----------
    graph:
        Mutable :class:`~repro.graph.digraph.SocialGraph` with any
        hashable node ids (CSR runs convert via :meth:`from_scheduler`);
        events edit it in place.
    workload:
        Rates at wrap time; the scheduler keeps its own mutable copy —
        rate events re-price it, and users first seen mid-stream enter
        at the initial minimum positive rates (the floor rule
        :func:`~repro.workload.churn.replay` mirrors).
    schedule:
        A feasible schedule for ``graph`` (validated unless
        ``validate=False``), typically a completed CHITCHAT run's.
    oracle, method:
        The repair greedy's oracle stack, with the same semantics (and
        the same up-front validation) as on
        :class:`~repro.core.chitchat.ChitchatScheduler`: ``"peel"``
        (default) or ``"exact"`` (warm parametric max-flow sessions).
    """

    def __init__(
        self,
        graph: SocialGraph,
        workload: Workload,
        schedule: RequestSchedule,
        oracle: str = "peel",
        method: str = "auto",
        validate: bool = True,
    ) -> None:
        validate_oracle_mode(oracle)
        validate_flow_method(method)
        if validate and not schedule.is_feasible(graph):
            raise ScheduleError(
                "DeltaScheduler requires a feasible schedule to wrap"
            )
        self.graph = graph
        #: Live rate tables in the caller's labels; ``self.workload`` is a
        #: view over them, so rate events mutate it in place.  Every
        #: change clears the workload's dense-array cache, which
        #: ``schedule_cost`` fills on large schedules.
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
        # the dense id space: the graph's nodes and the workload's users,
        # in ChitchatScheduler's tie-break order.  While the labels *are*
        # the ids (``_shared``), the caller's graph and schedule are the
        # dense ones; otherwise both are private, translated copies.
        users = set(graph.nodes()) | set(self._production)
        self._shared = all(
            type(u) is int and 0 <= u < len(users) for u in users
        )
        self._labels: list[Node] = _label_order(users)
        self._ids = dict(
            zip(self._labels, self._labels if self._shared else range(len(users)))
        )
        if not self._shared:
            ids = self._ids
            graph = SocialGraph((ids[u], ids[v]) for u, v in graph.edges())
            schedule = _relabel_schedule(schedule, ids)
        self._graph = _ChurnGraph(graph)
        self._schedule = schedule
        production, consumption = self._production, self._consumption
        self._mirror = ScheduleMirror(
            self._graph.issued,
            np.array([production.get(u, self._rp_floor) for u in self._labels]),
            np.array([consumption.get(u, self._rc_floor) for u in self._labels]),
        )
        self._mirror.uncovered_mask[:] = False
        for u, v in schedule.push:
            if self._graph.has_edge(u, v):
                self._mirror.add_push(self._graph.ids[u][v])
        for u, v in schedule.pull:
            if self._graph.has_edge(u, v):
                self._mirror.add_pull(self._graph.ids[u][v])
        # leg edge -> the covers relayed over it: removing the leg breaks
        # exactly that set, and a direct edge that is a live cover's leg
        # cannot be re-opened (dropping its push/pull would break the
        # cover for zero gain)
        self._leg_covers: dict[Edge, set[Edge]] = {}
        for edge, hub in schedule.hub_cover.items():
            self._pin_legs(edge, hub)
        rp, rc = self._mirror.arrays.rp.item, self._mirror.arrays.rc.item
        self._cost = sum(rp(u) for u, _v in schedule.push) + sum(
            rc(v) for _u, v in schedule.pull
        )
        #: Direct-served edges whose assignment an event may have left
        #: improvable; consumed (and re-screened) by :meth:`repair`.
        self._residue: set[Edge] = set()
        #: Elements the repair in progress has still to cover.
        self._open = 0
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

    @property
    def schedule(self) -> RequestSchedule:
        """The maintained schedule, in the caller's labels.

        The live object while the labels are the dense ids; otherwise a
        translated copy, taken on each access.
        """
        if self._shared:
            return self._schedule
        return _relabel_schedule(self._schedule, self._labels)

    # ------------------------------------------------------------------
    # The id boundary
    # ------------------------------------------------------------------
    def _user_id(self, label: Node) -> int:
        """``label``'s dense id; a user first seen here takes the next id
        and enters at the floor rates."""
        if label not in self._production:
            self._production[label] = self._rp_floor
            self._consumption[label] = self._rc_floor
            self.workload.clear_array_cache()
        user = self._ids.get(label)
        if user is not None:
            return user
        user = len(self._labels)
        if self._shared and type(label) is int and label == user:
            user = label
        elif self._shared:
            # the labels stop being the ids: from here on the dense graph
            # and schedule are private, translated at the boundary
            self._shared = False
            self._graph.social = self._graph.social.copy()
            self._schedule = self._schedule.copy()
        self._labels.append(label)
        self._ids[label] = user
        self._mirror.reserve(self._graph.issued, user + 1)
        self._mirror.arrays.rp[user] = self._production[label]
        self._mirror.arrays.rc[user] = self._consumption[label]
        return user

    # ------------------------------------------------------------------
    # Cost-tracked schedule mutation (dense ids)
    # ------------------------------------------------------------------
    # The helpers below keep the schedule, its mirror bits and the running
    # cost in step; they run a dozen times per event, so they index the
    # mirror's vectors directly.
    def _add_push(self, edge: Edge) -> None:
        if edge not in self._schedule.push:
            self._schedule.push.add(edge)
            arrays = self._mirror.arrays
            arrays.push_mask[self._graph.ids[edge[0]][edge[1]]] = True
            self._cost += arrays.rp.item(edge[0])

    def _add_pull(self, edge: Edge) -> None:
        if edge not in self._schedule.pull:
            self._schedule.pull.add(edge)
            arrays = self._mirror.arrays
            arrays.pull_mask[self._graph.ids[edge[0]][edge[1]]] = True
            self._cost += arrays.rc.item(edge[1])

    def _strip(self, edge: Edge, edge_id: int) -> None:
        """Drop the direct service of ``edge`` (id ``edge_id``), push and
        pull alike."""
        schedule = self._schedule
        in_push, in_pull = edge in schedule.push, edge in schedule.pull
        if not (in_push or in_pull):
            return
        u, v = edge
        arrays = self._mirror.arrays
        if in_push:
            schedule.push.discard(edge)
            arrays.push_mask[edge_id] = False
            self._cost -= arrays.rp.item(u)
        if in_pull:
            schedule.pull.discard(edge)
            arrays.pull_mask[edge_id] = False
            self._cost -= arrays.rc.item(v)

    def _serve_directly(self, edge: Edge) -> None:
        """Serve ``edge`` by the hybrid rule (its cheaper side), unless it
        is served directly already (e.g. as another cover's leg)."""
        schedule = self._schedule
        if edge in schedule.push or edge in schedule.pull:
            return
        u, v = edge
        arrays = self._mirror.arrays
        rp, rc = arrays.rp.item(u), arrays.rc.item(v)
        if rp <= rc:
            schedule.push.add(edge)
            arrays.push_mask[self._graph.ids[u][v]] = True
            self._cost += rp
        else:
            schedule.pull.add(edge)
            arrays.pull_mask[self._graph.ids[u][v]] = True
            self._cost += rc

    # ------------------------------------------------------------------
    # Leg index
    # ------------------------------------------------------------------
    def _pin_legs(self, edge: Edge, hub: int) -> None:
        """Record ``edge``'s cover through ``hub`` under both its legs."""
        self._leg_covers.setdefault((edge[0], hub), set()).add(edge)
        self._leg_covers.setdefault((hub, edge[1]), set()).add(edge)

    def _unpin_leg(self, leg: Edge, edge: Edge) -> None:
        covers = self._leg_covers[leg]
        covers.discard(edge)
        if covers:
            return
        del self._leg_covers[leg]
        # the leg edge itself (if still a live social edge) stays served
        # by its push/pull but no cover depends on it anymore — it can be
        # re-opened for cheaper service through some other hub
        if self._graph.has_edge(*leg) and (
            leg in self._schedule.push or leg in self._schedule.pull
        ):
            self._residue.add(leg)
            self.stats.legs_freed += 1

    def _release_cover(self, edge: Edge) -> None:
        """Drop ``edge``'s hub cover and unpin its legs."""
        hub = self._schedule.hub_cover.pop(edge)
        self._unpin_leg((edge[0], hub), edge)
        self._unpin_leg((hub, edge[1]), edge)

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
        a, b = edge
        if self._graph.has_edge(self._ids.get(a), self._ids.get(b)):
            return False
        u, v = self._user_id(a), self._user_id(b)
        if not self._shared:
            self.graph.add_edge(a, b)
        if self._graph.add_edge(u, v) >= len(self._mirror.uncovered_mask):
            self._mirror.reserve(self._graph.issued, len(self._labels))
        self.stats.edges_added += 1
        self._serve_directly((u, v))
        self._residue.add((u, v))
        return True

    def _apply_remove(self, edge: Edge) -> bool:
        a, b = edge
        u, v = edge = (self._ids.get(a), self._ids.get(b))
        if not self._graph.has_edge(u, v):
            return False
        self.stats.edges_removed += 1
        self._residue.discard(edge)
        if not self._shared:
            self.graph.remove_edge(a, b)
        # the edge no longer needs service; its id retires with it
        self._strip(edge, self._graph.remove_edge(u, v))
        if edge in self._schedule.hub_cover:
            self._release_cover(edge)
        # covers relayed over this edge break: the edge was their push
        # leg (v acting as hub) or their pull leg (u acting as hub)
        for covered in tuple(self._leg_covers.get(edge, ())):
            self._release_cover(covered)
            self.stats.covers_broken += 1
            self._serve_directly(covered)
            self._residue.add(covered)
        return True

    def _apply_rate(self, label: Node, rp: float, rc: float) -> bool:
        user = self._user_id(label)
        old_rp = self._production[label]
        old_rc = self._consumption[label]
        if rp == old_rp and rc == old_rc:
            return False
        self.stats.rate_changes += 1
        # O(degree): re-price the user's scheduled legs and re-open its
        # direct-served incident edges (covers are free and stay put)
        push_out = 0
        pull_in = 0
        social = self._graph.social
        schedule = self._schedule
        if user in social:
            for succ in social.successors_view(user):
                edge = (user, succ)
                in_push = edge in schedule.push
                if in_push:
                    push_out += 1
                if in_push or edge in schedule.pull:
                    self._residue.add(edge)
            for pred in social.predecessors_view(user):
                edge = (pred, user)
                in_pull = edge in schedule.pull
                if in_pull:
                    pull_in += 1
                if in_pull or edge in schedule.push:
                    self._residue.add(edge)
        self._cost += (rp - old_rp) * push_out + (rc - old_rc) * pull_in
        self._production[label] = rp
        self._consumption[label] = rc
        self._mirror.arrays.rp[user] = rp
        self._mirror.arrays.rc[user] = rc
        self.workload.clear_array_cache()
        return True

    # ------------------------------------------------------------------
    # Localized repair
    # ------------------------------------------------------------------
    def repair(self) -> int:
        """Re-optimize the residue; returns the number of elements re-opened.

        Strips the direct service of every re-openable residue edge and
        re-runs the greedy SET-COVER step over exactly that element set,
        with candidate hubs restricted to the elements' wedge
        intermediaries (no other hub's champion can piggyback one, so
        none can beat the singleton price).  Each greedy step is charged
        at most the cheapest remaining singleton, so the repaired
        assignment never costs more than the direct service it replaces.
        """
        with trace.span("delta.repair") as span:
            self.stats.repairs += 1
            live = self._graph.has_edge
            schedule = self._schedule
            elements = [
                edge
                for edge in self._residue
                if live(*edge)
                and edge not in self._leg_covers
                and edge not in schedule.hub_cover
                and (edge in schedule.push or edge in schedule.pull)
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
        # strip each element's direct service and re-open it; its singleton
        # price is the hybrid one at the current rates
        ids = self._graph.ids
        arrays = self._mirror.arrays
        uncovered = self._mirror.uncovered_mask
        singletons = []
        for edge in elements:
            edge_id = ids[edge[0]][edge[1]]
            self._strip(edge, edge_id)
            uncovered[edge_id] = True
            price = min(arrays.rp.item(edge[0]), arrays.rc.item(edge[1]))
            singletons.append((price, repr(edge), edge, edge_id))
        heapq.heapify(singletons)
        self._open = len(elements)
        candidates, serves = self._repair_candidates(elements)
        if self._exact is not None:
            # the re-opened elements grew these hubs' coverage back —
            # non-monotonic for the warm preflow diff, so cold-restart
            # once; calls within this repair then warm-repair as usual
            for hub in candidates:
                self._exact.invalidate(hub)
            self.stats.sessions_invalidated += len(candidates)

        # candidate hub -> its hub-graph for this repair
        hub_graphs: dict[int, HubGraph] = {}
        version: dict[int, int] = {}
        heap: list[tuple[float, str, int, int, DensestResult]] = []
        for hub in candidates:
            hub_graphs[hub] = self._repair_hub_graph(hub, serves[hub])
            self._queue_champion(hub, hub_graphs, version, heap)

        while self._open:
            while singletons and not uncovered.item(singletons[0][3]):
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
                if not all(map(uncovered.item, result.covered_ids.tolist())):
                    # a previous selection covered part of this champion:
                    # its price is stale, recompute at the current state
                    heapq.heappop(heap)
                    self._queue_champion(hub, hub_graphs, version, heap)
                    continue
                winner = heapq.heappop(heap)[4]
                break
            if winner is not None:
                self._apply_repair_hub(winner, hub_graphs, version, heap)
            elif singletons:
                _cost, _rank, edge, edge_id = heapq.heappop(singletons)
                self._apply_repair_singleton(
                    edge, edge_id, hub_graphs, version, heap
                )
            else:  # pragma: no cover - defensive; singletons always exist
                raise ScheduleError(
                    "repair ran out of candidates with elements uncovered"
                )

    def _repair_candidates(
        self, elements: list[Edge]
    ) -> tuple[list[int], dict[int, list[Edge]]]:
        """The repair's relays (sorted by ``repr``) and what each serves.

        A relay is a wedge intermediary ``w ∈ succ(u) ∩ pred(v)`` of some
        re-opened ``(u, v)``; its restricted hub-graph takes those cross-
        edges plus the re-opened legs it is an endpoint of.  A hub outside
        this list has no re-opened cross-edge, so it can only re-buy a leg
        at that leg's own rate — never below the singleton price.
        """
        social = self._graph.social
        serves: dict[int, list[Edge]] = {}
        for edge in elements:
            u, v = edge
            for w in social.successors_view(u) & social.predecessors_view(v):
                serves.setdefault(w, []).append(edge)
        for edge in elements:
            for end in edge:
                if end in serves:
                    serves[end].append(edge)
        return sorted(serves, key=repr), serves

    def _repair_hub_graph(self, hub: int, elements: list[Edge]) -> HubGraph:
        """``hub``'s hub-graph for one repair: just ``elements``, the
        re-opened elements it can serve — O(len(elements)), not O(degree).
        """
        hub_graph = build_hub_graph(self._graph, hub, elements=elements)
        self.stats.elements_materialized += hub_graph.num_elements
        return hub_graph

    def _queue_champion(
        self,
        hub: int,
        hub_graphs: dict[int, HubGraph],
        version: dict[int, int],
        heap: list,
    ) -> None:
        """(Re)compute ``hub``'s champion over the element set and queue it."""
        version[hub] = version.get(hub, 0) + 1
        if not self._open:
            return
        oracle = self._exact if self._exact is not None else densest_subgraph
        result = oracle(
            hub_graphs[hub], self._mirror.uncovered_mask, self._mirror.arrays
        )
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
        hub_graphs: dict[int, HubGraph],
        version: dict[int, int],
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
                self._schedule.cover_via_hub(edge, hub)
                self._pin_legs(edge, hub)
        self._mirror.cover(result.covered_ids)
        self._open -= len(result.covered)
        self.stats.hub_selections += 1
        # the selection paid this hub-graph's legs: its champion can only
        # get cheaper, so refresh it eagerly (other hubs' champions only
        # rise; the staleness check at the heap top re-prices them)
        if hub in hub_graphs:
            self._queue_champion(hub, hub_graphs, version, heap)

    def _apply_repair_singleton(
        self,
        edge: Edge,
        edge_id: int,
        hub_graphs: dict[int, HubGraph],
        version: dict[int, int],
        heap: list,
    ) -> None:
        self._serve_directly(edge)
        # the edge is now the push leg x -> w of G(v), or the pull leg
        # w -> y of G(u)
        drop = edge[1] if edge in self._schedule.push else edge[0]
        self._mirror.uncovered_mask[edge_id] = False
        self._open -= 1
        self.stats.singleton_selections += 1
        if drop in hub_graphs:
            self._queue_champion(drop, hub_graphs, version, heap)

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

    def residue(self) -> set[Edge]:
        """The residue edges awaiting the next :meth:`repair`, in the
        caller's labels (what a snapshot saves)."""
        labels = self._labels
        return {(labels[u], labels[v]) for u, v in self._residue}

    def restore_residue(self, edges) -> None:
        """Queue ``edges`` (caller labels) for the next :meth:`repair` —
        how a resumed snapshot gets its :meth:`residue` back.  Edges that
        are not live, or not re-openable, are dropped by the repair's own
        screening."""
        ids = self._ids
        self._residue.update(
            (ids[a], ids[b]) for a, b in edges if a in ids and b in ids
        )

    def is_feasible(self) -> bool:
        """Whether the maintained schedule serves every live edge."""
        return self._schedule.is_feasible(self._graph.social)
