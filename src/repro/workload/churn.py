"""Seeded churn streams: LDBC-style graph/rate update scripts.

The paper's production story (section 3.3) assumes the social graph
mutates continuously — edges appear, edges vanish, activity rates drift
— but gives no workload for it.  The LDBC social-network benchmark fills
that gap in spirit: realistic update streams are *scripted* (a seeded,
replayable sequence of typed events) so different maintenance policies
can be compared on identical histories.  This module generates such
scripts over the repo's synthetic instances.

A stream is a list of :class:`ChurnEvent` records of three kinds:

* ``add`` — a new social edge ``u -> v`` (never a currently-live edge);
* ``remove`` — an existing edge disappears (sampled from the live edge
  set, which the generator simulates as it emits);
* ``rate`` — a user's production/consumption rates drift by a bounded
  multiplicative jitter.

Event kinds are apportioned *exactly* to the requested fractions via
largest-remainder rounding, then shuffled — property tests assert the
mix, so the counts cannot be merely expected values.  The generator is
deterministic in ``seed`` and the stream is self-contained: replaying it
with :func:`replay` reproduces the exact post-churn instance, which is
what the differential tests compare a from-scratch optimizer run
against.

Streams serialize as line JSON via
:func:`repro.core.serialize.save_events` / ``load_events``.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.graph.digraph import Edge, Node, SocialGraph
from repro.workload.rates import Workload

__all__ = ["ChurnEvent", "churn_stream", "replay", "event_mix"]

#: Canonical event kinds, in apportionment tie-break order.
EVENT_KINDS = ("add", "remove", "rate")


@dataclass(frozen=True)
class ChurnEvent:
    """One scripted update.

    ``kind`` is ``"add"``/``"remove"`` (with ``edge`` set, never a
    self-loop, which no :class:`SocialGraph` holds) or ``"rate"``
    (with ``user`` and the new absolute ``rp``/``rc`` values, finite and
    non-negative as :class:`~repro.workload.rates.Workload` requires —
    absolute, not deltas, so a stream replays identically from any
    serialization round-trip without accumulating float drift).
    """

    kind: str
    edge: Edge | None = None
    user: Node | None = None
    rp: float | None = None
    rc: float | None = None

    def __post_init__(self) -> None:
        if self.kind in ("add", "remove"):
            if self.edge is None or self.user is not None:
                raise WorkloadError(f"{self.kind} event requires edge only")
            if self.edge[0] == self.edge[1]:
                raise WorkloadError(f"self-loop edge in {self!r}")
        elif self.kind == "rate":
            if self.user is None or self.rp is None or self.rc is None:
                raise WorkloadError("rate event requires user, rp, and rc")
            for rate in (self.rp, self.rc):
                if rate < 0 or not math.isfinite(rate):
                    raise WorkloadError(f"invalid rate {rate!r} in {self!r}")
        else:
            raise WorkloadError(f"unknown churn event kind {self.kind!r}")


def _apportion(num_events: int, fractions: Sequence[float]) -> list[int]:
    """Largest-remainder apportionment of ``num_events`` over fractions.

    Returns exact integer counts summing to ``num_events``; ties on the
    fractional part break toward earlier kinds (add < remove < rate), so
    the split is deterministic.
    """
    total = sum(fractions)
    if total <= 0 or any(f < 0 for f in fractions):
        raise WorkloadError(
            f"event fractions must be non-negative with a positive sum, "
            f"got {tuple(fractions)!r}"
        )
    quotas = [num_events * f / total for f in fractions]
    counts = [int(q) for q in quotas]
    remainder = num_events - sum(counts)
    order = sorted(
        range(len(fractions)), key=lambda i: (-(quotas[i] - counts[i]), i)
    )
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def churn_stream(
    graph: SocialGraph,
    workload: Workload,
    num_events: int,
    add_fraction: float = 0.4,
    remove_fraction: float = 0.4,
    rate_fraction: float = 0.2,
    rate_jitter: float = 0.5,
    seed: int = 0,
) -> list[ChurnEvent]:
    """Generate a seeded, replayable churn script over ``graph``.

    The generator simulates the live edge set as it emits, so adds never
    duplicate a live edge and removals always name one — the stream is
    free of no-ops by construction (tests that need no-op streams build
    them by hand).  Rate events re-draw a user's rates as the *current*
    simulated rate times a factor uniform in
    ``[max(0.05, 1 - rate_jitter), 1 + rate_jitter]``, so consecutive
    events on one user compound the drift, and the emitted values are
    absolute (replay-exact).

    Event-kind counts match the requested fractions exactly (largest-
    remainder apportionment, then a seeded shuffle).  Two degenerate
    states substitute kinds to keep the stream total exact: a removal
    with no live edge left becomes an add, and an add on a complete
    graph becomes a removal — impossible on any realistic instance, but
    the generator must terminate on adversarial property-test inputs.

    Users are drawn from the initial graph (the LDBC streams the repo
    models churn membership too, but new-user arrival is a workload-
    model question; the delta tier prices unknown users with floor
    rates regardless).
    """
    if num_events < 0:
        raise WorkloadError(f"num_events must be >= 0, got {num_events}")
    nodes = sorted(graph.nodes(), key=repr)
    if len(nodes) < 2:
        raise WorkloadError("churn needs a graph with at least two nodes")
    counts = _apportion(
        num_events, (add_fraction, remove_fraction, rate_fraction)
    )
    rng = random.Random(seed)
    kinds = [k for k, c in zip(EVENT_KINDS, counts) for _ in range(c)]
    rng.shuffle(kinds)

    live_list = sorted(graph.edges(), key=repr)
    live_set = set(live_list)
    live_pos = {edge: i for i, edge in enumerate(live_list)}
    production = dict(workload.production)
    consumption = dict(workload.consumption)
    complete = len(nodes) * (len(nodes) - 1)
    lo = max(0.05, 1.0 - rate_jitter)
    hi = 1.0 + rate_jitter
    if lo > hi:
        raise WorkloadError(f"rate_jitter must be >= 0, got {rate_jitter}")

    def emit_add() -> ChurnEvent:
        for _ in range(64):
            u = nodes[rng.randrange(len(nodes))]
            v = nodes[rng.randrange(len(nodes))]
            if u != v and (u, v) not in live_set:
                break
        else:  # dense graph: deterministic scan for any free slot
            for u in nodes:
                free = [v for v in nodes if v != u and (u, v) not in live_set]
                if free:
                    v = free[rng.randrange(len(free))]
                    break
            else:  # pragma: no cover - guarded by the caller's substitution
                raise WorkloadError("graph is complete; no edge to add")
        edge = (u, v)
        live_pos[edge] = len(live_list)
        live_list.append(edge)
        live_set.add(edge)
        return ChurnEvent(kind="add", edge=edge)

    def emit_remove() -> ChurnEvent:
        idx = rng.randrange(len(live_list))
        edge = live_list[idx]
        last = live_list[-1]
        live_list[idx] = last
        live_pos[last] = idx
        live_list.pop()
        live_pos.pop(edge)
        live_set.discard(edge)
        return ChurnEvent(kind="remove", edge=edge)

    def emit_rate() -> ChurnEvent:
        user = nodes[rng.randrange(len(nodes))]
        cur_rp = production.get(user, 1.0) or 1.0
        cur_rc = consumption.get(user, 1.0) or 1.0
        new_rp = cur_rp * rng.uniform(lo, hi)
        new_rc = cur_rc * rng.uniform(lo, hi)
        production[user] = new_rp
        consumption[user] = new_rc
        return ChurnEvent(kind="rate", user=user, rp=new_rp, rc=new_rc)

    events: list[ChurnEvent] = []
    for kind in kinds:
        if kind == "remove" and not live_list:
            kind = "add"
        elif kind == "add" and len(live_set) >= complete:
            kind = "remove"
        if kind == "add":
            events.append(emit_add())
        elif kind == "remove":
            events.append(emit_remove())
        else:
            events.append(emit_rate())
    return events


def event_mix(events: Iterable[ChurnEvent]) -> dict[str, int]:
    """Count events per kind (the property the mix tests assert)."""
    mix = {kind: 0 for kind in EVENT_KINDS}
    for event in events:
        mix[event.kind] += 1
    return mix


def replay(
    graph: SocialGraph,
    workload: Workload,
    events: Iterable[ChurnEvent],
) -> tuple[SocialGraph, Workload]:
    """The post-churn instance a stream produces, computed directly.

    Applies every event to copies of ``graph`` and ``workload`` without
    any scheduling — the reference the differential tests run a from-
    scratch optimizer on.  Duplicate adds and removals of absent edges
    are no-ops; users first seen mid-stream enter at the initial
    workload's minimum positive rates — the same floor rule
    :class:`~repro.core.delta.DeltaScheduler` applies, so the replayed
    instance prices exactly like the maintained one.
    """
    out_graph = graph.copy()
    production = dict(workload.production)
    consumption = dict(workload.consumption)
    rp_floor = min((r for r in production.values() if r > 0), default=1.0)
    rc_floor = min((r for r in consumption.values() if r > 0), default=1.0)
    for event in events:
        if event.kind == "add":
            u, v = event.edge
            out_graph.add_edge(u, v)
            for user in (u, v):
                production.setdefault(user, rp_floor)
                consumption.setdefault(user, rc_floor)
        elif event.kind == "remove":
            u, v = event.edge
            if out_graph.has_edge(u, v):
                out_graph.remove_edge(u, v)
        else:
            production[event.user] = event.rp
            consumption[event.user] = event.rc
    return out_graph, Workload(production=production, consumption=consumption)
