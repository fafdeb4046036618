"""The delta repair with its former candidate rule: endpoints plus wedges.

Production :class:`~repro.core.delta.DeltaScheduler` evaluates only the
*relays* of a repair — wedge intermediaries ``succ(u) ∩ pred(v)`` of some
re-opened ``(u, v)``.  This subclass restores the rule it replaced for
the tests that measure the pruning against it: every endpoint ``u`` and
``v`` of a re-opened element is a candidate too (if it has both in- and
out-edges), built as a hub-graph of just the re-opened legs it touches.

Such an endpoint-only hub has no cross-edge, so it can only re-buy a leg
at that leg's own rate: it never beats the singleton price, and the two
rules differ only in how exact (or float-rounded) ties resolve.  Costs
agree closely; the reference spends strictly more ``hub_refreshes``.
"""

from __future__ import annotations

from repro.core.delta import DeltaScheduler


class EndpointCandidatesDeltaScheduler(DeltaScheduler):
    """``DeltaScheduler`` with endpoint hubs back in the candidate set."""

    def _repair_candidates(self, uncovered):
        serves = {}
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
        return candidates, serves
