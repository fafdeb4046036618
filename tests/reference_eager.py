"""Algorithm 1 line 14 as published: the eager CHITCHAT reference.

Production :class:`~repro.core.chitchat.ChitchatScheduler` runs the
CELF-style lazy heap (champions retained across covering events that
miss them, dirty hubs re-oracled only at the heap top).  This subclass
restores the published rule for the tests and benches that measure the
heap against it:

* the bootstrap oracles every relay-capable hub instead of seeding the
  heap with closed-form bounds (nothing is pruned);
* after every selection, every relay-capable hub whose hub-graph holds a
  covered edge is re-oracled at once, with no ``upper_bound``.

No entry is ever dirty, so ``epsilon`` and ``batch_k`` never fire, and
the run reports ``oracle_calls_saved == 0`` and ``champions_retained ==
0``.  Under ``oracle="exact"`` its schedule is byte-identical to the lazy
heap's; under the peel it is cost-equivalent (see the
:mod:`repro.core.chitchat` docstring).
"""

from __future__ import annotations

from repro.core.chitchat import ChitchatScheduler
from repro.graph.view import affected_hubs


class EagerChitchatScheduler(ChitchatScheduler):
    """CHITCHAT with the eager line-14 refresh (same constructor).

    Both overrides count every refresh in ``_eager_equivalent``, so the
    base run reports ``oracle_calls_saved == 0``.
    """

    def _seed_lazy_heap(self) -> None:
        for node in sorted(self._eligible):
            self._eager_equivalent += 1
            self._refresh_hub(node)

    def _invalidate(self, covered_edges, weight_drops) -> None:
        affected = affected_hubs(self._adjacency, covered_edges)
        affected &= self._eligible
        self._eager_equivalent += len(affected)
        for hub in affected:
            self._refresh_hub(hub)
