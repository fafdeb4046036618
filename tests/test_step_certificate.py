"""Lemma 1, checked at every greedy step of a lazy CHITCHAT run.

The lazy scheduler keeps a hub's peel champion across covering events that
take none of its elements (``ChitchatScheduler._invalidate``), so the hub
candidate a step selects may have been priced many selections ago.  What
Theorem 4 needs of it is unchanged, and checkable: at the moment of
selection the candidate

* still exists — everything it claims to cover is uncovered, and the legs
  it buys cost what it was priced at (no leg of its hub was paid since);
* is a factor-2 answer to the step — its cost per element is at most twice
  the cheapest candidate of the *current* state, i.e. twice the minimum of
  the best singleton and, over every hub ``w``, the exact optimum of
  ``G(w)``.

The certificate comes from a cold :class:`~repro.flow.ExactOracle` run on
hub-graphs of its own, against the scheduler's plain ``schedule`` and an
uncovered set this subclass tracks itself from the covering events —
nothing the scheduler caches (heap keys, champions, dense mirrors, warm
flow state) takes part in it.
"""

from __future__ import annotations

import math

import pytest

from repro.core.chitchat import ChitchatScheduler
from repro.core.coverage import validate_schedule
from repro.core.cost import hybrid_edge_cost
from repro.flow import ExactOracle
from repro.graph.generators import social_copying_graph
from repro.workload.rates import log_degree_workload
from tests.conftest import GRAPH_FORMS, OracleInstance, graph_in_form

#: float slack on the factor-2 comparison (costs are sums of a few rates)
REL_SLACK = 1e-9


class CertifiedScheduler(ChitchatScheduler):
    """Checks every hub selection against the exact step optimum."""

    def __init__(self, social, workload, *args, **kwargs) -> None:
        super().__init__(social, workload, *args, **kwargs)
        self._certificate = ExactOracle(warm=False)
        self._instance = OracleInstance(social, workload)
        self._hub_graphs = {
            hub: self._instance.hub_graph(hub)
            for hub in social.nodes()
            if social.in_degree(hub) > 0 and social.out_degree(hub) > 0
        }
        # the still-uncovered edges, tracked from the covering events
        self._open = set(social.edges())
        self._elements = {
            hub: set(hub_graph.elements())
            for hub, hub_graph in self._hub_graphs.items()
        }
        self.certified_steps = 0
        self.retained_steps = 0  # selections that outlived a covering event
        # hubs that lost an element since their champion was priced
        self._shrunk: set = set()

    def _install_result(self, hub, version, result):
        self._shrunk.discard(hub)
        super()._install_result(hub, version, result)

    def _invalidate(self, covered_edges, weight_drops):
        self._open.difference_update(covered_edges)
        self._shrunk.update(
            hub
            for hub, elements in self._elements.items()
            if not elements.isdisjoint(covered_edges)
        )
        super()._invalidate(covered_edges, weight_drops)

    def _step_optimum(self) -> float:
        best = min(hybrid_edge_cost(edge, self.workload) for edge in self._open)
        for hub_graph in self._hub_graphs.values():
            optimum = self._instance.call(
                self._certificate, hub_graph, self.schedule, self._open
            )
            if optimum is not None:
                best = min(best, optimum.cost_per_element)
        return best

    def _apply_hub(self, result):
        hub = result.hub
        assert result.covered <= self._open
        unpaid = math.fsum(
            self.workload.rp(x)
            for x in result.x_selected
            if (x, hub) not in self.schedule.push
        ) + math.fsum(
            self.workload.rc(y)
            for y in result.y_selected
            if (hub, y) not in self.schedule.pull
        )
        assert unpaid == pytest.approx(result.weight, rel=REL_SLACK, abs=1e-12)
        optimum = self._step_optimum()
        assert result.cost_per_element <= 2.0 * optimum * (1.0 + REL_SLACK) + 1e-12
        self.certified_steps += 1
        self.retained_steps += hub in self._shrunk
        super()._apply_hub(result)


@pytest.mark.parametrize("form", GRAPH_FORMS)
@pytest.mark.parametrize("seed", [1, 4])
def test_every_hub_selection_is_a_factor_two_step(seed, form):
    graph = social_copying_graph(
        70, out_degree=6, copy_fraction=0.7, reciprocity=0.3, seed=seed
    )
    workload = log_degree_workload(graph, read_write_ratio=5.0)
    scheduler = CertifiedScheduler(
        graph_in_form(graph, form), workload, oracle="peel"
    )
    schedule = scheduler.run()
    validate_schedule(graph, schedule)
    assert scheduler.certified_steps == scheduler.stats.hub_selections > 0
    # the rule under test actually fired: champions were kept across
    # events that shrank their hub-graph, and some of them went on to be
    # selected without ever being re-priced
    assert scheduler.stats.champions_retained > 0
    assert scheduler.retained_steps > 0
