"""Cross-checks against naive reference implementations.

The production CHITCHAT maintains a priority queue with per-hub versions
and refreshes only the hubs a selection touched (Algorithm 1 lines 14-18).
That bookkeeping is the most bug-prone part of the codebase, so this module
re-implements the greedy loop *naively* — recompute every hub's champion
from scratch at every step, scan for the global best — and asserts the
optimized scheduler selects candidates of exactly the same quality.

The naive loop is O(V·E) per selection and only usable on tiny graphs,
which is precisely why the production path exists.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.baselines import hybrid_schedule
from repro.core.chitchat import ChitchatScheduler
from repro.core.cost import hybrid_edge_cost, schedule_cost
from repro.core.coverage import validate_schedule
from repro.core.densest import densest_subgraph
from repro.core.schedule import RequestSchedule
from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.workload.rates import Workload, log_degree_workload
from tests.conftest import OracleInstance


def naive_chitchat(graph: SocialGraph, workload: Workload) -> RequestSchedule:
    """Reference CHITCHAT: full recomputation at every greedy step."""
    schedule = RequestSchedule()
    uncovered = set(graph.edges())
    instance = OracleInstance(graph, workload)
    while uncovered:
        # best hub champion across ALL hubs, recomputed from scratch
        # (ties break by integer node/edge ids, matching the scheduler's
        # rank-based heap keys)
        best = None
        for hub in sorted(graph.nodes()):
            if graph.in_degree(hub) == 0 or graph.out_degree(hub) == 0:
                continue
            result = instance.call(
                densest_subgraph, instance.hub_graph(hub), schedule, uncovered
            )
            if result is None or not result.covered:
                continue
            if best is None or (result.cost_per_element, result.hub) < (
                best.cost_per_element,
                best.hub,
            ):
                best = result
        # best singleton
        singleton_edge = min(
            uncovered, key=lambda e: (hybrid_edge_cost(e, workload), e)
        )
        singleton_price = hybrid_edge_cost(singleton_edge, workload)

        if best is not None and best.cost_per_element <= singleton_price:
            for x in best.x_selected:
                schedule.add_push((x, best.hub))
            for y in best.y_selected:
                schedule.add_pull((best.hub, y))
            for edge in best.covered:
                u, v = edge
                if u != best.hub and v != best.hub:
                    schedule.cover_via_hub(edge, best.hub)
            uncovered -= best.covered
        else:
            u, v = singleton_edge
            if workload.rp(u) <= workload.rc(v):
                schedule.add_push(singleton_edge)
            else:
                schedule.add_pull(singleton_edge)
            uncovered.discard(singleton_edge)
    return schedule


def random_instance(seed: int, num_nodes: int = 8, num_edges: int = 18):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(num_nodes) for v in range(num_nodes) if u != v]
    rng.shuffle(pairs)
    graph = SocialGraph(pairs[:num_edges])
    workload = Workload(
        production={n: rng.uniform(0.2, 4.0) for n in range(num_nodes)},
        consumption={n: rng.uniform(0.2, 4.0) for n in range(num_nodes)},
    )
    return graph, workload


class TestChitchatAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_cost_on_random_instances(self, seed):
        """The lazy-refresh scheduler matches the full-recompute reference
        on these 8-node instances: identical tie-breaking makes the
        greedy sequences equal as long as every champion the lazy heap
        retained is also what a fresh peel returns — true here, not a
        guarantee at scale (``tests/test_lazy_chitchat.py`` states what
        is guaranteed)."""
        graph, workload = random_instance(seed)
        reference = naive_chitchat(graph, workload)
        validate_schedule(graph, reference)
        optimized = ChitchatScheduler(graph, workload).run()
        assert schedule_cost(optimized, workload) == pytest.approx(
            schedule_cost(reference, workload)
        )

    def test_same_cost_on_social_graph(self):
        graph = social_copying_graph(40, out_degree=4, copy_fraction=0.7, seed=2)
        workload = log_degree_workload(graph, read_write_ratio=2.0)
        reference = naive_chitchat(graph, workload)
        optimized = ChitchatScheduler(graph, workload).run()
        assert schedule_cost(optimized, workload) == pytest.approx(
            schedule_cost(reference, workload)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_reference_not_worse_than_hybrid(self, seed):
        graph, workload = random_instance(seed)
        cost = schedule_cost(naive_chitchat(graph, workload), workload)
        ff = schedule_cost(hybrid_schedule(graph, workload), workload)
        assert cost <= ff + 1e-9

    def test_reference_handles_free_followups(self):
        """Once a hub's legs are paid, covering further cross-edges through
        it is free; both implementations must exploit that (price 0)."""
        # two producers, one hub, one consumer; rc barely above rp so the
        # first selection takes the full hub-graph
        g = SocialGraph(
            [(1, 5), (2, 5), (5, 9), (1, 9), (2, 9)]
        )
        w = Workload(
            production={1: 1.0, 2: 1.0, 5: 1.0, 9: 1.0},
            consumption={1: 1.0, 2: 1.0, 5: 1.0, 9: 1.5},
        )
        reference = naive_chitchat(g, w)
        optimized = ChitchatScheduler(g, w).run()
        for schedule in (reference, optimized):
            validate_schedule(g, schedule)
            assert schedule.hub_cover.get((1, 9)) == 5
            assert schedule.hub_cover.get((2, 9)) == 5
            # cost: two pushes + one pull = 1 + 1 + 1.5
            assert schedule_cost(schedule, w) == pytest.approx(3.5)


class TestSelectionPriceAccounting:
    def test_total_paid_matches_selection_log(self):
        """The sum of (cost-per-element x covered) over the selection log
        must equal the final schedule cost — the greedy charging argument
        that underlies the O(log n) bound."""
        graph = social_copying_graph(50, out_degree=4, copy_fraction=0.7, seed=5)
        workload = log_degree_workload(graph, read_write_ratio=2.0)
        scheduler = ChitchatScheduler(graph, workload, record_log=True)
        schedule = scheduler.run()
        charged = sum(
            price * covered for _kind, price, covered in scheduler.stats.selection_log
        )
        assert charged == pytest.approx(schedule_cost(schedule, workload), rel=1e-6)

    def test_no_infinite_prices_in_log(self):
        graph = social_copying_graph(40, out_degree=4, seed=6)
        workload = log_degree_workload(graph)
        scheduler = ChitchatScheduler(graph, workload, record_log=True)
        scheduler.run()
        assert all(
            math.isfinite(price)
            for _kind, price, _covered in scheduler.stats.selection_log
        )
