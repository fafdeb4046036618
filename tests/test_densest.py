"""Unit tests for the weighted densest-subgraph oracle (Lemma 1)."""

from __future__ import annotations

import math
from itertools import chain, combinations

import pytest

from tests.conftest import ART, BILLIE, CHARLIE, OracleInstance, make_uniform
from repro.core.densest import densest_subgraph, unweighted_densest_subgraph
from repro.core.schedule import RequestSchedule
from repro.graph.digraph import SocialGraph
from repro.workload.rates import Workload


def peel(graph, hub, workload, schedule, uncovered, upper_bound=None):
    """The peel oracle on ``graph``'s hub-graph at ``hub``, in its labels."""
    instance = OracleInstance(graph, workload)
    return instance.call(
        densest_subgraph,
        instance.hub_graph(hub),
        schedule,
        uncovered,
        upper_bound=upper_bound,
    )


def brute_force_best(graph, hub, workload, schedule, uncovered):
    """Exhaustive best-density sub-hub-graph for cross-checking the peel."""
    instance = OracleInstance(graph, workload)
    xs, ys, cross_edges = instance.sides(instance.hub_graph(hub))

    def weight_of(x_sel, y_sel):
        # Algorithm 1's weights: a leg already paid for is free
        return sum(
            0.0 if (x, hub) in schedule.push else workload.rp(x) for x in x_sel
        ) + sum(
            0.0 if (hub, y) in schedule.pull else workload.rc(y) for y in y_sel
        )

    best_density = -1.0
    best = None
    x_power = chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))
    for x_sel in x_power:
        y_power = chain.from_iterable(
            combinations(ys, r) for r in range(len(ys) + 1)
        )
        for y_sel in y_power:
            covered = set()
            for x in x_sel:
                if (x, hub) in uncovered:
                    covered.add((x, hub))
            for y in y_sel:
                if (hub, y) in uncovered:
                    covered.add((hub, y))
            for x, y in cross_edges:
                if x in x_sel and y in y_sel and (x, y) in uncovered:
                    covered.add((x, y))
            if not covered:
                continue
            weight = weight_of(x_sel, y_sel)
            density = math.inf if weight == 0 else len(covered) / weight
            if density > best_density:
                best_density = density
                best = (set(x_sel), set(y_sel), covered)
    return best_density, best


class TestWedgeOracle:
    def test_selects_whole_wedge(self, wedge_graph):
        # rc close to rp so the full wedge (3 elements / rp + rc) is denser
        # than the push-leg-only subgraph (1 element / rp).
        w = make_uniform(wedge_graph, rp=1.0, rc=1.2)
        result = peel(
            wedge_graph, CHARLIE, w, RequestSchedule(), set(wedge_graph.edges())
        )
        assert result is not None
        assert result.x_selected == (ART,)
        assert result.y_selected == (BILLIE,)
        assert result.covered == frozenset(wedge_graph.edges())
        assert result.density == pytest.approx(3.0 / 2.2)
        assert result.cost_per_element == pytest.approx(2.2 / 3.0)

    def test_expensive_pull_drops_consumer_side(self, wedge_graph, wedge_workload):
        # with rc = 5 >> rp = 1 the pull leg is not worth it: the densest
        # sub-hub-graph is the bare push leg {ART} (1 element / 1.0).
        result = peel(
            wedge_graph,
            CHARLIE,
            wedge_workload,
            RequestSchedule(),
            set(wedge_graph.edges()),
        )
        assert result is not None
        assert result.x_selected == (ART,)
        assert result.y_selected == ()
        assert result.covered == frozenset({(ART, CHARLIE)})
        assert result.cost_per_element == pytest.approx(1.0)

    def test_returns_none_when_nothing_uncovered(self, wedge_graph, wedge_workload):
        assert (
            peel(wedge_graph, CHARLIE, wedge_workload, RequestSchedule(), set())
            is None
        )

    def test_free_when_legs_paid(self, wedge_graph, wedge_workload):
        schedule = RequestSchedule(
            push={(ART, CHARLIE)}, pull={(CHARLIE, BILLIE)}
        )
        result = peel(
            wedge_graph, CHARLIE, wedge_workload, schedule, {(ART, BILLIE)}
        )
        assert result is not None
        assert result.weight == 0.0
        assert result.density == math.inf
        assert result.cost_per_element == 0.0


class TestHubSelection:
    def test_prefers_dense_consumer_side(self):
        """Hub with one consumer having many cross-edges and one with none:
        the peel should drop the useless consumer."""
        g = SocialGraph(
            [(10, 5), (11, 5), (12, 5), (5, 20), (5, 21)]
            + [(10, 20), (11, 20), (12, 20)]
        )
        w = make_uniform(g, rp=1.0, rc=2.0)
        # full hub {10,11,12,20}: 7 elements / weight 5 = 0.71 cost/elem;
        # adding 21 only brings its pull leg: 8 / 7 = 0.875 -> dropped.
        result = peel(g, 5, w, RequestSchedule(), set(g.edges()))
        assert result is not None
        assert 20 in result.y_selected
        assert 21 not in result.y_selected

    def test_matches_brute_force_on_small_hubs(self):
        g = SocialGraph(
            [(1, 5), (2, 5), (3, 5), (5, 7), (5, 8), (1, 7), (2, 7), (2, 8)]
        )
        w = Workload(
            production={1: 1.0, 2: 0.5, 3: 4.0, 5: 1.0, 7: 1.0, 8: 1.0},
            consumption={1: 1.0, 2: 1.0, 3: 1.0, 5: 1.0, 7: 2.0, 8: 6.0},
        )
        uncovered = set(g.edges())
        result = peel(g, 5, w, RequestSchedule(), uncovered)
        best_density, _ = brute_force_best(g, 5, w, RequestSchedule(), uncovered)
        assert result is not None
        # Lemma 1: factor-2 approximation of the optimum
        assert result.density >= best_density / 2.0 - 1e-9

    def test_two_approximation_over_random_instances(self):
        import random

        rng = random.Random(0)
        for trial in range(15):
            edges = set()
            for x in range(3):
                edges.add((x, 10))
            for y in range(20, 23):
                edges.add((10, y))
            for x in range(3):
                for y in range(20, 23):
                    if rng.random() < 0.5:
                        edges.add((x, y))
            g = SocialGraph(edges)
            w = Workload(
                production={n: rng.uniform(0.1, 5.0) for n in g.nodes()},
                consumption={n: rng.uniform(0.1, 5.0) for n in g.nodes()},
            )
            uncovered = set(g.edges())
            result = peel(g, 10, w, RequestSchedule(), uncovered)
            best_density, _ = brute_force_best(
                g, 10, w, RequestSchedule(), uncovered
            )
            assert result is not None
            assert result.density >= best_density / 2.0 - 1e-9, f"trial {trial}"

    def test_covered_set_consistent_with_selection(self, two_hub_graph):
        w = make_uniform(two_hub_graph)
        result = peel(
            two_hub_graph, 5, w, RequestSchedule(), set(two_hub_graph.edges())
        )
        assert result is not None
        for x, y in result.covered:
            if y == 5:
                assert x in result.x_selected
            elif x == 5:
                assert y in result.y_selected
            else:
                assert x in result.x_selected and y in result.y_selected


class TestUnweightedReference:
    def test_empty(self):
        nodes, density = unweighted_densest_subgraph({})
        assert nodes == set() and density == 0.0

    def test_clique_plus_pendant(self):
        adjacency = {
            1: {2, 3, 4},
            2: {1, 3, 4},
            3: {1, 2, 4},
            4: {1, 2, 3, 5},
            5: {4},
        }
        nodes, density = unweighted_densest_subgraph(adjacency)
        assert nodes == {1, 2, 3, 4}
        assert density == pytest.approx(6 / 4)

    def test_single_edge(self):
        nodes, density = unweighted_densest_subgraph({1: {2}, 2: {1}})
        assert density == pytest.approx(0.5)
        assert nodes == {1, 2}


class TestBoundedOracle:
    """The ``upper_bound`` early exit and the certified optimum bounds."""

    def test_low_upper_bound_returns_cutoff(self, wedge_graph):
        from repro.core.densest import OracleCutoff

        w = make_uniform(wedge_graph, rp=1.0, rc=1.2)
        uncovered = set(wedge_graph.edges())
        result = peel(
            wedge_graph, CHARLIE, w, RequestSchedule(), uncovered, upper_bound=1e-6
        )
        assert isinstance(result, OracleCutoff)
        assert result.hub == CHARLIE
        assert result.lower_bound > 1e-6

    def test_high_upper_bound_matches_unbounded_result(self, wedge_graph):
        w = make_uniform(wedge_graph, rp=1.0, rc=1.2)
        uncovered = set(wedge_graph.edges())
        unbounded = peel(wedge_graph, CHARLIE, w, RequestSchedule(), uncovered)
        bounded = peel(
            wedge_graph, CHARLIE, w, RequestSchedule(), uncovered, upper_bound=1e9
        )
        assert bounded.covered == unbounded.covered
        assert bounded.x_selected == unbounded.x_selected
        assert bounded.y_selected == unbounded.y_selected
        assert bounded.cost_per_element == unbounded.cost_per_element

    def test_no_upper_bound_never_returns_cutoff(self, wedge_graph):
        from repro.core.densest import OracleCutoff

        w = make_uniform(wedge_graph, rp=1.0, rc=50.0)
        result = peel(
            wedge_graph, CHARLIE, w, RequestSchedule(), set(wedge_graph.edges())
        )
        assert not isinstance(result, OracleCutoff)

    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_never_exceed_true_optimum(self, seed):
        """Both certificates (cutoff bound, result.opt_lower_bound) must
        lower-bound the exhaustive optimum cost per element."""
        import random

        from repro.core.densest import OracleCutoff
        from repro.graph.generators import social_copying_graph
        from repro.workload.rates import log_degree_workload

        rng = random.Random(seed)
        graph = social_copying_graph(
            12, out_degree=3, copy_fraction=0.7, reciprocity=0.4, seed=seed
        )
        workload = log_degree_workload(graph, read_write_ratio=2.0)
        uncovered = {e for e in graph.edges() if rng.random() < 0.8}
        for hub_node in graph.nodes():
            if graph.in_degree(hub_node) == 0 or graph.out_degree(hub_node) == 0:
                continue
            best_density, best = brute_force_best(
                graph, hub_node, workload, RequestSchedule(), uncovered
            )
            if best is None:
                continue
            opt_cost = 0.0 if math.isinf(best_density) else 1.0 / best_density
            # a sub-epsilon bound forces the probe on every viable hub
            probe = peel(
                graph,
                hub_node,
                workload,
                RequestSchedule(),
                uncovered,
                upper_bound=-1.0,
            )
            assert isinstance(probe, OracleCutoff)
            assert probe.lower_bound <= opt_cost + 1e-9
            full = peel(graph, hub_node, workload, RequestSchedule(), uncovered)
            assert full is not None
            assert full.opt_lower_bound <= opt_cost + 1e-9
            assert full.opt_lower_bound <= full.cost_per_element + 1e-12
