"""Unit tests for hub-graph construction (section 3.1 / Figure 3)."""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import ART, BILLIE, CHARLIE, OracleInstance, make_uniform
from repro.core.densest import ScheduleMirror, dense_vertex_weights
from repro.core.hubgraph import build_hub_graph, single_consumer_hub_graph
from repro.core.schedule import RequestSchedule
from repro.errors import GraphError
from repro.graph.digraph import SocialGraph
from repro.workload.rates import Workload


def sides(graph, hub, **options):
    """The hub-graph's ``(x_nodes, y_nodes, cross_edges)`` and whether it
    was truncated, built on the frozen graph, in ``graph``'s labels."""
    instance = OracleInstance(graph, make_uniform(graph))
    hub_graph = instance.hub_graph(hub, **options)
    return instance.sides(hub_graph), hub_graph


class TestBuildHubGraph:
    def test_wedge_hub(self, wedge_graph):
        (xs, ys, cross), hub = sides(wedge_graph, CHARLIE)
        assert xs == [ART]
        assert ys == [BILLIE]
        assert cross == [(ART, BILLIE)]
        assert not hub.truncated

    def test_elements_include_legs_and_cross(self, wedge_graph):
        hub = build_hub_graph(wedge_graph.to_csr(), CHARLIE)
        assert set(hub.elements()) == {
            (ART, CHARLIE),
            (CHARLIE, BILLIE),
            (ART, BILLIE),
        }

    def test_full_bipartite_cross_edges(self, two_hub_graph):
        (xs, ys, cross), _hub = sides(two_hub_graph, 5)
        assert sorted(xs) == [10, 11]
        assert sorted(ys) == [20, 21]
        assert len(cross) == 4

    def test_cross_edge_bound_truncates(self, two_hub_graph):
        (_xs, _ys, cross), hub = sides(two_hub_graph, 5, max_cross_edges=2)
        assert len(cross) == 2
        assert hub.truncated

    def test_mutual_follower_appears_on_both_sides(self):
        g = SocialGraph([(1, 5), (5, 1), (5, 2)])
        (xs, ys, _cross), _hub = sides(g, 5)
        assert 1 in xs
        assert 1 in ys

    def test_self_cross_edge_excluded(self):
        # x == y would mean covering a reciprocal pair through the hub;
        # the wedge x -> w -> x has no cross-edge (self-loops don't exist).
        g = SocialGraph([(1, 5), (5, 1)])
        (_xs, _ys, cross), _hub = sides(g, 5)
        assert cross == []

    def test_num_vertices(self, two_hub_graph):
        _sides, hub = sides(two_hub_graph, 5)
        assert hub.num_vertices == 4

    def test_element_ids_are_the_edge_ids(self, two_hub_graph):
        instance = OracleInstance(two_hub_graph, make_uniform(two_hub_graph))
        hub = instance.hub_graph(5)
        assert hub.element_ids.tolist() == [
            instance.csr.edge_id(u, v) for u, v in hub.elements()
        ]

    def test_graph_without_dense_edge_ids_is_refused(self, wedge_graph):
        """Hub-graphs are built on dense edge ids; a dict graph is refused
        with the fix in the message, maximal and restricted alike."""
        with pytest.raises(GraphError, match="to_csr"):
            build_hub_graph(wedge_graph, CHARLIE)
        with pytest.raises(GraphError, match="relabeled"):
            build_hub_graph(wedge_graph, CHARLIE, elements=[(ART, BILLIE)])


class TestVertexWeights:
    """``dense_vertex_weights``: ``g(x) = rp(x)`` unless the push leg
    ``x -> w`` is paid, ``g(y) = rc(y)`` unless the pull ``w -> y`` is —
    the weight updates of Algorithm 1 (X side first, then Y side)."""

    def weights(self, graph, workload, schedule):
        instance = OracleInstance(graph, workload)
        hub = instance.hub_graph(CHARLIE)
        mirror = instance.mirror(schedule, ())
        return dense_vertex_weights(hub, hub.peel_index(), mirror.arrays).tolist()

    def test_weights_from_rates(self, wedge_graph):
        w = Workload(
            production={ART: 2.0, BILLIE: 1.0, CHARLIE: 1.0},
            consumption={ART: 1.0, BILLIE: 7.0, CHARLIE: 1.0},
        )
        assert self.weights(wedge_graph, w, RequestSchedule()) == [2.0, 7.0]

    def test_paid_push_leg_weight_zero(self, wedge_graph, wedge_workload):
        schedule = RequestSchedule(push={(ART, CHARLIE)})
        assert self.weights(wedge_graph, wedge_workload, schedule)[0] == 0.0

    def test_paid_pull_leg_weight_zero(self, wedge_graph, wedge_workload):
        schedule = RequestSchedule(pull={(CHARLIE, BILLIE)})
        assert self.weights(wedge_graph, wedge_workload, schedule)[1] == 0.0

    def test_pull_scheduled_push_leg_still_costs(self, wedge_graph, wedge_workload):
        schedule = RequestSchedule(pull={(ART, CHARLIE)})
        assert self.weights(wedge_graph, wedge_workload, schedule)[
            0
        ] == wedge_workload.rp(ART)


class TestScheduleMirror:
    """The oracle's dense state: edge-keyed updates, id-keyed coverage,
    and growth by doubling for an id space that keeps growing."""

    def mirror(self):
        return ScheduleMirror(3, np.array([1.0, 2.0, 3.0]), np.ones(3))

    def test_updates_land_at_the_edge_ids(self):
        mirror = self.mirror()
        assert mirror.uncovered_mask.all()
        mirror.cover([0])
        mirror.add_push(1)
        mirror.add_pull(2)
        assert mirror.uncovered_mask.tolist() == [False, True, True]
        assert mirror.arrays.push_mask.tolist() == [False, True, False]
        assert mirror.arrays.pull_mask.tolist() == [False, False, True]

    def test_reserve_doubles_and_keeps_the_state(self):
        mirror = self.mirror()
        mirror.cover([1])
        mirror.add_push(0)
        arrays = mirror.arrays
        mirror.reserve(3, 3)  # fits: nothing is reallocated
        assert mirror.arrays is arrays
        mirror.reserve(4, 5)
        assert len(mirror.uncovered_mask) == len(mirror.arrays.push_mask) == 6
        assert len(mirror.arrays.rp) == len(mirror.arrays.rc) == 6
        assert mirror.uncovered_mask.tolist() == [True, False, True] + [False] * 3
        assert mirror.arrays.push_mask.tolist() == [True] + [False] * 5
        assert mirror.arrays.rp.tolist() == [1.0, 2.0, 3.0, 0.0, 0.0, 0.0]
        mirror.reserve(20, 6)  # past double: exactly what was asked for
        assert len(mirror.uncovered_mask) == 20 and len(mirror.arrays.rp) == 6


class TestSingleConsumerHubGraph:
    def test_basic_producers(self, two_hub_graph):
        w = make_uniform(two_hub_graph)
        xs = single_consumer_hub_graph(
            two_hub_graph, 5, 20, RequestSchedule(), {}
        )
        assert sorted(xs) == [10, 11]

    def test_covered_push_leg_excluded(self, two_hub_graph):
        xs = single_consumer_hub_graph(
            two_hub_graph, 5, 20, RequestSchedule(), {(10, 5): 99}
        )
        assert xs == [11]

    def test_covered_cross_edge_excluded(self, two_hub_graph):
        xs = single_consumer_hub_graph(
            two_hub_graph, 5, 20, RequestSchedule(), {(10, 20): 99}
        )
        assert xs == [11]

    def test_scheduled_cross_edge_excluded(self, two_hub_graph):
        schedule = RequestSchedule(push={(10, 20)}, pull={(11, 20)})
        xs = single_consumer_hub_graph(two_hub_graph, 5, 20, schedule, {})
        assert xs == []

    def test_requires_cross_edge_to_exist(self):
        g = SocialGraph([(10, 5), (5, 20)])  # no cross-edge 10 -> 20
        xs = single_consumer_hub_graph(g, 5, 20, RequestSchedule(), {})
        assert xs == []

    def test_consumer_never_its_own_producer(self):
        g = SocialGraph([(20, 5), (5, 20), (20, 21), (5, 21)])
        # 20 is a predecessor of 5 and of 21, but x == consumer is skipped
        xs = single_consumer_hub_graph(g, 5, 21, RequestSchedule(), {})
        assert 21 not in xs
