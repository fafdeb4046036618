"""Differential suite for the restricted hub-graph build.

``build_hub_graph(graph, hub, elements=U)`` keeps only the sides and
cross-edges the elements of ``U`` touch.  Both oracles admit only vertices
incident to an *uncovered* element, so for any ``uncovered`` ⊆ ``U`` the
champion on the restricted build must equal the maximal build's bit for
bit — the contract ``DeltaScheduler``'s output-sensitive repair rests on:

* oracle level: hypothesis-driven, random small graphs *with mutual
  follows* (a node on both the X and the Y side), random element subsets,
  random already-paid legs, peel and exact;
* end to end: one churn stream replayed against a test-only reference that
  forces maximal builds, schedules and costs compared exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.delta as delta_module
from repro.core.chitchat import ChitchatScheduler
from repro.core.delta import DeltaScheduler
from repro.core.densest import densest_subgraph
from repro.core.hubgraph import build_hub_graph
from repro.core.schedule import RequestSchedule
from repro.errors import GraphError
from repro.flow.exact_oracle import ExactOracle
from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.workload import churn_stream, log_degree_workload
from repro.workload.rates import Workload
from tests.conftest import OracleInstance

#: repeated values on purpose: equal weights exercise the peel's tie-breaks
RATES = [0.5, 1.0, 1.0, 2.0, 3.7, 10.0]


@st.composite
def hub_problems(draw):
    """(graph, hub, workload, schedule, elements, uncovered) around one hub.

    ``graph`` is frozen to CSR: hub-graphs are built on dense edge ids.
    """
    n = draw(st.integers(min_value=4, max_value=9))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = set(draw(st.sets(st.sampled_from(pairs), min_size=4, max_size=40)))
    # mutual follows: mirror a drawn subset so nodes sit on both sides
    mirrored = draw(st.sets(st.sampled_from(sorted(edges)), max_size=len(edges)))
    edges |= {(b, a) for a, b in mirrored}
    social = SocialGraph(sorted(edges))
    social.add_nodes_from(range(n))  # dense ids, so the graph freezes to CSR
    graph = social.to_csr()
    hubs = [
        w for w in sorted(graph.nodes())
        if graph.in_degree(w) > 0 and graph.out_degree(w) > 0
    ]
    assume(hubs)
    hub = draw(st.sampled_from(hubs))
    workload = Workload(
        production={v: draw(st.sampled_from(RATES)) for v in range(n)},
        consumption={v: draw(st.sampled_from(RATES)) for v in range(n)},
    )
    maximal = build_hub_graph(graph, hub)
    schedule = RequestSchedule()
    for x in maximal.x_nodes:
        if draw(st.booleans()):
            schedule.add_push((x, hub))
    for y in maximal.y_nodes:
        if draw(st.booleans()):
            schedule.add_pull((hub, y))
    servable = maximal.elements()
    elements = draw(
        st.lists(st.sampled_from(servable), min_size=1, max_size=len(servable))
    )  # duplicates and arbitrary order allowed: the build canonicalizes
    uncovered = set(draw(st.sets(st.sampled_from(elements), min_size=1)))
    return graph, hub, workload, schedule, elements, uncovered


def assert_same_champion(restricted, maximal):
    if maximal is None:
        assert restricted is None
        return
    assert restricted.x_selected == maximal.x_selected
    assert restricted.y_selected == maximal.y_selected
    assert restricted.covered == maximal.covered
    assert restricted.weight == maximal.weight  # bit-equal, not approx
    assert restricted.opt_lower_bound == maximal.opt_lower_bound
    assert restricted.exact == maximal.exact


class TestRestrictedBuild:
    @given(problem=hub_problems())
    @settings(max_examples=150, deadline=None)
    def test_is_order_preserving_subgraph_of_maximal(self, problem):
        graph, hub, _workload, _schedule, elements, _uncovered = problem
        maximal = build_hub_graph(graph, hub)
        restricted = build_hub_graph(graph, hub, elements=elements)
        wanted = set(elements)
        xs = {u for u, v in wanted if u != hub}
        ys = {v for u, v in wanted if v != hub}
        assert restricted.x_nodes == [x for x in maximal.x_nodes if x in xs]
        assert restricted.y_nodes == [y for y in maximal.y_nodes if y in ys]
        assert restricted.cross_edges == [
            e for e in maximal.cross_edges if e in wanted
        ]
        assert not restricted.truncated
        assert wanted <= set(restricted.elements())
        assert restricted.num_elements <= 3 * len(wanted)
        assert restricted.element_ids.tolist() == [
            graph.edge_id(u, v) for u, v in restricted.elements()
        ]

    def test_rejects_elements_the_hub_cannot_serve(self, wedge_graph):
        art, billie, charlie = 0, 1, 2
        csr = wedge_graph.to_csr()
        with pytest.raises(GraphError):  # cross-edge absent from the graph
            build_hub_graph(csr, charlie, elements=[(billie, art)])
        with pytest.raises(GraphError):  # art -> billie is no wedge of art
            build_hub_graph(csr, art, elements=[(charlie, billie)])

    def test_rejects_truncation(self, wedge_graph):
        with pytest.raises(GraphError):
            build_hub_graph(
                wedge_graph.to_csr(), 2, max_cross_edges=1, elements=[(0, 1)]
            )


class TestOracleEquivalence:
    @given(problem=hub_problems())
    @settings(max_examples=200, deadline=None)
    def test_peel_champion_is_bit_equal(self, problem):
        graph, hub, workload, schedule, elements, uncovered = problem
        instance = OracleInstance(graph, workload)
        maximal = instance.call(
            densest_subgraph, build_hub_graph(graph, hub), schedule, uncovered
        )
        restricted = instance.call(
            densest_subgraph,
            build_hub_graph(graph, hub, elements=elements),
            schedule,
            uncovered,
        )
        assert_same_champion(restricted, maximal)
        if maximal is not None:
            assert sorted(restricted.covered_ids.tolist()) == sorted(
                maximal.covered_ids.tolist()
            )

    @given(problem=hub_problems())
    @settings(max_examples=100, deadline=None)
    def test_exact_champion_is_bit_equal(self, problem):
        graph, hub, workload, schedule, elements, uncovered = problem
        instance = OracleInstance(graph, workload)
        maximal = instance.call(
            ExactOracle(), build_hub_graph(graph, hub), schedule, uncovered
        )
        restricted = instance.call(
            ExactOracle(),
            build_hub_graph(graph, hub, elements=elements),
            schedule,
            uncovered,
        )
        assert_same_champion(restricted, maximal)


def force_maximal_builds(monkeypatch):
    """Test-only reference: the delta tier as it was before ``elements=``.

    Every repair build gets the hub's maximal element set — all its legs
    and every cross-edge — enumerated on the churn graph's adjacency.
    """
    real = delta_module.build_hub_graph

    def maximal_only(graph, hub, max_cross_edges=None, elements=None):
        social = graph.social
        xs = social.predecessors_view(hub)
        ys = social.successors_view(hub)
        every = [(x, hub) for x in xs] + [(hub, y) for y in ys]
        every += [
            (x, y) for x in xs for y in social.successors_view(x) & ys if y != x
        ]
        return real(graph, hub, elements=every)

    monkeypatch.setattr(delta_module, "build_hub_graph", maximal_only)


def churn_instance(seed: int, nodes: int = 120):
    graph = social_copying_graph(
        nodes, out_degree=6, copy_fraction=0.6, reciprocity=0.4, seed=seed
    )
    workload = log_degree_workload(graph, read_write_ratio=5.0)
    scheduler = ChitchatScheduler(graph, workload)
    scheduler.run()
    events = churn_stream(graph, workload, 150, seed=seed + 100)
    return scheduler, events


class TestDeltaEndToEnd:
    @pytest.mark.parametrize("oracle", ["peel", "exact"])
    def test_restricted_repairs_match_maximal_reference(self, oracle, monkeypatch):
        scheduler, events = churn_instance(seed=9)
        restricted = DeltaScheduler.from_scheduler(scheduler, oracle=oracle)
        restricted.apply_events(events)

        force_maximal_builds(monkeypatch)
        reference = DeltaScheduler.from_scheduler(scheduler, oracle=oracle)
        reference.apply_events(events)

        assert restricted.schedule.push == reference.schedule.push
        assert restricted.schedule.pull == reference.schedule.pull
        assert restricted.schedule.hub_cover == reference.schedule.hub_cover
        assert restricted.cost() == reference.cost()  # same float, same order
        for counter in ("hub_refreshes", "elements_reopened", "hub_selections"):
            assert getattr(restricted.stats, counter) == getattr(
                reference.stats, counter
            )
        assert restricted.stats.hub_selections > 0  # the stream re-piggybacks
        assert (
            restricted.stats.elements_materialized
            < reference.stats.elements_materialized
        )
