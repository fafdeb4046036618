"""Backend parity: the dict and CSR GraphView backends are interchangeable.

The CSR fast path is a pure performance choice, so every algorithm must
produce *identical* output on both backends — same schedules (push/pull/hub
sets, not just costs) from the same instance.  Hypothesis drives random
DISSEMINATION instances through both backends of each scheduler; unit
tests below cover the protocol helpers and the auto-selection policy.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.baselines import hybrid_schedule
from repro.core.chitchat import chitchat_schedule, chitchat_with_stats
from repro.core.cost import schedule_cost
from repro.core.densest import densest_subgraph
from repro.core.hubgraph import build_hub_graph
from repro.core.parallelnosy import parallel_nosy_schedule
from repro.core.schedule import RequestSchedule
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import SocialGraph
from repro.graph.view import (
    CSR_FASTPATH_THRESHOLD,
    GraphView,
    NeighborSetCache,
    as_graph_view,
    edge_list,
    has_dense_int_ids,
    sorted_array_intersect,
    to_csr,
    to_social_graph,
    wedge_nodes,
)
from repro.workload.rates import Workload

SMALL = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw, max_nodes: int = 12, max_edges: int = 40):
    """A random dense-id directed graph plus positive rates per node."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=max_edges)
    )
    graph = SocialGraph(edges)
    graph.add_nodes_from(range(n))
    rate = st.floats(
        min_value=0.05, max_value=20.0, allow_nan=False, allow_infinity=False
    )
    production = {node: draw(rate) for node in graph.nodes()}
    consumption = {node: draw(rate) for node in graph.nodes()}
    workload = Workload(production=production, consumption=consumption)
    return graph, workload


def assert_same_schedule(a, b) -> None:
    assert a.push == b.push
    assert a.pull == b.pull
    assert a.hub_cover == b.hub_cover


class TestSchedulerParity:
    @SMALL
    @given(instances())
    def test_chitchat_backends_identical(self, instance):
        graph, workload = instance
        dict_schedule = chitchat_schedule(graph, workload, backend="dict")
        csr_schedule = chitchat_schedule(graph, workload, backend="csr")
        assert_same_schedule(dict_schedule, csr_schedule)
        assert schedule_cost(dict_schedule, workload) == pytest.approx(
            schedule_cost(csr_schedule, workload), abs=1e-9
        )

    @SMALL
    @given(instances())
    def test_chitchat_stats_match(self, instance):
        graph, workload = instance
        _, stats_dict = chitchat_with_stats(graph, workload, backend="dict")
        _, stats_csr = chitchat_with_stats(graph, workload, backend="csr")
        assert stats_dict.hub_selections == stats_csr.hub_selections
        assert stats_dict.singleton_selections == stats_csr.singleton_selections
        assert stats_dict.oracle_calls == stats_csr.oracle_calls
        assert stats_dict.final_cost == pytest.approx(stats_csr.final_cost)

    @SMALL
    @given(instances())
    def test_parallelnosy_backends_identical(self, instance):
        graph, workload = instance
        assert_same_schedule(
            parallel_nosy_schedule(graph, workload, 5, backend="dict"),
            parallel_nosy_schedule(graph, workload, 5, backend="csr"),
        )

    @SMALL
    @given(instances())
    def test_hybrid_backends_identical(self, instance):
        graph, workload = instance
        assert_same_schedule(
            hybrid_schedule(graph, workload),
            hybrid_schedule(to_csr(graph), workload),
        )

    @SMALL
    @given(instances(), st.integers(min_value=0, max_value=6))
    def test_hub_graph_and_oracle_parity(self, instance, max_cross):
        graph, workload = instance
        csr = to_csr(graph)
        uncovered = set(graph.edges())
        schedule = RequestSchedule()
        cap = max_cross if max_cross > 0 else None
        for hub in graph.nodes():
            hub_dict = build_hub_graph(graph, hub, cap)
            hub_csr = build_hub_graph(csr, hub, cap)
            assert hub_dict.x_nodes == hub_csr.x_nodes
            assert hub_dict.y_nodes == hub_csr.y_nodes
            assert hub_dict.cross_edges == hub_csr.cross_edges
            assert hub_dict.truncated == hub_csr.truncated
            result_dict = densest_subgraph(hub_dict, workload, schedule, uncovered)
            result_csr = densest_subgraph(hub_csr, workload, schedule, uncovered)
            if result_dict is None:
                assert result_csr is None
                continue
            assert result_dict.x_selected == result_csr.x_selected
            assert result_dict.y_selected == result_csr.y_selected
            assert result_dict.covered == result_csr.covered
            assert result_dict.weight == pytest.approx(result_csr.weight)


class TestGraphViewProtocol:
    def test_both_backends_satisfy_protocol(self):
        graph = SocialGraph([(0, 1), (1, 2)])
        assert isinstance(graph, GraphView)
        assert isinstance(to_csr(graph), GraphView)

    @SMALL
    @given(instances())
    def test_accessor_agreement(self, instance):
        graph, _ = instance
        csr = to_csr(graph)
        assert csr.num_nodes == graph.num_nodes
        assert csr.num_edges == graph.num_edges
        assert sorted(csr.nodes()) == sorted(graph.nodes())
        assert sorted(csr.edges()) == sorted(graph.edges())
        assert edge_list(csr) == sorted(graph.edges())
        for node in graph.nodes():
            assert sorted(csr.successors(node).tolist()) == sorted(
                graph.successors(node)
            )
            assert sorted(csr.predecessors(node).tolist()) == sorted(
                graph.predecessors(node)
            )
            assert csr.out_degree(node) == graph.out_degree(node)
            assert csr.in_degree(node) == graph.in_degree(node)
        for u, v in graph.edges():
            assert csr.has_edge(u, v)
            assert not csr.has_edge(v, u) or graph.has_edge(v, u)

    @SMALL
    @given(instances())
    def test_wedge_nodes_agreement(self, instance):
        graph, _ = instance
        csr = to_csr(graph)
        cache_dict = NeighborSetCache(graph)
        cache_csr = NeighborSetCache(csr)
        for a, b in graph.edges():
            expected = sorted(wedge_nodes(graph, a, b))
            assert sorted(wedge_nodes(csr, a, b)) == expected
            assert sorted(cache_dict.wedge(a, b)) == expected
            assert sorted(cache_csr.wedge(a, b)) == expected

    def test_sorted_array_intersect_small_and_large(self):
        a = np.arange(0, 200, 2, dtype=np.int64)
        b = np.arange(0, 200, 3, dtype=np.int64)
        expected = sorted(set(a.tolist()) & set(b.tolist()))
        assert sorted_array_intersect(a, b) == expected
        assert sorted_array_intersect(a[:5], b[:4]) == sorted(
            set(a[:5].tolist()) & set(b[:4].tolist())
        )
        assert sorted_array_intersect(a[:0], b) == []


class TestBackendSelection:
    def test_auto_keeps_small_graphs_on_dict(self):
        graph = SocialGraph([(0, 1), (1, 2)])
        assert as_graph_view(graph) is graph

    def test_auto_upgrades_above_threshold(self):
        graph = SocialGraph([(i, i + 1) for i in range(50)])
        assert isinstance(as_graph_view(graph, threshold=10), CSRGraph)

    def test_auto_respects_global_threshold(self):
        graph = SocialGraph([(i, i + 1) for i in range(CSR_FASTPATH_THRESHOLD + 1)])
        assert isinstance(as_graph_view(graph), CSRGraph)

    def test_auto_keeps_non_dense_ids_on_dict(self):
        graph = SocialGraph([(f"u{i}", f"u{i + 1}") for i in range(50)])
        assert as_graph_view(graph, threshold=10) is graph

    def test_forced_csr_rejects_non_dense_ids(self):
        graph = SocialGraph([("a", "b")])
        with pytest.raises(GraphError):
            as_graph_view(graph, "csr")

    def test_forced_dict_thaws_csr(self):
        graph = SocialGraph([(0, 1), (1, 2)])
        thawed = as_graph_view(to_csr(graph), "dict")
        assert isinstance(thawed, SocialGraph)
        assert thawed == graph

    def test_unknown_backend_rejected(self):
        with pytest.raises(GraphError):
            as_graph_view(SocialGraph([(0, 1)]), "sparse")

    def test_has_dense_int_ids(self):
        assert has_dense_int_ids(SocialGraph([(0, 1), (1, 2)]))
        assert not has_dense_int_ids(SocialGraph([(1, 2), (2, 3)]))
        assert not has_dense_int_ids(SocialGraph([("a", "b")]))
        assert has_dense_int_ids(to_csr(SocialGraph([(0, 1)])))

    def test_to_social_graph_roundtrip(self):
        graph = SocialGraph([(0, 1), (1, 2), (0, 2)])
        assert to_social_graph(to_csr(graph)) == graph
        assert to_social_graph(graph) is graph

    def test_schedulers_accept_csr_input_directly(self):
        graph = SocialGraph([(0, 2), (2, 1), (0, 1), (3, 0), (2, 3)])
        workload = Workload(
            production={i: 1.0 for i in range(4)},
            consumption={i: 5.0 for i in range(4)},
        )
        csr = to_csr(graph)
        assert_same_schedule(
            chitchat_schedule(graph, workload, backend="dict"),
            chitchat_schedule(csr, workload),
        )
