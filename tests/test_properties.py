"""Property-based tests (hypothesis) on core invariants.

Strategies generate small random DISSEMINATION instances; the properties
asserted are the paper's own invariants:

* every algorithm returns a *feasible* schedule (Theorem 1 coverage);
* CHITCHAT and PARALLELNOSY never cost more than the hybrid baseline;
* hybrid never costs more than push-all or pull-all;
* pruning never increases cost nor breaks feasibility;
* the MapReduce PARALLELNOSY matches the in-memory engine exactly;
* incremental maintenance preserves feasibility under arbitrary churn.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.baselines import hybrid_schedule, pull_all_schedule, push_all_schedule
from repro.core.chitchat import chitchat_schedule
from repro.core.cost import schedule_cost
from repro.core.coverage import validate_schedule
from repro.core.incremental import IncrementalMaintainer
from repro.core.parallelnosy import parallel_nosy_schedule
from repro.core.pruning import cleanup_schedule
from repro.graph.digraph import SocialGraph
from repro.mapreduce.jobs import mapreduce_parallel_nosy_schedule
from repro.workload.rates import Workload

SMALL = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw, max_nodes: int = 12, max_edges: int = 40):
    """A random directed graph plus positive rates for every node."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=max_edges)
    )
    graph = SocialGraph(edges)
    rate = st.floats(
        min_value=0.05, max_value=20.0, allow_nan=False, allow_infinity=False
    )
    production = {node: draw(rate) for node in graph.nodes()}
    consumption = {node: draw(rate) for node in graph.nodes()}
    workload = Workload(production=production, consumption=consumption)
    return graph, workload


class TestFeasibilityProperties:
    @SMALL
    @given(instances())
    def test_hybrid_always_feasible(self, instance):
        graph, workload = instance
        validate_schedule(graph, hybrid_schedule(graph, workload))

    @SMALL
    @given(instances())
    def test_chitchat_always_feasible(self, instance):
        graph, workload = instance
        validate_schedule(graph, chitchat_schedule(graph, workload))

    @SMALL
    @given(instances())
    def test_parallelnosy_always_feasible(self, instance):
        graph, workload = instance
        validate_schedule(graph, parallel_nosy_schedule(graph, workload, 5))


class TestCostOrderingProperties:
    @SMALL
    @given(instances())
    def test_hybrid_not_worse_than_pure_policies(self, instance):
        graph, workload = instance
        hybrid = schedule_cost(hybrid_schedule(graph, workload), workload)
        assert hybrid <= schedule_cost(push_all_schedule(graph), workload) + 1e-6
        assert hybrid <= schedule_cost(pull_all_schedule(graph), workload) + 1e-6

    @SMALL
    @given(instances())
    def test_chitchat_not_worse_than_hybrid(self, instance):
        graph, workload = instance
        cc = schedule_cost(chitchat_schedule(graph, workload), workload)
        ff = schedule_cost(hybrid_schedule(graph, workload), workload)
        assert cc <= ff + 1e-6

    @SMALL
    @given(instances())
    def test_parallelnosy_not_worse_than_hybrid(self, instance):
        graph, workload = instance
        pn = schedule_cost(parallel_nosy_schedule(graph, workload, 5), workload)
        ff = schedule_cost(hybrid_schedule(graph, workload), workload)
        assert pn <= ff + 1e-6

    @SMALL
    @given(instances())
    def test_pruning_never_hurts(self, instance):
        graph, workload = instance
        schedule = parallel_nosy_schedule(graph, workload, 5)
        cleaned = cleanup_schedule(graph, schedule, workload)
        validate_schedule(graph, cleaned)
        assert schedule_cost(cleaned, workload) <= schedule_cost(
            schedule, workload
        ) + 1e-6


class TestEngineEquivalence:
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instances(max_nodes=10, max_edges=30))
    def test_mapreduce_matches_in_memory(self, instance):
        graph, workload = instance
        pn = parallel_nosy_schedule(graph, workload, 4)
        mr = mapreduce_parallel_nosy_schedule(graph, workload, 4)
        assert pn.push == mr.push
        assert pn.pull == mr.pull
        assert pn.hub_cover == mr.hub_cover


class TestSerializationProperties:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instances(max_nodes=10, max_edges=25))
    def test_schedule_roundtrip_through_disk(self, instance):
        import tempfile
        from pathlib import Path

        from repro.core.serialize import load_schedule, save_schedule

        graph, workload = instance
        schedule = parallel_nosy_schedule(graph, workload, 3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.json"
            save_schedule(schedule, path)
            loaded, _meta = load_schedule(path)
        assert loaded.push == schedule.push
        assert loaded.pull == schedule.pull
        assert loaded.hub_cover == schedule.hub_cover
        validate_schedule(graph, loaded)


class TestIncrementalProperties:
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instances(max_nodes=10, max_edges=25), st.randoms(use_true_random=False))
    def test_churn_preserves_feasibility(self, instance, rng):
        graph, workload = instance
        schedule = parallel_nosy_schedule(graph, workload, 3)
        maintainer = IncrementalMaintainer(graph, workload, schedule)
        nodes = sorted(graph.nodes())
        for _ in range(30):
            if rng.random() < 0.5 and graph.num_edges > 1:
                edges = sorted(graph.edges())
                maintainer.remove_edge(*edges[rng.randrange(len(edges))])
            else:
                u = nodes[rng.randrange(len(nodes))]
                v = nodes[rng.randrange(len(nodes))]
                if u != v:
                    maintainer.add_edge(u, v)
        assert maintainer.is_feasible()
        validate_schedule(graph, maintainer.schedule)
