"""Property tests for the LDBC-style churn-stream generator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialize import load_events, save_events
from repro.errors import WorkloadError
from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.workload import (
    ChurnEvent,
    Workload,
    churn_stream,
    event_mix,
    log_degree_workload,
    replay,
)
from repro.workload.churn import _apportion


def small_instance(seed: int = 2):
    graph = social_copying_graph(40, out_degree=4, copy_fraction=0.6, seed=seed)
    return graph, log_degree_workload(graph)


class TestChurnEvent:
    def test_add_requires_edge_only(self):
        with pytest.raises(WorkloadError):
            ChurnEvent(kind="add")
        with pytest.raises(WorkloadError):
            ChurnEvent(kind="add", edge=(0, 1), user=2)

    def test_rate_requires_user_and_rates(self):
        with pytest.raises(WorkloadError):
            ChurnEvent(kind="rate", user=0)
        with pytest.raises(WorkloadError):
            ChurnEvent(kind="rate", user=0, rp=-1.0, rc=2.0)

    @pytest.mark.parametrize(
        "rp, rc",
        [
            (float("nan"), 1.0),
            (1.0, float("nan")),
            (float("inf"), 1.0),
            (1.0, float("-inf")),
        ],
    )
    def test_rate_rejects_non_finite_rates(self, rp, rc):
        """Same rule as ``Workload``: a NaN rate would otherwise reach the
        running cost of ``DeltaScheduler``."""
        with pytest.raises(WorkloadError, match="invalid rate"):
            ChurnEvent(kind="rate", user=0, rp=rp, rc=rc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError):
            ChurnEvent(kind="merge", edge=(0, 1))

    @pytest.mark.parametrize("kind", ["add", "remove"])
    def test_self_loop_rejected(self, kind):
        """No graph holds ``(u, u)``: an add would fail half-applied inside
        ``DeltaScheduler.apply`` and a remove would count as a no-op."""
        with pytest.raises(WorkloadError, match="self-loop"):
            ChurnEvent(kind=kind, edge=(9, 9))

    @pytest.mark.parametrize("kind", ["add", "remove"])
    def test_load_events_rejects_self_loop(self, kind, tmp_path):
        path = tmp_path / "events.json"
        save_events([ChurnEvent(kind="add", edge=(1, 2))], path)
        path.write_text(
            path.read_text().replace("[1, 2]", "[9, 9]").replace("add", kind)
        )
        with pytest.raises(WorkloadError, match="self-loop"):
            load_events(path)


class TestApportionment:
    @given(
        num=st.integers(min_value=0, max_value=500),
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=5,
        ).filter(lambda f: sum(f) > 0),
    )
    def test_counts_sum_exactly(self, num, fractions):
        counts = _apportion(num, fractions)
        assert sum(counts) == num
        assert all(c >= 0 for c in counts)

    def test_exact_split(self):
        assert _apportion(10, (0.4, 0.4, 0.2)) == [4, 4, 2]

    def test_remainder_goes_to_largest_fraction(self):
        assert _apportion(3, (0.5, 0.5)) == [2, 1]  # tie breaks to earlier

    def test_rejects_negative_or_zero_fractions(self):
        with pytest.raises(WorkloadError):
            _apportion(10, (0.5, -0.1))
        with pytest.raises(WorkloadError):
            _apportion(10, (0.0, 0.0))


class TestDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_same_seed_same_stream(self, seed):
        graph, workload = small_instance()
        first = churn_stream(graph, workload, 30, seed=seed)
        second = churn_stream(graph, workload, 30, seed=seed)
        assert first == second

    def test_different_seeds_differ(self):
        graph, workload = small_instance()
        assert churn_stream(graph, workload, 30, seed=1) != churn_stream(
            graph, workload, 30, seed=2
        )

    def test_generator_does_not_mutate_inputs(self):
        graph, workload = small_instance()
        edges_before = sorted(graph.edges())
        rates_before = dict(workload.production)
        churn_stream(graph, workload, 50, seed=9)
        assert sorted(graph.edges()) == edges_before
        assert workload.production == rates_before


class TestEventMix:
    @given(
        num=st.integers(min_value=0, max_value=120),
        seed=st.integers(min_value=0, max_value=1000),
        fractions=st.tuples(
            st.floats(min_value=0.05, max_value=1.0),
            st.floats(min_value=0.05, max_value=1.0),
            st.floats(min_value=0.05, max_value=1.0),
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_mix_matches_requested_fractions_exactly(self, num, seed, fractions):
        """Kind counts are apportioned, not sampled: they match the
        largest-remainder split exactly (up to the documented degenerate
        substitutions, which cannot trigger on this instance: the graph
        is far from complete and removals never outnumber the live set)."""
        graph, workload = small_instance()
        add_f, remove_f, rate_f = fractions
        events = churn_stream(
            graph,
            workload,
            num,
            add_fraction=add_f,
            remove_fraction=remove_f,
            rate_fraction=rate_f,
            seed=seed,
        )
        expected = _apportion(num, fractions)
        mix = event_mix(events)
        assert [mix["add"], mix["remove"], mix["rate"]] == expected

    def test_degenerate_remove_substitutes_add(self):
        """On an instance whose live set drains, removals become adds so
        the stream length stays exact."""
        graph = SocialGraph([(0, 1)])
        workload = Workload(production={0: 1.0, 1: 1.0}, consumption={0: 1.0, 1: 1.0})
        events = churn_stream(
            graph, workload, 6, add_fraction=0.0, remove_fraction=1.0,
            rate_fraction=0.0, seed=0,
        )
        assert len(events) == 6
        # only one edge exists: after removing it, removals flip to adds
        replayed_graph, _ = replay(graph, workload, events)
        assert replayed_graph.num_edges >= 0  # replay applies cleanly


class TestReplay:
    def test_stream_is_noop_free_and_replay_exact(self):
        """Adds never duplicate a live edge and removals always name one,
        so replay applies every graph event effectively."""
        graph, workload = small_instance()
        events = churn_stream(graph, workload, 80, seed=5)
        live = set(graph.edges())
        for event in events:
            if event.kind == "add":
                assert event.edge not in live
                live.add(event.edge)
            elif event.kind == "remove":
                assert event.edge in live
                live.discard(event.edge)
        replayed_graph, _ = replay(graph, workload, events)
        assert set(replayed_graph.edges()) == live

    def test_rate_events_carry_absolute_values(self):
        graph, workload = small_instance()
        events = churn_stream(
            graph, workload, 40, add_fraction=0, remove_fraction=0,
            rate_fraction=1.0, seed=3,
        )
        _, replayed = replay(graph, workload, events)
        # the last event per user wins, exactly
        last = {}
        for event in events:
            last[event.user] = event
        for user, event in last.items():
            assert replayed.rp(user) == event.rp
            assert replayed.rc(user) == event.rc

    def test_replayable_from_serialized_form(self, tmp_path):
        """A stream round-tripped through the repro-churn format replays
        to the identical post-churn instance."""
        graph, workload = small_instance()
        events = churn_stream(graph, workload, 60, seed=8)
        path = tmp_path / "events.json.gz"
        save_events(events, path, metadata={"seed": 8})
        loaded, metadata = load_events(path)
        assert loaded == events
        assert metadata == {"seed": 8}
        graph_a, workload_a = replay(graph, workload, events)
        graph_b, workload_b = replay(graph, workload, loaded)
        assert sorted(graph_a.edges()) == sorted(graph_b.edges())
        assert workload_a.production == workload_b.production
        assert workload_a.consumption == workload_b.consumption

    def test_replay_tolerates_handwritten_noops(self):
        graph, workload = small_instance()
        existing = next(iter(graph.edges()))
        events = [
            ChurnEvent(kind="add", edge=existing),  # duplicate: no-op
            ChurnEvent(kind="remove", edge=(7001, 7002)),  # absent: no-op
        ]
        replayed_graph, _ = replay(graph, workload, events)
        assert sorted(replayed_graph.edges()) == sorted(graph.edges())

    def test_midstream_user_enters_at_floor_rates(self):
        graph, workload = small_instance()
        events = [ChurnEvent(kind="add", edge=(9001, 9002))]
        _, replayed = replay(graph, workload, events)
        rp_floor = min(r for r in workload.production.values() if r > 0)
        rc_floor = min(r for r in workload.consumption.values() if r > 0)
        assert replayed.rp(9001) == rp_floor
        assert replayed.rc(9002) == rc_floor


class TestValidation:
    def test_negative_num_events_rejected(self):
        graph, workload = small_instance()
        with pytest.raises(WorkloadError):
            churn_stream(graph, workload, -1)

    def test_tiny_graph_rejected(self):
        graph = SocialGraph([(0, 1)])
        workload = Workload(production={0: 1.0, 1: 1.0}, consumption={0: 1.0, 1: 1.0})
        events = churn_stream(graph, workload, 4, seed=0)
        assert len(events) == 4  # two nodes suffice
        lonely = SocialGraph()
        lonely.add_nodes_from([0])
        with pytest.raises(WorkloadError):
            churn_stream(lonely, workload, 4)

    def test_negative_jitter_rejected(self):
        graph, workload = small_instance()
        with pytest.raises(WorkloadError):
            churn_stream(graph, workload, 5, rate_jitter=-2.0)
