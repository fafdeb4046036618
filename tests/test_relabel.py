"""CHITCHAT on graphs whose node ids are not ``0..n-1``.

The scheduler runs on a dense-id CSR copy of every instance.  A graph
with other labels — strings, sparse integers as in SNAP edge lists — is
relabeled once at the boundary in the heap's tie-break order (numeric
for integer ids, ``repr``-sorted otherwise), and everything the caller
sees — the returned schedule, ``scheduler.graph`` / ``.workload`` /
``.schedule`` — stays in the caller's labels.  So a run on such a graph
must equal the run on the explicit rank-order relabeling, mapped back,
whatever the oracle.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cli import main
from repro.core.chitchat import ChitchatScheduler, chitchat_with_stats
from repro.core.cost import schedule_cost
from repro.core.coverage import validate_schedule
from repro.core.delta import DeltaScheduler
from repro.core.densest import _PROBE_VECTOR_THRESHOLD
from repro.core.hubgraph import build_hub_graph
from repro.core.schedule import RequestSchedule
from repro.core.serialize import load_schedule
from repro.errors import WorkloadError
from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.view import has_dense_int_ids
from repro.workload.churn import ChurnEvent, churn_stream
from repro.workload.rates import Workload, log_degree_workload

SMALL = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Label maps from dense ids: SNAP-style sparse integers, whose numeric
#: order is the dense order, and strings, whose ``repr`` order is not.
LABELINGS = {
    "sparse-int": lambda i: 7 * i + 3,
    "string": lambda i: f"user-{i}",
}


def relabel(graph: SocialGraph, workload: Workload, label):
    """``graph`` / ``workload`` with every node ``u`` renamed ``label(u)``."""
    renamed = SocialGraph((label(u), label(v)) for u, v in graph.edges())
    renamed.add_nodes_from(label(u) for u in graph.nodes())
    return renamed, Workload(
        production={label(u): r for u, r in workload.production.items()},
        consumption={label(u): r for u, r in workload.consumption.items()},
    )


def map_schedule(schedule: RequestSchedule, label) -> RequestSchedule:
    """``schedule`` with every node ``u`` renamed ``label(u)``."""
    return RequestSchedule(
        push={(label(u), label(v)) for u, v in schedule.push},
        pull={(label(u), label(v)) for u, v in schedule.pull},
        hub_cover={
            (label(u), label(v)): label(w)
            for (u, v), w in schedule.hub_cover.items()
        },
    )


def rank_order_run(graph: SocialGraph, workload: Workload, **options):
    """The reference: relabel to ``0..n-1`` in tie-break order by hand,
    run there, and map the schedule back to ``graph``'s labels."""
    nodes = list(graph.nodes())
    if all(type(node) is int for node in nodes):
        labels = sorted(nodes)
    else:
        labels = sorted(nodes, key=repr)
    index = {label: i for i, label in enumerate(labels)}
    dense = SocialGraph((index[u], index[v]) for u, v in graph.edges())
    dense.add_nodes_from(range(len(labels)))
    rates = Workload(
        production={index[u]: workload.rp(u) for u in labels},
        consumption={index[u]: workload.rc(u) for u in labels},
    )
    schedule = ChitchatScheduler(dense, rates, **options).run()
    return map_schedule(schedule, labels.__getitem__)


def assert_same_schedule(a: RequestSchedule, b: RequestSchedule) -> None:
    assert a.push == b.push
    assert a.pull == b.pull
    assert a.hub_cover == b.hub_cover


def copying_instance(n: int = 120, seed: int = 5):
    graph = social_copying_graph(
        n, out_degree=6, copy_fraction=0.7, reciprocity=0.3, seed=seed
    )
    return graph, log_degree_workload(graph, read_write_ratio=5.0)


@st.composite
def labeled_instances(draw, max_nodes: int = 12, max_edges: int = 40):
    """A random instance under a random labeling (incl. users outside it)."""
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
    extra = draw(st.integers(min_value=0, max_value=3))
    users = range(n + extra)
    workload = Workload(
        production={u: draw(rate) for u in users},
        consumption={u: draw(rate) for u in users},
    )
    label = LABELINGS[draw(st.sampled_from(sorted(LABELINGS)))]
    return relabel(graph, workload, label)


class TestCallerLabels:
    @pytest.mark.parametrize("oracle", ["peel", "exact"])
    @pytest.mark.parametrize("labeling", sorted(LABELINGS))
    def test_matches_rank_order_relabeling(self, labeling, oracle):
        graph, workload = relabel(*copying_instance(), LABELINGS[labeling])
        scheduler = ChitchatScheduler(graph, workload, oracle=oracle)
        schedule = scheduler.run()
        validate_schedule(graph, schedule)
        assert_same_schedule(
            schedule, rank_order_run(graph, workload, oracle=oracle)
        )
        assert scheduler.schedule is schedule
        assert scheduler.graph is graph
        assert scheduler.workload is workload
        assert scheduler.stats.final_cost == pytest.approx(
            schedule_cost(schedule, workload), rel=1e-12
        )

    @SMALL
    @given(labeled_instances())
    def test_random_labelings_match_rank_order_relabeling(self, instance):
        graph, workload = instance
        schedule, stats = chitchat_with_stats(graph, workload)
        validate_schedule(graph, schedule)
        assert_same_schedule(schedule, rank_order_run(graph, workload))
        assert stats.final_cost == pytest.approx(
            schedule_cost(schedule, workload), rel=1e-12
        )

    def test_users_outside_a_dense_graph_are_ignored(self):
        graph, workload = copying_instance()
        n = graph.num_nodes
        wider = Workload(
            production={**workload.production, n: 1.0, n + 1: 2.0},
            consumption={**workload.consumption, n: 3.0, n + 1: 4.0},
        )
        scheduler = ChitchatScheduler(graph, wider)
        schedule = scheduler.run()
        validate_schedule(graph, schedule)
        assert_same_schedule(schedule, ChitchatScheduler(graph, workload).run())
        assert scheduler.stats.final_cost == pytest.approx(
            schedule_cost(schedule, wider), rel=1e-12
        )

    def test_node_without_rates_is_rejected(self):
        graph, workload = relabel(*copying_instance(), LABELINGS["string"])
        del workload.production["user-0"]
        del workload.consumption["user-0"]
        with pytest.raises(WorkloadError):
            ChitchatScheduler(graph, workload)

    def test_relabeled_run_agrees_call_for_call(self):
        """An order-preserving relabeling replays the dense run exactly:
        same schedule under the map *and* the same oracle-call counters,
        on an instance whose hub-graphs reach the vectorized probe."""
        graph = social_copying_graph(
            250, out_degree=8, copy_fraction=0.7, reciprocity=0.3, seed=3
        )
        workload = log_degree_workload(graph, read_write_ratio=5.0)
        csr = graph.to_csr()
        assert any(
            build_hub_graph(csr, hub).num_elements >= _PROBE_VECTOR_THRESHOLD
            for hub in graph.nodes()
        )
        label = LABELINGS["sparse-int"]
        dense = ChitchatScheduler(graph, workload)
        sparse = ChitchatScheduler(*relabel(graph, workload, label))
        assert_same_schedule(sparse.run(), map_schedule(dense.run(), label))
        for counter in (
            "oracle_calls",
            "oracle_early_exits",
            "champions_retained",
            "hubs_pruned",
            "hub_selections",
            "singleton_selections",
        ):
            assert getattr(sparse.stats, counter) == getattr(dense.stats, counter)
        assert dense.stats.champions_retained > 0


#: Order-preserving labelings: each relabels to the same dense ids, so a
#: run on any of them must replay the dense run exactly.
ORDERED_LABELINGS = {
    "dense": lambda i: i,
    "sparse-int": LABELINGS["sparse-int"],
    "string": lambda i: f"user-{i:04d}",
}


def churn_with_new_users(graph, workload, seed):
    """A churn stream over ``graph`` plus users first seen mid-stream."""
    events = churn_stream(graph, workload, 120, seed=seed)
    n = graph.num_nodes
    events[30:30] = [
        ChurnEvent("add", edge=(0, n)),
        ChurnEvent("add", edge=(n, 1)),
    ]
    events[70:70] = [
        ChurnEvent("add", edge=(n + 1, 2)),
        ChurnEvent("rate", user=n + 1, rp=0.5, rc=2.0),
        ChurnEvent("rate", user=n + 2, rp=3.0, rc=1.0),
    ]
    return events


def map_event(event: ChurnEvent, label) -> ChurnEvent:
    if event.kind == "rate":
        return ChurnEvent("rate", user=label(event.user), rp=event.rp, rc=event.rc)
    u, v = event.edge
    return ChurnEvent(event.kind, edge=(label(u), label(v)))


class TestDeltaOnCallerLabels:
    @pytest.mark.parametrize("oracle", ["peel", "exact"])
    def test_labelings_maintain_the_same_schedule(self, oracle):
        """``DeltaScheduler`` relabels at its boundary: dense, sparse-int
        and string labelings of one instance, fed one churn stream (new
        users included), maintain the same schedule under the map with
        the same oracle work — feasible, and priced as a rescan prices
        it, after every event."""
        graph, workload = copying_instance(n=80, seed=8)
        events = churn_with_new_users(graph, workload, seed=12)
        base = ChitchatScheduler(graph, workload).run()
        runs = {}
        for name, label in ORDERED_LABELINGS.items():
            labelled_graph, labelled_workload = relabel(graph, workload, label)
            delta = DeltaScheduler(
                labelled_graph,
                labelled_workload,
                map_schedule(base, label),
                oracle=oracle,
            )
            for event in events:
                delta.apply(map_event(event, label))
                delta.repair()
                assert delta.is_feasible()
                assert delta.cost() == pytest.approx(
                    schedule_cost(delta.schedule, delta.workload)
                )
            runs[name] = (delta, label)
        dense = runs["dense"][0]
        assert dense.stats.hub_selections > 0
        assert dense.graph.has_edge(graph.num_nodes, 1)
        for name, (delta, label) in runs.items():
            assert_same_schedule(delta.schedule, map_schedule(dense.schedule, label))
            assert delta.stats.hub_refreshes == dense.stats.hub_refreshes, name
            assert delta.cost() == pytest.approx(dense.cost())
            assert sorted(map(repr, delta.graph.edges())) == sorted(
                repr((label(u), label(v))) for u, v in dense.graph.edges()
            )

    @pytest.mark.parametrize("labeling", sorted(LABELINGS))
    def test_from_scheduler_then_add_in_caller_labels(self, labeling):
        label = LABELINGS[labeling]
        graph, workload = relabel(*copying_instance(), label)
        scheduler = ChitchatScheduler(graph, workload)
        scheduler.run()
        delta = DeltaScheduler.from_scheduler(scheduler)
        assert delta.is_feasible()
        u, v = next(
            (label(a), label(b))
            for a in range(graph.num_nodes)
            for b in range(graph.num_nodes)
            if a != b and not graph.has_edge(label(a), label(b))
        )
        assert delta.apply(ChurnEvent(kind="add", edge=(u, v))) is True
        delta.repair()
        assert delta.graph.has_edge(u, v)
        assert delta.is_feasible()
        validate_schedule(delta.graph, delta.schedule)
        assert delta.cost() == pytest.approx(
            schedule_cost(delta.schedule, delta.workload)
        )
        # the wrap copied: the run's own schedule is untouched
        assert scheduler.schedule.is_feasible(graph)


def test_cli_optimize_validate_on_sparse_ids(tmp_path, capsys):
    graph, _workload = relabel(*copying_instance(), LABELINGS["sparse-int"])
    path = tmp_path / "sparse.txt"
    write_edge_list(graph, path)
    assert not has_dense_int_ids(read_edge_list(path))
    out = tmp_path / "schedule.json"
    assert main(
        ["optimize", str(path), "-o", str(out), "--algorithm", "chitchat"]
    ) == 0
    schedule, metadata = load_schedule(out)
    assert metadata["edges"] == graph.num_edges
    validate_schedule(graph, schedule)
    capsys.readouterr()
    assert main(["validate", str(path), str(out)]) == 0
    assert "valid" in capsys.readouterr().out.lower()
