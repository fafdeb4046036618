"""Differential test suite for delta scheduling under churn.

The contract under test (``repro.core.delta``):

* after ANY event script the maintained schedule is feasible;
* its cost stays within ``(1 + DELTA_QUALITY_EPSILON)`` of a from-scratch
  CHITCHAT run on the replayed post-churn instance;
* the incrementally tracked cost equals the full rescan;
* a no-op/duplicate event stream leaves the schedule byte-identical to
  the wrapped from-scratch run;
* repair never increases the maintained cost (each greedy step is
  charged at most the cheapest remaining singleton);

parametrized over adjacency backends × oracles × flow methods.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chitchat import ChitchatScheduler
from repro.core.cost import schedule_cost
from repro.core.coverage import validate_schedule
from repro.core.delta import DeltaScheduler
from repro.core.serialize import save_schedule
from repro.core.tolerances import DELTA_QUALITY_EPSILON
from repro.errors import ReproError, ScheduleError
from repro.flow import FLOW_METHODS, ORACLE_MODES, ExactOracle
from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.workload import ChurnEvent, churn_stream, log_degree_workload, replay

#: oracle stacks the repair greedy must uphold the contract on:
#: (oracle, flow method)
ORACLE_STACKS = [
    pytest.param("peel", "auto", id="peel"),
    pytest.param("exact", "auto", id="exact-auto"),
    pytest.param("exact", "wave", id="exact-wave"),
    pytest.param("exact", "loop", id="exact-loop"),
]


def make_instance(seed: int, nodes: int = 50):
    graph = social_copying_graph(
        nodes, out_degree=4, copy_fraction=0.6, seed=seed
    )
    return graph, log_degree_workload(graph)


def completed_run(graph, workload, backend: str = "dict"):
    scheduler = ChitchatScheduler(graph, workload, backend=backend)
    scheduler.run()
    return scheduler


def mega_hub_instance(degree: int):
    """Hub 0 follows ``degree`` producers and is followed by ``degree``
    consumers; producer ``i`` also feeds consumers ``i`` and ``i + 1``
    directly, so the hub's maximal hub-graph holds ~4 * degree elements."""
    producers = range(1, degree + 1)
    consumers = range(degree + 1, 2 * degree + 1)
    graph = SocialGraph()
    for i, p in enumerate(producers):
        graph.add_edge(p, 0)
        graph.add_edge(p, consumers[i])
        graph.add_edge(p, consumers[(i + 1) % degree])
    for c in consumers:
        graph.add_edge(0, c)
    return graph, log_degree_workload(graph)


def absent_edge(graph):
    """A deterministic (u, v) not currently in the (sparse) graph."""
    nodes = sorted(graph.nodes())
    return next(
        (a, b)
        for a in nodes
        for b in reversed(nodes)
        if a != b and not graph.has_edge(a, b)
    )


def assert_contract(delta: DeltaScheduler, base_graph, base_workload, events):
    """The three differential invariants, checked against a fresh run."""
    assert delta.is_feasible()
    validate_schedule(delta.graph, delta.schedule)
    rescan = schedule_cost(delta.schedule, delta.workload)
    assert delta.cost() == pytest.approx(rescan)
    churned_graph, churned_workload = replay(base_graph, base_workload, events)
    fresh = ChitchatScheduler(churned_graph, churned_workload).run()
    fresh_cost = schedule_cost(fresh, churned_workload)
    assert delta.cost() <= (1.0 + DELTA_QUALITY_EPSILON) * fresh_cost + 1e-9


class TestDifferential:
    """Hypothesis-driven: random scripts, every invariant, every time."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_events=st.integers(min_value=0, max_value=40),
        fractions=st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ).filter(lambda f: sum(f) > 0),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_script_upholds_contract(self, seed, num_events, fractions):
        graph, workload = make_instance(seed % 7)
        scheduler = completed_run(graph, workload)
        add_f, remove_f, rate_f = fractions
        events = churn_stream(
            graph,
            workload,
            num_events,
            add_fraction=add_f,
            remove_fraction=remove_f,
            rate_fraction=rate_f,
            seed=seed,
        )
        delta = DeltaScheduler.from_scheduler(scheduler)
        delta.apply_events(events)
        assert_contract(delta, graph, workload, events)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_deferred_repair_upholds_contract(self, seed):
        """One repair at end of stream must satisfy the same contract as
        repair-per-event (the residue accumulates, the greedy is one)."""
        graph, workload = make_instance(seed % 5)
        scheduler = completed_run(graph, workload)
        events = churn_stream(graph, workload, 30, seed=seed)
        delta = DeltaScheduler.from_scheduler(scheduler)
        delta.apply_events(events, repair_every=0)
        assert_contract(delta, graph, workload, events)


class TestOracleMatrix:
    """The contract holds on every oracle stack and adjacency backend."""

    @pytest.mark.parametrize("oracle,method", ORACLE_STACKS)
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_contract_across_stacks(self, backend, oracle, method):
        graph, workload = make_instance(3)
        scheduler = completed_run(graph, workload, backend=backend)
        events = churn_stream(graph, workload, 25, seed=17)
        delta = DeltaScheduler.from_scheduler(
            scheduler, oracle=oracle, method=method
        )
        delta.apply_events(events)
        assert_contract(delta, graph, workload, events)
        if oracle == "exact":
            assert delta.stats.exact_refreshes > 0
            assert delta.stats.sessions_invalidated > 0

    @pytest.mark.parametrize("oracle,method", ORACLE_STACKS)
    def test_stacks_repair_within_factor_two_of_peel(self, oracle, method):
        """Every stack repairs the same stream to the same maintained
        cost as the reference peel stack does feasibly — and the exact
        stacks must never do worse than peel on the repairs they price
        (the oracle is a lower-level choice, not a quality knob beyond
        the factor-2)."""
        graph, workload = make_instance(5)
        scheduler = completed_run(graph, workload)
        events = churn_stream(graph, workload, 20, seed=23)
        delta = DeltaScheduler.from_scheduler(
            scheduler, oracle=oracle, method=method
        )
        delta.apply_events(events)
        reference = DeltaScheduler.from_scheduler(scheduler)
        reference.apply_events(events)
        assert delta.is_feasible() and reference.is_feasible()
        if oracle == "exact":
            assert delta.cost() <= reference.cost() * 2.0 + 1e-9

    @pytest.mark.parametrize("method", FLOW_METHODS)
    def test_warm_and_cold_repairs_agree(self, method):
        """The maintainer's warm session repairs a stream byte-identically
        to the cold reference session ``ExactOracle(warm=False)``."""
        graph, workload = make_instance(5)
        scheduler = completed_run(graph, workload)
        events = churn_stream(graph, workload, 20, seed=23)
        warm = DeltaScheduler.from_scheduler(
            scheduler, oracle="exact", method=method
        )
        cold = DeltaScheduler.from_scheduler(
            scheduler, oracle="exact", method=method
        )
        cold._exact = ExactOracle(
            warm=False,
            method=method,
            metrics=cold.metrics.node("delta", "oracle"),
        )
        warm.apply_events(events)
        cold.apply_events(events)
        assert warm.schedule.push == cold.schedule.push
        assert warm.schedule.pull == cold.schedule.pull
        assert warm.schedule.hub_cover == cold.schedule.hub_cover
        assert warm.cost() == cold.cost()
        assert warm.stats.exact_refreshes == cold.stats.exact_refreshes > 0


class TestNoopByteIdentity:
    def test_noop_stream_leaves_schedule_byte_identical(self, tmp_path):
        """Duplicate adds, removals of absent edges, and value-identical
        rate events must not perturb the schedule at all: the serialized
        file is byte-for-byte the wrapped from-scratch run's."""
        graph, workload = make_instance(2)
        scheduler = completed_run(graph, workload)
        before = tmp_path / "before.json"
        save_schedule(scheduler.schedule, before)
        existing = sorted(graph.edges())[0]
        user = existing[0]
        noops = [
            ChurnEvent(kind="add", edge=existing),
            ChurnEvent(kind="remove", edge=(8001, 8002)),
            ChurnEvent(
                kind="rate", user=user, rp=workload.rp(user), rc=workload.rc(user)
            ),
        ] * 3
        delta = DeltaScheduler.from_scheduler(scheduler)
        cost_before = delta.cost()
        for event in noops:
            assert delta.apply(event) is False
        assert delta.repair() == 0
        after = tmp_path / "after.json"
        save_schedule(delta.schedule, after)
        assert after.read_bytes() == before.read_bytes()
        assert delta.cost() == cost_before
        assert delta.stats.noop_events == len(noops)
        assert delta.stats.hub_refreshes == 0

    def test_add_then_remove_round_trips_schedule(self, tmp_path):
        """An edge added and removed again restores the exact schedule:
        the add only direct-serves, the remove strips that service."""
        graph, workload = make_instance(4)
        scheduler = completed_run(graph, workload)
        before = tmp_path / "before.json"
        save_schedule(scheduler.schedule, before)
        delta = DeltaScheduler.from_scheduler(scheduler)
        edge = absent_edge(graph)
        assert delta.apply(ChurnEvent(kind="add", edge=edge)) is True
        assert delta.apply(ChurnEvent(kind="remove", edge=edge)) is True
        assert delta.repair() == 0  # residue edge no longer exists
        after = tmp_path / "after.json"
        save_schedule(delta.schedule, after)
        assert after.read_bytes() == before.read_bytes()


class TestMonotoneRepair:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_repair_never_increases_cost(self, seed):
        """Each greedy step is charged at most the cheapest remaining
        singleton — the direct-service price repair replaces — so a
        repair can only lower the maintained cost."""
        graph, workload = make_instance(seed % 6)
        scheduler = completed_run(graph, workload)
        events = churn_stream(graph, workload, 24, seed=seed)
        delta = DeltaScheduler.from_scheduler(scheduler)
        for event in events:
            delta.apply(event)
            cost_before = delta.cost()
            delta.repair()
            assert delta.cost() <= cost_before + 1e-9


class TestLocality:
    def test_single_event_repair_is_local(self):
        """One added edge re-opens one element: the repair's oracle work
        is bounded by that edge's endpoint/wedge hubs, not the graph."""
        graph, workload = make_instance(1, nodes=80)
        scheduler = completed_run(graph, workload)
        full_run_calls = scheduler.stats.oracle_calls
        delta = DeltaScheduler.from_scheduler(scheduler)
        edge = absent_edge(graph)
        delta.apply(ChurnEvent(kind="add", edge=edge))
        delta.repair()
        u, v = edge
        candidates = {u, v} | (
            graph.successors_view(u) & graph.predecessors_view(v)
        )
        # one champion evaluation per candidate hub, plus at most one
        # eager re-evaluation after the single selection
        assert delta.stats.hub_refreshes <= len(candidates) + 1
        assert delta.stats.hub_refreshes < full_run_calls

    @pytest.mark.parametrize("degree", [1000, 2000])
    def test_repair_work_is_bounded_by_reopened_elements(self, degree):
        """Bounded locality as a *work* bound: one edge added next to a
        mega-hub materializes O(sum over re-opened elements of 2 + wedges)
        hub-graph elements — a leg in two hub-graphs, a cross-edge (with
        its two endpoints) in one per wedge — whatever the hub's degree."""
        graph, workload = mega_hub_instance(degree)
        delta = DeltaScheduler.from_scheduler(completed_run(graph, workload))
        u, v = edge = (1, degree + 5)  # producer -> consumer, a wedge of hub 0
        assert delta.apply(ChurnEvent(kind="add", edge=edge)) is True
        assert delta.repair() == 1  # the added edge is the one re-opened element
        wedges = delta.graph.successors_view(u) & delta.graph.predecessors_view(v)
        assert 0 in wedges
        budget = 2 + len(wedges)
        assert 0 < delta.stats.elements_materialized <= 3 * budget
        assert 3 * budget < degree  # the bound never saw the hub's degree
        assert delta.is_feasible()

    def test_truncated_repair_pays_for_the_whole_neighbourhood(self):
        """The other side of the branch: ``max_cross_edges`` is defined on
        the maximal enumeration order, so that path still builds it."""
        degree = 1000
        graph, workload = mega_hub_instance(degree)
        delta = DeltaScheduler.from_scheduler(
            completed_run(graph, workload), max_cross_edges=8
        )
        delta.apply(ChurnEvent(kind="add", edge=(1, degree + 5)))
        delta.repair()
        assert delta.stats.elements_materialized >= 2 * degree
        assert delta.is_feasible()

    def test_untouched_covers_survive(self):
        """Events far from a cover leave its hub assignment in place."""
        graph, workload = make_instance(6)
        scheduler = completed_run(graph, workload)
        covers_before = dict(scheduler.schedule.hub_cover)
        delta = DeltaScheduler.from_scheduler(scheduler)
        events = churn_stream(
            graph, workload, 10, add_fraction=0, remove_fraction=0,
            rate_fraction=1.0, rate_jitter=0.01, seed=31,
        )
        delta.apply_events(events)
        # tiny rate jitter never justifies restructuring: covers persist
        # (repair only re-opens direct-served edges, never covers)
        for edge, hub in covers_before.items():
            assert delta.schedule.hub_cover.get(edge) == hub


class TestConstruction:
    def test_rejects_infeasible_schedule(self):
        graph, workload = make_instance(0)
        scheduler = completed_run(graph, workload)
        schedule = scheduler.schedule.copy()
        victim = next(iter(schedule.push))
        schedule.remove_push(victim)
        with pytest.raises(ScheduleError):
            DeltaScheduler(graph.copy(), workload, schedule)

    def test_from_scheduler_csr_backend(self):
        graph, workload = make_instance(0)
        scheduler = completed_run(graph, workload, backend="csr")
        delta = DeltaScheduler.from_scheduler(scheduler)
        assert delta.is_feasible()
        # the wrap copies: mutating the delta never touches the run
        delta.apply(ChurnEvent(kind="remove", edge=sorted(graph.edges())[0]))
        assert scheduler.schedule.is_feasible(graph)

    def test_negative_repair_every_rejected(self):
        graph, workload = make_instance(0)
        scheduler = completed_run(graph, workload)
        delta = DeltaScheduler.from_scheduler(scheduler)
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            delta.apply_events([], repair_every=-1)

    @pytest.mark.parametrize(
        "options, named",
        [
            ({"oracle": "auto"}, ORACLE_MODES),
            ({"method": "bogus"}, FLOW_METHODS),
            ({"method": "jit"}, FLOW_METHODS),
        ],
    )
    def test_rejects_bad_option_up_front(self, options, named):
        """Checked at construction even under the peel, which never builds
        a flow network; a removed value names the options."""
        graph, workload = make_instance(0)
        scheduler = completed_run(graph, workload)
        with pytest.raises(ReproError) as excinfo:
            DeltaScheduler.from_scheduler(scheduler, **options)
        assert str(named) in str(excinfo.value)
