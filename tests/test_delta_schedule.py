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

parametrized over the wrapped run's input graph (dict or CSR) × oracles
× flow methods.
``TestApplyOnly`` pins ``apply`` with no ``repair`` — the paper's
section 3.3 policy, which Figure 5 measures — rule by rule.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.delta as delta_module
from tests.conftest import ART, BILLIE, CHARLIE, OracleInstance, make_uniform
from tests.reference_repair import EndpointCandidatesDeltaScheduler
from tests.test_restricted_hubgraph import churn_instance
from repro.core.baselines import hybrid_schedule
from repro.core.chitchat import ChitchatScheduler
from repro.core.cost import schedule_cost
from repro.core.coverage import validate_schedule
from repro.core.delta import DeltaScheduler
from repro.core.densest import densest_subgraph
from repro.core.hubgraph import build_hub_graph
from repro.core.parallelnosy import parallel_nosy_schedule
from repro.core.schedule import RequestSchedule
from repro.core.serialize import save_schedule
from repro.core.tolerances import DELTA_QUALITY_EPSILON
from repro.errors import GraphError, ReproError, ScheduleError
from repro.flow import FLOW_METHODS, ORACLE_MODES, ExactOracle
from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.graph.view import to_csr
from repro.workload import (
    ChurnEvent,
    Workload,
    churn_stream,
    log_degree_workload,
    replay,
)

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
    """A finished default CHITCHAT run on ``graph`` handed in as a dict
    graph or frozen to CSR (``backend``) — ``from_scheduler`` thaws
    either into the mutable graph churn runs on."""
    view = to_csr(graph) if backend == "csr" else graph
    scheduler = ChitchatScheduler(view, workload)
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
    """The contract holds on every oracle stack, whichever graph type the
    wrapped run was given."""

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
        is bounded by that edge's wedge hubs, not the graph."""
        graph, workload = make_instance(1, nodes=80)
        scheduler = completed_run(graph, workload)
        full_run_calls = scheduler.stats.oracle_calls
        delta = DeltaScheduler.from_scheduler(scheduler)
        edge = absent_edge(graph)
        delta.apply(ChurnEvent(kind="add", edge=edge))
        delta.repair()
        u, v = edge
        wedges = graph.successors_view(u) & graph.predecessors_view(v)
        # one champion evaluation per relay (endpoint hubs are never
        # candidates), plus at most one eager re-evaluation after the
        # single selection
        assert delta.stats.hub_refreshes <= len(wedges) + 1
        assert delta.stats.hub_refreshes < full_run_calls

    @pytest.mark.parametrize("degree", [1000, 2000])
    def test_repair_work_is_bounded_by_reopened_elements(self, degree):
        """Bounded locality as a *work* bound: one edge added next to a
        mega-hub materializes one cross-edge with its two endpoints per
        wedge — its endpoints are no relays of their own leg, so nothing
        else — whatever the hub's degree."""
        graph, workload = mega_hub_instance(degree)
        delta = DeltaScheduler.from_scheduler(completed_run(graph, workload))
        u, v = edge = (1, degree + 5)  # producer -> consumer, a wedge of hub 0
        assert delta.apply(ChurnEvent(kind="add", edge=edge)) is True
        assert delta.repair() == 1  # the added edge is the one re-opened element
        wedges = delta.graph.successors_view(u) & delta.graph.predecessors_view(v)
        assert 0 in wedges
        assert delta.stats.elements_materialized == 3 * len(wedges)
        assert 3 * len(wedges) < degree  # the bound never saw the hub's degree
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


@st.composite
def leg_hub_problems(draw):
    """A hub-graph built from one hub's legs only, as a repair would build
    an endpoint hub: random rates, a random alive (uncovered) subset, the
    other legs randomly paid already — an uncovered leg is never paid,
    since a leg is bought only when its own element is covered."""
    hub = 0
    others = list(range(1, 8))
    preds = draw(st.sets(st.sampled_from(others), min_size=1))
    succs = draw(st.sets(st.sampled_from(others), min_size=1))
    legs = sorted({(x, hub) for x in preds} | {(hub, y) for y in succs})
    # cross-edges live in the graph but stay out of the restricted build
    crosses = draw(
        st.sets(st.sampled_from([(x, y) for x in preds for y in succs if x != y]))
        if any(x != y for x in preds for y in succs)
        else st.just(set())
    )
    graph = SocialGraph(legs + sorted(crosses))
    rate = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
    workload = Workload(
        production={v: draw(rate) for v in [hub] + others},
        consumption={v: draw(rate) for v in [hub] + others},
    )
    alive = draw(st.sets(st.sampled_from(legs), min_size=1))
    schedule = RequestSchedule()
    for leg in legs:
        if leg not in alive and draw(st.booleans()):
            if leg[1] == hub:
                schedule.add_push(leg)
            else:
                schedule.add_pull(leg)
    return graph, hub, legs, workload, schedule, alive


def assert_run_contract(delta, event):
    """One event with its repair: feasible, monotone, cost == rescan."""
    delta.apply(event)
    before = delta.cost()
    delta.repair()
    assert delta.cost() <= before + 1e-9
    assert delta.is_feasible()
    assert delta.cost() == pytest.approx(
        schedule_cost(delta.schedule, delta.workload)
    )


def e16_quick_instance():
    """E16's smallest-tier instance (n=600), with a shorter stream."""
    graph = social_copying_graph(
        600, out_degree=10, copy_fraction=0.7, reciprocity=0.2, seed=16
    )
    workload = log_degree_workload(graph, read_write_ratio=5.0)
    scheduler = completed_run(graph, workload)
    return scheduler, churn_stream(graph, workload, 300, seed=16)


def small_churn_instance(seed):
    graph, workload = make_instance(seed)
    scheduler = completed_run(graph, workload)
    return scheduler, churn_stream(graph, workload, 60, seed=seed + 40)


class TestLiveRateCache:
    """A large rescan caches the live workload's dense rate arrays; every
    rate change must drop that cache, or later rescans price old rates."""

    def test_rescan_after_rate_event_prices_new_rates(self):
        scheduler, _events = e16_quick_instance()
        delta = DeltaScheduler.from_scheduler(scheduler)
        schedule = delta.schedule
        assert len(schedule.push) + len(schedule.pull) >= 2048  # batch path
        assert schedule_cost(schedule, delta.workload) == pytest.approx(
            delta.cost()
        )
        user = max(delta.graph.nodes(), key=delta.graph.out_degree)
        delta.apply(
            ChurnEvent(
                kind="rate",
                user=user,
                rp=delta.workload.rp(user) * 3.0,
                rc=delta.workload.rc(user) * 3.0,
            )
        )
        assert schedule_cost(delta.schedule, delta.workload) == pytest.approx(
            delta.cost()
        )
        delta.repair()
        assert schedule_cost(delta.schedule, delta.workload) == pytest.approx(
            delta.cost()
        )


class TestRelayCandidates:
    """Only relays — wedge intermediaries of a re-opened element — are
    repair candidates; cross-free hubs could only tie the singleton."""

    @given(problem=leg_hub_problems())
    @settings(max_examples=150, deadline=None)
    def test_cross_free_champion_never_beats_its_singletons(self, problem):
        graph, hub, legs, workload, schedule, alive = problem
        instance = OracleInstance(graph, workload)
        hub_graph = instance.hub_graph(hub, elements=legs)
        for oracle in (densest_subgraph, ExactOracle()):
            result = instance.call(oracle, hub_graph, schedule, alive)
            if result is None:
                continue
            cheapest = min(
                min(workload.rp(u), workload.rc(v)) for u, v in result.covered
            )
            assert result.cost_per_element >= cheapest * (1.0 - 1e-12)

    def test_every_built_hub_relays_a_reopened_cross_edge(self, monkeypatch):
        scheduler, events = small_churn_instance(2)
        real = delta_module.build_hub_graph
        builds = []

        def spy(graph, hub, max_cross_edges=None, elements=None):
            builds.append((hub, list(elements)))
            return real(graph, hub, max_cross_edges, elements)

        monkeypatch.setattr(delta_module, "build_hub_graph", spy)
        delta = DeltaScheduler.from_scheduler(scheduler)
        delta.apply_events(events)
        assert builds
        for hub, elements in builds:
            assert any(hub not in edge for edge in elements)

    def test_wedge_free_add_costs_no_oracle_work(self, monkeypatch):
        graph, workload = make_instance(1, nodes=80)
        delta = DeltaScheduler.from_scheduler(completed_run(graph, workload))
        u, v = edge = next(
            (a, b)
            for a in sorted(graph.nodes())
            for b in sorted(graph.nodes())
            if a != b
            and not graph.has_edge(a, b)
            and not graph.successors_view(a) & graph.predecessors_view(b)
        )
        real = delta_module.build_hub_graph
        builds = []

        def spy(graph, hub, *args, **kwargs):
            builds.append(hub)
            return real(graph, hub, *args, **kwargs)

        monkeypatch.setattr(delta_module, "build_hub_graph", spy)
        delta.apply(add(edge))
        assert delta.repair() == 1
        assert builds == []
        assert delta.stats.hub_refreshes == 0
        if delta.workload.rp(u) <= delta.workload.rc(v):
            assert edge in delta.schedule.push
            assert edge not in delta.schedule.pull
        else:
            assert edge in delta.schedule.pull
            assert edge not in delta.schedule.push
        assert edge not in delta.schedule.hub_cover
        assert delta.is_feasible()

    @pytest.mark.parametrize(
        "instance, oracle",
        [
            pytest.param(lambda: small_churn_instance(3), "peel", id="delta-peel"),
            pytest.param(lambda: small_churn_instance(4), "exact", id="delta-exact"),
            pytest.param(lambda: churn_instance(9), "peel", id="restricted-9"),
            pytest.param(e16_quick_instance, "peel", id="e16-quick"),
        ],
    )
    def test_matches_endpoint_candidate_reference(self, instance, oracle):
        scheduler, events = instance()
        pruned = DeltaScheduler.from_scheduler(scheduler, oracle=oracle)
        reference = EndpointCandidatesDeltaScheduler.from_scheduler(
            scheduler, oracle=oracle
        )
        for event in events:
            assert_run_contract(pruned, event)
            assert_run_contract(reference, event)
        assert pruned.stats.hub_refreshes < reference.stats.hub_refreshes
        assert pruned.cost() == pytest.approx(reference.cost(), rel=1e-3)


class TestIdSpace:
    """The dense id space under churn: edge ids are append-only (a new
    edge takes the next id, a removed edge's id retires), the mirror's
    vectors double when the ids outgrow them, and a repair leaves no
    element uncovered."""

    def assert_mirror_consistent(self, delta):
        mirror = delta._mirror
        schedule = delta._schedule
        assert not mirror.uncovered_mask.any()
        assert len(mirror.uncovered_mask) >= delta._graph.issued
        live = {
            (u, v): edge_id
            for u, out in delta._graph.ids.items()
            for v, edge_id in out.items()
        }
        assert set(live) == set(delta._graph.social.edges())
        assert len(set(live.values())) == len(live)  # ids are never shared
        pushed = {e for e, i in live.items() if mirror.arrays.push_mask[i]}
        pulled = {e for e, i in live.items() if mirror.arrays.pull_mask[i]}
        assert pushed == schedule.push & live.keys()
        assert pulled == schedule.pull & live.keys()

    @pytest.mark.parametrize("oracle", ["peel", "exact"])
    def test_add_heavy_stream_grows_the_ids_past_capacity(self, oracle):
        graph, workload = make_instance(3, nodes=20)
        delta = DeltaScheduler.from_scheduler(
            completed_run(graph, workload), oracle=oracle
        )
        capacity = len(delta._mirror.uncovered_mask)
        assert capacity == graph.num_edges == delta._graph.issued
        events = churn_stream(
            graph, workload, 3 * capacity, add_fraction=0.85,
            remove_fraction=0.1, rate_fraction=0.05, seed=5,
        )
        for event in events:
            delta.apply(event)
            assert delta.is_feasible()
            delta.repair()
            self.assert_mirror_consistent(delta)
            assert delta.cost() == pytest.approx(
                schedule_cost(delta.schedule, delta.workload)
            )
        assert delta._graph.issued > capacity
        assert len(delta._mirror.uncovered_mask) > capacity
        assert delta.stats.hub_selections > 0

    @pytest.mark.parametrize("oracle", ["peel", "exact"])
    def test_removed_edge_retires_its_id_and_a_re_add_takes_a_new_one(
        self, oracle
    ):
        graph, workload = make_instance(4, nodes=20)
        delta = DeltaScheduler.from_scheduler(
            completed_run(graph, workload), oracle=oracle
        )
        edge = sorted(graph.edges())[0]
        old_id = delta._graph.edge_id(*edge)
        assert delta.apply(remove(edge))
        delta.repair()
        assert not delta._graph.has_edge(*edge)
        arrays = delta._mirror.arrays
        assert not arrays.push_mask[old_id] and not arrays.pull_mask[old_id]
        self.assert_mirror_consistent(delta)
        assert delta.apply(add(edge))
        new_id = delta._graph.edge_id(*edge)
        assert new_id == delta._graph.issued - 1 != old_id
        delta.repair()
        self.assert_mirror_consistent(delta)
        assert delta.is_feasible()
        assert delta.cost() == pytest.approx(
            schedule_cost(delta.schedule, delta.workload)
        )

    def test_retired_edge_id_is_refused_by_restricted_builds(self):
        """The churn graph is a graph on dense edge ids: a restricted
        hub-graph build over a removed edge raises, as on CSR."""
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        hub_graph = build_hub_graph(delta._graph, CHARLIE, elements=[(ART, BILLIE)])
        assert hub_graph.element_ids.tolist() == [
            delta._graph.edge_id(ART, CHARLIE),
            delta._graph.edge_id(CHARLIE, BILLIE),
            delta._graph.edge_id(ART, BILLIE),
        ]
        delta.apply(remove((ART, BILLIE)))
        with pytest.raises(GraphError):
            build_hub_graph(delta._graph, CHARLIE, elements=[(ART, BILLIE)])

    def test_restored_residue_skips_users_never_seen(self):
        """``restore_residue`` takes caller labels; edges of unknown users
        cannot be live, so they are dropped, and the rest is repaired."""
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        delta.restore_residue([(ART, CHARLIE), ("nobody", ART)])
        assert delta.residue() == {(ART, CHARLIE)}
        assert delta.pending() == 1
        assert delta.repair() == 0  # a load-bearing leg: screened out
        assert delta.pending() == 0

    def test_label_off_the_id_sequence_keeps_the_caller_labels(self):
        """A user whose label is not the next dense id ends the identity
        mapping: the caller's graph and the public schedule stay in the
        caller's labels, the dense state goes private."""
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        assert delta.graph is graph and delta.schedule is schedule
        assert delta.apply(add((ART, "guest")))
        assert delta.apply(add(("guest", BILLIE)))
        delta.repair()
        assert graph.has_edge(ART, "guest") and graph.has_edge("guest", BILLIE)
        assert delta.graph is graph
        served = delta.schedule.push | delta.schedule.pull
        assert {(ART, "guest"), ("guest", BILLIE)} <= served | set(
            delta.schedule.hub_cover
        )
        assert all("guest" not in edge for edge in schedule.push | schedule.pull)
        assert delta.apply(remove((ART, CHARLIE)))
        delta.repair()
        assert delta.is_feasible()
        validate_schedule(delta.graph, delta.schedule)
        assert delta.cost() == pytest.approx(
            schedule_cost(delta.schedule, delta.workload)
        )


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


def wedge_with_schedule():
    """Figure 2's wedge with Art -> Billie piggybacked through Charlie."""
    graph = SocialGraph([(ART, CHARLIE), (CHARLIE, BILLIE), (ART, BILLIE)])
    workload = make_uniform(graph, rp=1.0, rc=1.2)
    schedule = RequestSchedule(push={(ART, CHARLIE)}, pull={(CHARLIE, BILLIE)})
    schedule.cover_via_hub((ART, BILLIE), CHARLIE)
    return graph, workload, schedule


def add(edge):
    return ChurnEvent(kind="add", edge=edge)


def remove(edge):
    return ChurnEvent(kind="remove", edge=edge)


def random_churn(delta, rng, steps, new_users=False):
    """Half adds between random (optionally brand-new) users, half removals."""
    nodes = sorted(delta.graph.nodes())
    for step in range(steps):
        if rng.random() < 0.5:
            u = rng.choice(nodes)
            v = rng.choice(nodes + [900 + step] if new_users else nodes)
            if u != v:
                delta.apply(add((u, v)))
        else:
            edges = sorted(delta.graph.edges())
            if edges:
                delta.apply(remove(edges[rng.randrange(len(edges))]))
        yield


class TestApplyOnly:
    """``apply`` without ``repair``: the section 3.3 maintenance rules."""

    def test_new_edge_served_directly_cheaper_side(self):
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        assert delta.apply(add((BILLIE, ART)))
        assert (BILLIE, ART) in schedule.push  # rp=1 <= rc=1.2
        assert delta.is_feasible()
        assert delta.stats.edges_added == 1

    def test_duplicate_add_is_noop(self):
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        assert delta.apply(add((ART, CHARLIE))) is False
        assert delta.stats.edges_added == 0
        assert delta.stats.noop_events == 1

    def test_batch_of_adds_counts_only_new_edges(self):
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        batch = [(BILLIE, ART), (BILLIE, CHARLIE), (ART, CHARLIE)]
        assert sum(delta.apply(add(edge)) for edge in batch) == 2
        assert delta.is_feasible()

    def test_remove_pull_leg_downgrades_cover(self):
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        delta.apply(remove((CHARLIE, BILLIE)))  # the pull leg of the hub
        assert (ART, BILLIE) not in schedule.hub_cover
        assert delta.stats.covers_broken == 1
        assert delta.is_feasible()
        # the cross-edge is now served directly
        assert (ART, BILLIE) in schedule.push or (ART, BILLIE) in schedule.pull

    def test_remove_push_leg_downgrades_cover(self):
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        delta.apply(remove((ART, CHARLIE)))  # the push leg of the hub
        assert (ART, BILLIE) not in schedule.hub_cover
        assert delta.stats.covers_broken == 1
        assert delta.is_feasible()

    def test_remove_covered_edge_breaks_no_cover(self):
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        delta.apply(remove((ART, BILLIE)))
        assert (ART, BILLIE) not in schedule.hub_cover
        assert delta.stats.covers_broken == 0
        assert delta.is_feasible()
        # legs survive: they still serve their own edges
        assert (ART, CHARLIE) in schedule.push
        assert (CHARLIE, BILLIE) in schedule.pull

    def test_remove_unrelated_edge_keeps_covers(self):
        graph, workload, schedule = wedge_with_schedule()
        graph.add_edge(BILLIE, ART)
        schedule.add_push((BILLIE, ART))
        delta = DeltaScheduler(graph, workload, schedule)
        delta.apply(remove((BILLIE, ART)))
        assert schedule.hub_cover[(ART, BILLIE)] == CHARLIE
        assert delta.is_feasible()

    def test_removals_skip_absent_and_repeated_edges(self):
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        batch = [(BILLIE, CHARLIE), (ART, CHARLIE), (ART, CHARLIE)]
        assert [delta.apply(remove(edge)) for edge in batch] == [
            False,
            True,
            False,
        ]
        assert delta.stats.covers_broken == 1  # the push leg broke it, once
        assert delta.stats.edges_removed == 1
        assert delta.is_feasible()

    def test_broken_cover_already_served_directly_is_not_paid_twice(self):
        """Art -> Billie is both piggybacked through Charlie and pulled as
        the pull leg of Dan's cover through Art.  Breaking the Charlie
        cover must leave it pulled — the hybrid rule prefers a push here,
        and adding one would pay for the edge twice."""
        dan = 3
        graph, workload, schedule = wedge_with_schedule()
        graph.add_edge(dan, ART)
        graph.add_edge(dan, BILLIE)
        workload = make_uniform(graph, rp=1.0, rc=1.2)
        schedule.add_push((dan, ART))
        schedule.add_pull((ART, BILLIE))
        schedule.cover_via_hub((dan, BILLIE), ART)
        delta = DeltaScheduler(graph, workload, schedule)
        before = delta.cost()
        delta.apply(remove((ART, CHARLIE)))
        assert delta.stats.covers_broken == 1
        assert (ART, BILLIE) not in schedule.push
        assert (ART, BILLIE) in schedule.pull
        assert schedule.hub_cover[(dan, BILLIE)] == ART
        assert delta.is_feasible()
        # only the removed push leg's price leaves the running cost
        assert delta.cost() == pytest.approx(before - 1.0)
        assert delta.cost() == pytest.approx(
            schedule_cost(schedule, delta.workload)
        )

    def test_random_churn_stays_feasible(self):
        graph = social_copying_graph(80, out_degree=5, copy_fraction=0.7, seed=3)
        workload = log_degree_workload(graph)
        schedule = parallel_nosy_schedule(graph, workload, 5)
        delta = DeltaScheduler(graph, workload, schedule)
        for _ in random_churn(delta, random.Random(0), 200):
            pass
        assert delta.is_feasible()
        validate_schedule(graph, schedule)

    def test_adds_never_cost_more_than_hybrid(self):
        graph = social_copying_graph(100, out_degree=5, copy_fraction=0.7, seed=4)
        workload = log_degree_workload(graph)
        edges = sorted(graph.edges(), key=repr)
        random.Random(1).shuffle(edges)
        half = SocialGraph()
        half.add_nodes_from(graph.nodes())
        half.add_edges_from(edges[: len(edges) // 2])
        schedule = parallel_nosy_schedule(half, workload, 6)
        delta = DeltaScheduler(half, workload, schedule)
        for edge in edges[len(edges) // 2 :]:
            delta.apply(add(edge))
        hybrid_cost = schedule_cost(hybrid_schedule(half, workload), workload)
        assert delta.cost() <= hybrid_cost + 1e-9

    def test_reoptimized_cost_not_worse_than_maintained(self):
        graph = social_copying_graph(100, out_degree=5, copy_fraction=0.7, seed=5)
        workload = log_degree_workload(graph)
        schedule = parallel_nosy_schedule(graph, workload, 2)
        delta = DeltaScheduler(graph, workload, schedule)
        static = schedule_cost(parallel_nosy_schedule(graph, workload, 10), workload)
        assert static <= delta.cost() + 1e-9

    def test_cost_matches_schedule_cost_for_known_users(self):
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        assert delta.cost() == pytest.approx(schedule_cost(schedule, workload))

    def test_running_cost_equals_rescan_across_churn(self):
        """After every kind of event, broken covers and floor-priced users
        added mid-stream included."""
        graph = social_copying_graph(80, out_degree=5, copy_fraction=0.7, seed=6)
        workload = log_degree_workload(graph)
        schedule = parallel_nosy_schedule(graph, workload, 5)
        delta = DeltaScheduler(graph, workload, schedule)
        assert delta.cost() == pytest.approx(schedule_cost(schedule, workload))
        for _ in random_churn(delta, random.Random(7), 150, new_users=True):
            assert delta.cost() == pytest.approx(
                schedule_cost(delta.schedule, delta.workload)
            )
        assert delta.stats.covers_broken > 0

    def test_floor_rates_fixed_at_construction(self):
        """Mutating the caller's workload afterwards moves neither the
        floors nor the scheduler's own rate tables."""
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        floor_rp, floor_rc = delta._rp_floor, delta._rc_floor
        assert floor_rp == min(r for r in workload.production.values() if r > 0)
        assert floor_rc == min(r for r in workload.consumption.values() if r > 0)
        workload.production[ART] = 1e-9  # simulated drift after construction
        try:
            assert delta._rp_floor == floor_rp
            assert delta.workload.rp(ART) == 1.0
        finally:
            workload.production[ART] = 1.0

    def test_user_first_seen_mid_stream_enters_at_floor_rates(self):
        graph, workload, schedule = wedge_with_schedule()
        delta = DeltaScheduler(graph, workload, schedule)
        before = delta.cost()
        delta.apply(add((ART, 42)))  # 42 is unknown to the workload
        assert delta.is_feasible()
        assert delta.workload.rp(42) == delta._rp_floor
        assert delta.workload.rc(42) == delta._rc_floor
        # priced with the floors, so the cost stays finite and comparable
        assert delta.cost() == pytest.approx(before + 1.0)  # push: rp(Art)=1
