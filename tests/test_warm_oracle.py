"""Differential/property harness for the warm-started exact oracle stack.

ISSUE 5's contract, bottom layer up:

* ``FlowNetwork.lower_capacity`` / ``lower_capacities`` — the capacity
  *decrease* repair (cancel overflowing flow, drain the deficit out of
  the downstream paths) must leave a preflow whose next solve matches a
  cold solve of the lowered network on both the flow value and the
  maximal min-cut source side, on both kernels, across repeated
  lower/raise rounds;
* ``ParametricDensest(warm=True)`` — across random monotone covering
  sequences (elements die, weights shrink), every warm solve must be
  byte-identical to a cold solve of the same state *and* optimal
  against exhaustive sub-hypergraph enumeration;
* ``ExactOracle(warm=True)`` — the session must reproduce the cold
  session's ``DensestResult`` byte for byte on both oracle input paths
  (dict sets and CSR bitmask/arrays), while actually warm-starting
  (``warm_solves`` > 0) and respecting the LRU memory cap.

Every scheduler runs warm; ``ExactOracle(warm=False)`` survives only as
the cold reference these session-level suites (and
``tests/test_step_certificate.py``) compare against.
"""

from __future__ import annotations

import itertools
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.densest import ScheduleMirror
from repro.core.hubgraph import build_hub_graph
from repro.core.schedule import RequestSchedule
from repro.flow.exact_oracle import ExactOracle
from repro.flow.maxflow import FlowNetwork
from repro.flow.parametric import ParametricDensest
from repro.graph.digraph import SocialGraph
from repro.graph.view import as_graph_view, edge_list
from repro.workload.rates import Workload

SMALL = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

METHODS = ("loop", "wave")


# ----------------------------------------------------------------------
# Layer 1: the capacity-decrease repair on the flow kernel
# ----------------------------------------------------------------------
def build_net(num_nodes, source, sink, arcs, method):
    net = FlowNetwork(num_nodes, source, sink, method=method)
    ids = [net.add_arc(u, v, c) for u, v, c in arcs]
    net.freeze()
    net.reset()
    return net, ids


def random_network(rng, num_nodes):
    return [
        (u, v, round(rng.uniform(0.1, 5.0), 3))
        for u in range(num_nodes)
        for v in range(num_nodes)
        if u != v and rng.random() < 0.4
    ]


def layered_network(rng):
    """A parametric-shaped network: source -> elements -> verts -> sink."""
    num_elems, num_verts = rng.randint(1, 6), rng.randint(1, 4)
    arcs = []
    for e in range(num_elems):
        arcs.append((0, 2 + e, rng.choice([0.0, 1.0])))
    for e in range(num_elems):
        for v in rng.sample(range(num_verts), rng.randint(1, num_verts)):
            arcs.append((2 + e, 2 + num_elems + v, float(num_elems + 1)))
    for v in range(num_verts):
        arcs.append((2 + num_elems + v, 1, round(rng.uniform(0.0, 3.0), 3)))
    return 2 + num_elems + num_verts, 0, 1, arcs


class TestLowerCapacity:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seed", range(8))
    def test_repaired_resume_matches_cold_solve(self, seed, method):
        """Rounds of random lowers/raises; warm resume == cold instance."""
        rng = random.Random(seed)
        if seed % 2:
            num_nodes, source, sink, arcs = layered_network(rng)
        else:
            num_nodes, source, sink = 8, 0, 7
            arcs = random_network(rng, num_nodes)
        if not arcs:
            return
        warm, ids = build_net(num_nodes, source, sink, arcs, method)
        warm.solve()
        caps = [c for _, _, c in arcs]
        for _ in range(4):
            for i in range(len(arcs)):
                roll = rng.random()
                if roll < 0.35:
                    caps[i] = round(caps[i] * rng.uniform(0.0, 0.9), 6)
                    warm.lower_capacity(ids[i], caps[i])
                elif roll < 0.45:
                    caps[i] = round(caps[i] + rng.uniform(0.1, 2.0), 6)
                    warm.raise_capacity(ids[i], caps[i])
            warm_value = warm.solve()
            cold, _ = build_net(
                num_nodes,
                source,
                sink,
                [(u, v, c) for (u, v, _), c in zip(arcs, caps)],
                method,
            )
            assert warm_value == pytest.approx(cold.solve(), abs=1e-7)
            assert warm.source_side() == cold.source_side()

    @pytest.mark.parametrize("seed", range(4))
    def test_batched_lowering_matches_scalar(self, seed):
        """``lower_capacities`` (one vectorized sweep) == per-arc repairs."""
        rng = random.Random(100 + seed)
        num_nodes, source, sink, arcs = layered_network(rng)
        batched, ids = build_net(num_nodes, source, sink, arcs, "wave")
        scalar, _ = build_net(num_nodes, source, sink, arcs, "wave")
        batched.solve()
        scalar.solve()
        lowered = [
            (i, round(c * rng.uniform(0.0, 0.8), 6))
            for i, (_, _, c) in enumerate(arcs)
            if rng.random() < 0.6
        ]
        if not lowered:
            return
        batched.lower_capacities(
            [ids[i] for i, _ in lowered], [c for _, c in lowered]
        )
        for i, c in lowered:
            scalar.lower_capacity(ids[i], c)
        assert batched.solve() == pytest.approx(scalar.solve(), abs=1e-8)
        assert batched.source_side() == scalar.source_side()

    @pytest.mark.parametrize("method", METHODS)
    def test_lowering_to_zero_cancels_routed_flow(self, method):
        net, ids = build_net(
            3, 0, 2, [(0, 1, 2.0), (1, 2, 2.0)], method
        )
        assert net.solve() == pytest.approx(2.0)
        net.lower_capacity(ids[0], 0.0)
        assert net.repairs == 1  # routed flow had to be cancelled
        assert net.flow_value == pytest.approx(0.0)
        assert net.solve() == pytest.approx(0.0)
        # and warm-raising it back restores the old value
        net.raise_capacity(ids[0], 2.0)
        assert net.solve() == pytest.approx(2.0)

    @pytest.mark.parametrize("method", METHODS)
    def test_lowering_unused_capacity_is_free(self, method):
        """No routed flow above the new bound: no repair, value intact.

        The slack arc must not touch the source (push-relabel saturates
        every source arc, so those always carry their full capacity).
        """
        net, ids = build_net(
            4, 0, 3, [(0, 1, 5.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 5.0)], method
        )
        assert net.solve() == pytest.approx(2.0)
        net.lower_capacity(ids[3], 2.0)  # still >= the 1.0 actually routed
        assert net.repairs == 0
        assert net.solve() == pytest.approx(2.0)

    def test_rejects_raising_via_lower(self):
        net, ids = build_net(2, 0, 1, [(0, 1, 1.0)], "loop")
        from repro.flow.maxflow import FlowError

        with pytest.raises(FlowError):
            net.lower_capacity(ids[0], 2.0)
        with pytest.raises(FlowError):
            net.lower_capacity(ids[0], -1.0)
        with pytest.raises(FlowError):
            net.lower_capacities([ids[0]], [2.0])


# ----------------------------------------------------------------------
# Layer 2: warm ParametricDensest across covering sequences
# ----------------------------------------------------------------------
def brute_force_densest(endpoints, num_verts, weight, alive):
    """Best density over every vertex subset (the oracle's ground truth)."""
    best = 0.0
    for r in range(1, num_verts + 1):
        for subset in itertools.combinations(range(num_verts), r):
            sub = set(subset)
            covered = sum(
                1
                for e, verts in enumerate(endpoints)
                if alive[e] and set(verts) <= sub
            )
            if not covered:
                continue
            total = sum(weight[v] for v in subset)
            best = max(
                best, math.inf if total <= 0.0 else covered / total
            )
    return best


@st.composite
def covering_runs(draw):
    """An incidence structure plus a monotone covering/weight-drop script."""
    num_verts = draw(st.integers(min_value=1, max_value=5))
    endpoints = []
    for v in range(num_verts):
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            endpoints.append((v,))
    pair = st.tuples(
        st.integers(0, num_verts - 1), st.integers(0, num_verts - 1)
    ).filter(lambda p: p[0] != p[1])
    if num_verts >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            endpoints.append(draw(pair))
    if not endpoints:
        endpoints.append((0,))
    rate = st.floats(
        min_value=0.05, max_value=10.0, allow_nan=False, allow_infinity=False
    )
    weight = [draw(rate) for _ in range(num_verts)]
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kill = draw(
            st.lists(
                st.integers(0, len(endpoints) - 1),
                min_size=0,
                max_size=3,
                unique=True,
            )
        )
        drop = draw(
            st.one_of(
                st.none(),
                st.tuples(
                    st.integers(0, num_verts - 1),
                    st.floats(min_value=0.0, max_value=0.9),
                ),
            )
        )
        steps.append((kill, drop))
    return endpoints, num_verts, weight, steps


class TestWarmParametricDifferential:
    @SMALL
    @given(covering_runs())
    @pytest.mark.parametrize("method", METHODS)
    def test_warm_equals_cold_equals_brute_force(self, method, run):
        """Every step: warm == fresh-cold instance == exhaustive optimum."""
        endpoints, num_verts, weight, steps = run
        warm = ParametricDensest(endpoints, num_verts, method=method, warm=True)
        alive = [True] * len(endpoints)
        weight = list(weight)
        for kill, drop in steps:
            warm_sel = warm.solve(weight, alive)
            cold_sel = ParametricDensest(
                endpoints, num_verts, method=method
            ).solve(weight, alive)
            assert (warm_sel is None) == (cold_sel is None)
            if warm_sel is not None:
                # byte-identical selection, not merely equal density
                assert warm_sel.selected == cold_sel.selected
                assert warm_sel.covered == cold_sel.covered
                assert warm_sel.weight == pytest.approx(
                    cold_sel.weight, abs=1e-9
                )
                best = brute_force_densest(
                    endpoints, num_verts, weight, alive
                )
                if math.isinf(best):
                    assert warm_sel.density == math.inf
                else:
                    assert warm_sel.density == pytest.approx(best, rel=1e-9)
            for e in kill:
                alive[e] = False
            if drop is not None:
                v, factor = drop
                weight[v] *= factor

    def test_warm_solves_counts_resumes_only(self):
        problem = ParametricDensest([(0,), (0,), (1,)], 2, warm=True)
        weight = [1.0, 2.0]
        problem.solve(weight, [True, True, True])
        assert problem.warm_solves == 0  # first call is necessarily cold
        problem.solve(weight, [True, False, True])
        assert problem.warm_solves == 1
        problem.invalidate()
        problem.solve(weight, [False, False, True])
        assert problem.warm_solves == 1  # invalidation forced a cold solve
        assert problem.solve(weight, [False, False, False]) is None
        assert problem.warm_solves == 1  # nothing alive: network untouched

    def test_cold_instances_never_warm_solve(self):
        problem = ParametricDensest([(0,), (1,)], 2)
        for alive in ([True, True], [True, False], [False, False]):
            problem.solve([1.0, 1.0], alive)
        assert problem.warm_solves == 0


# ----------------------------------------------------------------------
# Layer 3: the ExactOracle session, dict and CSR input paths
# ----------------------------------------------------------------------
def hub_instance(seed):
    """A producers/hub/consumers instance with dense ids (CSR-ready)."""
    rng = random.Random(seed)
    num_x, num_y = rng.randint(1, 4), rng.randint(1, 4)
    hub = num_x + num_y
    xs = list(range(num_x))
    ys = list(range(num_x, num_x + num_y))
    edges = {(x, hub) for x in xs} | {(hub, y) for y in ys}
    for x in xs:
        for y in ys:
            if rng.random() < 0.5:
                edges.add((x, y))
    graph = SocialGraph(sorted(edges))
    nodes = xs + ys + [hub]
    workload = Workload(
        production={n: round(rng.uniform(0.05, 10.0), 3) for n in nodes},
        consumption={n: round(rng.uniform(0.05, 10.0), 3) for n in nodes},
    )
    return graph, workload, hub, rng


def assert_same_result(a, b):
    assert (a is None) == (b is None)
    if a is None:
        return
    assert a.hub == b.hub
    assert a.x_selected == b.x_selected
    assert a.y_selected == b.y_selected
    assert a.covered == b.covered
    assert a.weight == pytest.approx(b.weight, abs=1e-9)
    assert a.exact and b.exact


class TestDenormalWeightOverflow:
    """A near-denormal vertex weight makes the single-vertex density —
    and with it the Dinkelbach λ and the λ·g sink capacities — overflow
    to inf.  The loop kernel's min(excess, residual) pushes are
    naturally immune, but the wave kernel's proportional split used to
    compute inf·0 → NaN deltas and corrupt the preflow, so cold wave
    solves disagreed with loop and warm solves (found by the hypothesis
    differential suite; pinned here deterministically)."""

    DENORMAL = 2.225073858507e-311

    def test_all_kernels_agree_under_inf_lambda(self):
        endpoints = [(1,), (0, 1)]
        weight = [1.0, self.DENORMAL, 1.0, 1.0]
        alive = [True, True]
        warm = ParametricDensest(endpoints, 4, method="wave", warm=True)
        warm.solve([1.0] * 4, alive)  # park a preflow at the old weights
        selections = {
            "warm-wave": warm.solve(list(weight), alive),
            "cold-wave": ParametricDensest(
                endpoints, 4, method="wave"
            ).solve(list(weight), alive),
            "cold-loop": ParametricDensest(
                endpoints, 4, method="loop"
            ).solve(list(weight), alive),
        }
        for name, sel in selections.items():
            # {1} covers its singleton element at near-zero weight: the
            # unique (infinite-density) optimum
            assert sel.selected == (1,), name


class TestWarmExactOracleSession:
    @pytest.mark.parametrize("seed", range(12))
    def test_dict_path_warm_equals_cold_across_covering(self, seed):
        graph, workload, hub, rng = hub_instance(seed)
        hub_graph = build_hub_graph(graph, hub)
        warm = ExactOracle(warm=True)
        cold = ExactOracle(warm=False)
        uncovered = set(graph.edges())
        schedule = RequestSchedule()
        flow_solves = 0
        while uncovered:
            warm_result = warm(hub_graph, workload, schedule, uncovered)
            cold_result = cold(hub_graph, workload, schedule, uncovered)
            assert_same_result(warm_result, cold_result)
            if warm_result is None:
                break
            if warm_result.weight > 0.0:
                flow_solves += 1  # free champions skip the network
            # cover some of the champion's edges (a covering event), and
            # occasionally pay a leg (a weight-drop event)
            victims = rng.sample(
                sorted(warm_result.covered),
                rng.randint(1, len(warm_result.covered)),
            )
            uncovered -= set(victims)
            if rng.random() < 0.5:
                u, v = victims[0]
                if v == hub:
                    schedule.add_push((u, v))
                elif u == hub:
                    schedule.add_pull((u, v))
        # every network-touching call after the first resumed the preflow
        assert warm.warm_solves == max(0, flow_solves - 1)
        assert cold.warm_solves == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_csr_mask_path_warm_equals_cold(self, seed):
        """The vectorized bitmask/arrays input path, warm vs cold."""
        graph, workload, hub, rng = hub_instance(200 + seed)
        view = as_graph_view(graph, "csr")
        edges = edge_list(view)
        mirror_warm = ScheduleMirror(view, workload, edges)
        mirror_cold = ScheduleMirror(view, workload, edges)
        hub_graph = build_hub_graph(view, hub)
        assert hub_graph.element_ids is not None
        warm = ExactOracle(warm=True)
        cold = ExactOracle(warm=False)
        uncovered = set(edges)
        schedule = RequestSchedule()
        while uncovered:
            results = []
            for oracle, mirror in (
                (warm, mirror_warm),
                (cold, mirror_cold),
            ):
                results.append(
                    oracle(
                        hub_graph,
                        workload,
                        schedule,
                        uncovered,
                        uncovered_mask=mirror.uncovered_mask,
                        arrays=mirror.arrays,
                    )
                )
            assert_same_result(results[0], results[1])
            if results[0] is None:
                break
            victims = rng.sample(
                sorted(results[0].covered),
                rng.randint(1, len(results[0].covered)),
            )
            uncovered -= set(victims)
            mirror_warm.cover(victims)
            mirror_cold.cover(victims)
            if rng.random() < 0.5:
                u, v = victims[0]
                if v == hub:
                    schedule.add_push((u, v))
                    mirror_warm.add_push((u, v))
                    mirror_cold.add_push((u, v))
                elif u == hub:
                    schedule.add_pull((u, v))
                    mirror_warm.add_pull((u, v))
                    mirror_cold.add_pull((u, v))
        assert warm.warm_solves > 0

    def test_warm_session_does_less_discharge_work_at_scale(self):
        """The largest hub of a copying graph, covered champion by
        champion as the scheduler would: the warm session matches the
        cold reference call for call with fewer discharge passes."""
        from repro.graph.generators import social_copying_graph
        from repro.workload.rates import log_degree_workload

        graph = social_copying_graph(
            400, out_degree=8, copy_fraction=0.7, reciprocity=0.2, seed=3
        )
        workload = log_degree_workload(graph, read_write_ratio=5.0)
        hub = max(
            graph.nodes(), key=lambda n: graph.in_degree(n) * graph.out_degree(n)
        )
        hub_graph = build_hub_graph(graph, hub)
        warm = ExactOracle(warm=True)
        cold = ExactOracle(warm=False)
        uncovered = set(hub_graph.elements())
        schedule = RequestSchedule()
        while uncovered:
            warm_result = warm(hub_graph, workload, schedule, uncovered)
            cold_result = cold(hub_graph, workload, schedule, uncovered)
            assert_same_result(warm_result, cold_result)
            if warm_result is None:
                break
            uncovered -= warm_result.covered
            for x in warm_result.x_selected:
                schedule.add_push((x, hub))
            for y in warm_result.y_selected:
                schedule.add_pull((hub, y))
        assert warm.warm_solves > 0 and warm.preflow_repairs > 0
        assert cold.warm_solves == 0 and cold.preflow_repairs == 0
        assert warm.flow_passes < cold.flow_passes

    def test_lru_eviction_caps_sessions_and_stays_correct(self):
        """A 2-slot session over 3 hubs evicts, rebuilds cold, same answers."""
        instances = []
        for s in range(3):
            graph, workload, hub, _rng = hub_instance(300 + s)
            # disjoint id ranges: one session, three genuinely distinct hubs
            offset = 100 * (s + 1)
            shifted = SocialGraph(
                [(u + offset, v + offset) for u, v in graph.edges()]
            )
            shifted_workload = Workload(
                production={
                    n + offset: workload.rp(n) for n in graph.nodes()
                },
                consumption={
                    n + offset: workload.rc(n) for n in graph.nodes()
                },
            )
            instances.append((shifted, shifted_workload, hub + offset))
        capped = ExactOracle(warm=True, max_cached=2)
        unbounded = ExactOracle(warm=True)
        for _round in range(3):
            for graph, workload, hub in instances:
                hub_graph = build_hub_graph(graph, hub)
                uncovered = set(graph.edges())
                a = capped(hub_graph, workload, RequestSchedule(), uncovered)
                b = unbounded(
                    hub_graph, workload, RequestSchedule(), uncovered
                )
                assert_same_result(a, b)
        assert capped.evictions > 0
        assert len(capped._problems) <= 2
        assert unbounded.evictions == 0
        # evicted hubs forced cold rebuilds: strictly fewer warm resumes
        assert capped.warm_solves < unbounded.warm_solves

    @pytest.mark.parametrize("seed", range(6))
    def test_dead_hub_releases_its_network_and_reopens_cold(self, seed):
        """A call that finds no alive element drops the hub's network;
        re-opening elements (as delta repair does) rebuilds it cold and
        answers exactly as the cold reference session."""
        graph, workload, hub, rng = hub_instance(500 + seed)
        hub_graph = build_hub_graph(graph, hub)
        session = ExactOracle(warm=True)
        schedule = RequestSchedule()
        elements = sorted(hub_graph.elements())
        assert session(hub_graph, workload, schedule, set(elements)) is not None
        assert hub in session._problems
        assert session(hub_graph, workload, schedule, set()) is None
        assert hub not in session._problems
        session.invalidate(hub)  # delta repair's cold restart: a no-op now
        reopened = set(rng.sample(elements, rng.randint(1, len(elements))))
        warm_before = session.warm_solves
        again = session(hub_graph, workload, schedule, reopened)
        reference = ExactOracle(warm=False)(
            hub_graph, workload, schedule, reopened
        )
        assert hub in session._problems
        assert session.warm_solves == warm_before  # rebuilt cold
        assert again.hub == reference.hub
        assert again.x_selected == reference.x_selected
        assert again.y_selected == reference.y_selected
        assert again.covered == reference.covered
        assert again.weight == reference.weight
        assert again.opt_lower_bound == reference.opt_lower_bound
        assert session.evictions == 0

    def test_hub_id_collision_rebuilds_instead_of_reusing(self):
        """Same hub id, different graph: the stale network is not served."""
        a_graph = SocialGraph([(0, 5), (5, 1)])
        b_graph = SocialGraph([(0, 5), (1, 5), (5, 2), (5, 3), (0, 2)])
        workload = Workload(
            production={n: 1.0 for n in range(6)},
            consumption={n: 2.0 for n in range(6)},
        )
        session = ExactOracle(warm=True)
        first = session(
            build_hub_graph(a_graph, 5),
            workload,
            RequestSchedule(),
            set(a_graph.edges()),
        )
        second = session(
            build_hub_graph(b_graph, 5),
            workload,
            RequestSchedule(),
            set(b_graph.edges()),
        )
        fresh = ExactOracle(warm=True)(
            build_hub_graph(b_graph, 5),
            workload,
            RequestSchedule(),
            set(b_graph.edges()),
        )
        assert first is not None
        assert_same_result(second, fresh)

    def test_invalid_cache_cap_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            ExactOracle(max_cached=0)

    def test_session_counters_reported(self):
        graph, workload, hub, _rng = hub_instance(42)
        oracle = ExactOracle(warm=True)
        hub_graph = build_hub_graph(graph, hub)
        uncovered = set(graph.edges())
        first = oracle(hub_graph, workload, RequestSchedule(), uncovered)
        assert first is not None
        assert oracle.flow_passes > 0
        uncovered -= set(
            list(first.covered)[: max(1, len(first.covered) // 2)]
        )
        if uncovered:
            oracle(hub_graph, workload, RequestSchedule(), uncovered)
            assert oracle.warm_solves == 1
