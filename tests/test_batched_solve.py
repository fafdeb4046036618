"""Differential suite for the block-diagonal batched flow tier.

ISSUE 6's contract, bottom layer up:

* ``BatchedNetwork`` — an arena solve of ``k`` stacked blocks must
  reproduce, per block, the flow value and the *maximal* min-cut source
  side of ``k`` isolated ``FlowNetwork.solve()`` calls, on random block
  mixes (mixed sizes, mixed ``loop``/``wave`` per-block kernels, since
  the grouped layout round-trips both), cold and warm (resumed
  preflows, capacity raises between passes), including blocks masked
  out mid-run via ``mark_done``;
* ``MultiHubSession`` — a batched oracle call over ``k`` hub-graphs
  must return results byte-identical to ``k`` sequential
  ``ExactOracle`` calls at the same state, across covering sequences
  (the warm path), and under LRU eviction pressure (``max_cached``
  smaller than the batch).

Scheduler-level byte-identity at ε=0 (``batch_k`` on full CHITCHAT
runs, every width and flow method) lives in
``tests/test_batch_k_identity.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.schedule import RequestSchedule
from repro.flow.batched_solve import BatchedNetwork, BlockTemplate, FlowStats
from repro.flow.exact_oracle import ExactOracle, MultiHubSession
from repro.flow.maxflow import FlowError, FlowNetwork
from repro.graph.digraph import SocialGraph
from repro.workload.rates import Workload
from tests.conftest import OracleInstance

METHODS = ("loop", "wave")


# ----------------------------------------------------------------------
# Raw-arena layer: BatchedNetwork vs k isolated FlowNetwork solves
# ----------------------------------------------------------------------
def build_net(num_nodes, source, sink, arcs, method):
    net = FlowNetwork(num_nodes, source, sink, method=method)
    for u, v, c in arcs:
        net.add_arc(u, v, c)
    net.freeze()
    net.reset()
    return net


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


#: per-block kernels of a block set: a random mix, or every block on one
#: kernel — loop blocks export through the arc permutation, wave blocks
#: already hold the grouped layout, so each forced set pins one path
BLOCK_KERNELS = ("mixed",) + METHODS


def random_block(rng, kernel="mixed"):
    """One random solvable network on ``kernel`` (random when mixed)."""
    if rng.random() < 0.5:
        num_nodes, source, sink, arcs = layered_network(rng)
    else:
        num_nodes, source, sink = rng.randint(4, 9), 0, 3
        arcs = random_network(rng, num_nodes)
        if not arcs:
            arcs = [(0, 3, 1.0)]
    method = rng.choice(METHODS) if kernel == "mixed" else kernel
    return build_net(num_nodes, source, sink, arcs, method)


@pytest.fixture(params=BLOCK_KERNELS)
def kernel(request):
    return request.param


def export_state(net):
    """(template, grouped caps, excess) of a network's current preflow."""
    tmpl = BlockTemplate.from_network(net)
    if net.grouped_layout:
        cap = np.array(net.cap, dtype=np.float64)
    else:
        cap = np.asarray(net.cap, dtype=np.float64)[tmpl.perm]
    return tmpl, cap, np.array(net.excess, dtype=np.float64)


def assert_blocks_match(arena, nets):
    sides = arena.source_sides()
    for j, net in enumerate(nets):
        value = net.solve()
        assert arena.block_value(j) == pytest.approx(value, abs=1e-8)
        assert arena.block_side(sides, j).tolist() == net.source_side()


class TestBatchedNetworkDifferential:
    @pytest.mark.parametrize("seed", range(10))
    def test_cold_mixed_blocks_match_isolated_solves(self, seed, kernel):
        """Random mixed-size block sets, zero preflow."""
        rng = random.Random(seed)
        nets = [random_block(rng, kernel) for _ in range(rng.randint(1, 6))]
        arena = BatchedNetwork([export_state(net) for net in nets])
        arena.solve()
        assert_blocks_match(arena, nets)

    @pytest.mark.parametrize("seed", range(10))
    def test_warm_resume_matches_isolated_warm_solves(self, seed, kernel):
        """Blocks loaded with solved preflows + capacity raises."""
        rng = random.Random(100 + seed)
        nets = [random_block(rng, kernel) for _ in range(rng.randint(2, 5))]
        for net in nets:
            net.solve()
            # raise a few forward arcs so there is genuinely new flow
            for arc in range(0, len(net.head), 2):
                if rng.random() < 0.4:
                    net.raise_capacity(
                        arc, net.base_cap[arc] + rng.uniform(0.1, 2.0)
                    )
        arena = BatchedNetwork([export_state(net) for net in nets])
        arena.solve()
        assert_blocks_match(arena, nets)

    @pytest.mark.parametrize("seed", range(6))
    def test_arena_raise_then_resolve_matches(self, seed, kernel):
        """add_capacity + a second arena pass == raises on the originals."""
        rng = random.Random(200 + seed)
        nets = [random_block(rng, kernel) for _ in range(rng.randint(2, 4))]
        arena = BatchedNetwork([export_state(net) for net in nets])
        arena.solve()
        for j, net in enumerate(nets):
            tmpl = BlockTemplate.from_network(net)
            positions, deltas = [], []
            for arc in range(0, len(net.head), 2):
                if rng.random() < 0.5:
                    delta = rng.uniform(0.1, 1.5)
                    positions.append(int(tmpl.pos[arc]))
                    deltas.append(delta)
                    net.raise_capacity(arc, net.base_cap[arc] + delta)
            arena.add_capacity(j, positions, deltas)
        arena.solve()
        assert_blocks_match(arena, nets)

    def test_mark_done_freezes_block_and_masks_its_cut(self, kernel):
        rng = random.Random(7)
        nets = [random_block(rng, kernel) for _ in range(3)]
        arena = BatchedNetwork([export_state(net) for net in nets])
        arena.solve()
        done_value = arena.block_value(1)
        done_cap, done_excess = arena.export_block(1)
        arena.mark_done(1)
        # grow the live blocks and re-solve: the done block must not move
        for j in (0, 2):
            net = nets[j]
            tmpl = BlockTemplate.from_network(net)
            arc = 0
            arena.add_capacity(j, [int(tmpl.pos[arc])], [1.0])
            net.raise_capacity(arc, net.base_cap[arc] + 1.0)
        arena.solve()
        assert arena.block_value(1) == done_value
        cap_after, excess_after = arena.export_block(1)
        assert np.array_equal(cap_after, done_cap)
        assert np.array_equal(excess_after, done_excess)
        sides = arena.source_sides()
        for j in (0, 2):
            nets[j].solve()
            assert arena.block_side(sides, j).tolist() == nets[j].source_side()

    def test_writeback_roundtrip_resumes_warm_on_own_network(self):
        """An exported block adopted by its network keeps solving warm."""
        rng = random.Random(11)
        num_nodes, source, sink, arcs = layered_network(rng)
        for method in METHODS:
            net = build_net(num_nodes, source, sink, arcs, method)
            arena = BatchedNetwork([export_state(net)])
            arena.solve()
            cap, excess = arena.export_block(0)
            if net.grouped_layout:
                net.adopt_state(cap, excess)
            else:
                tmpl = BlockTemplate.from_network(net)
                arc_cap = np.empty_like(cap)
                arc_cap[tmpl.perm] = cap
                net.adopt_state(arc_cap.tolist(), excess.tolist())
            reference = build_net(num_nodes, source, sink, arcs, method)
            assert net.solve() == pytest.approx(reference.solve(), abs=1e-8)
            assert net.source_side() == reference.source_side()

    def test_stats_record_freeze_solves_and_blocks(self, kernel):
        rng = random.Random(13)
        nets = [random_block(rng, kernel) for _ in range(3)]
        stats = FlowStats()
        arena = BatchedNetwork([export_state(net) for net in nets], stats=stats)
        arena.solve()
        assert stats.batched_solves == 1
        assert stats.batched_blocks == 3
        assert stats.blocks_per_batch == pytest.approx(3.0)
        assert stats.kernel_invocations == 1
        assert stats.freeze_seconds > 0.0
        assert stats.discharge_seconds > 0.0
        assert FlowStats().blocks_per_batch == 0.0

    def test_wave_template_shares_the_network_grouped_arrays(self):
        """A wave network's grouped arrays are the block layout: its
        template shares them, and equals the loop twin's compiled one."""
        rng = random.Random(17)
        num_nodes, source, sink, arcs = layered_network(rng)
        wave = build_net(num_nodes, source, sink, arcs, "wave")
        loop = build_net(num_nodes, source, sink, arcs, "loop")
        shared = BlockTemplate.from_network(wave)
        compiled = BlockTemplate.from_network(loop)
        assert shared.perm is wave._g_perm
        assert shared.head is wave._g_head
        for name in ("perm", "pos", "rev", "head", "tail", "ptr", "counts"):
            assert getattr(shared, name).tolist() == getattr(
                compiled, name
            ).tolist()
        assert shared.src_pos.tolist() == compiled.src_pos.tolist()

    def test_rejects_empty_arena_unfrozen_template_and_negative_delta(self):
        with pytest.raises(FlowError):
            BatchedNetwork([])
        net = FlowNetwork(2, 0, 1)
        net.add_arc(0, 1, 1.0)
        with pytest.raises(FlowError):
            BlockTemplate.from_network(net)
        net.freeze()
        net.reset()
        arena = BatchedNetwork([export_state(net)])
        with pytest.raises(FlowError):
            arena.add_capacity(0, [0], [-1.0])


# ----------------------------------------------------------------------
# Session layer: MultiHubSession vs sequential ExactOracle calls
# ----------------------------------------------------------------------
def hub_instance(seed, offset=0):
    """A producers/hub/consumers instance with dense ids (CSR-ready)."""
    rng = random.Random(seed)
    num_x, num_y = rng.randint(1, 4), rng.randint(1, 4)
    hub = offset + num_x + num_y
    xs = list(range(offset, offset + num_x))
    ys = list(range(offset + num_x, offset + num_x + num_y))
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
    return graph, workload, hub


def merged_instances(seed, count):
    """`count` disjoint hub instances merged into one graph/workload."""
    graphs, hubs = [], []
    production, consumption = {}, {}
    edges = []
    for s in range(count):
        graph, workload, hub = hub_instance(seed + 31 * s, offset=100 * s)
        graphs.append(graph)
        hubs.append(hub)
        edges.extend(graph.edges())
        production.update(workload.production)
        consumption.update(workload.consumption)
    merged = SocialGraph(sorted(edges))
    workload = Workload(production=production, consumption=consumption)
    return merged, workload, hubs


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


class TestMultiHubSessionDifferential:
    @pytest.mark.parametrize("warm", (False, True))
    @pytest.mark.parametrize("seed", range(6))
    def test_batched_equals_sequential_across_covering(self, seed, warm):
        """Random covering sequences: every round, batch == k sequential."""
        rng = random.Random(seed)
        graph, workload, hubs = merged_instances(
            1000 + seed, rng.randint(2, 5)
        )
        instance = OracleInstance(graph, workload)
        hub_graphs = [instance.hub_graph(hub) for hub in hubs]
        batched_oracle = ExactOracle(warm=warm)
        sequential = ExactOracle(warm=warm)
        session = MultiHubSession(batched_oracle)
        uncovered = set(graph.edges())
        schedule = RequestSchedule()
        for _round in range(6):
            if not uncovered:
                break
            batch = instance.call_batch(session, hub_graphs, schedule, uncovered)
            for hub_graph, result in zip(hub_graphs, batch):
                reference = instance.call(
                    sequential, hub_graph, schedule, uncovered
                )
                assert_same_result(result, reference)
            covered_any = [r for r in batch if r is not None and r.covered]
            if not covered_any:
                break
            champion = covered_any[0]
            victims = rng.sample(
                sorted(champion.covered),
                rng.randint(1, len(champion.covered)),
            )
            uncovered -= set(victims)
            if rng.random() < 0.5:
                u, v = victims[0]
                if v == champion.hub:
                    schedule.add_push((u, v))
                elif u == champion.hub:
                    schedule.add_pull((u, v))
        if warm:
            assert batched_oracle.warm_solves == sequential.warm_solves
        assert batched_oracle.flow_stats.batched_solves > 0

    def test_lru_eviction_during_batch_stays_correct(self):
        """max_cached below the batch width: evicted hubs rebuild cold."""
        graph, workload, hubs = merged_instances(3000, 4)
        instance = OracleInstance(graph, workload)
        hub_graphs = [instance.hub_graph(hub) for hub in hubs]
        capped = ExactOracle(warm=True, max_cached=2)
        unbounded = ExactOracle(warm=True)
        capped_session = MultiHubSession(capped)
        unbounded_session = MultiHubSession(unbounded)
        uncovered = set(graph.edges())
        schedule = RequestSchedule()
        for _round in range(3):
            a = instance.call_batch(capped_session, hub_graphs, schedule, uncovered)
            b = instance.call_batch(
                unbounded_session, hub_graphs, schedule, uncovered
            )
            for x, y in zip(a, b):
                assert_same_result(x, y)
            champion = next(r for r in a if r is not None and r.covered)
            uncovered -= set(list(champion.covered)[:1])
        assert capped.evictions > 0
        assert len(capped._problems) <= 2

    def test_repeated_hub_in_one_batch_is_replayed_sequentially(self):
        graph, workload, hubs = merged_instances(4000, 2)
        instance = OracleInstance(graph, workload)
        hub_graphs = [instance.hub_graph(hub) for hub in hubs]
        doubled = hub_graphs + [hub_graphs[0]]
        session = MultiHubSession(ExactOracle(warm=True))
        results = instance.call_batch(session, doubled, None, graph.edges())
        reference = instance.call(
            ExactOracle(warm=True), hub_graphs[0], None, graph.edges()
        )
        assert_same_result(results[0], reference)
        assert_same_result(results[2], reference)

    def test_single_flow_bound_hub_falls_back_to_sequential(self):
        """Below BATCH_MIN_BLOCKS the arena is never built."""
        graph, workload, hubs = merged_instances(5000, 1)
        instance = OracleInstance(graph, workload)
        hub_graph = instance.hub_graph(hubs[0])
        oracle = ExactOracle(warm=True)
        session = MultiHubSession(oracle)
        results = instance.call_batch(session, [hub_graph], None, graph.edges())
        reference = instance.call(
            ExactOracle(warm=True), hub_graph, None, graph.edges()
        )
        assert_same_result(results[0], reference)
        assert oracle.flow_stats.batched_solves == 0
        assert oracle.flow_stats.kernel_invocations > 0

    @pytest.mark.parametrize("method", ("auto", "loop"))
    def test_method_matches_wave_oracle_across_covering(self, method):
        """The session's ``method`` is a pure perf knob: identical results."""
        rng = random.Random(17)
        graph, workload, hubs = merged_instances(7000, 3)
        instance = OracleInstance(graph, workload)
        hub_graphs = [instance.hub_graph(hub) for hub in hubs]
        session = MultiHubSession(ExactOracle(method=method))
        wave_session = MultiHubSession(ExactOracle(method="wave"))
        uncovered = set(graph.edges())
        schedule = RequestSchedule()
        for _round in range(4):
            if not uncovered:
                break
            a = instance.call_batch(session, hub_graphs, schedule, uncovered)
            b = instance.call_batch(wave_session, hub_graphs, schedule, uncovered)
            for x, y in zip(a, b):
                assert_same_result(x, y)
            covered_any = [r for r in a if r is not None and r.covered]
            if not covered_any:
                break
            victims = rng.sample(
                sorted(covered_any[0].covered),
                rng.randint(1, len(covered_any[0].covered)),
            )
            uncovered -= set(victims)

    def test_fully_covered_hubs_yield_none_slots(self):
        graph, workload, hubs = merged_instances(6000, 3)
        instance = OracleInstance(graph, workload)
        hub_graphs = [instance.hub_graph(hub) for hub in hubs]
        # drop every element of hub 0 from the uncovered set
        uncovered = set(graph.edges()) - {
            instance.label_edge(edge) for edge in hub_graphs[0].elements()
        }
        session = MultiHubSession(ExactOracle(warm=True))
        results = instance.call_batch(session, hub_graphs, None, uncovered)
        assert results[0] is None
        assert results[1] is not None and results[2] is not None
