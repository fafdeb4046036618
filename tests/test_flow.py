"""Unit tests for the push-relabel max-flow kernel (``repro.flow.maxflow``).

Both solvers — the numpy-vectorized wave kernel and the pure-Python
FIFO discharge loop kept as the reference — are validated against
exhaustive min-cut enumeration on small random networks (≤ 12 nodes,
every source-containing subset priced), and their warm-restart path —
the capacity raises the parametric densest search relies on — is
checked to agree with from-scratch solves.  The solvers must also agree
with each other on the flow value *and* on the maximal min-cut source
side, which is a property of the instance, not of the particular
preflow a solver finds.  Hypothesis agreement suites live in
:class:`TestWaveHypothesisAgreement`.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flow.maxflow import (
    FLOW_METHODS,
    WAVE_AUTO_MIN_ARCS,
    FlowError,
    FlowMidSolveError,
    FlowNetwork,
    FlowNotFrozenError,
)

METHODS = ("loop", "wave")


def brute_force_min_cut(num_nodes, source, sink, arcs):
    """Minimum cut capacity by enumerating all source-side subsets."""
    best = float("inf")
    others = [v for v in range(num_nodes) if v not in (source, sink)]
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            side = {source} | set(combo)
            cut = sum(c for (u, v, c) in arcs if u in side and v not in side)
            best = min(best, cut)
    return best


def random_network(rng, num_nodes):
    arcs = []
    for u in range(num_nodes):
        for v in range(num_nodes):
            if u != v and rng.random() < 0.4:
                arcs.append((u, v, round(rng.uniform(0.1, 5.0), 3)))
    return arcs


def build(num_nodes, source, sink, arcs, method="auto"):
    net = FlowNetwork(num_nodes, source, sink, method=method)
    for u, v, c in arcs:
        net.add_arc(u, v, c)
    net.freeze()
    net.reset()
    return net


@pytest.fixture(params=FLOW_METHODS)
def method(request):
    """Every accepted ``method=``: both forced kernels and the default
    size-based ``"auto"`` dispatch callers get without asking."""
    return request.param


class TestMaxFlow:
    def test_single_path(self, method):
        net = build(3, 0, 2, [(0, 1, 2.0), (1, 2, 1.5)], method)
        assert net.solve() == pytest.approx(1.5)

    def test_parallel_paths(self, method):
        arcs = [(0, 1, 1.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 1.0)]
        net = build(4, 0, 3, arcs, method)
        assert net.solve() == pytest.approx(2.0)

    def test_disconnected_sink(self, method):
        net = build(3, 0, 2, [(0, 1, 5.0)], method)
        assert net.solve() == pytest.approx(0.0)
        assert net.source_side() == [True, True, False]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_min_cut(self, seed, method):
        """Acceptance check: flow value == exhaustive min cut, ≤ 12 nodes."""
        rng = random.Random(seed)
        for num_nodes in (3, 5, 8, 12):
            arcs = random_network(rng, num_nodes)
            net = build(num_nodes, 0, num_nodes - 1, arcs, method)
            value = net.solve()
            expected = brute_force_min_cut(num_nodes, 0, num_nodes - 1, arcs)
            assert value == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_source_side_is_a_minimum_cut(self, seed, method):
        """The extracted source side must itself price at the flow value."""
        rng = random.Random(100 + seed)
        arcs = random_network(rng, 9)
        net = build(9, 0, 8, arcs, method)
        value = net.solve()
        side = net.source_side()
        assert side[0] and not side[8]
        cut = sum(c for (u, v, c) in arcs if side[u] and not side[v])
        assert cut == pytest.approx(value, abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_source_side_is_maximal(self, seed, method):
        """The returned side must contain every other min-cut source side."""
        rng = random.Random(200 + seed)
        arcs = random_network(rng, 7)
        net = build(7, 0, 6, arcs, method)
        value = net.solve()
        side = net.source_side()
        others = [v for v in range(7) if v not in (0, 6)]
        for r in range(len(others) + 1):
            for combo in itertools.combinations(others, r):
                candidate = {0} | set(combo)
                cut = sum(
                    c for (u, v, c) in arcs if u in candidate and v not in candidate
                )
                if cut == pytest.approx(value, abs=1e-9):
                    assert all(side[v] for v in candidate)

    @pytest.mark.parametrize("seed", range(10))
    def test_all_solvers_agree(self, seed):
        """Same value and same maximal cut from both solvers."""
        rng = random.Random(400 + seed)
        for num_nodes in (4, 7, 10):
            arcs = random_network(rng, num_nodes)
            loop = build(num_nodes, 0, num_nodes - 1, arcs, "loop")
            wave = build(num_nodes, 0, num_nodes - 1, arcs, "wave")
            assert wave.solve() == pytest.approx(loop.solve(), abs=1e-8)
            assert wave.source_side() == loop.source_side()

    def test_solve_seconds_accumulates(self, method):
        net = build(3, 0, 2, [(0, 1, 2.0), (1, 2, 1.5)], method)
        assert net.solve_seconds == 0.0
        net.solve()
        after_one = net.solve_seconds
        assert after_one > 0.0
        net.reset()
        net.solve()
        assert net.solve_seconds > after_one


class TestWarmRestart:
    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_raise_capacity_matches_fresh_solve(self, seed, method, batch):
        """Raising capacities and resuming == solving the new instance cold,
        one arc at a time or in one ``raise_capacities`` batch."""
        rng = random.Random(300 + seed)
        arcs = random_network(rng, 8)
        if not arcs:
            return
        warm = build(8, 0, 7, arcs, method)
        warm.solve()
        # grow a random subset of capacities, warm-resume
        grown = list(arcs)
        arc_ids = []  # add_arc returns even ids in insertion order
        for i, (u, v, c) in enumerate(arcs):
            if rng.random() < 0.5:
                grown[i] = (u, v, c + rng.uniform(0.5, 3.0))
            arc_ids.append(2 * i)
        raised = [
            (arc_ids[i], c)
            for i, (u, v, c) in enumerate(grown)
            if c != arcs[i][2]
        ]
        if batch:
            warm.raise_capacities(
                [arc for arc, _ in raised], [c for _, c in raised]
            )
        else:
            for arc, c in raised:
                warm.raise_capacity(arc, c)
        warm_value = warm.solve()
        cold = build(8, 0, 7, grown, method)
        assert warm_value == pytest.approx(cold.solve(), abs=1e-8)

    def test_reset_discards_flow(self, method):
        net = build(3, 0, 2, [(0, 1, 2.0), (1, 2, 2.0)], method)
        assert net.solve() == pytest.approx(2.0)
        net.reset()
        assert net.flow_value == 0.0
        assert net.solve() == pytest.approx(2.0)

    def test_set_base_capacity_applies_on_reset(self, method):
        net = FlowNetwork(3, 0, 2, method=method)
        arc = net.add_arc(0, 1, 1.0)
        net.add_arc(1, 2, 10.0)
        net.freeze()
        net.reset()
        assert net.solve() == pytest.approx(1.0)
        net.set_base_capacity(arc, 4.0)
        net.reset()
        assert net.solve() == pytest.approx(4.0)


def star_network(num_arcs):
    """num_arcs forward arcs out of the source (auto-resolution sizing)."""
    net = FlowNetwork(num_arcs + 2, 0, 1)
    for i in range(num_arcs):
        net.add_arc(0, 2 + i, 1.0)
    return net


class TestMethodResolution:
    def test_auto_resolves_by_size(self):
        small = FlowNetwork(3, 0, 2)
        small.add_arc(0, 1, 1.0)
        small.freeze()
        assert small.method == "loop"
        big = star_network(WAVE_AUTO_MIN_ARCS)
        big.freeze()
        assert big.method == "wave"
        below = star_network(WAVE_AUTO_MIN_ARCS - 1)
        below.freeze()
        assert below.method == "loop"

    def test_forced_methods_survive_freeze(self):
        for method in METHODS:
            net = FlowNetwork(3, 0, 2, method=method)
            net.add_arc(0, 1, 1.0)
            net.add_arc(1, 2, 1.0)
            net.freeze()
            assert net.method == method

    def test_methods_tuple_is_exported(self):
        assert FLOW_METHODS == ("auto", "wave", "loop")

    def test_removed_jit_method_is_rejected_naming_the_options(self):
        with pytest.raises(FlowError) as excinfo:
            FlowNetwork(3, 0, 2, method="jit")
        assert str(FLOW_METHODS) in str(excinfo.value)


SMALL = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


@st.composite
def flow_instances(draw, max_nodes=9):
    """A random small network plus per-arc shrink factors (for repairs)."""
    num_nodes = draw(st.integers(min_value=3, max_value=max_nodes))
    possible = [
        (u, v)
        for u in range(num_nodes)
        for v in range(num_nodes)
        if u != v
    ]
    pairs = draw(
        st.lists(
            st.sampled_from(possible), min_size=1, max_size=20, unique=True
        )
    )
    cap = st.floats(
        min_value=0.0, max_value=8.0, allow_nan=False, allow_infinity=False
    )
    arcs = [(u, v, draw(cap)) for u, v in pairs]
    shrink = st.floats(
        min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
    )
    factors = [draw(shrink) for _ in pairs]
    return num_nodes, arcs, factors


class TestWaveHypothesisAgreement:
    """Property suites: the wave kernel agrees with the reference loop
    solver on value, maximal cut, and the warm repair paths."""

    @SMALL
    @given(flow_instances())
    def test_value_and_maximal_cut_agree(self, instance):
        num_nodes, arcs, _ = instance
        wave = build(num_nodes, 0, num_nodes - 1, arcs, "wave")
        loop = build(num_nodes, 0, num_nodes - 1, arcs, "loop")
        assert wave.solve() == pytest.approx(loop.solve(), abs=1e-8)
        assert wave.source_side() == loop.source_side()

    @SMALL
    @given(flow_instances())
    def test_warm_raise_repair_matches_cold(self, instance):
        num_nodes, arcs, factors = instance
        warm = build(num_nodes, 0, num_nodes - 1, arcs, "wave")
        warm.solve()
        grown = [
            (u, v, c + 4.0 * f)
            for (u, v, c), f in zip(arcs, factors)
        ]
        for i, (_, _, c) in enumerate(grown):
            if c != arcs[i][2]:
                warm.raise_capacity(2 * i, c)
        cold = build(num_nodes, 0, num_nodes - 1, grown, "loop")
        assert warm.solve() == pytest.approx(cold.solve(), abs=1e-8)
        assert warm.source_side() == cold.source_side()

    @SMALL
    @given(flow_instances())
    def test_warm_lower_repair_matches_cold(self, instance):
        num_nodes, arcs, factors = instance
        warm = build(num_nodes, 0, num_nodes - 1, arcs, "wave")
        warm.solve()
        shrunk = [
            (u, v, c * f) for (u, v, c), f in zip(arcs, factors)
        ]
        for i, (_, _, c) in enumerate(shrunk):
            if c != arcs[i][2]:
                warm.lower_capacity(2 * i, c)
        cold = build(num_nodes, 0, num_nodes - 1, shrunk, "loop")
        assert warm.solve() == pytest.approx(cold.solve(), abs=1e-8)
        assert warm.source_side() == cold.source_side()


    @SMALL
    @given(flow_instances())
    def test_single_arc_lower_matches_loop_kernel(self, instance):
        """Scalar ``lower_capacity`` on a wave network walks its grouped
        segments in adjacency order: from the same preflow it leaves the
        loop kernel's repaired state exactly, then both solve alike."""
        num_nodes, arcs, factors = instance
        loop = build(num_nodes, 0, num_nodes - 1, arcs, "loop")
        wave = build(num_nodes, 0, num_nodes - 1, arcs, "wave")
        loop.solve()
        perm = wave._g_perm
        wave.adopt_state(np.asarray(loop.cap)[perm], loop.excess)
        for i, ((_, _, c), f) in enumerate(zip(arcs, factors)):
            loop.lower_capacity(2 * i, c * f)
            wave.lower_capacity(2 * i, c * f)
        assert wave.cap.tolist() == np.asarray(loop.cap)[perm].tolist()
        assert wave.excess.tolist() == loop.excess
        assert wave.solve() == pytest.approx(loop.solve(), abs=1e-8)
        assert wave.source_side() == loop.source_side()


class TestFrozenLayout:
    """A frozen network holds only what its solver reads."""

    ARCS = [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0), (1, 3, 1.5), (2, 3, 2.5)]

    def test_frozen_wave_network_is_array_only(self):
        net = build(4, 0, 3, self.ARCS, "wave")
        assert net.adj is None
        assert isinstance(net.head, np.ndarray)
        assert isinstance(net.base_cap, np.ndarray)
        assert not [
            slot
            for slot in FlowNetwork.__slots__
            if isinstance(getattr(net, slot), list)
        ]
        # the array-only network still answers like the loop reference
        loop = build(4, 0, 3, self.ARCS, "loop")
        assert net.solve() == pytest.approx(loop.solve())
        assert net.source_side() == loop.source_side()

    def test_loop_network_keeps_its_adjacency_lists(self):
        net = build(4, 0, 3, self.ARCS, "loop")
        assert isinstance(net.adj, list)
        assert isinstance(net.head, list)
        assert isinstance(net.base_cap, list)


class TestValidation:
    def test_rejects_equal_source_sink(self):
        with pytest.raises(FlowError):
            FlowNetwork(2, 0, 0)

    def test_rejects_unknown_method(self):
        with pytest.raises(FlowError):
            FlowNetwork(2, 0, 1, method="quantum")

    def test_rejects_negative_capacity(self):
        net = FlowNetwork(2, 0, 1)
        with pytest.raises(FlowError):
            net.add_arc(0, 1, -1.0)

    def test_rejects_arcs_after_freeze(self):
        net = FlowNetwork(2, 0, 1)
        net.freeze()
        with pytest.raises(FlowError):
            net.add_arc(0, 1, 1.0)

    def test_rejects_lowering_capacity(self, method):
        net = FlowNetwork(2, 0, 1, method=method)
        arc = net.add_arc(0, 1, 3.0)
        net.freeze()
        net.reset()
        with pytest.raises(FlowError):
            net.raise_capacity(arc, 1.0)
        with pytest.raises(FlowError):
            net.raise_capacities([arc], [1.0])

    def test_unfrozen_state_operations_raise_distinct_error(self):
        """Flow-state ops before freeze(): FlowNotFrozenError, not the
        generic FlowError and not the mid-solve one."""
        net = FlowNetwork(3, 0, 2)
        arc = net.add_arc(0, 1, 1.0)
        for operation in (
            net.reset,
            net.solve,
            lambda: net.raise_capacity(arc, 2.0),
            lambda: net.raise_capacities([arc], [2.0]),
            lambda: net.lower_capacity(arc, 0.5),
            lambda: net.lower_capacities([arc], [0.5]),
        ):
            with pytest.raises(FlowNotFrozenError) as excinfo:
                operation()
            assert "freeze()" in str(excinfo.value)
            assert not isinstance(excinfo.value, FlowMidSolveError)

    def test_mid_solve_mutation_raises_distinct_error(self):
        """Flow-state ops during an active discharge: FlowMidSolveError.

        Simulates the re-entrant caller (signal handler, second thread)
        by flipping the in-solve flag the solvers hold while running —
        the message must name the mid-solve cause, not claim the network
        is unfrozen.
        """
        net = FlowNetwork(3, 0, 2)
        arc = net.add_arc(0, 1, 1.0)
        net.add_arc(1, 2, 1.0)
        net.freeze()
        net.reset()
        net._in_solve = True
        try:
            for operation in (
                net.reset,
                net.solve,
                lambda: net.raise_capacity(arc, 2.0),
                lambda: net.raise_capacities([arc], [2.0]),
                lambda: net.lower_capacity(arc, 0.5),
                lambda: net.lower_capacities([arc], [0.5]),
            ):
                with pytest.raises(FlowMidSolveError) as excinfo:
                    operation()
                assert "solve()" in str(excinfo.value)
                assert not isinstance(excinfo.value, FlowNotFrozenError)
        finally:
            net._in_solve = False
        assert net.solve() == pytest.approx(1.0)  # healthy again after
