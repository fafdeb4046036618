"""Scheduler-level identity of the batched flow tier (ISSUE 6).

The ``batch_k=`` speculative top-k batch evaluation is a pure
performance change: popping several dirty heap-top hubs and solving
them in one block-diagonal arena pass installs exactly the true costs
the sequential scheduler would have installed refreshing each hub one
at a time at the heap top, and the greedy winner is re-derived from
those true costs with unchanged tie-breaks.  So at ``epsilon=0`` full
scheduler runs must be *byte-identical* at every batch width, whichever
graph form (dict or CSR) the scheduler is handed.  Property-tested on
random instances here, plus
fixed-seed checks that batching actually fires at scale and cuts
kernel invocations.  Batching is opt-in (``batch_k=0`` is the
default), so every batched leg here passes ``batch_k`` explicitly.

With ``epsilon > 0`` byte-identity is not promised (the relaxation's
deferral decisions may shift), but feasibility and the documented
``(1+ε)`` cost bound must hold at any width.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.chitchat import ChitchatScheduler
from repro.core.coverage import validate_schedule
from repro.core.cost import schedule_cost
from repro.core.tolerances import BATCH_K
from repro.errors import ReproError
from repro.flow import FLOW_METHODS
from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.workload.rates import Workload, log_degree_workload
from tests.conftest import GRAPH_FORMS, graph_in_form

SMALL = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def instances(draw, max_nodes: int = 10, max_edges: int = 30):
    """A random dense-id directed graph plus positive rates (CSR-ready)."""
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
    production = {node: draw(rate) for node in range(n)}
    consumption = {node: draw(rate) for node in range(n)}
    return graph, Workload(production=production, consumption=consumption)


def assert_same_schedule(a, b):
    assert a.push == b.push
    assert a.pull == b.pull
    assert a.hub_cover == b.hub_cover


def fixed_instance(seed: int, nodes: int = 400):
    graph = social_copying_graph(
        num_nodes=nodes,
        out_degree=8,
        copy_fraction=0.7,
        reciprocity=0.2,
        seed=seed,
    )
    workload = log_degree_workload(graph, read_write_ratio=4.0 + seed % 3)
    return graph, workload


class TestBatchKIdentity:
    """batch_k on vs off == byte-identical schedules at ε=0."""

    @SMALL
    @given(instances())
    @pytest.mark.parametrize("method", FLOW_METHODS)
    @pytest.mark.parametrize("form", GRAPH_FORMS)
    def test_chitchat_batched_matches_sequential(
        self, form, method, instance
    ):
        """At every sequential kernel: arenas always run the wave kernel,
        so a loop-kernel run batched must still match itself unbatched."""
        graph, workload = instance
        given_graph = graph_in_form(graph, form)
        sequential = ChitchatScheduler(
            given_graph,
            workload,
            oracle="exact",
            batch_k=0,
            method=method,
        ).run()
        batched = ChitchatScheduler(
            given_graph,
            workload,
            oracle="exact",
            batch_k=BATCH_K,
            method=method,
        ).run()
        assert_same_schedule(sequential, batched)

    @pytest.mark.parametrize("width", [2, 3, BATCH_K, 64])
    def test_every_width_matches_on_fixed_instance(self, width):
        graph, workload = fixed_instance(4, nodes=250)
        sequential = ChitchatScheduler(
            graph, workload, oracle="exact", batch_k=0
        ).run()
        batched = ChitchatScheduler(
            graph, workload, oracle="exact", batch_k=width
        ).run()
        assert_same_schedule(sequential, batched)


class TestBatchKFires:
    """The tier must actually run (and save work) on real instances."""

    def test_chitchat_batching_fires_and_cuts_invocations(self):
        graph, workload = fixed_instance(3)
        sequential = ChitchatScheduler(
            graph, workload, oracle="exact", batch_k=0
        )
        batched = ChitchatScheduler(
            graph, workload, oracle="exact", batch_k=BATCH_K
        )
        seq_schedule = sequential.run()
        bat_schedule = batched.run()
        assert_same_schedule(seq_schedule, bat_schedule)
        assert sequential.stats.batched_solves == 0
        assert batched.stats.batched_solves > 0
        assert batched.stats.batched_blocks >= 2 * batched.stats.batched_solves
        assert batched.stats.blocks_per_batch >= 2.0
        assert (
            batched.stats.kernel_invocations
            < sequential.stats.kernel_invocations
        )

    def test_width_one_disables_batching(self):
        graph, workload = fixed_instance(1, nodes=120)
        scheduler = ChitchatScheduler(
            graph, workload, oracle="exact", batch_k=1
        )
        scheduler.run()
        assert scheduler.stats.batched_solves == 0

    def test_stats_expose_kernel_time_split(self):
        graph, workload = fixed_instance(0, nodes=120)
        scheduler = ChitchatScheduler(
            graph, workload, oracle="exact", batch_k=BATCH_K
        )
        scheduler.run()
        stats = scheduler.stats
        if stats.batched_solves:
            assert stats.batch_freeze_seconds > 0.0
            assert stats.batch_discharge_seconds > 0.0


class TestBatchKWithEpsilon:
    """ε>0 batched runs keep feasibility and the (1+ε) cost bound."""

    @pytest.mark.parametrize("epsilon", [0.01, 0.1])
    def test_epsilon_run_is_feasible_and_bounded(self, epsilon):
        graph, workload = fixed_instance(5, nodes=250)
        base = schedule_cost(
            ChitchatScheduler(
                graph, workload, oracle="exact", batch_k=0
            ).run(),
            workload,
        )
        scheduler = ChitchatScheduler(
            graph,
            workload,
            oracle="exact",
            epsilon=epsilon,
            batch_k=BATCH_K,
        )
        schedule = scheduler.run()
        validate_schedule(graph, schedule)
        assert schedule_cost(schedule, workload) <= (1.0 + epsilon) * base + 1e-6


class TestDefaultIsPerHub:
    """Per-hub solves are the default; opting in changes no schedule."""

    def test_default_exact_scheduler_never_batches(self):
        graph, workload = fixed_instance(3)
        default = ChitchatScheduler(graph, workload, oracle="exact")
        opted_in = ChitchatScheduler(
            graph, workload, oracle="exact", batch_k=BATCH_K
        )
        assert_same_schedule(default.run(), opted_in.run())
        assert default.stats.batched_solves == 0
        assert default.stats.batched_blocks == 0
        assert opted_in.stats.batched_solves > 0


class TestValidation:
    def test_rejects_negative_batch_k(self):
        graph, workload = fixed_instance(0, nodes=50)
        with pytest.raises(ReproError):
            ChitchatScheduler(graph, workload, batch_k=-1)
