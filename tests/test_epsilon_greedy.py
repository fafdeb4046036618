"""Tests for the (1+ε) approximately-greedy CHITCHAT modes (ISSUE 4).

Three contracts:

* ``epsilon=0`` is *byte-identical* to exact greedy — property-tested on
  random instances across both adjacency backends and both oracles;
* ``epsilon>0`` keeps every feasibility invariant and the documented
  cost bound: the per-step acceptance costs at most ``(1+ε)`` times the
  true step optimum, and on the deterministic fixed-seed battery below
  the end-to-end schedule prices within ``(1+ε)`` of the exact-greedy
  schedule (the per-step guarantee composes on these instances; the
  greedy trajectory itself is path-dependent, which is why the battery
  is fixed-seed rather than adversarially random);
* the relaxation actually fires (``stats.epsilon_accepts``) and cuts
  full oracle evaluations on a non-trivial instance.

The exact oracle's session is always warm.  ``TestWarmOracleIdentity``
swaps a scheduler's session for the cold reference
``ExactOracle(warm=False)`` and checks full runs stay byte-identical;
per-call identity lives in ``tests/test_warm_oracle.py``.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.chitchat import ChitchatScheduler
from repro.core.coverage import validate_schedule
from repro.core.cost import schedule_cost
from repro.errors import ReproError
from repro.flow.exact_oracle import ExactOracle, MultiHubSession
from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.workload.rates import Workload, log_degree_workload

SMALL = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

EPSILONS = (0.01, 0.05, 0.1)


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


class TestEpsilonZeroIdentity:
    @SMALL
    @given(instances())
    @pytest.mark.parametrize("oracle", ["peel", "exact"])
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_chitchat_epsilon_zero_matches_default(
        self, backend, oracle, instance
    ):
        graph, workload = instance
        plain = ChitchatScheduler(
            graph, workload, backend=backend, oracle=oracle
        ).run()
        zero = ChitchatScheduler(
            graph, workload, backend=backend, oracle=oracle, epsilon=0.0
        ).run()
        assert_same_schedule(plain, zero)

    def test_epsilon_zero_never_counts_accepts(self):
        graph, workload = fixed_instance(0)
        scheduler = ChitchatScheduler(graph, workload, backend="csr")
        scheduler.run()
        assert scheduler.stats.epsilon_accepts == 0


def with_cold_session(scheduler):
    """Swap the scheduler's warm session for the cold reference
    ``ExactOracle(warm=False)``, re-wrapping its batched tier."""
    scheduler._exact = ExactOracle(
        warm=False, metrics=scheduler.metrics.node("scheduler", "oracle")
    )
    if scheduler._multi is not None:
        scheduler._multi = MultiHubSession(scheduler._exact)
    return scheduler


class TestWarmOracleIdentity:
    """Warm-started exact oracle == cold per-call solves, schedule-for-
    schedule (ISSUE 5): the preflow repairs and the λ re-seeding are pure
    performance changes, so a full CHITCHAT run on its own (warm) session
    must be byte-identical to one on the cold reference session, on both
    backends and across the ε relaxation."""

    @SMALL
    @given(instances())
    @pytest.mark.parametrize("epsilon", [0.0, 0.01])
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_chitchat_warm_matches_cold(self, backend, epsilon, instance):
        graph, workload = instance
        options = dict(backend=backend, oracle="exact", epsilon=epsilon)
        warm = ChitchatScheduler(graph, workload, **options).run()
        cold = with_cold_session(
            ChitchatScheduler(graph, workload, **options)
        ).run()
        assert_same_schedule(warm, cold)

    def test_warm_actually_fires_and_is_identical_at_scale(self):
        """On a real instance the warm session must resume preflows
        (stats.warm_solves > 0, repairs > 0) and still match cold."""
        graph, workload = fixed_instance(3)
        warm = ChitchatScheduler(graph, workload, backend="csr", oracle="exact")
        cold = with_cold_session(
            ChitchatScheduler(graph, workload, backend="csr", oracle="exact")
        )
        warm_schedule = warm.run()
        cold_schedule = cold.run()
        assert_same_schedule(warm_schedule, cold_schedule)
        assert warm.stats.warm_solves > 0
        assert warm.stats.preflow_repairs > 0
        assert cold.stats.warm_solves == 0
        assert cold.stats.preflow_repairs == 0
        # the whole point: warm solves do measurably less discharge work
        assert warm.stats.flow_passes < cold.stats.flow_passes


class TestEpsilonCostBound:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("oracle", ["peel", "exact"])
    def test_cost_within_one_plus_epsilon(self, oracle, seed):
        """Fixed-seed battery: ε-greedy prices within (1+ε) of exact."""
        graph, workload = fixed_instance(seed)
        exact = ChitchatScheduler(
            graph, workload, backend="csr", oracle=oracle
        )
        base = schedule_cost(exact.run(), workload)
        for epsilon in EPSILONS:
            relaxed = ChitchatScheduler(
                graph, workload, backend="csr", oracle=oracle, epsilon=epsilon
            )
            schedule = relaxed.run()
            validate_schedule(graph, schedule)
            cost = schedule_cost(schedule, workload)
            assert cost <= (1.0 + epsilon) * base + 1e-6

    @SMALL
    @given(instances())
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_feasible_and_bounded_on_random_instances(self, backend, instance):
        """ε-greedy always covers everything and never beats-the-bound.

        The hybrid baseline stays an upper bound for any ε: every
        accepted candidate covers its elements at most at their direct
        hybrid price (greedy never selects a candidate above the best
        singleton for its own elements).
        """
        graph, workload = instance
        from repro.core.chitchat import greedy_upper_bound

        hybrid_cost = greedy_upper_bound(graph, workload)
        for epsilon in (0.05, 0.5):
            scheduler = ChitchatScheduler(
                graph, workload, backend=backend, epsilon=epsilon
            )
            schedule = scheduler.run()
            validate_schedule(graph, schedule)
            assert schedule_cost(schedule, workload) <= hybrid_cost + 1e-6


class TestEpsilonSavings:
    @pytest.mark.parametrize("oracle", ["peel", "exact"])
    def test_relaxation_fires_and_saves_calls(self, oracle):
        graph, workload = fixed_instance(1, nodes=600)
        exact = ChitchatScheduler(graph, workload, backend="csr", oracle=oracle)
        exact.run()
        relaxed = ChitchatScheduler(
            graph, workload, backend="csr", oracle=oracle, epsilon=0.05
        )
        relaxed.run()
        assert relaxed.stats.epsilon_accepts > 0
        assert relaxed.stats.oracle_calls < exact.stats.oracle_calls


class TestProductionDefault:
    """Pin the ε production recommendation picked by the E10 Twitter sweep.

    ``examples/epsilon_tradeoff.py --dataset twitter`` measured (see
    docs/BENCHMARKS.md): ε=0.01 already collapses the bulk of the
    dirty-hub re-evaluations at a cost ratio indistinguishable from
    exact greedy, and larger ε buys little more.  The constant and the
    behavior it was chosen for are both pinned here so a future change
    to either is a conscious one.
    """

    def test_production_epsilon_value(self):
        from repro.core.tolerances import PRODUCTION_EPSILON

        assert PRODUCTION_EPSILON == 0.01

    def test_production_epsilon_behavior_on_twitter_sample(self):
        """At ε=PRODUCTION_EPSILON the Twitter-sample run must keep the
        measured trade-off: meaningfully fewer full evaluations, cost
        within the (1+ε) guarantee of exact greedy."""
        from repro.core.tolerances import PRODUCTION_EPSILON
        from repro.experiments.datasets import e10_twitter_sample

        sample, workload = e10_twitter_sample(scale=0.4)
        exact = ChitchatScheduler(sample, workload, backend="csr")
        base_cost = schedule_cost(exact.run(), workload)
        relaxed = ChitchatScheduler(
            sample, workload, backend="csr", epsilon=PRODUCTION_EPSILON
        )
        schedule = relaxed.run()
        validate_schedule(sample, schedule)
        cost = schedule_cost(schedule, workload)
        assert cost <= (1.0 + PRODUCTION_EPSILON) * base_cost + 1e-6
        assert relaxed.stats.epsilon_accepts > 0
        # the sweep's headline: a large cut in full oracle evaluations
        assert relaxed.stats.oracle_calls <= 0.85 * exact.stats.oracle_calls


class TestValidation:
    def test_rejects_negative_epsilon(self):
        graph, workload = fixed_instance(0, nodes=50)
        with pytest.raises(ReproError):
            ChitchatScheduler(graph, workload, epsilon=-0.1)
