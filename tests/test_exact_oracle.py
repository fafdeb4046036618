"""Exact densest-subgraph oracle tests (``repro.flow``).

Three layers of evidence:

* the parametric max-flow oracle must match *exhaustive* sub-hub-graph
  enumeration on small instances (fixed cases plus a hypothesis-style
  random sweep);
* the Lemma-1 peel must land within its factor-2 guarantee of the exact
  optimum — asserted from both sides: ``exact ≤ peel ≤ 2 · exact``;
* at the scheduler level, ``oracle="exact"`` must preserve every
  invariant the peel satisfies (dict == CSR, feasibility) and one the
  peel does not — lazy == eager byte for byte, because a retained exact
  champion is still the optimum — while running strictly fewer full
  oracle evaluations and never pricing a schedule above the peel's on
  the tuned instances.
"""

from __future__ import annotations

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from tests.conftest import ART, BILLIE, CHARLIE, make_uniform
from tests.test_densest import brute_force_best
from tests.test_lazy_chitchat import assert_lazy_equivalent
from repro.core.chitchat import (
    ChitchatScheduler,
    chitchat_schedule,
    chitchat_with_stats,
)
from repro.core.cost import schedule_cost
from repro.core.densest import OracleCutoff, densest_subgraph
from repro.core.hubgraph import build_hub_graph
from repro.core.schedule import RequestSchedule
from repro.core.tolerances import BATCH_K
from repro.errors import ReproError
from repro.flow import FLOW_METHODS, ORACLE_MODES, ExactOracle
from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.workload.rates import Workload, log_degree_workload

SMALL = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: (bad options, the tuple the error must name); ``"auto"`` and
#: ``"jit"`` are removed values, ``"bogus"`` never existed
BAD_OPTIONS = [
    ({"oracle": "bogus"}, ORACLE_MODES),
    ({"oracle": "auto"}, ORACLE_MODES),
    ({"method": "bogus"}, FLOW_METHODS),
    ({"method": "jit"}, FLOW_METHODS),
    ({"oracle": "exact", "method": "jit"}, FLOW_METHODS),
]


@st.composite
def hub_instances(draw):
    """A random bipartite-ish hub instance: hub 10, producers, consumers."""
    num_x = draw(st.integers(min_value=1, max_value=4))
    num_y = draw(st.integers(min_value=1, max_value=4))
    xs = list(range(num_x))
    ys = list(range(20, 20 + num_y))
    edges = {(x, 10) for x in xs} | {(10, y) for y in ys}
    for x in xs:
        for y in ys:
            if draw(st.booleans()):
                edges.add((x, y))
    rate = st.floats(
        min_value=0.05, max_value=10.0, allow_nan=False, allow_infinity=False
    )
    nodes = xs + ys + [10]
    workload = Workload(
        production={n: draw(rate) for n in nodes},
        consumption={n: draw(rate) for n in nodes},
    )
    covered = {e for e in edges if draw(st.integers(0, 4)) == 0}
    return SocialGraph(edges), workload, covered


class TestSeededDinkelbachMaximality:
    """The λ-seed must not break the maximal-selection contract.

    On exact density ties the maximal optimal subgraph is the union of
    the tied optima; the single-vertex seed alone is non-maximal there,
    so the repair-cut path must kick in (ISSUE 4 review finding)."""

    def test_tied_single_vertices_select_maximal_union(self):
        from repro.flow.parametric import ParametricDensest

        endpoints = [(0,), (0,), (1,), (1,)]
        weight = [1.0, 1.0]
        seeded = ParametricDensest(endpoints, 2).solve(weight)
        reference = ParametricDensest(endpoints, 2, seed_lambda=False).solve(
            weight
        )
        assert seeded.selected == (0, 1)
        assert seeded.covered == (0, 1, 2, 3)
        assert seeded.selected == reference.selected
        assert seeded.covered == reference.covered

    @pytest.mark.parametrize("trial", range(40))
    def test_seeded_matches_unseeded_on_tie_prone_weights(self, trial):
        from repro.flow.parametric import ParametricDensest

        rng = random.Random(trial)
        num_verts = rng.randint(2, 5)
        endpoints = []
        for v in range(num_verts):
            for _ in range(rng.randint(1, 4)):
                endpoints.append((v,))
        for _ in range(rng.randint(0, 4)):
            endpoints.append(tuple(rng.sample(range(num_verts), 2)))
        weight = [rng.choice([0.5, 1.0, 1.0, 2.0]) for _ in range(num_verts)]
        seeded = ParametricDensest(endpoints, num_verts).solve(weight)
        reference = ParametricDensest(
            endpoints, num_verts, seed_lambda=False
        ).solve(weight)
        assert seeded.selected == reference.selected
        assert seeded.covered == reference.covered


class TestExactMatchesBruteForce:
    def test_wedge_full_selection(self, wedge_graph):
        w = make_uniform(wedge_graph, rp=1.0, rc=1.2)
        hub = build_hub_graph(wedge_graph, CHARLIE)
        result = ExactOracle()(
            hub, w, RequestSchedule(), set(wedge_graph.edges())
        )
        assert result is not None and result.exact
        assert result.x_selected == (ART,)
        assert result.y_selected == (BILLIE,)
        assert result.covered == frozenset(wedge_graph.edges())
        assert result.cost_per_element == pytest.approx(2.2 / 3.0)
        # exact: the certified bound sits a hair under the optimum itself
        assert result.opt_lower_bound == pytest.approx(
            result.cost_per_element, rel=1e-6
        )

    def test_returns_none_when_nothing_uncovered(self, wedge_graph, wedge_workload):
        hub = build_hub_graph(wedge_graph, CHARLIE)
        assert ExactOracle()(hub, wedge_workload, RequestSchedule(), set()) is None

    def test_free_when_legs_paid(self, wedge_graph, wedge_workload):
        hub = build_hub_graph(wedge_graph, CHARLIE)
        schedule = RequestSchedule(push={(ART, CHARLIE)}, pull={(CHARLIE, BILLIE)})
        result = ExactOracle()(hub, wedge_workload, schedule, {(ART, BILLIE)})
        assert result is not None
        assert result.weight == 0.0
        assert result.cost_per_element == 0.0
        assert result.covered == frozenset({(ART, BILLIE)})

    def test_low_upper_bound_returns_cutoff(self, wedge_graph):
        w = make_uniform(wedge_graph, rp=1.0, rc=1.2)
        hub = build_hub_graph(wedge_graph, CHARLIE)
        result = ExactOracle()(
            hub, w, RequestSchedule(), set(wedge_graph.edges()), upper_bound=1e-6
        )
        assert isinstance(result, OracleCutoff)
        assert result.lower_bound > 1e-6

    def test_beats_the_peel_where_the_peel_is_suboptimal(self):
        """A hub where greedy peeling provably misses the optimum.

        One expensive producer with two cross-edges vs two cheap
        consumers: the peel's first removal commits it to a subgraph
        whose density the exact oracle beats.
        """
        g = SocialGraph(
            [(1, 5), (2, 5), (5, 7), (5, 8), (1, 7), (1, 8), (2, 7), (2, 8)]
        )
        w = Workload(
            production={1: 1.0, 2: 3.9, 5: 1.0, 7: 1.0, 8: 1.0},
            consumption={1: 1.0, 2: 1.0, 5: 1.0, 7: 1.1, 8: 4.0},
        )
        hub = build_hub_graph(g, 5)
        uncovered = set(g.edges())
        exact = ExactOracle()(hub, w, RequestSchedule(), uncovered)
        best_density, _ = brute_force_best(hub, w, RequestSchedule(), uncovered)
        assert exact.density == pytest.approx(best_density, rel=1e-9)

    @SMALL
    @given(hub_instances())
    def test_exact_equals_brute_force_sweep(self, instance):
        graph, workload, covered = instance
        hub = build_hub_graph(graph, 10)
        uncovered = set(graph.edges()) - covered
        schedule = RequestSchedule()
        exact = ExactOracle()(hub, workload, schedule, uncovered)
        best_density, _ = brute_force_best(hub, workload, schedule, uncovered)
        if exact is None:
            assert best_density <= 0.0 or not uncovered
            return
        if math.isinf(best_density):
            assert exact.density == math.inf
            return
        assert exact.density == pytest.approx(best_density, rel=1e-9)
        # the selection must internally justify its reported density
        assert exact.density == pytest.approx(
            len(exact.covered) / exact.weight if exact.weight else math.inf,
            rel=1e-12,
        )

    @SMALL
    @given(hub_instances())
    def test_peel_within_factor_two_of_exact(self, instance):
        """Both sides of Lemma 1: exact ≤ peel ≤ 2 · exact (cost per element)."""
        graph, workload, covered = instance
        hub = build_hub_graph(graph, 10)
        uncovered = set(graph.edges()) - covered
        schedule = RequestSchedule()
        exact = ExactOracle()(hub, workload, schedule, uncovered)
        peel = densest_subgraph(hub, workload, schedule, uncovered)
        assert (exact is None) == (peel is None)
        if exact is None:
            return
        assert exact.cost_per_element <= peel.cost_per_element + 1e-9
        assert peel.cost_per_element <= 2.0 * exact.cost_per_element + 1e-9


class TestOptionValidation:
    """``oracle=`` and ``method=`` fail at construction, whatever the
    oracle — a flow method is checked even under the peel, which never
    builds a flow network — and a removed value names the options."""

    def test_option_tuples(self):
        assert ORACLE_MODES == ("peel", "exact")
        assert FLOW_METHODS == ("auto", "wave", "loop")

    @pytest.mark.parametrize("options, named", BAD_OPTIONS)
    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_scheduler_rejects_bad_option_up_front(self, backend, options, named):
        graph = social_copying_graph(40, out_degree=4, seed=1)
        workload = log_degree_workload(graph, read_write_ratio=5.0)
        with pytest.raises(ReproError) as excinfo:
            ChitchatScheduler(graph, workload, backend=backend, **options)
        assert str(named) in str(excinfo.value)

    @pytest.mark.parametrize("options, named", BAD_OPTIONS)
    @pytest.mark.parametrize(
        "one_shot",
        [chitchat_schedule, chitchat_with_stats],
        ids=["chitchat_schedule", "chitchat_with_stats"],
    )
    def test_one_shots_reject_bad_option_up_front(
        self, one_shot, options, named
    ):
        graph = social_copying_graph(40, out_degree=4, seed=1)
        workload = log_degree_workload(graph, read_write_ratio=5.0)
        with pytest.raises(ReproError) as excinfo:
            one_shot(graph, workload, **options)
        assert str(named) in str(excinfo.value)

    def test_session_rejects_removed_method(self):
        with pytest.raises(ReproError) as excinfo:
            ExactOracle(method="jit")
        assert str(FLOW_METHODS) in str(excinfo.value)


class TestExactScheduler:
    """Scheduler-level invariants with the exact oracle wired in."""

    def _instance(self, n=250, seed=3):
        graph = social_copying_graph(
            n, out_degree=8, copy_fraction=0.7, reciprocity=0.3, seed=seed
        )
        return graph, log_degree_workload(graph, read_write_ratio=5.0)

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_lazy_vs_eager(self, backend):
        """Byte-identical: a retained exact champion is still the optimum."""
        graph, workload = self._instance()
        eager = ChitchatScheduler(
            graph, workload, backend=backend, lazy=False, oracle="exact"
        )
        lazy = ChitchatScheduler(
            graph, workload, backend=backend, lazy=True, oracle="exact"
        )
        assert_lazy_equivalent(graph, workload, eager, lazy, "exact")
        assert lazy.stats.oracle_calls < eager.stats.oracle_calls

    def test_backends_agree(self):
        graph, workload = self._instance(n=200, seed=11)
        schedules = [
            ChitchatScheduler(
                graph, workload, backend=backend, oracle="exact"
            ).run()
            for backend in ("dict", "csr")
        ]
        assert schedules[0].push == schedules[1].push
        assert schedules[0].pull == schedules[1].pull
        assert schedules[0].hub_cover == schedules[1].hub_cover

    def test_exact_runs_fewer_full_evaluations_than_peel(self):
        """Lazy+exact must re-evaluate strictly less than lazy+peel."""
        graph, workload = self._instance()
        peel = ChitchatScheduler(graph, workload, backend="csr", oracle="peel")
        exact = ChitchatScheduler(graph, workload, backend="csr", oracle="exact")
        peel.run()
        exact.run()
        assert exact.stats.oracle_calls < peel.stats.oracle_calls
        assert exact.stats.exact_oracle_calls == exact.stats.oracle_calls
        assert peel.stats.exact_oracle_calls == 0
        assert exact.stats.champions_retained > 0

    def test_exact_schedule_not_worse_than_peel(self):
        """On the E13 instance family the exact oracle never prices worse."""
        graph = social_copying_graph(
            600, out_degree=10, copy_fraction=0.7, reciprocity=0.2, seed=7
        )
        workload = log_degree_workload(graph, read_write_ratio=5.0)
        peel = ChitchatScheduler(graph, workload, backend="csr", oracle="peel").run()
        exact = ChitchatScheduler(graph, workload, backend="csr", oracle="exact").run()
        assert schedule_cost(exact, workload) <= schedule_cost(
            peel, workload
        ) + 1e-6

    @pytest.mark.parametrize("batch_k", [0, BATCH_K])
    def test_csr_run_never_builds_the_tuple_element_index(self, batch_k):
        """The CSR path prices and packages from peel positions and edge
        ids: no cached hub-graph materializes its tuple element index."""
        graph, workload = self._instance()
        scheduler = ChitchatScheduler(
            graph, workload, backend="csr", oracle="exact", batch_k=batch_k
        )
        scheduler.run()
        assert scheduler._hub_cache
        assert all(
            hub_graph._element_index is None
            for hub_graph in scheduler._hub_cache.values()
        )

    def test_memory_gauges_mirror_the_session(self):
        """The session's eviction count and peak cached-network count are
        surfaced in ChitchatStats under the registry's scheduler/oracle."""
        graph, workload = self._instance(n=150)
        roomy = ChitchatScheduler(graph, workload, backend="csr", oracle="exact")
        roomy.run()
        assert roomy.stats.oracle_evictions == 0
        assert roomy.stats.peak_cached_networks == roomy._exact.peak_cached > 0
        # dead hubs released their networks: fewer remain than ever peaked
        assert len(roomy._exact._problems) < roomy.stats.peak_cached_networks
        capped = ChitchatScheduler(graph, workload, backend="csr", oracle="exact")
        capped._exact.max_cached = 2
        capped.run()
        assert capped.stats.oracle_evictions == capped._exact.evictions > 0
        assert capped.stats.peak_cached_networks == 2
        oracle_node = capped.metrics.snapshot()["scheduler"]["oracle"]
        assert oracle_node["evictions"] == capped._exact.evictions
        assert oracle_node["peak_cached"] == 2
        peel = ChitchatScheduler(graph, workload, backend="csr")
        peel.run()
        assert peel.stats.oracle_evictions == 0
        assert peel.stats.peak_cached_networks == 0

    def test_exact_cost_at_most_hybrid(self, small_social, small_workload):
        from repro.core.chitchat import greedy_upper_bound

        schedule = ChitchatScheduler(
            small_social, small_workload, oracle="exact"
        ).run()
        assert schedule_cost(schedule, small_workload) <= greedy_upper_bound(
            small_social, small_workload
        ) + 1e-9
