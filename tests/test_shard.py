"""Tests for the sharded execution tier (:mod:`repro.shard`).

The end-to-end tests go through real ``spawn`` worker processes — the
same start method the CI shard suite pins — so pickling or slab-attach
regressions fail here, not only at bench scale.  The reconciliation
tests drive :func:`reconcile_boundary_hubs` on hand-built schedules
where the expected recovery is computable by eye.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost import schedule_cost
from repro.core.coverage import validate_schedule
from repro.core.schedule import RequestSchedule
from repro.errors import ReproError
from repro.flow import FLOW_METHODS, ORACLE_MODES
from repro.graph.csr import CSRGraph
from repro.graph.slab import export_arrays, export_csr
from repro.shard import (
    plan_shards,
    reconcile_boundary_hubs,
    run_shard_task,
    sharded_chitchat_schedule,
)
from repro.workload.ldbc import ldbc_instance


def _csr(num_nodes: int, edges: list[tuple[int, int]]) -> CSRGraph:
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    return CSRGraph.from_arrays(num_nodes, src, dst)


def _manual_cost(schedule: RequestSchedule, rp: np.ndarray, rc: np.ndarray) -> float:
    return sum(float(rp[u]) for u, _ in schedule.push) + sum(
        float(rc[v]) for _, v in schedule.pull
    )


class TestPlanShards:
    def test_deterministic_and_complete(self):
        graph, _ = ldbc_instance(400, seed=1)
        a = plan_shards(graph, 4, seed=0)
        b = plan_shards(graph, 4, seed=0)
        assert np.array_equal(a.owner, b.owner)
        assert np.array_equal(a.edge_owner, b.edge_owner)
        assert sum(a.shard_edge_counts) == graph.num_edges
        assert 0.0 <= a.cut_fraction <= 1.0

    def test_producer_side_ownership(self):
        graph, _ = ldbc_instance(300, seed=2)
        plan = plan_shards(graph, 3, seed=5)
        src, _dst = graph.edge_arrays()
        assert np.array_equal(plan.edge_owner, plan.owner[src])

    def test_seed_changes_placement(self):
        graph, _ = ldbc_instance(300, seed=2)
        assert not np.array_equal(
            plan_shards(graph, 4, seed=0).owner, plan_shards(graph, 4, seed=1).owner
        )

    def test_rejects_nonpositive_shards(self):
        graph, _ = ldbc_instance(100, seed=0)
        with pytest.raises(ReproError):
            plan_shards(graph, 0)


class TestWorkerTask:
    @staticmethod
    def _run_task(graph, workload, **extra) -> dict:
        rp, rc = workload.as_arrays(graph.num_nodes)
        graph_slab = export_csr(graph)
        rates_slab = export_arrays({"rp": rp, "rc": rc})
        try:
            return run_shard_task(
                {
                    "shard_id": 0,
                    "graph_manifest": graph_slab.manifest,
                    "rates_manifest": rates_slab.manifest,
                    **extra,
                }
            )
        finally:
            graph_slab.unlink()
            rates_slab.unlink()

    def test_task_without_oracle_key_peels(self):
        graph, workload = ldbc_instance(200, seed=3)
        bare = self._run_task(graph, workload)
        named = self._run_task(graph, workload, oracle="peel")
        assert bare["stats"]["oracle_calls"] > 0
        assert bare["stats"]["exact_oracle_calls"] == 0
        for key in ("push", "pull", "hub_cover", "hub_bounds", "stats"):
            assert bare[key] == named[key]
        # the flow oracle is still one key away
        exact = self._run_task(graph, workload, oracle="exact")
        assert exact["stats"]["exact_oracle_calls"] > 0

    def test_in_process_round_trip(self):
        """run_shard_task is a plain function: callable without a pool."""
        graph, workload = ldbc_instance(200, seed=3)
        result = self._run_task(graph, workload, oracle="peel")
        assert result["shard_id"] == 0
        assert result["edges"] == graph.num_edges
        assert result["stats"]["oracle_calls"] > 0
        schedule = RequestSchedule()
        schedule.push.update(map(tuple, result["push"]))
        schedule.pull.update(map(tuple, result["pull"]))
        schedule.hub_cover.update(result["hub_cover"])
        validate_schedule(graph, schedule)
        for hub, bound in result["hub_bounds"].items():
            assert isinstance(hub, int) and bound >= 0.0


class TestShardedSchedule:
    def test_spawn_end_to_end_feasible_and_monotone(self):
        graph, workload = ldbc_instance(400, seed=7)
        execution = sharded_chitchat_schedule(
            graph, workload, num_shards=2, num_workers=2, oracle="peel"
        )
        validate_schedule(graph, execution.schedule)
        assert execution.cost == pytest.approx(
            schedule_cost(execution.schedule, workload)
        )
        # reconciliation is monotone: never above the merged cost
        assert execution.cost <= execution.merged_cost + 1e-9
        assert len(execution.shard_reports) == 2
        assert execution.reconciliation["selected_hubs"] >= 0

    def test_default_oracle_is_the_peel(self):
        graph, workload = ldbc_instance(300, seed=5)
        default = sharded_chitchat_schedule(
            graph, workload, num_shards=2, num_workers=2
        )
        explicit = sharded_chitchat_schedule(
            graph, workload, num_shards=2, num_workers=2, oracle="peel"
        )
        assert default.oracle_calls > 0
        for report in default.shard_reports:
            assert report["stats"]["exact_oracle_calls"] == 0
        assert default.schedule.push == explicit.schedule.push
        assert default.schedule.pull == explicit.schedule.pull
        assert default.schedule.hub_cover == explicit.schedule.hub_cover

    def test_flow_oracle_still_runs(self):
        """Still accepted, still feasible (Theorem 1) — not required to
        reproduce the peel's schedule."""
        graph, workload = ldbc_instance(300, seed=5)
        execution = sharded_chitchat_schedule(
            graph, workload, num_shards=2, num_workers=2, oracle="exact"
        )
        validate_schedule(graph, execution.schedule)
        assert sum(
            r["stats"]["exact_oracle_calls"] for r in execution.shard_reports
        ) > 0
        assert execution.cost <= execution.merged_cost + 1e-9

    @pytest.mark.parametrize(
        "options, named",
        [
            ({"oracle": "auto"}, ORACLE_MODES),
            ({"oracle": "bogus"}, ORACLE_MODES),
            ({"method": "bogus"}, FLOW_METHODS),
            ({"method": "jit"}, FLOW_METHODS),
        ],
    )
    def test_bad_option_fails_in_the_driver_before_any_export(
        self, monkeypatch, options, named
    ):
        """Checked before planning: no plan, no slab, no worker."""
        from repro.shard import driver

        calls = []
        for name in ("plan_shards", "export_arrays", "export_csr"):
            monkeypatch.setattr(
                driver, name, lambda *args, _name=name, **kw: calls.append(_name)
            )
        graph, workload = ldbc_instance(100, seed=5)
        with pytest.raises(ReproError) as excinfo:
            sharded_chitchat_schedule(
                graph, workload, num_shards=2, num_workers=1, **options
            )
        assert str(named) in str(excinfo.value)
        assert calls == []

    def test_single_shard_matches_sequential(self):
        from repro.core.chitchat import ChitchatScheduler

        graph, workload = ldbc_instance(300, seed=4)
        execution = sharded_chitchat_schedule(
            graph, workload, num_shards=1, num_workers=1, oracle="peel"
        )
        sequential = ChitchatScheduler(
            graph, workload, backend="csr", lazy=True, oracle="peel"
        ).run()
        assert execution.plan.cut_edges == 0
        assert execution.reconciliation["boundary_hubs"] == 0
        assert execution.cost == pytest.approx(schedule_cost(sequential, workload))

    def test_timeout_guard_raises_instead_of_hanging(self):
        graph, workload = ldbc_instance(400, seed=7)
        with pytest.raises(ReproError, match="timeout"):
            sharded_chitchat_schedule(
                graph, workload, num_shards=2, num_workers=1, timeout=0.05
            )


class TestReconcileBoundaryHubs:
    def _base(self):
        # hub h=1 already covers (2, 3); element (0, 3) is direct-pushed
        # with both legs of the 0 -> 1 -> 3 wedge already paid for
        graph = _csr(
            5, [(0, 1), (0, 3), (2, 1), (2, 3), (1, 3), (0, 4), (1, 4)]
        )
        rp = np.array([5.0, 1.0, 1.0, 1.0, 1.0])
        rc = np.array([1.0, 1.0, 1.0, 1.0, 2.0])
        schedule = RequestSchedule()
        schedule.push.update({(0, 1), (0, 3), (2, 1), (0, 4)})
        schedule.pull.update({(1, 3)})
        schedule.hub_cover[(2, 3)] = 1
        owner = np.array([0, 1, 1, 1, 1])  # producer 0 off-shard -> boundary
        return graph, rp, rc, schedule, owner

    def test_recovers_free_rider_element(self):
        graph, rp, rc, schedule, owner = self._base()
        before = _manual_cost(schedule, rp, rc)
        report = reconcile_boundary_hubs(
            graph, rp, rc, schedule, owner, hub_bounds={1: 0.1}
        )
        assert report["boundary_hubs"] == 1
        assert report["elements_recovered"] >= 1
        assert schedule.hub_cover[(0, 3)] == 1
        assert (0, 3) not in schedule.push
        validate_schedule(graph, schedule)
        after = _manual_cost(schedule, rp, rc)
        assert after < before
        assert before - after == pytest.approx(report["cost_recovered"])

    def test_adds_leg_when_batch_pays_for_it(self):
        graph, rp, rc, schedule, owner = self._base()
        report = reconcile_boundary_hubs(
            graph, rp, rc, schedule, owner, hub_bounds={1: 0.1}
        )
        # (0, 4) rides the hub once the pull leg (1, 4) is bought:
        # saving rp[0]=5 > leg cost rc[4]=2
        assert (1, 4) in schedule.pull
        assert schedule.hub_cover[(0, 4)] == 1
        assert report["legs_added"] >= 1
        validate_schedule(graph, schedule)

    def test_keeps_pull_side_of_dual_role_edge(self):
        """A droppable direct push that is also another cover's pull leg
        must lose only its push side (regression: dropping both broke
        the dependent covers)."""
        # (1, 3) serves cover (2, 3) as pull leg AND is direct-pushed;
        # hub 5 covers (6, 7) and can relay the 1 -> 5 -> 3 wedge
        graph = _csr(
            8,
            [
                (2, 1), (2, 3), (1, 3),  # cover (2,3) via hub 1
                (1, 5), (5, 3),          # wedge legs through hub 5
                (6, 5), (5, 7), (6, 7),  # cover (6,7) via hub 5
            ],
        )
        rp = np.ones(8)
        rc = np.ones(8)
        schedule = RequestSchedule()
        schedule.push.update({(2, 1), (1, 3), (1, 5), (6, 5)})
        schedule.pull.update({(1, 3), (5, 3), (5, 7)})
        schedule.hub_cover[(2, 3)] = 1
        schedule.hub_cover[(6, 7)] = 5
        owner = np.array([0, 0, 0, 0, 0, 1, 0, 0])  # producer 1 off-shard of hub 5
        before = _manual_cost(schedule, rp, rc)
        reconcile_boundary_hubs(graph, rp, rc, schedule, owner, hub_bounds={5: 0.1})
        assert schedule.hub_cover[(1, 3)] == 5
        assert (1, 3) not in schedule.push  # droppable push side dropped
        assert (1, 3) in schedule.pull  # leg of cover (2,3) retained
        validate_schedule(graph, schedule)
        assert _manual_cost(schedule, rp, rc) < before

    def test_hub_budget_reported_as_exhausted(self):
        graph, rp, rc, schedule, owner = self._base()
        report = reconcile_boundary_hubs(
            graph, rp, rc, schedule, owner, hub_bounds={1: 0.1}, hub_budget=0
        )
        assert report["budget_exhausted"]
        assert report["elements_recovered"] == 0
