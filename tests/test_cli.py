"""Tests for the repro-schedule operational CLI."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.serialize import (
    load_delta_state,
    load_schedule,
    save_events,
    save_schedule,
    save_workload,
)
from repro.core.schedule import RequestSchedule
from repro.graph.generators import social_copying_graph
from repro.graph.io import write_edge_list
from repro.workload.churn import ChurnEvent, churn_stream, replay
from repro.workload.rates import log_degree_workload


@pytest.fixture
def graph_file(tmp_path):
    graph = social_copying_graph(70, out_degree=5, copy_fraction=0.7, seed=4)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path, graph


class TestOptimize:
    def test_optimize_parallelnosy(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        out = tmp_path / "schedule.json"
        code = main(["optimize", str(path), "-o", str(out)])
        assert code == 0
        assert "parallelnosy" in capsys.readouterr().out
        schedule, metadata = load_schedule(out)
        assert metadata["algorithm"] == "parallelnosy"
        assert metadata["edges"] == graph.num_edges
        assert schedule.is_feasible(graph)

    def test_optimize_each_algorithm(self, graph_file, tmp_path):
        path, graph = graph_file
        for algorithm in ("hybrid", "push-all", "pull-all", "chitchat"):
            out = tmp_path / f"{algorithm}.json"
            assert main(
                ["optimize", str(path), "-o", str(out), "--algorithm", algorithm]
            ) == 0
            schedule, _ = load_schedule(out)
            assert schedule.is_feasible(graph)

    def test_optimize_sharded(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        out = tmp_path / "sharded.json"
        code = main(
            [
                "optimize",
                str(path),
                "-o",
                str(out),
                "--shards",
                "2",
                "--workers",
                "1",
                "--oracle",
                "peel",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "sharded: 2 shards" in printed
        schedule, metadata = load_schedule(out)
        # --shards implies the chitchat execution tier
        assert metadata["algorithm"] == "chitchat"
        assert metadata["shards"] == 2
        assert metadata["workers"] == 1
        assert schedule.is_feasible(graph)

    def test_optimize_with_workload_file(self, graph_file, tmp_path):
        path, graph = graph_file
        wpath = tmp_path / "w.json"
        save_workload(log_degree_workload(graph, read_write_ratio=2.0), wpath)
        out = tmp_path / "s.json"
        assert main(
            ["optimize", str(path), "-o", str(out), "--workload-file", str(wpath)]
        ) == 0

    @pytest.mark.parametrize("oracle", ["peel", "exact"])
    def test_optimize_chitchat_oracle_modes(self, graph_file, tmp_path, capsys, oracle):
        path, graph = graph_file
        out = tmp_path / f"chitchat-{oracle}.json"
        code = main(
            [
                "optimize",
                str(path),
                "-o",
                str(out),
                "--algorithm",
                "chitchat",
                "--oracle",
                oracle,
                "--stats",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert f"oracle={oracle}:" in printed
        assert "calls=" in printed and "retained=" in printed
        schedule, metadata = load_schedule(out)
        assert metadata["oracle"] == oracle
        assert schedule.is_feasible(graph)

    def test_optimize_chitchat_epsilon(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        out = tmp_path / "chitchat-eps.json"
        code = main(
            [
                "optimize",
                str(path),
                "-o",
                str(out),
                "--algorithm",
                "chitchat",
                "--epsilon",
                "0.05",
                "--stats",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "epsilon_accepts=" in printed
        schedule, metadata = load_schedule(out)
        assert metadata["epsilon"] == 0.05
        assert schedule.is_feasible(graph)

    def test_optimize_chitchat_exact_session_is_warm(
        self, graph_file, tmp_path, capsys
    ):
        path, graph = graph_file
        out = tmp_path / "chitchat-exact.json"
        code = main(
            [
                "optimize",
                str(path),
                "-o",
                str(out),
                "--algorithm",
                "chitchat",
                "--oracle",
                "exact",
                "--stats",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "warm_solves=" in printed and "preflow_repairs=" in printed
        assert "warm_solves=0 " not in printed
        schedule, metadata = load_schedule(out)
        assert "warm" not in metadata
        assert schedule.is_feasible(graph)

    @pytest.mark.parametrize("command", ["optimize", "update", "compare"])
    def test_warm_flags_are_gone(self, command):
        args = {
            "optimize": ["optimize", "g.txt", "-o", "s.json"],
            "update": ["update", "g.txt", "s.json", "e.json", "-o", "n.json"],
            "compare": ["compare", "g.txt"],
        }[command]
        with pytest.raises(SystemExit):
            main(args + ["--no-warm"])

    def test_optimize_rejects_negative_epsilon(self, graph_file, tmp_path):
        path, _graph = graph_file
        code = main(
            [
                "optimize",
                str(path),
                "-o",
                str(tmp_path / "s.json"),
                "--algorithm",
                "chitchat",
                "--epsilon",
                "-0.5",
            ]
        )
        assert code == 2  # ReproError surfaces as the CLI error exit

    @pytest.mark.parametrize("oracle", ["bogus", "auto"])
    def test_optimize_rejects_unknown_oracle(self, graph_file, tmp_path, oracle):
        path, _graph = graph_file
        with pytest.raises(SystemExit):
            main(
                [
                    "optimize",
                    str(path),
                    "-o",
                    str(tmp_path / "s.json"),
                    "--algorithm",
                    "chitchat",
                    "--oracle",
                    oracle,
                ]
            )

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("optimize", ["--batch-k", "4"]),
            ("optimize", ["--flow-method", "wave"]),
            ("update", ["--flow-method", "wave"]),
            ("compare", ["--batch-k", "4"]),
            ("compare", ["--flow-method", "loop"]),
        ],
    )
    def test_perf_only_flags_are_gone(self, command, flag):
        """Schedules are identical at every batch width and flow kernel,
        so neither is a CLI choice (the library parameters remain)."""
        args = {
            "optimize": ["optimize", "g.txt", "-o", "s.json"],
            "update": ["update", "g.txt", "s.json", "e.json", "-o", "n.json"],
            "compare": ["compare", "g.txt"],
        }[command]
        with pytest.raises(SystemExit):
            main(args + flag)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--epsilon", "nan"],
            ["--cross-edge-bound", "-1"],
            ["--shards", "2", "--workers", "0"],
        ],
        ids=["epsilon-nan", "negative-cross-edge-bound", "zero-workers"],
    )
    def test_optimize_rejects_bad_numeric_input(
        self, graph_file, tmp_path, capsys, flags
    ):
        """The CLI's error line, not a traceback, and no schedule written
        (a NaN epsilon used to land in the header as invalid JSON)."""
        path, _graph = graph_file
        out = tmp_path / "s.json"
        code = main(
            ["optimize", str(path), "-o", str(out), "--algorithm", "chitchat"]
            + flags
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_optimize_stats_for_non_chitchat(self, graph_file, tmp_path, capsys):
        path, _graph = graph_file
        out = tmp_path / "s.json"
        assert main(
            ["optimize", str(path), "-o", str(out), "--algorithm", "hybrid", "--stats"]
        ) == 0
        assert "no oracle stats" in capsys.readouterr().out


class TestUpdate:
    @pytest.fixture
    def churn_setup(self, graph_file, tmp_path):
        """Optimized schedule + a 30-event churn script on disk."""
        path, graph = graph_file
        schedule_path = tmp_path / "schedule.json"
        assert main(
            ["optimize", str(path), "-o", str(schedule_path),
             "--algorithm", "chitchat"]
        ) == 0
        workload = log_degree_workload(graph)
        events = churn_stream(graph, workload, 30, seed=6)
        events_path = tmp_path / "events.json"
        save_events(events, events_path)
        return path, graph, workload, schedule_path, events, events_path

    def test_update_maintains_feasible_schedule(
        self, churn_setup, tmp_path, capsys
    ):
        path, graph, workload, schedule_path, events, events_path = churn_setup
        out = tmp_path / "maintained.json"
        capsys.readouterr()
        code = main(
            ["update", str(path), str(schedule_path), str(events_path),
             "-o", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "delta-update: 30 events" in printed
        maintained, metadata = load_schedule(out)
        assert metadata["algorithm"] == "delta-update"
        assert metadata["events"] == 30
        churned_graph, _ = replay(graph, workload, events)
        assert maintained.is_feasible(churned_graph)

    def test_update_stats_line(self, churn_setup, tmp_path, capsys):
        path, _graph, _workload, schedule_path, _events, events_path = churn_setup
        out = tmp_path / "maintained.json"
        capsys.readouterr()
        assert main(
            ["update", str(path), str(schedule_path), str(events_path),
             "-o", str(out), "--stats", "--oracle", "exact",
             "--repair-every", "5"]
        ) == 0
        printed = capsys.readouterr().out
        assert "delta: events=30" in printed
        assert "refreshes=" in printed and "repairs=" in printed
        assert "materialized=" in printed

    def test_update_state_out_resumes(self, churn_setup, tmp_path, capsys):
        path, _graph, _workload, schedule_path, _events, events_path = churn_setup
        out = tmp_path / "maintained.json"
        state = tmp_path / "state.json"
        capsys.readouterr()
        assert main(
            ["update", str(path), str(schedule_path), str(events_path),
             "-o", str(out), "--state-out", str(state)]
        ) == 0
        assert f"delta state -> {state}" in capsys.readouterr().out
        resumed, metadata = load_delta_state(state)
        assert metadata["algorithm"] == "delta-update"
        assert resumed.is_feasible()
        maintained, _ = load_schedule(out)
        assert resumed.schedule.push == maintained.push
        assert resumed.schedule.pull == maintained.pull
        assert resumed.schedule.hub_cover == maintained.hub_cover

    def test_update_noop_stream_preserves_schedule_bytes(
        self, graph_file, tmp_path, capsys
    ):
        path, graph = graph_file
        schedule_path = tmp_path / "schedule.json"
        assert main(
            ["optimize", str(path), "-o", str(schedule_path),
             "--algorithm", "chitchat"]
        ) == 0
        existing = sorted(graph.edges())[0]
        events_path = tmp_path / "noops.json"
        save_events(
            [ChurnEvent(kind="add", edge=existing),
             ChurnEvent(kind="remove", edge=(9001, 9002))],
            events_path,
        )
        out = tmp_path / "maintained.json"
        capsys.readouterr()
        assert main(
            ["update", str(path), str(schedule_path), str(events_path),
             "-o", str(out)]
        ) == 0
        before, _ = load_schedule(schedule_path)
        after, _ = load_schedule(out)
        assert after.push == before.push
        assert after.pull == before.pull
        assert after.hub_cover == before.hub_cover

    def test_update_bad_events_file_errors_cleanly(
        self, churn_setup, tmp_path, capsys
    ):
        path, _graph, _workload, schedule_path, _events, _ = churn_setup
        bogus = tmp_path / "bogus.json"
        bogus.write_text("")
        assert main(
            ["update", str(path), str(schedule_path), str(bogus),
             "-o", str(tmp_path / "out.json")]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_update_self_loop_script_errors_before_any_state(
        self, churn_setup, tmp_path, capsys
    ):
        path, _graph, _workload, schedule_path, _events, _ = churn_setup
        script = tmp_path / "loop.json"
        save_events([ChurnEvent(kind="add", edge=(1, 2))], script)
        script.write_text(script.read_text().replace("[1, 2]", "[3, 3]"))
        out = tmp_path / "out.json"
        assert main(
            ["update", str(path), str(schedule_path), str(script),
             "-o", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "self-loop" in err
        assert not out.exists()


class TestValidateAndCost:
    def test_validate_ok(self, graph_file, tmp_path, capsys):
        path, _graph = graph_file
        out = tmp_path / "s.json"
        main(["optimize", str(path), "-o", str(out)])
        capsys.readouterr()
        assert main(["validate", str(path), str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_detects_infeasible(self, graph_file, tmp_path, capsys):
        path, _graph = graph_file
        bad = tmp_path / "bad.json"
        save_schedule(RequestSchedule(), bad)  # serves nothing
        assert main(["validate", str(path), str(bad)]) == 1
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_cost_reports_improvement(self, graph_file, tmp_path, capsys):
        path, _graph = graph_file
        out = tmp_path / "s.json"
        main(["optimize", str(path), "-o", str(out)])
        capsys.readouterr()
        assert main(["cost", str(path), str(out)]) == 0
        assert "improvement=" in capsys.readouterr().out


class TestCompareAndStats:
    def test_compare_table(self, graph_file, capsys):
        path, _graph = graph_file
        assert main(["compare", str(path), "--iterations", "5"]) == 0
        out = capsys.readouterr().out
        for name in ("parallelnosy", "chitchat", "hybrid", "push-all", "pull-all"):
            assert name in out

    def test_compare_with_oracle_stats(self, graph_file, capsys):
        path, _graph = graph_file
        assert main(
            ["compare", str(path), "--iterations", "5", "--oracle", "exact", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "oracle=exact:" in out
        assert "exact=" in out

    def test_compare_skip_chitchat(self, graph_file, capsys):
        path, _graph = graph_file
        assert main(["compare", str(path), "--skip-chitchat"]) == 0
        out = capsys.readouterr().out
        # no chitchat *row* (the tmp dir name in the title may contain it)
        assert not any(line.startswith("chitchat") for line in out.splitlines())

    def test_stats(self, graph_file, capsys):
        path, _graph = graph_file
        assert main(["stats", str(path)]) == 0
        assert "reciprocity" in capsys.readouterr().out

    def test_error_reported_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        missing.write_text("not an edge list\n")
        assert main(["stats", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err


class TestObservability:
    def test_optimize_trace_writes_valid_chrome_trace(
        self, graph_file, tmp_path, capsys
    ):
        import json

        from repro.obs import validate_chrome_trace

        path, _graph = graph_file
        out = tmp_path / "s.json"
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "optimize",
                str(path),
                "-o",
                str(out),
                "--algorithm",
                "chitchat",
                "--oracle",
                "exact",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        assert f"wrote Chrome trace to {trace_path}" in capsys.readouterr().out
        document = json.loads(trace_path.read_text())
        problems = validate_chrome_trace(
            document, require_categories=("scheduler", "oracle", "flow")
        )
        assert problems == []

    def test_optimize_profile_prints_phase_table(
        self, graph_file, tmp_path, capsys
    ):
        path, _graph = graph_file
        out = tmp_path / "s.json"
        code = main(
            [
                "optimize",
                str(path),
                "-o",
                str(out),
                "--algorithm",
                "chitchat",
                "--profile",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "phase" in printed and "total_s" in printed
        assert "scheduler.run" in printed

    def test_compare_trace_and_profile(self, graph_file, tmp_path, capsys):
        import json

        path, _graph = graph_file
        trace_path = tmp_path / "compare-trace.json"
        code = main(
            [
                "compare",
                str(path),
                "--iterations",
                "5",
                "--trace",
                str(trace_path),
                "--profile",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "scheduler.run" in printed
        names = {
            event["name"]
            for event in json.loads(trace_path.read_text())["traceEvents"]
        }
        assert "scheduler.run" in names

    def test_tracer_left_disabled_after_traced_run(self, graph_file, tmp_path):
        from repro.obs import get_tracer

        path, _graph = graph_file
        out = tmp_path / "s.json"
        trace_path = tmp_path / "t.json"
        assert main(
            ["optimize", str(path), "-o", str(out), "--trace", str(trace_path)]
        ) == 0
        assert not get_tracer().enabled
