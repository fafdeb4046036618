"""Smoke test of the perf ledger: all four workloads at toy size.

Same code path as the real runs (``run_untraced`` / ``run_traced``), with
the size table swapped for instances that finish in well under a second
each, so tier-1 notices when a refactor breaks the benchmark without
paying for a measurement.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from . import calibration, cli, compare, spec, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
_REAL_SLICE = calibration.slice_wall
SECONDS = 1.0

_TOY_COPYING = {**spec.workload("copying_peel").graph, "num_nodes": 150}
TOY = {
    "copying_peel": replace(
        spec.workload("copying_peel"), graph=_TOY_COPYING, op_seconds=0.5, setup_reps=2
    ),
    "copying_exact": replace(
        spec.workload("copying_exact"), graph=_TOY_COPYING, op_seconds=1.0, setup_reps=2
    ),
    "ldbc_shard": replace(
        spec.workload("ldbc_shard"), graph={"num_nodes": 600}, op_seconds=1.0, setup_reps=2
    ),
    "churn_delta": replace(
        spec.workload("churn_delta"), graph=_TOY_COPYING, op_seconds=1.0 / 80, min_units=1
    ),
}


@pytest.fixture(scope="module", autouse=True)
def instant_calibration():
    """Toy runs skip the 0.2 s calibration slices (factor 1 throughout)."""
    patch = pytest.MonkeyPatch()
    patch.setattr(calibration, "slice_wall", lambda: calibration.REFERENCE_SLICE_S)
    yield
    patch.undo()


@pytest.fixture(scope="module")
def documents(instant_calibration):
    """``{workload: (untraced document, traced document)}`` at toy size."""
    return {
        name: (
            workloads.run_untraced(toy, seed=3, seconds=SECONDS),
            workloads.run_traced(toy, seed=3, seconds=SECONDS),
        )
        for name, toy in TOY.items()
    }


def test_benchmark_json_mirrors_the_spec_table():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json()
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert any(m["name"] == "setup_s" for m in declared["end_to_end"])


@pytest.mark.parametrize("name", list(TOY))
def test_every_declared_metric_is_emitted_with_its_unit(documents, name):
    untraced, traced = documents[name]
    for document, declared in ((untraced, spec.END_TO_END), (traced, spec.PER_LAYER)):
        assert document["failed"] == 0, document["errors"]
        assert document["correct"] and document["attempted"] >= 1
        assert list(document["metrics"]) == [m.name for m in declared]
        for metric in declared:
            entry = document["metrics"][metric.name]
            assert entry["unit"] == metric.unit
            assert isinstance(entry["value"], (int, float)), metric.name
        line = json.loads(cli.result_line(document))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m.name for m in declared}
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())
    # the traced run schedules the untraced run's first instance
    first = untraced["extra"].get("repetition_digests", [untraced["schedule_digest"]])[0]
    assert traced["schedule_digest"] == first
    assert 0.0 <= traced["metrics"]["ledger.layer_sum_gap_frac"]["value"] < 1.0


def test_repetitions_and_events_follow_seconds(documents):
    assert documents["copying_peel"][0]["extra"]["repetitions"] == 2
    assert documents["churn_delta"][0]["extra"]["events"] == 80
    assert documents["churn_delta"][0]["attempted"] == 81  # events + the closing check


def test_predicted_zeros_hold(documents):
    def layer(name, prefix):
        metrics = documents[name][1]["metrics"]
        return {k: v["value"] for k, v in metrics.items() if k.startswith(prefix)}

    for name in ("copying_peel", "churn_delta"):
        assert set(layer(name, "flow.").values()) == {0}, name
    assert layer("copying_exact", "densest.")["densest.peel_calls"] == 0
    assert layer("copying_exact", "flow.")["flow.kernel_invocations"] > 0
    assert layer("copying_peel", "densest.")["densest.peel_calls"] > 0
    for name in TOY:
        if name != "ldbc_shard":
            assert set(layer(name, "shard.").values()) == {0}, name
            assert set(layer(name, "graph.slab").values()) == {0}, name
        if name != "churn_delta":
            assert set(layer(name, "delta.").values()) == {0}, name
    assert layer("ldbc_shard", "shard.")["shard.worker_wall_sum_s"] > 0
    assert layer("churn_delta", "delta.")["delta.hub_refreshes"] > 0
    assert layer("churn_delta", "delta.")["delta.cost_ratio_vs_fresh"] > 0


def test_renamed_entry_point_reads_null_not_an_exception(capsys):
    targets = tuple(
        (module, attribute + "_renamed" if attribute == "densest_subgraph" else attribute, name, hook)
        for module, attribute, name, hook in tracing.PATCH_TARGETS
    )
    document = workloads.run_traced(TOY["copying_peel"], seed=3, seconds=SECONDS, targets=targets)
    assert document["correct"]
    assert document["metrics"]["densest.peel_s"]["value"] is None
    assert document["metrics"]["densest.peel_calls"]["value"] is None
    assert document["metrics"]["hubgraph.build_calls"]["value"] > 0
    assert "densest.peel" in document["extra"]["missing"]
    assert "warning" in capsys.readouterr().err
    line = json.loads(cli.result_line(document))
    assert line["metrics"]["densest.peel_s"]["value"] == cli.UNOBSERVABLE


def test_wrappers_are_removed_after_a_traced_run(documents):
    import repro.core.chitchat as chitchat
    import repro.core.densest as densest

    assert chitchat.densest_subgraph is densest.densest_subgraph
    assert not hasattr(chitchat.ChitchatScheduler.run, "__wrapped__")


def test_speed_meter_reports_reference_over_the_median_slice(monkeypatch):
    assert 0.01 < _REAL_SLICE() < 5.0
    walls = iter([0.2, 0.2, 0.9, 0.2, 0.2])  # one slice stretched by an interrupt
    monkeypatch.setattr(calibration, "slice_wall", lambda: next(walls))
    meter = calibration.SpeedMeter(tracing.NullTracer())
    for _ in range(4):
        meter.mark()
    assert meter.factor() == pytest.approx(calibration.REFERENCE_SLICE_S / 0.2)


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer(targets=())
    with tracer.phase("measure"):
        with tracer.span("outer"):
            tracer.call("inner", sum, [1, 2])
            tracer.call("inner", sum, [3, 4])
    outer_total = tracer.stat("outer", "total")
    inner_total = tracer.stat("inner", "total")
    assert tracer.stat("inner", "count") == 2
    assert tracer.stat("outer", "self") == pytest.approx(outer_total - inner_total)
    assert tracer.stat("outer", "self", ("setup",)) == 0
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1]  # parents


def _ledger(documents):
    return {
        "seed": 3,
        "seconds": SECONDS,
        "environment": {},
        "workloads": {
            name: {"end_to_end": untraced, "per_layer": {}}
            for name, (untraced, _traced) in documents.items()
        },
    }


def test_compare_same_document_is_ok_and_a_slowdown_regresses(documents):
    before = _ledger(documents)
    out = io.StringIO()
    assert compare.compare(before, before, out) == 0
    assert "regressed" not in out.getvalue() and "identical" in out.getvalue()

    after = copy.deepcopy(before)
    after["workloads"]["churn_delta"]["end_to_end"]["metrics"]["items_per_s"]["value"] *= 0.5
    out = io.StringIO()
    assert compare.compare(before, after, out) == 1
    regressed = [line.split()[:2] for line in out.getvalue().splitlines() if "regressed" in line]
    assert regressed == [["churn_delta", "items_per_s"]]

    failing = copy.deepcopy(before)
    failing["workloads"]["copying_peel"]["end_to_end"]["failed_share"] = 0.5
    assert compare.compare(before, failing, io.StringIO()) == 1


def test_compare_reports_wide_repetition_spread_as_unresolved():
    metric = spec.Metric("op_p50_ms", "ms", "lower", 0.10)
    steady = {"value": 100.0, "n": 3, "spread": 0.02}
    noisy = {"value": 103.0, "n": 3, "spread": 0.29}
    assert compare.judge(metric, steady, steady)[0] == "ok"
    assert compare.judge(metric, steady, noisy)[0] == "unresolved"
    assert compare.judge(metric, steady, {"value": 120.0})[0] == "regressed"
    assert compare.judge(metric, steady, {"value": 80.0})[0] == "improved"


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "ledger",
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", ".ledger_tmp_*"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "copying_peel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],  # fmt: skip
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
