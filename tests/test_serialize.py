"""Tests for schedule/workload persistence."""

from __future__ import annotations

import json

import pytest

from repro.core.chitchat import chitchat_schedule
from repro.core.delta import DeltaScheduler
from repro.core.parallelnosy import parallel_nosy_schedule
from repro.core.schedule import RequestSchedule
from repro.core.serialize import (
    load_delta_state,
    load_events,
    load_schedule,
    load_workload,
    save_delta_state,
    save_events,
    save_schedule,
    save_workload,
)
from repro.errors import ScheduleError, WorkloadError
from repro.graph.generators import social_copying_graph
from repro.workload.churn import ChurnEvent, churn_stream
from repro.workload.rates import Workload, log_degree_workload
from tests.test_relabel import LABELINGS, relabel


@pytest.fixture
def schedule():
    s = RequestSchedule(push={(1, 2), (3, 4)}, pull={(2, 5)})
    s.cover_via_hub((1, 5), 2)
    return s


class TestScheduleRoundTrip:
    def test_roundtrip(self, schedule, tmp_path):
        path = tmp_path / "s.json"
        records = save_schedule(schedule, path, metadata={"algorithm": "manual"})
        assert records == 4
        loaded, metadata = load_schedule(path)
        assert loaded.push == schedule.push
        assert loaded.pull == schedule.pull
        assert loaded.hub_cover == schedule.hub_cover
        assert metadata == {"algorithm": "manual"}

    def test_gzip_roundtrip(self, schedule, tmp_path):
        path = tmp_path / "s.json.gz"
        save_schedule(schedule, path)
        loaded, _ = load_schedule(path)
        assert loaded.push == schedule.push

    def test_real_optimizer_output_roundtrip(self, tmp_path):
        graph = social_copying_graph(80, out_degree=5, copy_fraction=0.7, seed=1)
        workload = log_degree_workload(graph)
        schedule = parallel_nosy_schedule(graph, workload, 5)
        path = tmp_path / "pn.json"
        save_schedule(schedule, path)
        loaded, _ = load_schedule(path)
        assert loaded.push == schedule.push
        assert loaded.pull == schedule.pull
        assert loaded.hub_cover == schedule.hub_cover

    def test_empty_schedule(self, tmp_path):
        path = tmp_path / "empty.json"
        save_schedule(RequestSchedule(), path)
        loaded, _ = load_schedule(path)
        assert not loaded.push and not loaded.pull and not loaded.hub_cover


class TestScheduleErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text("")
        with pytest.raises(ScheduleError, match="empty"):
            load_schedule(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "header", "format": "other"}) + "\n")
        with pytest.raises(ScheduleError, match="not a repro-schedule"):
            load_schedule(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(
            json.dumps(
                {"kind": "header", "format": "repro-schedule", "version": 99}
            )
            + "\n"
        )
        with pytest.raises(ScheduleError, match="version"):
            load_schedule(path)

    def test_truncation_detected(self, schedule, tmp_path):
        path = tmp_path / "t.json"
        save_schedule(schedule, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop last record
        with pytest.raises(ScheduleError, match="truncated"):
            load_schedule(path)

    def test_unknown_record_kind(self, tmp_path):
        path = tmp_path / "u.json"
        header = {
            "kind": "header",
            "format": "repro-schedule",
            "version": 1,
            "push_edges": 0,
            "pull_edges": 0,
            "hub_covers": 0,
            "metadata": {},
        }
        path.write_text(
            json.dumps(header) + "\n" + json.dumps({"kind": "wat"}) + "\n"
        )
        with pytest.raises(ScheduleError, match="unknown record kind"):
            load_schedule(path)


class TestWorkloadRoundTrip:
    def test_roundtrip(self, tmp_path):
        w = Workload(
            production={1: 1.5, 2: 0.25}, consumption={1: 3.0, 2: 9.0}
        )
        path = tmp_path / "w.json"
        assert save_workload(w, path) == 2
        loaded = load_workload(path)
        assert loaded.production == w.production
        assert loaded.consumption == w.consumption

    def test_generated_workload_roundtrip(self, tmp_path):
        graph = social_copying_graph(50, seed=2)
        w = log_degree_workload(graph)
        path = tmp_path / "w.json.gz"
        save_workload(w, path)
        loaded = load_workload(path)
        assert loaded.read_write_ratio == pytest.approx(w.read_write_ratio)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "other"}) + "\n")
        with pytest.raises(WorkloadError):
            load_workload(path)

    def test_truncation_detected(self, tmp_path):
        graph = social_copying_graph(30, seed=3)
        w = log_degree_workload(graph)
        path = tmp_path / "w.json"
        save_workload(w, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(WorkloadError, match="truncated"):
            load_workload(path)


def churned_delta(events_applied: int = 20, labeling: str = "dense"):
    """A DeltaScheduler mid-stream, with pending residue to snapshot.

    ``labeling="string"`` renames every user ``i`` to ``"user-i"`` first,
    so the scheduler runs on a relabeled id space.
    """
    graph = social_copying_graph(60, out_degree=4, copy_fraction=0.6, seed=9)
    workload = log_degree_workload(graph)
    if labeling == "string":
        graph, workload = relabel(graph, workload, LABELINGS["string"])
    schedule = chitchat_schedule(graph, workload)
    events = churn_stream(graph, workload, 40, seed=9)
    delta = DeltaScheduler(graph.copy(), workload, schedule.copy())
    for event in events[:events_applied]:
        delta.apply(event)
    return delta, events


class TestChurnRoundTrip:
    def test_roundtrip_with_metadata(self, tmp_path):
        graph = social_copying_graph(40, seed=5)
        workload = log_degree_workload(graph)
        events = churn_stream(graph, workload, 50, seed=5)
        path = tmp_path / "events.json"
        assert save_events(events, path, metadata={"seed": 5}) == 50
        loaded, metadata = load_events(path)
        assert loaded == events
        assert metadata == {"seed": 5}

    def test_gzip_roundtrip(self, tmp_path):
        events = [
            ChurnEvent(kind="add", edge=(1, 2)),
            ChurnEvent(kind="remove", edge=(2, 3)),
            ChurnEvent(kind="rate", user=4, rp=0.5, rc=2.5),
        ]
        path = tmp_path / "events.json.gz"
        save_events(events, path)
        loaded, _ = load_events(path)
        assert loaded == events

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "repro-schedule"}) + "\n")
        with pytest.raises(WorkloadError, match="not a repro-churn"):
            load_events(path)

    def test_truncation_detected(self, tmp_path):
        events = [ChurnEvent(kind="add", edge=(1, 2))] * 3
        path = tmp_path / "t.json"
        save_events(events, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(WorkloadError, match="truncated"):
            load_events(path)

    def test_unknown_record_kind(self, tmp_path):
        path = tmp_path / "u.json"
        header = {
            "kind": "header",
            "format": "repro-churn",
            "version": 1,
            "events": 1,
            "metadata": {},
        }
        path.write_text(
            json.dumps(header) + "\n" + json.dumps({"kind": "merge"}) + "\n"
        )
        with pytest.raises(WorkloadError, match="unknown record kind"):
            load_events(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_rate_rejected(self, tmp_path, literal):
        """Python's json parses ``NaN``/``Infinity``; the loader must not
        hand such a rate to the maintainer."""
        path = tmp_path / "n.json"
        header = {
            "kind": "header",
            "format": "repro-churn",
            "version": 1,
            "events": 1,
            "metadata": {},
        }
        record = f'{{"kind": "rate", "user": 3, "rp": {literal}, "rc": 1.0}}'
        path.write_text(json.dumps(header) + "\n" + record + "\n")
        with pytest.raises(WorkloadError, match="invalid rate"):
            load_events(path)


class TestDeltaStateRoundTrip:
    @pytest.mark.parametrize("labeling", ["dense", "string"])
    def test_warm_state_round_trips(self, tmp_path, labeling):
        """A mid-stream snapshot resumes exactly: schedule, rates, live
        edges, residue, and the running cost all survive the round-trip,
        and continuing the same stream on both sides converges to the
        identical maintained schedule and cost — string labels included,
        which the scheduler relabels to dense ids on both sides."""
        delta, events = churned_delta(labeling=labeling)
        assert delta.pending() > 0
        path = tmp_path / "state.json.gz"
        save_delta_state(delta, path, metadata={"applied": 20})
        resumed, metadata = load_delta_state(path)
        assert metadata == {"applied": 20}
        assert resumed.schedule.push == delta.schedule.push
        assert resumed.schedule.pull == delta.schedule.pull
        assert resumed.schedule.hub_cover == delta.schedule.hub_cover
        assert resumed.residue() == delta.residue()
        assert len(delta.residue()) == delta.pending()
        assert sorted(resumed.graph.edges()) == sorted(delta.graph.edges())
        assert resumed.workload.production == delta.workload.production
        assert resumed.cost() == pytest.approx(delta.cost())
        for event in events[20:]:
            delta.apply(event)
            resumed.apply(event)
        delta.repair()
        resumed.repair()
        assert resumed.schedule.push == delta.schedule.push
        assert resumed.schedule.pull == delta.schedule.pull
        assert resumed.schedule.hub_cover == delta.schedule.hub_cover
        assert resumed.cost() == pytest.approx(delta.cost())

    def test_loader_forwards_oracle_options(self, tmp_path):
        delta, _events = churned_delta()
        path = tmp_path / "state.json"
        save_delta_state(delta, path)
        resumed, _ = load_delta_state(path, oracle="exact", method="loop")
        assert resumed._exact is not None and resumed._exact.method == "loop"
        resumed.repair()
        assert resumed.is_feasible()

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "repro-churn"}) + "\n")
        with pytest.raises(ScheduleError, match="not a repro-delta"):
            load_delta_state(path)

    def test_truncation_detected(self, tmp_path):
        delta, _events = churned_delta()
        path = tmp_path / "t.json"
        save_delta_state(delta, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ScheduleError, match="truncated"):
            load_delta_state(path)
