"""Tests for schedule/workload persistence."""

from __future__ import annotations

import gzip
import json

import pytest

from repro.core import serialize
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
from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.workload.churn import ChurnEvent, churn_stream
from repro.workload.rates import Workload, log_degree_workload
from tests.test_relabel import LABELINGS, relabel


@pytest.fixture
def schedule():
    return small_schedule()


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
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic
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


# ----------------------------------------------------------------------
# One small instance per format, its pinned bytes, and malformed copies
# ----------------------------------------------------------------------
def small_schedule():
    s = RequestSchedule(push={(1, 2), (3, 4)}, pull={(2, 5)})
    s.cover_via_hub((1, 5), 2)
    return s


def small_delta():
    """A three-user scheduler with one add applied: residue pending."""
    graph = SocialGraph()
    graph.add_edges_from([(0, 1), (1, 2), (0, 2)])
    workload = Workload(
        production={0: 1.0, 1: 2.0, 2: 0.5}, consumption={0: 1.0, 1: 1.0, 2: 4.0}
    )
    schedule = RequestSchedule(push={(0, 1)}, pull={(1, 2)})
    schedule.cover_via_hub((0, 2), 1)
    delta = DeltaScheduler(graph, workload, schedule)
    delta.apply(ChurnEvent(kind="add", edge=(2, 0)))
    return delta


#: format -> (write the small instance to a path, loader, error class,
#: the exact text written)
FORMATS = {
    "schedule": (
        lambda path: save_schedule(small_schedule(), path, {"algorithm": "manual"}),
        load_schedule,
        ScheduleError,
        '{"kind": "header", "format": "repro-schedule", "version": 1, '
        '"push_edges": 2, "pull_edges": 1, "hub_covers": 1, '
        '"metadata": {"algorithm": "manual"}}\n'
        '{"kind": "push", "edge": [1, 2]}\n'
        '{"kind": "push", "edge": [3, 4]}\n'
        '{"kind": "pull", "edge": [2, 5]}\n'
        '{"kind": "cover", "edge": [1, 5], "hub": 2}\n',
    ),
    "workload": (
        lambda path: save_workload(
            Workload(production={2: 1.5, "u": 0.25}, consumption={2: 3.0, "u": 9.0}),
            path,
        ),
        load_workload,
        WorkloadError,
        '{"kind": "header", "format": "repro-workload", "version": 1, "users": 2}\n'
        '{"kind": "rates", "user": "u", "rp": 0.25, "rc": 9.0}\n'
        '{"kind": "rates", "user": 2, "rp": 1.5, "rc": 3.0}\n',
    ),
    "churn": (
        lambda path: save_events(
            [
                ChurnEvent(kind="add", edge=(1, 2)),
                ChurnEvent(kind="remove", edge=(2, 3)),
                ChurnEvent(kind="rate", user="u", rp=0.5, rc=2.5),
            ],
            path,
            metadata={"seed": 5},
        ),
        load_events,
        WorkloadError,
        '{"kind": "header", "format": "repro-churn", "version": 1, "events": 3, '
        '"metadata": {"seed": 5}}\n'
        '{"kind": "add", "edge": [1, 2]}\n'
        '{"kind": "remove", "edge": [2, 3]}\n'
        '{"kind": "rate", "user": "u", "rp": 0.5, "rc": 2.5}\n',
    ),
    "delta": (
        lambda path: save_delta_state(small_delta(), path, {"applied": 1}),
        load_delta_state,
        ScheduleError,
        '{"kind": "header", "format": "repro-delta", "version": 1, "edges": 4, '
        '"users": 3, "push_edges": 2, "pull_edges": 1, "hub_covers": 1, '
        '"residue": 1, "metadata": {"applied": 1}}\n'
        '{"kind": "edge", "edge": [0, 1]}\n'
        '{"kind": "edge", "edge": [0, 2]}\n'
        '{"kind": "edge", "edge": [1, 2]}\n'
        '{"kind": "edge", "edge": [2, 0]}\n'
        '{"kind": "rates", "user": 0, "rp": 1.0, "rc": 1.0}\n'
        '{"kind": "rates", "user": 1, "rp": 2.0, "rc": 1.0}\n'
        '{"kind": "rates", "user": 2, "rp": 0.5, "rc": 4.0}\n'
        '{"kind": "push", "edge": [0, 1]}\n'
        '{"kind": "push", "edge": [2, 0]}\n'
        '{"kind": "pull", "edge": [1, 2]}\n'
        '{"kind": "cover", "edge": [0, 2], "hub": 1}\n'
        '{"kind": "residue", "edge": [2, 0]}\n',
    ),
}


def _lines(lines):
    return ("\n".join(lines) + "\n").encode()


def _edit(text, index, edit):
    """The file with line ``index``'s JSON object passed through ``edit``."""
    lines = text.splitlines()
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record)
    return _lines(lines)


def _set_node(value):
    """Put ``value`` where the record holds a node id."""

    def edit(record):
        for key in ("user", "hub"):
            if key in record:
                record[key] = value
                return
        record["edge"][0] = value

    return edit


def _drop_count(header):
    del header[next(k for k in header if k not in ("kind", "format", "version"))]


def _non_utf8(text):
    data = _lines(text.splitlines())
    at = data.rindex(b'"kind"') + 2
    return data[:at] + b"\xff" + data[at:]


def _half(data):
    return data[: len(data) // 2]


def _non_finite_rate(text):
    lines = text.splitlines()
    index = next(i for i, line in enumerate(lines) if '"rp"' in line)
    return _edit(text, index, lambda record: record.update(rp=float("nan")))


#: corruption -> (file suffix, text -> bytes, message fragment or None)
CORRUPTIONS = {
    "empty": (".json", lambda text: b"", "empty"),
    "other_format": (
        ".json", lambda t: _edit(t, 0, lambda h: h.update(format="repro-x")), "not a"
    ),
    "non_json_header": (".json", lambda t: _lines(["nope"] + t.splitlines()[1:]), None),
    "non_object_header": (
        ".json", lambda t: _lines(["[1, 2]"] + t.splitlines()[1:]), "not a"
    ),
    "version_99": (
        ".json", lambda t: _edit(t, 0, lambda h: h.update(version=99)), "version"
    ),
    "missing_count": (".json", lambda t: _edit(t, 0, _drop_count), "truncated"),
    "cut_line": (".json", lambda t: t.encode()[: len(t) - 12], None),
    "dropped_record": (".json", lambda t: _lines(t.splitlines()[:-1]), "truncated"),
    "non_utf8": (".json", _non_utf8, None),
    "non_object_record": (".json", lambda t: _lines(t.splitlines() + ["[1, 2]"]), None),
    "unknown_kind": (
        ".json", lambda t: _edit(t, -1, lambda r: r.update(kind="wat")),
        "unknown record kind",
    ),
    "missing_field": (".json", lambda t: _edit(t, -1, lambda r: r.popitem()), "no field"),
    "list_node": (".json", lambda t: _edit(t, 1, _set_node([1])), "node id"),
    "float_node": (".json", lambda t: _edit(t, -1, _set_node(1.5)), "node id"),
    "bool_node": (".json", lambda t: _edit(t, -1, _set_node(True)), "node id"),
    "non_finite_rate": (".json", _non_finite_rate, "invalid rate"),
    "gzip_cut": (".json.gz", lambda t: _half(gzip.compress(t.encode())), None),
}

MALFORMED = [
    (fmt, corruption)
    for fmt in FORMATS
    for corruption in CORRUPTIONS
    if not (fmt == "schedule" and corruption == "non_finite_rate")  # no rates
]


@pytest.mark.parametrize("fmt", FORMATS)
def test_format_is_pinned(tmp_path, fmt):
    """Each format's bytes, written from a small instance, are fixed."""
    write, load, _error, expected = FORMATS[fmt]
    path = tmp_path / "pinned.json"
    write(path)
    assert path.read_text(encoding="utf-8") == expected
    load(path)


@pytest.mark.parametrize("fmt,corruption", MALFORMED)
def test_malformed_file_raises_format_error(tmp_path, fmt, corruption):
    """Every malformed copy of every format raises the format's error class
    (a :class:`~repro.errors.ReproError`) naming the file — never a raw
    JSON/Unicode/gzip/Key/Type error, and never a silent load."""
    write, load, error, _expected = FORMATS[fmt]
    clean = tmp_path / "clean.json"
    write(clean)
    suffix, corrupt, fragment = CORRUPTIONS[corruption]
    path = tmp_path / f"bad{suffix}"
    path.write_bytes(corrupt(clean.read_text(encoding="utf-8")))
    with pytest.raises(error, match=fragment) as info:
        load(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
def test_failed_write_leaves_previous_file(tmp_path, suffix):
    """A write that dies midway leaves the old file byte-identical and no
    temporary file behind."""
    path = tmp_path / f"s{suffix}"
    save_schedule(small_schedule(), path)
    before = path.read_bytes()

    def records():
        yield {"kind": "push", "edge": [7, 8]}
        raise RuntimeError("writer died")

    with pytest.raises(RuntimeError, match="writer died"):
        serialize._write(path, {"kind": "header"}, records())
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
