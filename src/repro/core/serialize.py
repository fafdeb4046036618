"""Persistence for request schedules, workloads, and churn artifacts.

A request schedule is an operational artifact: it is computed offline
(possibly on a Hadoop cluster, as in the paper) and then *deployed* to the
application servers, which keep the per-user push/pull sets in memory.
This module defines the interchange format — line-oriented JSON with an
explicit version header — plus save/load round-trips for schedules,
workloads, churn-event scripts, and delta-maintenance state, so schedules
can be computed by one process (or the ``repro-schedule`` CLI) and served,
updated, and re-served by another.

Format (one JSON object per line, ``.gz`` transparently supported)::

    {"kind": "header", "format": "repro-schedule", "version": 1, ...}
    {"kind": "push", "edge": [u, v]}
    {"kind": "pull", "edge": [u, v]}
    {"kind": "cover", "edge": [u, v], "hub": w}

Churn scripts (``repro-churn``) store one event per line; delta state
(``repro-delta``) stores the full warm-session snapshot — live edges,
current rates, the maintained schedule, and the pending residue — so a
:class:`~repro.core.delta.DeltaScheduler` round-trips across processes
mid-stream.

Node ids must be JSON-representable (ints or strings); tuples round-trip
as lists, so integer-id graphs — the generators' output — are exact.
"""

from __future__ import annotations

import gzip
import io
import json
from pathlib import Path

from repro.core.schedule import RequestSchedule
from repro.errors import ScheduleError, WorkloadError
from repro.graph.digraph import SocialGraph
from repro.workload.churn import ChurnEvent
from repro.workload.rates import Workload

SCHEDULE_FORMAT = "repro-schedule"
WORKLOAD_FORMAT = "repro-workload"
CHURN_FORMAT = "repro-churn"
DELTA_FORMAT = "repro-delta"
FORMAT_VERSION = 1


def _open_text(path: str | Path, mode: str) -> io.TextIOBase:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")  # type: ignore[return-value]
    return open(path, mode, encoding="utf-8")


def _edge_key(edge) -> list:
    return [edge[0], edge[1]]


def _edge_from(value) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ScheduleError(f"malformed edge record {value!r}")
    return (value[0], value[1])


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def save_schedule(
    schedule: RequestSchedule,
    path: str | Path,
    metadata: dict | None = None,
) -> int:
    """Write ``schedule`` to ``path``; returns the number of records.

    ``metadata`` (e.g. the generating algorithm and graph fingerprint) is
    stored in the header and returned by :func:`load_schedule`.
    """
    records = 0
    with _open_text(path, "w") as handle:
        header = {
            "kind": "header",
            "format": SCHEDULE_FORMAT,
            "version": FORMAT_VERSION,
            "push_edges": len(schedule.push),
            "pull_edges": len(schedule.pull),
            "hub_covers": len(schedule.hub_cover),
            "metadata": metadata or {},
        }
        handle.write(json.dumps(header) + "\n")
        for edge in sorted(schedule.push, key=repr):
            handle.write(json.dumps({"kind": "push", "edge": _edge_key(edge)}) + "\n")
            records += 1
        for edge in sorted(schedule.pull, key=repr):
            handle.write(json.dumps({"kind": "pull", "edge": _edge_key(edge)}) + "\n")
            records += 1
        for edge, hub in sorted(schedule.hub_cover.items(), key=repr):
            handle.write(
                json.dumps({"kind": "cover", "edge": _edge_key(edge), "hub": hub})
                + "\n"
            )
            records += 1
    return records


def load_schedule(path: str | Path) -> tuple[RequestSchedule, dict]:
    """Read a schedule file; returns ``(schedule, header_metadata)``.

    Raises :class:`ScheduleError` on a missing/mismatched header, an
    unknown record kind, or record counts that disagree with the header
    (truncated file detection).
    """
    schedule = RequestSchedule()
    with _open_text(path, "r") as handle:
        first = handle.readline()
        if not first:
            raise ScheduleError(f"{path}: empty schedule file")
        header = json.loads(first)
        if header.get("format") != SCHEDULE_FORMAT:
            raise ScheduleError(
                f"{path}: not a {SCHEDULE_FORMAT} file (format={header.get('format')!r})"
            )
        if header.get("version") != FORMAT_VERSION:
            raise ScheduleError(
                f"{path}: unsupported version {header.get('version')!r}"
            )
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind == "push":
                schedule.add_push(_edge_from(record["edge"]))
            elif kind == "pull":
                schedule.add_pull(_edge_from(record["edge"]))
            elif kind == "cover":
                schedule.cover_via_hub(_edge_from(record["edge"]), record["hub"])
            else:
                raise ScheduleError(f"{path}:{lineno}: unknown record kind {kind!r}")
    if (
        len(schedule.push) != header["push_edges"]
        or len(schedule.pull) != header["pull_edges"]
        or len(schedule.hub_cover) != header["hub_covers"]
    ):
        raise ScheduleError(f"{path}: record counts disagree with header (truncated?)")
    return schedule, header.get("metadata", {})


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def save_workload(workload: Workload, path: str | Path) -> int:
    """Write per-user rates as line JSON; returns the number of users."""
    users = sorted(workload.users, key=repr)
    with _open_text(path, "w") as handle:
        header = {
            "kind": "header",
            "format": WORKLOAD_FORMAT,
            "version": FORMAT_VERSION,
            "users": len(users),
        }
        handle.write(json.dumps(header) + "\n")
        for user in users:
            handle.write(
                json.dumps(
                    {
                        "kind": "rates",
                        "user": user,
                        "rp": workload.rp(user),
                        "rc": workload.rc(user),
                    }
                )
                + "\n"
            )
    return len(users)


def load_workload(path: str | Path) -> Workload:
    """Read a workload file written by :func:`save_workload`."""
    production: dict = {}
    consumption: dict = {}
    with _open_text(path, "r") as handle:
        first = handle.readline()
        if not first:
            raise WorkloadError(f"{path}: empty workload file")
        header = json.loads(first)
        if header.get("format") != WORKLOAD_FORMAT:
            raise WorkloadError(
                f"{path}: not a {WORKLOAD_FORMAT} file (format={header.get('format')!r})"
            )
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") != "rates":
                raise WorkloadError(f"{path}: unknown record kind {record.get('kind')!r}")
            production[record["user"]] = float(record["rp"])
            consumption[record["user"]] = float(record["rc"])
    if len(production) != header["users"]:
        raise WorkloadError(f"{path}: user count disagrees with header (truncated?)")
    return Workload(production=production, consumption=consumption)


# ----------------------------------------------------------------------
# Churn-event scripts
# ----------------------------------------------------------------------
def save_events(events, path: str | Path, metadata: dict | None = None) -> int:
    """Write a churn script as line JSON; returns the event count.

    Events are written in stream order (order is semantic: removals name
    edges earlier adds created).
    """
    events = list(events)
    with _open_text(path, "w") as handle:
        header = {
            "kind": "header",
            "format": CHURN_FORMAT,
            "version": FORMAT_VERSION,
            "events": len(events),
            "metadata": metadata or {},
        }
        handle.write(json.dumps(header) + "\n")
        for event in events:
            if event.kind == "rate":
                record = {
                    "kind": "rate",
                    "user": event.user,
                    "rp": event.rp,
                    "rc": event.rc,
                }
            else:
                record = {"kind": event.kind, "edge": _edge_key(event.edge)}
            handle.write(json.dumps(record) + "\n")
    return len(events)


def load_events(path: str | Path) -> tuple[list[ChurnEvent], dict]:
    """Read a churn script; returns ``(events, header_metadata)``."""
    events: list[ChurnEvent] = []
    with _open_text(path, "r") as handle:
        first = handle.readline()
        if not first:
            raise WorkloadError(f"{path}: empty churn file")
        header = json.loads(first)
        if header.get("format") != CHURN_FORMAT:
            raise WorkloadError(
                f"{path}: not a {CHURN_FORMAT} file (format={header.get('format')!r})"
            )
        if header.get("version") != FORMAT_VERSION:
            raise WorkloadError(
                f"{path}: unsupported version {header.get('version')!r}"
            )
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind in ("add", "remove"):
                events.append(
                    ChurnEvent(kind=kind, edge=_edge_from(record["edge"]))
                )
            elif kind == "rate":
                events.append(
                    ChurnEvent(
                        kind="rate",
                        user=record["user"],
                        rp=float(record["rp"]),
                        rc=float(record["rc"]),
                    )
                )
            else:
                raise WorkloadError(
                    f"{path}:{lineno}: unknown record kind {kind!r}"
                )
    if len(events) != header["events"]:
        raise WorkloadError(
            f"{path}: event count disagrees with header (truncated?)"
        )
    return events, header.get("metadata", {})


# ----------------------------------------------------------------------
# Delta-maintenance state
# ----------------------------------------------------------------------
def save_delta_state(delta, path: str | Path, metadata: dict | None = None) -> int:
    """Snapshot a :class:`~repro.core.delta.DeltaScheduler`; returns records.

    Persists everything the next process needs to continue the stream:
    the live edge set, the current (possibly churn-drifted) rates, the
    maintained schedule, and the residue still awaiting repair.  The warm
    flow preflows themselves are per-process caches and are rebuilt on
    demand after :func:`load_delta_state`.
    """
    records = 0
    edges = sorted(delta.graph.edges(), key=repr)
    users = sorted(delta.workload.users, key=repr)
    residue = sorted(delta.residue(), key=repr)
    schedule = delta.schedule
    with _open_text(path, "w") as handle:
        header = {
            "kind": "header",
            "format": DELTA_FORMAT,
            "version": FORMAT_VERSION,
            "edges": len(edges),
            "users": len(users),
            "push_edges": len(schedule.push),
            "pull_edges": len(schedule.pull),
            "hub_covers": len(schedule.hub_cover),
            "residue": len(residue),
            "metadata": metadata or {},
        }
        handle.write(json.dumps(header) + "\n")
        for edge in edges:
            handle.write(json.dumps({"kind": "edge", "edge": _edge_key(edge)}) + "\n")
            records += 1
        for user in users:
            handle.write(
                json.dumps(
                    {
                        "kind": "rates",
                        "user": user,
                        "rp": delta.workload.rp(user),
                        "rc": delta.workload.rc(user),
                    }
                )
                + "\n"
            )
            records += 1
        for edge in sorted(schedule.push, key=repr):
            handle.write(json.dumps({"kind": "push", "edge": _edge_key(edge)}) + "\n")
            records += 1
        for edge in sorted(schedule.pull, key=repr):
            handle.write(json.dumps({"kind": "pull", "edge": _edge_key(edge)}) + "\n")
            records += 1
        for edge, hub in sorted(schedule.hub_cover.items(), key=repr):
            handle.write(
                json.dumps({"kind": "cover", "edge": _edge_key(edge), "hub": hub})
                + "\n"
            )
            records += 1
        for edge in residue:
            handle.write(
                json.dumps({"kind": "residue", "edge": _edge_key(edge)}) + "\n"
            )
            records += 1
    return records


def load_delta_state(path: str | Path, **options):
    """Rebuild a :class:`~repro.core.delta.DeltaScheduler` from a snapshot.

    ``options`` (``oracle=``, ``method=``, …) forward to the
    scheduler constructor, so the resuming process picks its own oracle
    stack; returns ``(delta, header_metadata)``.
    """
    from repro.core.delta import DeltaScheduler

    graph = SocialGraph()
    production: dict = {}
    consumption: dict = {}
    schedule = RequestSchedule()
    residue: list = []
    with _open_text(path, "r") as handle:
        first = handle.readline()
        if not first:
            raise ScheduleError(f"{path}: empty delta-state file")
        header = json.loads(first)
        if header.get("format") != DELTA_FORMAT:
            raise ScheduleError(
                f"{path}: not a {DELTA_FORMAT} file (format={header.get('format')!r})"
            )
        if header.get("version") != FORMAT_VERSION:
            raise ScheduleError(
                f"{path}: unsupported version {header.get('version')!r}"
            )
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind == "edge":
                graph.add_edge(*_edge_from(record["edge"]))
            elif kind == "rates":
                production[record["user"]] = float(record["rp"])
                consumption[record["user"]] = float(record["rc"])
            elif kind == "push":
                schedule.add_push(_edge_from(record["edge"]))
            elif kind == "pull":
                schedule.add_pull(_edge_from(record["edge"]))
            elif kind == "cover":
                schedule.cover_via_hub(_edge_from(record["edge"]), record["hub"])
            elif kind == "residue":
                residue.append(_edge_from(record["edge"]))
            else:
                raise ScheduleError(
                    f"{path}:{lineno}: unknown record kind {kind!r}"
                )
    counts = (
        len(list(graph.edges())),
        len(production),
        len(schedule.push),
        len(schedule.pull),
        len(schedule.hub_cover),
        len(residue),
    )
    expected = tuple(
        header[key]
        for key in ("edges", "users", "push_edges", "pull_edges", "hub_covers", "residue")
    )
    if counts != expected:
        raise ScheduleError(
            f"{path}: record counts disagree with header (truncated?)"
        )
    delta = DeltaScheduler(
        graph,
        Workload(production=production, consumption=consumption),
        schedule,
        **options,
    )
    delta.restore_residue(residue)
    return delta, header.get("metadata", {})
