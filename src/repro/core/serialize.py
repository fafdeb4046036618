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

The four formats share that container; each header counts its records
(keys below) so a file cut short is detected, and all but the workload's
carry a ``metadata`` object:

* ``repro-schedule``: ``push_edges``, ``pull_edges``, ``hub_covers``.
* ``repro-workload``: ``users`` (``rates`` records: user, rp, rc).
* ``repro-churn``: ``events`` (``add``/``remove``/``rate``, stream order).
* ``repro-delta``: a :class:`~repro.core.delta.DeltaScheduler`'s warm
  state, so it resumes mid-stream in another process — ``edges`` (live
  edges), ``users`` (rates), the three schedule counts, ``residue``
  (edges awaiting repair).

Node ids must be JSON-representable (ints or strings); tuples round-trip
as lists, so integer-id graphs — the generators' output — are exact.

Errors: a file that is empty, of another format or version, not UTF-8,
JSON or gzip, or holds a record that is not an object, lacks a field,
names an unknown kind or a node id that is not an int or a string, or
counts that disagree with its header, raises :class:`ScheduleError`
(schedule, delta) or :class:`WorkloadError` (workload, churn) naming the
file, and the line at fault; an error from a domain constructor (a
self-loop edge, an invalid churn rate) keeps its class and gains the
same prefix.  Writes
replace the target only once complete: a failed one leaves it intact.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import shutil
import tempfile
import zlib
from itertools import chain
from pathlib import Path

from repro.core.schedule import RequestSchedule
from repro.errors import ReproError, ScheduleError, WorkloadError
from repro.graph.digraph import SocialGraph
from repro.graph.io import _open_text
from repro.workload.churn import ChurnEvent
from repro.workload.rates import Workload

SCHEDULE_FORMAT = "repro-schedule"
WORKLOAD_FORMAT = "repro-workload"
CHURN_FORMAT = "repro-churn"
DELTA_FORMAT = "repro-delta"
FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# The container: one writer, one reader, one count check
# ----------------------------------------------------------------------
def _header(fmt: str, **fields) -> dict:
    return {"kind": "header", "format": fmt, "version": FORMAT_VERSION, **fields}


def _write(path: str | Path, header: dict, records) -> int:
    """Write ``header`` then ``records`` as JSON lines; returns the record count.

    The lines go to a same-named file (same suffix, so same gzip decision
    and gzip header) in a fresh directory beside ``path``, moved over
    ``path`` once complete; the directory is removed either way.
    """
    path = Path(path)
    staging = Path(tempfile.mkdtemp(prefix=f".{path.name}.", dir=path.parent))
    try:
        staged = staging / path.name
        count = 0
        with _open_text(staged, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for record in records:
                handle.write(json.dumps(record) + "\n")
                count += 1
        os.replace(staged, path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return count


def _read(path: str | Path, fmt: str, error: type, handlers: dict) -> dict:
    """Check ``path``'s header against ``fmt``, hand each record to
    ``handlers[record["kind"]]``, and return the header.  Every way the
    bytes fail to be a ``fmt`` file raises ``error`` naming ``path:line``.
    """
    lineno = 1
    try:
        with _open_text(path, "r") as handle:
            first = handle.readline()
            if not first:
                raise ValueError(f"empty {fmt} file")
            header = json.loads(first)
            found = header.get("format") if type(header) is dict else header
            if found != fmt:
                raise ValueError(f"not a {fmt} file (format={found!r})")
            if header.get("version") != FORMAT_VERSION:
                raise ValueError(f"unsupported version {header.get('version')!r}")
            for lineno, line in enumerate(handle, start=2):
                if line.isspace():
                    continue
                record = json.loads(line)
                if type(record) is not dict:
                    raise ValueError(f"record is not an object: {record!r}")
                handler = handlers.get(record.get("kind"))
                if handler is None:
                    raise ValueError(f"unknown record kind {record.get('kind')!r}")
                handler(record)
    except ReproError as exc:  # a domain constructor's: keep its class
        exc.args = (f"{path}:{lineno}: {exc}",)
        raise
    except KeyError as exc:
        raise error(f"{path}:{lineno}: record has no field {exc}") from exc
    except (ValueError, TypeError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise error(f"{path}:{lineno}: {exc}") from exc
    return header


def _check_counts(path: str | Path, header: dict, error: type, **counts) -> None:
    for key, count in counts.items():
        if header.get(key) != count:
            found = f"{key}={header.get(key)!r}, file has {count}"
            raise error(f"{path}: header says {found} (truncated?)")


def _node(value):
    if type(value) in (int, str):  # exact types: a JSON ``true`` is no node id
        return value
    raise ValueError(f"node id must be an int or a string, got {value!r}")


def _edge(value) -> tuple:
    if type(value) is not list or len(value) != 2:
        raise ValueError(f"malformed edge {value!r}")
    return (_node(value[0]), _node(value[1]))


def _rate(value) -> float:
    rate = float(value)
    if not 0 <= rate < math.inf:
        raise ValueError(f"invalid rate {value!r}")
    return rate


def _edge_record(kind: str, edge) -> dict:
    return {"kind": kind, "edge": [edge[0], edge[1]]}


# ----------------------------------------------------------------------
# Record encoders and decoders, shared by the formats that embed them
# ----------------------------------------------------------------------
def _schedule_counts(schedule: RequestSchedule) -> dict:
    push, pull, covers = len(schedule.push), len(schedule.pull), len(schedule.hub_cover)
    return {"push_edges": push, "pull_edges": pull, "hub_covers": covers}


def _delta_counts(edges: int, users: int, schedule: RequestSchedule, residue: int):
    schedule_counts = _schedule_counts(schedule)
    return {"edges": edges, "users": users, **schedule_counts, "residue": residue}


def _schedule_records(schedule: RequestSchedule):
    for edge in sorted(schedule.push, key=repr):
        yield _edge_record("push", edge)
    for edge in sorted(schedule.pull, key=repr):
        yield _edge_record("pull", edge)
    for edge, hub in sorted(schedule.hub_cover.items(), key=repr):
        yield {**_edge_record("cover", edge), "hub": hub}


def _schedule_decoders(schedule: RequestSchedule) -> dict:
    return {
        "push": lambda r: schedule.add_push(_edge(r["edge"])),
        "pull": lambda r: schedule.add_pull(_edge(r["edge"])),
        "cover": lambda r: schedule.cover_via_hub(_edge(r["edge"]), _node(r["hub"])),
    }


def _rates_records(workload: Workload):
    for user in sorted(workload.users, key=repr):
        rp, rc = workload.rp(user), workload.rc(user)
        yield {"kind": "rates", "user": user, "rp": rp, "rc": rc}


def _rates_decoders(production: dict, consumption: dict) -> dict:
    def rates(record: dict) -> None:
        user = _node(record["user"])
        production[user], consumption[user] = _rate(record["rp"]), _rate(record["rc"])

    return {"rates": rates}


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def save_schedule(
    schedule: RequestSchedule, path: str | Path, metadata: dict | None = None
) -> int:
    """Write ``schedule`` to ``path``; returns the number of records.

    ``metadata`` (e.g. the generating algorithm and graph fingerprint) is
    stored in the header and returned by :func:`load_schedule`.
    """
    counts = _schedule_counts(schedule)
    header = _header(SCHEDULE_FORMAT, **counts, metadata=metadata or {})
    return _write(path, header, _schedule_records(schedule))


def load_schedule(path: str | Path) -> tuple[RequestSchedule, dict]:
    """Read a schedule file; returns ``(schedule, header_metadata)``.

    Raises :class:`ScheduleError` on a malformed or truncated file.
    """
    schedule = RequestSchedule()
    header = _read(path, SCHEDULE_FORMAT, ScheduleError, _schedule_decoders(schedule))
    _check_counts(path, header, ScheduleError, **_schedule_counts(schedule))
    return schedule, header.get("metadata", {})


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def save_workload(workload: Workload, path: str | Path) -> int:
    """Write per-user rates as line JSON; returns the number of users."""
    header = _header(WORKLOAD_FORMAT, users=len(workload.users))
    return _write(path, header, _rates_records(workload))


def load_workload(path: str | Path) -> Workload:
    """Read a workload file written by :func:`save_workload`."""
    production, consumption = {}, {}
    decoders = _rates_decoders(production, consumption)
    header = _read(path, WORKLOAD_FORMAT, WorkloadError, decoders)
    _check_counts(path, header, WorkloadError, users=len(production))
    return Workload(production=production, consumption=consumption)


# ----------------------------------------------------------------------
# Churn-event scripts
# ----------------------------------------------------------------------
def _event_record(event: ChurnEvent) -> dict:
    if event.kind == "rate":
        return {"kind": "rate", "user": event.user, "rp": event.rp, "rc": event.rc}
    return _edge_record(event.kind, event.edge)


def save_events(events, path: str | Path, metadata: dict | None = None) -> int:
    """Write a churn script as line JSON; returns the event count.

    Events are written in stream order (order is semantic: removals name
    edges earlier adds created).
    """
    events = list(events)
    header = _header(CHURN_FORMAT, events=len(events), metadata=metadata or {})
    return _write(path, header, map(_event_record, events))


def load_events(path: str | Path) -> tuple[list[ChurnEvent], dict]:
    """Read a churn script; returns ``(events, header_metadata)``."""
    events: list[ChurnEvent] = []

    def edge_event(record: dict) -> None:
        events.append(ChurnEvent(kind=record["kind"], edge=_edge(record["edge"])))

    def rate_event(record: dict) -> None:
        user, rp, rc = _node(record["user"]), float(record["rp"]), float(record["rc"])
        events.append(ChurnEvent(kind="rate", user=user, rp=rp, rc=rc))

    handlers = {"add": edge_event, "remove": edge_event, "rate": rate_event}
    header = _read(path, CHURN_FORMAT, WorkloadError, handlers)
    _check_counts(path, header, WorkloadError, events=len(events))
    return events, header.get("metadata", {})


# ----------------------------------------------------------------------
# Delta-maintenance state
# ----------------------------------------------------------------------
def save_delta_state(delta, path: str | Path, metadata: dict | None = None) -> int:
    """Snapshot a :class:`~repro.core.delta.DeltaScheduler`; returns records.

    Persists what the next process needs to continue the stream: live
    edges, current (possibly churn-drifted) rates, the maintained schedule
    and the residue awaiting repair.  Warm flow preflows are per-process
    caches, rebuilt on demand after :func:`load_delta_state`.
    """
    edges = sorted(delta.graph.edges(), key=repr)
    residue = sorted(delta.residue(), key=repr)
    schedule, users = delta.schedule, len(delta.workload.users)
    counts = _delta_counts(len(edges), users, schedule, len(residue))
    header = _header(DELTA_FORMAT, **counts, metadata=metadata or {})

    records = chain(
        (_edge_record("edge", edge) for edge in edges),
        _rates_records(delta.workload),
        _schedule_records(schedule),
        (_edge_record("residue", edge) for edge in residue),
    )
    return _write(path, header, records)


def load_delta_state(path: str | Path, **options):
    """Rebuild a :class:`~repro.core.delta.DeltaScheduler` from a snapshot.

    ``options`` (``oracle=``, ``method=``, …) forward to the
    scheduler constructor, so the resuming process picks its own oracle
    stack; returns ``(delta, header_metadata)``.
    """
    from repro.core.delta import DeltaScheduler

    graph = SocialGraph()
    production, consumption = {}, {}
    schedule = RequestSchedule()
    residue: list = []
    handlers = {
        "edge": lambda r: graph.add_edge(*_edge(r["edge"])),
        "residue": lambda r: residue.append(_edge(r["edge"])),
        **_rates_decoders(production, consumption),
        **_schedule_decoders(schedule),
    }
    header = _read(path, DELTA_FORMAT, ScheduleError, handlers)
    counts = _delta_counts(graph.num_edges, len(production), schedule, len(residue))
    _check_counts(path, header, ScheduleError, **counts)
    workload = Workload(production=production, consumption=consumption)
    delta = DeltaScheduler(graph, workload, schedule, **options)
    delta.restore_residue(residue)
    return delta, header.get("metadata", {})
