"""Hierarchical metrics registry and backwards-compatible stats views.

The registry is a tree of named nodes (``scheduler`` → ``oracle`` →
``flow`` → ``arena``) holding three cell kinds:

* :class:`Counter` — monotonic event counts (``inc``),
* :class:`Timer` — accumulated wall seconds + entry count (``add``,
  or ``with timer.time():`` / a standalone :class:`Stopwatch`),
* :class:`Gauge` — last-written values (``set``).

:meth:`MetricNode.snapshot` exports the whole subtree as plain nested
dicts for JSON emission.  Cell creation is locked and idempotent; the
bumps themselves are plain attribute arithmetic (no lock), matching the
pre-existing dataclass counters' cost and thread model.

:class:`StatsView` keeps the historical flat stats dataclasses
(``FlowStats``, ``ChitchatStats``, ``DeltaStats``, ``ClientCounters``)
alive as *views* over registry cells: each declared field becomes a
property bound to one cell, so ``stats.kernel_invocations += 1`` and the
registry's ``snapshot()`` always agree, and two views sharing a node
share the underlying cells (the scheduler's end-of-run "copy the oracle
counters" assignments become harmless self-assignments).
"""

from __future__ import annotations

import threading
from time import perf_counter

__all__ = [
    "Counter",
    "Timer",
    "Gauge",
    "Stopwatch",
    "MetricNode",
    "MetricsRegistry",
    "StatsView",
    "global_registry",
]


class Counter:
    """A monotonic event counter cell."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins value cell (costs, ratios, high-water marks)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Timer:
    """Accumulated wall-clock seconds plus the number of timed entries."""

    __slots__ = ("seconds", "entries")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.entries = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.entries += 1

    def time(self) -> "Stopwatch":
        """A :class:`Stopwatch` feeding this timer on stop/exit."""
        return Stopwatch(self)


class Stopwatch:
    """One ``perf_counter()`` measurement, context-manager or linear.

    Replaces the hand-rolled ``t0 = perf_counter(); ...; dt =
    perf_counter() - t0`` pairs::

        with Stopwatch() as watch:
            work()
        wall = watch.seconds

    or linearly (``watch = Stopwatch().start(); ...; watch.stop()``).
    When constructed via :meth:`Timer.time` the measured interval is
    added to the owning timer on :meth:`stop`.
    """

    __slots__ = ("seconds", "_timer", "_started")

    def __init__(self, timer: Timer | None = None) -> None:
        self.seconds = 0.0
        self._timer = timer
        self._started: float | None = None

    def start(self) -> "Stopwatch":
        self._started = perf_counter()
        return self

    def stop(self) -> float:
        if self._started is None:
            raise RuntimeError("Stopwatch.stop() before start()")
        self.seconds = perf_counter() - self._started
        self._started = None
        if self._timer is not None:
            self._timer.add(self.seconds)
        return self.seconds

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.stop()
        return False


_KINDS = {"counter": Counter, "timer": Timer, "gauge": Gauge}


class MetricNode:
    """One node of the registry tree: named cells plus child nodes.

    ``child``/``node`` and the cell accessors are create-on-first-use
    and idempotent; asking for an existing cell under a different kind
    raises, so two subsystems cannot silently alias one name.
    """

    __slots__ = ("name", "_lock", "_children", "_cells")

    def __init__(self, name: str = "", _lock: threading.Lock | None = None) -> None:
        self.name = name
        self._lock = _lock if _lock is not None else threading.Lock()
        self._children: dict[str, MetricNode] = {}
        self._cells: dict[str, object] = {}

    def child(self, name: str) -> "MetricNode":
        node = self._children.get(name)
        if node is None:
            with self._lock:
                node = self._children.get(name)
                if node is None:
                    node = MetricNode(name, _lock=self._lock)
                    self._children[name] = node
        return node

    def node(self, *path: str) -> "MetricNode":
        """Descend (creating as needed) through ``path`` child names."""
        node = self
        for name in path:
            node = node.child(name)
        return node

    def _cell(self, name: str, kind: str):
        cell = self._cells.get(name)
        if cell is None:
            with self._lock:
                cell = self._cells.get(name)
                if cell is None:
                    cell = _KINDS[kind]()
                    self._cells[name] = cell
        if not isinstance(cell, _KINDS[kind]):
            raise TypeError(
                f"metric {self.name!r}/{name!r} already registered as "
                f"{type(cell).__name__}, not {kind}"
            )
        return cell

    def counter(self, name: str) -> Counter:
        return self._cell(name, "counter")

    def timer(self, name: str) -> Timer:
        return self._cell(name, "timer")

    def gauge(self, name: str) -> Gauge:
        return self._cell(name, "gauge")

    def snapshot(self) -> dict:
        """The subtree as nested plain dicts (timers → seconds/entries)."""
        out: dict = {}
        with self._lock:
            cells = dict(self._cells)
            children = dict(self._children)
        for name, cell in sorted(cells.items()):
            if isinstance(cell, Timer):
                out[name] = {"seconds": cell.seconds, "entries": cell.entries}
            else:
                out[name] = cell.value
        for name, node in sorted(children.items()):
            out[name] = node.snapshot()
        return out

    def clear(self) -> None:
        """Drop all cells and children (used by tests on the global tree)."""
        with self._lock:
            self._cells.clear()
            self._children.clear()


class MetricsRegistry(MetricNode):
    """Root of a metrics tree; one per scheduler run (or process-global)."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)


#: Process-global registry for sites with no per-run registry in reach
#: (the default registry of :func:`repro.obs.export.json_summary`).
_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _REGISTRY


def _view_property(field: str, kind: str) -> property:
    if kind == "timer":

        def getter(self):
            return self._cells[field].seconds

        def setter(self, value):
            self._cells[field].seconds = value

    else:

        def getter(self):
            return self._cells[field].value

        def setter(self, value):
            self._cells[field].value = value

    return property(getter, setter, doc=f"view over the {kind} cell {field!r}")


class StatsView:
    """Base for dataclass-shaped views over registry cells.

    Subclasses declare ``_FIELDS`` mapping field name → ``(path, kind)``
    where ``path`` is the cell's location *including the leaf cell name*
    relative to the view's node, and ``kind`` is ``"counter"``,
    ``"timer"`` (exposed in seconds) or ``"gauge"``; plain-Python list
    fields (logs) go in ``_LIST_FIELDS``.  Construction binds every
    field to its cell under ``node`` (a private tree when ``node`` is
    omitted, preserving the old standalone-dataclass behaviour), and
    keyword overrides mirror dataclass field defaults.
    """

    _FIELDS: dict[str, tuple[tuple[str, ...], str]] = {}
    _LIST_FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        for field, (_path, kind) in cls.__dict__.get("_FIELDS", {}).items():
            setattr(cls, field, _view_property(field, kind))

    def __init__(self, node: MetricNode | None = None, **overrides: object) -> None:
        if node is None:
            node = MetricNode(type(self).__name__)
        self._node = node
        self._cells = {}
        for field, (path, kind) in self._FIELDS.items():
            *parents, leaf = path
            target = node.node(*parents) if parents else node
            self._cells[field] = getattr(target, kind)(leaf)
        for field in self._LIST_FIELDS:
            setattr(self, field, [])
        for field, value in overrides.items():
            if field not in self._FIELDS and field not in self._LIST_FIELDS:
                raise TypeError(
                    f"{type(self).__name__} has no field {field!r}"
                )
            setattr(self, field, value)

    @property
    def metrics_node(self) -> MetricNode:
        """The registry node this view's cells live under."""
        return self._node

    def _astuple(self) -> tuple:
        fields = list(self._FIELDS) + list(self._LIST_FIELDS)
        return tuple(getattr(self, field) for field in fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        fields = list(self._FIELDS) + list(self._LIST_FIELDS)
        body = ", ".join(f"{field}={getattr(self, field)!r}" for field in fields)
        return f"{type(self).__name__}({body})"
