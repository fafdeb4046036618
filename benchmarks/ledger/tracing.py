"""Span tracer of the traced run: wrappers installed from outside ``src/``.

The wrappers are installed *by name on the importing module* (a function
imported with ``from x import f`` is looked up in the importer's
namespace, so that is where the wrapper must sit) and removed again when
the traced pass ends.  A target that no longer resolves is recorded in
:attr:`Tracer.missing` — every metric fed by its span then reads ``None``
— and the run carries on: a perf PR may not edit the benchmark, so the
benchmark must survive the PR's renames.

Self time of a span is its duration minus the part its child spans cover;
totals are kept per ``(phase, span name)`` so a metric can be scoped to the
measured phase (``hubgraph``/``densest``/``flow`` are, which keeps the
set-up scheduler run of ``churn_delta`` out of the event loop's numbers).
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

#: (module, attribute path, span name, hook) — the program's internal calls.
#: Functions the benchmark calls itself get their span at the call site.
PATCH_TARGETS: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.core.chitchat", "ChitchatScheduler.__init__", "chitchat.init", None),
    ("repro.core.chitchat", "ChitchatScheduler.run", "chitchat.run", "scheduler_stats"),
    ("repro.core.chitchat", "build_hub_graph", "hubgraph.build", "hub_elements"),
    ("repro.core.chitchat", "densest_subgraph", "densest.peel", None),
    ("repro.core.delta", "build_hub_graph", "hubgraph.build", "hub_elements"),
    ("repro.core.delta", "densest_subgraph", "densest.peel", None),
    ("repro.core.delta", "DeltaScheduler.apply", "delta.apply", None),
    ("repro.core.delta", "DeltaScheduler.repair", "delta.repair", None),
    ("repro.flow.exact_oracle", "ExactOracle.__call__", "flow.oracle", None),
    ("repro.flow.exact_oracle", "MultiHubSession.__call__", "flow.oracle", None),
    ("repro.flow.parametric", "ParametricDensest.solve", "flow.parametric", None),
    ("repro.flow.parametric", "ParametricDensest.begin", "flow.parametric", None),
    ("repro.flow.maxflow", "FlowNetwork.freeze", "flow.freeze", None),
    ("repro.flow.batched_solve", "BatchedNetwork.__init__", "flow.freeze", None),
    ("repro.flow.maxflow", "FlowNetwork.solve", "flow.kernel", None),
    ("repro.flow.batched_solve", "BatchedNetwork.solve", "flow.kernel", None),
    ("repro.shard.worker", "attach_csr", "graph.slab_attach", None),
    ("repro.shard.worker", "attach_arrays", "graph.slab_attach", None),
    ("repro.workload.ldbc", "ldbc_graph", "graph.generate", None),
    ("repro.workload.ldbc", "ldbc_workload", "workload.rates", None),
)

#: ``scheduler.stats`` fields summed over every scheduler run in the pass.
SCHEDULER_COUNTERS = (
    "oracle_calls",
    "oracle_early_exits",
    "oracle_calls_saved",
    "hub_selections",
    "singleton_selections",
    "kernel_invocations",
    "flow_passes",
    "warm_solves",
    "preflow_repairs",
    "batched_solves",
    "batched_blocks",
)

PHASES = ("setup", "measure", "verify")


def warn(message: str) -> None:
    print(f"ledger: warning: {message}", file=sys.stderr)


def resolve(module: str, attribute: str):
    """``module.attribute`` (dotted; empty = the module), or ``None`` with a warning."""
    try:
        target = importlib.import_module(module)
        for part in filter(None, attribute.split(".")):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        warn(f"{module}.{attribute} does not resolve ({exc}); its metrics read null")
        return None
    return target


class NullTracer:
    """What untraced runs pass around: call sites cost one extra call."""

    request = 0  # assigned like ``Tracer.request``; never read

    def call(self, _name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, _name):
        yield

    @contextmanager
    def phase(self, _name):
        yield


class Tracer:
    """In-memory spans plus per-(phase, name) count / total / self time."""

    def __init__(self, targets=PATCH_TARGETS) -> None:
        self.targets = targets
        #: (name, start, end, parent index or -1, request id)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.totals: dict[tuple[str, str], list] = {}
        #: span name -> targets that did not resolve
        self.missing: dict[str, list[str]] = {}
        #: (phase, counter) -> sum over scheduler runs; ``None`` = unreadable
        self.counters: dict[tuple[str, str], float | None] = {}
        self.current_phase = "setup"
        #: what the spans being recorded belong to: the churn event's index,
        #: the shard task's id, 0 for a single schedule
        self.request = 0
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _begin(self, name: str) -> list:
        frame = [name, len(self.spans), 0.0, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def _end(self, frame: list) -> None:
        end = perf_counter()
        name, index, child, start = frame
        stack = self._stack
        stack.pop()
        duration = end - start
        parent = -1
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][1]
        self.spans[index] = (name, start, end, parent, self.request)
        key = (self.current_phase, name)
        total = self.totals.get(key)
        if total is None:
            self.totals[key] = [1, duration, duration - child]
        else:
            total[0] += 1
            total[1] += duration
            total[2] += duration - child

    @contextmanager
    def span(self, name: str):
        frame = self._begin(name)
        try:
            yield
        finally:
            self._end(frame)

    @contextmanager
    def phase(self, name: str):
        """A ``ledger.<phase>`` span; spans closed inside are filed under it."""
        with self.span(f"ledger.{name}"):
            previous, self.current_phase = self.current_phase, name
            try:
                yield
            finally:
                self.current_phase = previous

    def call(self, name: str, fn, *args, **kwargs):
        frame = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(frame)

    def wrap(self, name: str, fn, hook=None):
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(frame)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- hooks ---------------------------------------------------------
    def _hook_scheduler_stats(self, args, _result) -> None:
        stats = getattr(args[0], "stats", None)
        for counter in SCHEDULER_COUNTERS:
            key = (self.current_phase, counter)
            value = getattr(stats, counter, None)
            if value is None or self.counters.get(key, 0) is None:
                self.counters[key] = None
            else:
                self.counters[key] = self.counters.get(key, 0) + value

    def _hook_hub_elements(self, _args, hub_graph) -> None:
        key = (self.current_phase, "hub_elements")
        try:
            size = hub_graph.num_vertices + len(hub_graph.cross_edges)
        except AttributeError:
            self.counters[key] = None
            return
        if self.counters.get(key, 0) is not None:
            self.counters[key] = self.counters.get(key, 0) + size

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        for module, attribute, name, hook in self.targets:
            owner_path, _, leaf = attribute.rpartition(".")
            owner = resolve(module, owner_path)
            original = None if owner is None else vars(owner).get(leaf)
            if original is None or isinstance(original, (classmethod, staticmethod)):
                if owner is not None:
                    warn(f"{module}.{attribute} is not a plain function or method; its metrics read null")
                self.mark_missing(name, f"{module}.{attribute}")
                continue
            wrapper = self.wrap(
                name, original, getattr(self, f"_hook_{hook}") if hook else None
            )
            setattr(owner, leaf, wrapper)
            self._installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def mark_missing(self, name: str, target: str) -> None:
        self.missing.setdefault(name, []).append(target)

    # -- read-out ------------------------------------------------------
    def stat(self, name: str, field: str, phases=PHASES) -> float | None:
        """Sum of ``count`` / ``total`` / ``self`` of span ``name`` over ``phases``."""
        if name in self.missing:
            return None
        index = ("count", "total", "self").index(field)
        return sum(
            self.totals[(phase, name)][index]
            for phase in phases
            if (phase, name) in self.totals
        )

    def counter(self, counter: str, phases=("setup", "measure")) -> float | None:
        values = [self.counters.get((phase, counter), 0) for phase in phases]
        return None if any(v is None for v in values) else sum(values)

    def summary(self) -> dict:
        """``{phase: {span: {count, total_s, self_s}}}`` for the document."""
        out: dict = {}
        for (phase, name), (count, total, own) in sorted(self.totals.items()):
            out.setdefault(phase, {})[name] = {
                "count": count,
                "total_s": total,
                "self_s": own,
            }
        return out
