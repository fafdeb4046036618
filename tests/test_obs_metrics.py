"""Metrics registry: cells, the node tree, stopwatches, stats views."""

from __future__ import annotations

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricNode,
    MetricsRegistry,
    StatsView,
    Stopwatch,
    Timer,
    global_registry,
)


class TestCells:
    def test_counter(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_last_write_wins(self):
        gauge = Gauge()
        gauge.set(3.5)
        gauge.set(1.25)
        assert gauge.value == 1.25

    def test_timer_accumulates_with_entries(self):
        timer = Timer()
        timer.add(0.5)
        timer.add(0.25)
        assert timer.seconds == 0.75
        assert timer.entries == 2

    def test_timer_time_feeds_stopwatch(self):
        timer = Timer()
        with timer.time():
            pass
        assert timer.entries == 1
        assert timer.seconds > 0


class TestStopwatch:
    def test_context_manager(self):
        with Stopwatch() as watch:
            pass
        assert watch.seconds > 0

    def test_linear_start_stop(self):
        watch = Stopwatch().start()
        elapsed = watch.stop()
        assert elapsed == watch.seconds > 0

    def test_stop_before_start_raises(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()


class TestMetricNode:
    def test_node_path_is_idempotent(self):
        root = MetricsRegistry()
        deep = root.node("scheduler", "oracle", "flow")
        assert deep is root.node("scheduler", "oracle", "flow")
        assert deep is root.child("scheduler").child("oracle").child("flow")

    def test_cells_create_on_first_use(self):
        node = MetricNode("n")
        assert node.counter("calls") is node.counter("calls")
        assert node.timer("wall") is node.timer("wall")
        assert node.gauge("cost") is node.gauge("cost")

    def test_kind_collision_raises(self):
        node = MetricNode("n")
        node.counter("calls")
        with pytest.raises(TypeError, match="already registered"):
            node.timer("calls")

    def test_snapshot_nested_and_sorted(self):
        root = MetricsRegistry()
        root.counter("b_calls").inc(2)
        root.gauge("a_cost").set(1.5)
        root.node("sub").timer("wall").add(0.5)
        snap = root.snapshot()
        assert snap == {
            "a_cost": 1.5,
            "b_calls": 2,
            "sub": {"wall": {"seconds": 0.5, "entries": 1}},
        }
        assert list(snap) == ["a_cost", "b_calls", "sub"]

    def test_clear_drops_cells_and_children(self):
        root = MetricsRegistry()
        root.counter("calls").inc()
        root.node("sub").counter("x")
        root.clear()
        assert root.snapshot() == {}

    def test_global_registry_is_one_object(self):
        assert global_registry() is global_registry()


class _View(StatsView):
    _FIELDS = {
        "calls": (("calls",), "counter"),
        "flow_calls": (("flow", "calls"), "counter"),
        "wall_seconds": (("wall_seconds",), "timer"),
        "cost": (("cost",), "gauge"),
    }
    _LIST_FIELDS = ("log",)


class TestStatsView:
    def test_standalone_defaults_and_arithmetic(self):
        view = _View()
        assert view.calls == 0 and view.wall_seconds == 0.0
        view.calls += 3
        view.wall_seconds += 0.5
        view.cost = 12.5
        view.log.append("entry")
        assert view.calls == 3
        assert view.wall_seconds == 0.5
        assert view.cost == 12.5

    def test_overrides_like_dataclass_kwargs(self):
        view = _View(calls=7, log=["a"])
        assert view.calls == 7 and view.log == ["a"]

    def test_unknown_override_raises(self):
        with pytest.raises(TypeError, match="no field"):
            _View(unknown=1)

    def test_bound_view_writes_registry_cells(self):
        registry = MetricsRegistry()
        view = _View(node=registry.node("scheduler"))
        view.calls += 2
        view.flow_calls += 5
        snap = registry.snapshot()
        assert snap["scheduler"]["calls"] == 2
        assert snap["scheduler"]["flow"]["calls"] == 5
        assert view.metrics_node is registry.node("scheduler")

    def test_two_views_on_one_node_share_cells(self):
        registry = MetricsRegistry()
        a = _View(node=registry.node("s"))
        b = _View(node=registry.node("s"))
        a.calls += 4
        assert b.calls == 4
        b.calls = a.calls  # end-of-run copy: harmless self-assign
        assert a.calls == 4

    def test_eq_and_repr(self):
        assert _View(calls=1) == _View(calls=1)
        assert _View(calls=1) != _View(calls=2)
        assert _View().__eq__(object()) is NotImplemented
        assert "calls=1" in repr(_View(calls=1))

