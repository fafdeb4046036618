"""A finished CHITCHAT run keeps only its result.

When :meth:`ChitchatScheduler.run` completes, the scheduler drops its
working set — hub-graph cache, champions, heaps, neighbour sets, the
edge-id mirror, the uncovered set, the per-hub state maps, the private
dense instance and the exact oracle's flow networks — and keeps
``schedule``, ``stats``, ``metrics``, ``graph``, ``workload`` and the
certified bounds of the schedule's relays.  These tests pin that
contract: what a finished scheduler still holds, that a second ``run()``
is free and identical, that churn maintenance still wraps a released
run, and that the relays' bounds survive.

:class:`InspectBeforeRelease` is the hook for tests that need to look at
the working set itself: it keeps a reference to every released attribute.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

from repro.core.chitchat import _WORKING_SET, ChitchatScheduler
from repro.core.cost import schedule_cost
from repro.core.delta import DeltaScheduler
from repro.graph.generators import social_copying_graph
from repro.graph.view import to_csr
from repro.workload.churn import ChurnEvent
from repro.workload.rates import log_degree_workload
from tests.test_relabel import LABELINGS, relabel

#: Bytes a finished run on the n=300 copying instance may still hold
#: beyond its schedule (stats, metrics, relay bounds).  Before runs
#: released their working set it held 2.8 MiB there (36 MiB at n=3000).
HELD_BYTES_BOUND = 256 * 1024


class InspectBeforeRelease(ChitchatScheduler):
    """Keeps the working set ``run()`` releases, for tests to inspect.

    ``seen`` maps each released attribute name to the object it held at
    the moment of release; this subclass deliberately keeps them alive.
    """

    def _release(self) -> None:
        self.seen = {name: getattr(self, name) for name in _WORKING_SET}
        super()._release()


def copying_instance(n: int, seed: int = 1016):
    graph = social_copying_graph(
        n, out_degree=10, copy_fraction=0.7, reciprocity=0.2, seed=seed
    )
    return graph, log_degree_workload(graph, read_write_ratio=5.0)


def test_finished_run_holds_only_its_result():
    """``del scheduler`` after ``run()`` frees almost nothing: the
    schedule is kept by the caller, the working set is already gone."""
    graph, workload = copying_instance(300)
    csr = to_csr(graph)
    workload.as_arrays(csr.num_nodes)  # the caller's cache, not the run's
    gc.collect()
    tracemalloc.start()
    try:
        scheduler = ChitchatScheduler(csr, workload)
        schedule = scheduler.run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del scheduler
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert schedule.hub_cover
    assert freed <= HELD_BYTES_BOUND


@pytest.mark.parametrize("oracle", ["peel", "exact"])
def test_second_run_is_free_and_identical(oracle):
    graph, workload = copying_instance(80, seed=3)
    scheduler = ChitchatScheduler(graph, workload, oracle=oracle)
    first = scheduler.run()
    snapshot = scheduler.metrics.snapshot()
    kept = first.copy()
    second = scheduler.run()
    assert second is first
    assert second.push == kept.push and second.pull == kept.pull
    assert second.hub_cover == kept.hub_cover
    assert scheduler.metrics.snapshot() == snapshot
    assert scheduler.stats.final_cost == schedule_cost(second, workload)


def test_exact_run_keeps_no_flow_networks():
    networks: list[weakref.ref] = []

    class WatchNetworks(ChitchatScheduler):
        def _release(self) -> None:
            networks.extend(
                weakref.ref(problem)
                for _peel, problem in self._exact._problems.values()
            )
            super()._release()

    graph, workload = copying_instance(120, seed=5)
    scheduler = WatchNetworks(graph, workload, oracle="exact")
    scheduler.run()
    gc.collect()
    assert networks
    assert all(ref() is None for ref in networks)
    assert scheduler.stats.peak_cached_networks > 0


def churn_events(graph, label):
    """Adds, removals (every 7th edge) and rate changes on ``graph``."""
    nodes = sorted(graph.nodes(), key=repr)
    edges = sorted(graph.edges(), key=repr)
    absent = next(
        (u, v)
        for u in nodes
        for v in reversed(nodes)
        if u != v and not graph.has_edge(u, v)
    )
    events = [ChurnEvent("add", edge=absent)]
    events += [ChurnEvent("remove", edge=edge) for edge in edges[::7]]
    events += [
        ChurnEvent("rate", user=user, rp=0.5 + i, rc=2.0 + i)
        for i, user in enumerate(nodes[::11])
    ]
    events.append(ChurnEvent("add", edge=(label(0), label(1))))
    return events


@pytest.mark.parametrize("labeling", ["dense", *LABELINGS])
def test_delta_wraps_a_released_run(labeling):
    base_graph, base_workload = copying_instance(90, seed=7)
    label = LABELINGS.get(labeling, lambda i: i)
    graph, workload = relabel(base_graph, base_workload, label)
    scheduler = ChitchatScheduler(graph, workload)
    scheduler.run()
    delta = DeltaScheduler.from_scheduler(scheduler)
    assert delta.cost() == pytest.approx(scheduler.stats.final_cost)
    for event in churn_events(graph, label):
        delta.apply(event)
        delta.repair()
        assert delta.is_feasible()
        rescan = schedule_cost(delta.schedule, delta.workload)
        assert delta.cost() == pytest.approx(rescan, rel=1e-9, abs=1e-9)
    assert delta.stats.covers_broken > 0


@pytest.mark.parametrize("labeling", ["dense", *LABELINGS])
def test_relay_bounds_survive_in_caller_labels(labeling):
    """``certified_bounds`` answers for the schedule's relays, in the
    caller's labels, with the bounds the heap held at the end of the run."""
    base_graph, base_workload = copying_instance(90, seed=7)
    graph, workload = relabel(
        base_graph, base_workload, LABELINGS.get(labeling, lambda i: i)
    )
    scheduler = InspectBeforeRelease(graph, workload)
    schedule = scheduler.run()
    labels = scheduler.seen["_labels"]
    final = {
        hub if labels is None else labels[hub]: bound
        for hub, bound in scheduler.seen["_opt_lb"].items()
    }
    relays = set(schedule.hub_cover.values())
    idle = next(node for node in graph.nodes() if node not in relays)
    assert relays
    assert scheduler.certified_bounds(relays | {idle}) == {
        hub: final[hub] for hub in relays
    }
