"""Shared fixtures for the test suite.

Naming conventions used across tests:

* ``wedge_graph`` — the paper's Figure 2: Art -> Charlie, Charlie -> Billie,
  Art -> Billie.  The cross-edge Art -> Billie is coverable through the hub
  Charlie.
* ``small_social`` — a ~120-node copying-model graph with real piggybacking
  opportunities, the work-horse for algorithm tests.
* ``uniform_workload_for`` / ``log_workload_for`` — rate builders.
* ``OracleInstance`` — a labelled instance on the oracles' one input form
  (dense edge ids, a ``ScheduleMirror``), with results mapped back.
* ``GRAPH_FORMS`` / ``graph_in_form`` — the two graph types a scheduler
  accepts: the mutable dict ``SocialGraph`` (``"dict"``, frozen to CSR at
  the scheduler boundary) and a frozen ``CSRGraph`` (``"csr"``, passed
  through uncopied).  Parametrizing over them pins that the boundary is
  transparent: same schedule, same counters, whichever form arrives.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.chitchat import _dense_instance
from repro.core.densest import OracleCutoff, ScheduleMirror
from repro.core.hubgraph import HubGraph, build_hub_graph
from repro.core.schedule import RequestSchedule
from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.graph.view import GraphView, edge_list, to_csr
from repro.workload.rates import (
    Workload,
    log_degree_workload,
    uniform_workload,
)

# The Figure 2 node names, kept readable in assertions.
ART, BILLIE, CHARLIE = 0, 1, 2

#: the graph types a scheduler accepts (see ``graph_in_form``)
GRAPH_FORMS = ("dict", "csr")


def graph_in_form(graph: SocialGraph, form: str) -> GraphView:
    """``graph`` as handed to a scheduler: itself, or frozen to CSR."""
    if form not in GRAPH_FORMS:
        raise ValueError(f"unknown graph form {form!r}")
    return to_csr(graph) if form == "csr" else graph


class OracleInstance:
    """A labelled instance on the oracles' single input form.

    The densest-subgraph oracles take hub-graphs built on dense edge ids
    plus a ``ScheduleMirror``.  This freezes ``graph`` the way
    ``ChitchatScheduler`` does at its boundary (a dense-id graph as is,
    any other relabeled in tie-break order), builds hub-graphs on that
    CSR (``hub_graph`` takes the caller's labels), builds the mirror of a
    ``(schedule, uncovered)`` state given in the caller's labels, and maps
    oracle results back to those labels (``covered_ids`` stay dense).
    """

    def __init__(self, graph: GraphView, workload: Workload) -> None:
        self.csr, rates, self.labels = _dense_instance(graph, workload)
        self.ids = (
            None
            if self.labels is None
            else {label: i for i, label in enumerate(self.labels)}
        )
        self.edge_ids = {e: i for i, e in enumerate(edge_list(self.csr))}
        self.rp, self.rc = rates.as_arrays(self.csr.num_nodes)

    def dense(self, node):
        return node if self.ids is None else self.ids[node]

    def label(self, node):
        return node if self.labels is None else self.labels[node]

    def dense_edge(self, edge):
        return (self.dense(edge[0]), self.dense(edge[1]))

    def label_edge(self, edge):
        return (self.label(edge[0]), self.label(edge[1]))

    def hub_graph(self, hub, max_cross_edges=None, elements=None) -> HubGraph:
        if elements is not None:
            elements = [self.dense_edge(edge) for edge in elements]
        return build_hub_graph(
            self.csr, self.dense(hub), max_cross_edges, elements=elements
        )

    def sides(self, hub_graph: HubGraph):
        """``(x_nodes, y_nodes, cross_edges)`` in the caller's labels."""
        return (
            [self.label(x) for x in hub_graph.x_nodes],
            [self.label(y) for y in hub_graph.y_nodes],
            [self.label_edge(edge) for edge in hub_graph.cross_edges],
        )

    def mirror(
        self, schedule: RequestSchedule | None, uncovered
    ) -> ScheduleMirror:
        edge_id = self.edge_ids.__getitem__
        mirror = ScheduleMirror(len(self.edge_ids), self.rp, self.rc)
        mirror.uncovered_mask[:] = False
        mirror.uncovered_mask[[edge_id(self.dense_edge(e)) for e in uncovered]] = True
        for edge in (schedule or RequestSchedule()).push:
            mirror.add_push(edge_id(self.dense_edge(edge)))
        for edge in (schedule or RequestSchedule()).pull:
            mirror.add_pull(edge_id(self.dense_edge(edge)))
        return mirror

    def call(self, oracle, hub_graph, schedule, uncovered, upper_bound=None):
        """``oracle`` on ``hub_graph`` at that state, in caller labels."""
        mirror = self.mirror(schedule, uncovered)
        return self.result(
            oracle(
                hub_graph,
                mirror.uncovered_mask,
                mirror.arrays,
                upper_bound=upper_bound,
            )
        )

    def call_batch(self, session, hub_graphs, schedule, uncovered, **options):
        """A ``MultiHubSession`` call at that state, in caller labels."""
        mirror = self.mirror(schedule, uncovered)
        results = session(
            hub_graphs, mirror.uncovered_mask, mirror.arrays, **options
        )
        return [self.result(result) for result in results]

    def result(self, result):
        if result is None:
            return None
        if isinstance(result, OracleCutoff):
            return dataclasses.replace(result, hub=self.label(result.hub))
        return dataclasses.replace(
            result,
            hub=self.label(result.hub),
            x_selected=tuple(self.label(x) for x in result.x_selected),
            y_selected=tuple(self.label(y) for y in result.y_selected),
            covered=frozenset(self.label_edge(e) for e in result.covered),
        )


@pytest.fixture
def wedge_graph() -> SocialGraph:
    """Art -> Charlie -> Billie with the cross-edge Art -> Billie."""
    return SocialGraph([(ART, CHARLIE), (CHARLIE, BILLIE), (ART, BILLIE)])


@pytest.fixture
def two_hub_graph() -> SocialGraph:
    """Two producers, one hub, two consumers, all four cross-edges present.

    Nodes: producers 10, 11; hub 5; consumers 20, 21.
    """
    edges = [(10, 5), (11, 5), (5, 20), (5, 21)]
    edges += [(10, 20), (10, 21), (11, 20), (11, 21)]
    return SocialGraph(edges)


@pytest.fixture
def small_social() -> SocialGraph:
    """A 120-node copying-model graph (deterministic)."""
    return social_copying_graph(
        120, out_degree=6, copy_fraction=0.6, reciprocity=0.4, seed=42
    )


@pytest.fixture
def small_workload(small_social: SocialGraph) -> Workload:
    return log_degree_workload(small_social, read_write_ratio=5.0)


def make_uniform(graph: SocialGraph, rp: float = 1.0, rc: float = 5.0) -> Workload:
    """Uniform workload helper importable from tests."""
    return uniform_workload(graph, production_rate=rp, consumption_rate=rc)


@pytest.fixture
def wedge_workload(wedge_graph: SocialGraph) -> Workload:
    return make_uniform(wedge_graph)
