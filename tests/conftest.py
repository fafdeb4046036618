"""Shared fixtures for the test suite.

Naming conventions used across tests:

* ``wedge_graph`` — the paper's Figure 2: Art -> Charlie, Charlie -> Billie,
  Art -> Billie.  The cross-edge Art -> Billie is coverable through the hub
  Charlie.
* ``small_social`` — a ~120-node copying-model graph with real piggybacking
  opportunities, the work-horse for algorithm tests.
* ``uniform_workload_for`` / ``log_workload_for`` — rate builders.
* ``GRAPH_FORMS`` / ``graph_in_form`` — the two graph types a scheduler
  accepts: the mutable dict ``SocialGraph`` (``"dict"``, frozen to CSR at
  the scheduler boundary) and a frozen ``CSRGraph`` (``"csr"``, passed
  through uncopied).  Parametrizing over them pins that the boundary is
  transparent: same schedule, same counters, whichever form arrives.
"""

from __future__ import annotations

import pytest

from repro.graph.digraph import SocialGraph
from repro.graph.generators import social_copying_graph
from repro.graph.view import GraphView, to_csr
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
