"""The :class:`GraphView` protocol and the shared adjacency helpers.

Every scheduling algorithm in :mod:`repro.core` reads the social graph
through the same small read-only adjacency interface — successors,
predecessors, degrees, edge membership, node/edge iteration.  Two backends
implement it:

* :class:`~repro.graph.digraph.SocialGraph` — the mutable dict-of-sets
  structure, which churn maintenance
  (:class:`~repro.core.delta.DeltaScheduler`) edits in place;
* :class:`~repro.graph.csr.CSRGraph` — the frozen numpy CSR snapshot with
  dense ids ``0..n-1`` (flat-array adjacency, cache-friendly scans,
  vectorized kernels).

The static schedulers take either.  CHITCHAT always runs on CSR: it
freezes dense-id graphs with :func:`to_csr` and relabels any other graph
once at its boundary, translating the schedule back to the caller's
labels.  PARALLELNOSY and the baselines run on the view they are given.
The helpers below (:func:`wedge_nodes`, :func:`edge_list`,
:func:`sorted_array_intersect`) give the core algorithms one
backend-dispatched implementation of their inner adjacency operations.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from typing import Protocol, runtime_checkable

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.digraph import Edge, Node, SocialGraph

#: Below this combined adjacency size, :func:`wedge_nodes` on a CSR backend
#: intersects via Python sets instead of ``numpy`` (per-call numpy overhead
#: dominates on tiny neighborhoods).
_SMALL_INTERSECT = 64


@runtime_checkable
class GraphView(Protocol):
    """Read-only adjacency interface shared by both graph backends.

    ``successors(u)``/``predecessors(u)`` return an iterable of neighbor
    ids (a ``frozenset`` on the dict backend, a sorted ``numpy`` slice on
    the CSR backend); callers that need a particular container must copy.
    """

    @property
    def num_nodes(self) -> int: ...

    @property
    def num_edges(self) -> int: ...

    def nodes(self) -> Iterator[Node]: ...

    def edges(self) -> Iterator[Edge]: ...

    def successors(self, node: Node) -> Iterable[Node]: ...

    def predecessors(self, node: Node) -> Iterable[Node]: ...

    def out_degree(self, node: Node) -> int: ...

    def in_degree(self, node: Node) -> int: ...

    def has_node(self, node: Node) -> bool: ...

    def has_edge(self, producer: Node, consumer: Node) -> bool: ...


def has_dense_int_ids(graph: GraphView) -> bool:
    """Whether node ids are exactly the integers ``0..n-1`` (CSR-ready)."""
    if isinstance(graph, CSRGraph):
        return True
    n = graph.num_nodes
    for node in graph.nodes():
        if type(node) is not int or not 0 <= node < n:
            return False
    return True


def to_csr(graph: GraphView) -> CSRGraph:
    """Freeze any :class:`GraphView` into a :class:`CSRGraph` snapshot.

    Raises :class:`~repro.errors.GraphError` when node ids are not dense
    ``0..n-1`` integers; relabel with :meth:`SocialGraph.relabeled` first.
    """
    if isinstance(graph, CSRGraph):
        return graph
    return CSRGraph.from_graph(graph)


def sorted_array_intersect(a: np.ndarray, b: np.ndarray) -> list[int]:
    """Intersection of two sorted, duplicate-free int arrays as Python ints.

    Dispatches on size: tiny inputs go through Python sets (lower constant
    than a ``numpy`` call), larger ones through ``np.intersect1d``.
    """
    if a.size == 0 or b.size == 0:
        return []
    if a.size + b.size < _SMALL_INTERSECT:
        small, large = (a, b) if a.size <= b.size else (b, a)
        members = set(large.tolist())
        return [x for x in small.tolist() if x in members]
    return np.intersect1d(a, b, assume_unique=True).tolist()


def wedge_nodes(graph: GraphView, a: Node, b: Node) -> list[Node]:
    """All intermediaries ``w`` of wedges ``a -> w -> b`` (unordered).

    This is the neighborhood intersection at the heart of hub detection:
    ``successors(a) ∩ predecessors(b)``.  The CSR backend intersects the
    sorted adjacency slices; the dict backend scans the smaller set.
    """
    if isinstance(graph, CSRGraph):
        return sorted_array_intersect(graph.successors(a), graph.predecessors(b))
    succ_a = graph.successors_view(a) if isinstance(graph, SocialGraph) else set(
        graph.successors(a)
    )
    pred_b = graph.predecessors_view(b) if isinstance(graph, SocialGraph) else set(
        graph.predecessors(b)
    )
    if len(succ_a) <= len(pred_b):
        return [w for w in succ_a if w in pred_b]
    return [w for w in pred_b if w in succ_a]


class NeighborSetCache:
    """Lazily memoized Python-set adjacency over any backend.

    The schedulers' scalar inner loops (PARALLELNOSY's per-edge candidate
    intersection, hub invalidation after a selection) repeatedly intersect
    the same nodes' neighborhoods.  On the dict backend the sets already
    exist; on the CSR backend this cache materializes each touched slice as
    a Python set once, so repeated probes cost a dict hit instead of a
    numpy call.  Read-only: never mutate the returned sets.
    """

    __slots__ = ("_graph", "_succ", "_pred", "_is_social")

    def __init__(self, graph: GraphView) -> None:
        self._graph = graph
        self._is_social = isinstance(graph, SocialGraph)
        self._succ: dict[Node, set[Node]] = {}
        self._pred: dict[Node, set[Node]] = {}

    def successors(self, node: Node) -> set[Node]:
        if self._is_social:
            return self._graph.successors_view(node)
        cached = self._succ.get(node)
        if cached is None:
            cached = set(np.asarray(self._graph.successors(node)).tolist())
            self._succ[node] = cached
        return cached

    def predecessors(self, node: Node) -> set[Node]:
        if self._is_social:
            return self._graph.predecessors_view(node)
        cached = self._pred.get(node)
        if cached is None:
            cached = set(np.asarray(self._graph.predecessors(node)).tolist())
            self._pred[node] = cached
        return cached

    def wedge(self, a: Node, b: Node) -> list[Node]:
        """Intermediaries of wedges ``a -> w -> b`` via the cached sets."""
        succ_a = self.successors(a)
        pred_b = self.predecessors(b)
        if len(succ_a) <= len(pred_b):
            return [w for w in succ_a if w in pred_b]
        return [w for w in pred_b if w in succ_a]


def affected_hubs(adjacency: NeighborSetCache, covered_edges) -> set[Node]:
    """Every hub whose hub-graph contains one of ``covered_edges``.

    Edge ``a -> b`` appears in ``G(b)`` (as a push leg), ``G(a)`` (as a
    pull leg), and ``G(w)`` for every wedge ``a -> w -> b`` (as a
    cross-edge) — the invalidation set of Algorithm 1 line 14, shared by
    the CHITCHAT schedulers' dirty-hub marking.
    """
    affected: set[Node] = set()
    for a, b in covered_edges:
        affected.add(a)
        affected.add(b)
        affected.update(adjacency.wedge(a, b))
    return affected


def edge_list(graph: GraphView) -> list[Edge]:
    """All edges as a list of ``(producer, consumer)`` Python-int tuples.

    On the CSR backend this converts the flat arrays in one C pass instead
    of iterating per node, which matters when the schedulers materialize
    the full edge set (uncovered tracking, hybrid completion).
    """
    if isinstance(graph, CSRGraph):
        src, dst = graph.edge_arrays()
        return list(zip(src.tolist(), dst.tolist()))
    return list(graph.edges())
