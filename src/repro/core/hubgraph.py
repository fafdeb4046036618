"""Hub-graph construction (paper section 3.1, Figure 3).

A *hub-graph* ``G(X, w, Y)`` centered on a node ``w`` consists of

* a producer side ``X`` ⊆ predecessors of ``w`` (users ``w`` subscribes to),
* a consumer side ``Y`` ⊆ successors of ``w`` (users subscribing to ``w``),
* the solid legs ``x -> w`` (candidate pushes) and ``w -> y`` (candidate
  pulls), and
* the *cross-edges* ``x -> y`` present in the social graph, which the hub
  covers indirectly once both legs are scheduled.

CHITCHAT's oracle searches inside the *maximal* hub-graph (all predecessors
and successors) for the weighted-densest subgraph; PARALLELNOSY restricts
itself to single-consumer hub-graphs ``G(X, w, {y})``.

Because a node can be both a predecessor and a successor of ``w`` (mutual
follows), hub-graph vertices are role-tagged ``(side, node)`` pairs: the same
user contributes an X-vertex weighted by its production rate and an
independent Y-vertex weighted by its consumption rate.

Hub-graphs are built on dense edge ids: every element carries the id of
its social edge (:attr:`HubGraph.element_ids`), so the densest-subgraph
oracle filters elements against the scheduler's uncovered-edge bitmask
and prices legs from its scheduled-leg masks without touching Python sets.
The maximal build runs one vectorized kernel on a
:class:`~repro.graph.csr.CSRGraph`, scanning the concatenated successor
slices of all of ``X`` against the sorted ``Y`` slice; the restricted
build (``elements=``) reads only ``graph.edge_id``, so it also runs on the
churn tier's mutable dense-id graph.  Any other graph is frozen with
:func:`~repro.graph.view.to_csr` first (relabeled with
:meth:`~repro.graph.digraph.SocialGraph.relabeled` when its ids are not
``0..n-1``), as the schedulers do at their boundary.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.core.schedule import RequestSchedule
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.digraph import Edge, Node
from repro.graph.view import GraphView, NeighborSetCache, sorted_array_intersect

#: Role tags for hub-graph vertices.
X_SIDE = "x"
Y_SIDE = "y"

HubVertex = tuple[str, Node]


@dataclass(frozen=True)
class PeelIndex:
    """Static per-hub-graph structure reused by every oracle call.

    ``verts`` lists the weighted vertices X side first (in ``x_nodes``
    order) then Y side, so leg element ``i`` touches exactly vertex ``i``.
    ``assign_vert_list[e]`` / ``assign_alt_list[e]`` are the primary and
    alternate vertices of element ``e`` — its endpoints, and what the
    oracle's early-exit relaxation can *charge* it to (legs touch one
    vertex, so both are that vertex; a cross-edge's primary is its X
    endpoint and alternate its Y endpoint — the probe reroutes charge away
    from zero-weight endpoints); ``num_x`` counts the X side.

    Everything else is derived on first use and then kept: ``x_arr`` /
    ``y_arr`` (the side node ids as int64 arrays), ``rank`` (the
    peel's integer tie-break), ``incident`` (per-vertex element lists,
    ascending), the numpy mirrors ``inc_vert``/``inc_elem`` (flattened
    (vertex, element) incidence pairs for vectorized degree counting and
    reconstruction) and ``assign_vert``/``assign_alt``, and
    ``endpoint_idx`` (per-element endpoint tuples, the exact oracle's
    network layout).  The oracle's small-problem path reads only the two
    assign lists and the rank, so the single-use restricted hub-graphs of
    delta repair never pay for the rest.
    """

    verts: list[HubVertex]
    assign_vert_list: list[int]
    assign_alt_list: list[int]
    num_x: int

    @cached_property
    def x_arr(self) -> np.ndarray:
        return np.asarray(
            [node for _side, node in self.verts[: self.num_x]], dtype=np.int64
        )

    @cached_property
    def y_arr(self) -> np.ndarray:
        return np.asarray(
            [node for _side, node in self.verts[self.num_x :]], dtype=np.int64
        )

    @cached_property
    def rank(self) -> list[int]:
        """``rank[i]`` = position of ``verts[i]`` in ``sorted(verts)``.

        The peel breaks weighted-degree ties by vertex tuple order; one
        int compare on the rank gives the same order.  It is *not* the
        vertex index: index order is ``repr`` order (``"10" < "2"``).
        """
        verts = self.verts
        rank = [0] * len(verts)
        for position, i in enumerate(
            sorted(range(len(verts)), key=verts.__getitem__)
        ):
            rank[i] = position
        return rank

    @cached_property
    def endpoint_idx(self) -> list[tuple[int, ...]]:
        return [
            (p,) if p == q else (p, q)
            for p, q in zip(self.assign_vert_list, self.assign_alt_list)
        ]

    @cached_property
    def incident(self) -> list[list[int]]:
        # leg element i touches vertex i alone; cross-edges follow
        num_verts = len(self.verts)
        incident: list[list[int]] = [[i] for i in range(num_verts)]
        prim = self.assign_vert_list
        alt = self.assign_alt_list
        for ei in range(num_verts, len(prim)):
            incident[prim[ei]].append(ei)
            incident[alt[ei]].append(ei)
        return incident

    @cached_property
    def inc_vert(self) -> np.ndarray:
        num_verts = len(self.verts)
        crosses = np.column_stack(
            (self.assign_vert[num_verts:], self.assign_alt[num_verts:])
        )
        return np.concatenate((self.assign_vert[:num_verts], crosses.ravel()))

    @cached_property
    def inc_elem(self) -> np.ndarray:
        num_verts = len(self.verts)
        return np.concatenate(
            (
                np.arange(num_verts, dtype=np.int64),
                np.repeat(
                    np.arange(num_verts, len(self.assign_vert_list), dtype=np.int64),
                    2,
                ),
            )
        )

    @cached_property
    def assign_vert(self) -> np.ndarray:
        return np.asarray(self.assign_vert_list, dtype=np.int64)

    @cached_property
    def assign_alt(self) -> np.ndarray:
        return np.asarray(self.assign_alt_list, dtype=np.int64)


@dataclass
class HubGraph:
    """Materialized hub-graph centered on ``hub``.

    Maximal (every predecessor and successor of the hub) unless it was
    built with ``build_hub_graph(..., elements=...)``, which keeps only
    the sides and cross-edges the named elements touch.

    Attributes
    ----------
    hub:
        The relay node ``w``.
    x_nodes, y_nodes:
        Producer-side and consumer-side node lists.
    cross_edges:
        Social edges ``x -> y`` between the two sides (possibly truncated to
        the ``max_cross_edges`` bound, mirroring the MapReduce bound ``b``).
    element_ids:
        Edge ids of the elements in :meth:`elements` order.  Lets the
        oracle filter elements against a dense uncovered-edge mask, and
        price legs from the scheduled-leg masks, in one vectorized op.
    truncated:
        True when the cross-edge bound clipped the enumeration.
    """

    hub: Node
    x_nodes: list[Node]
    y_nodes: list[Node]
    cross_edges: list[Edge]
    element_ids: np.ndarray = field(repr=False, compare=False)
    truncated: bool = False
    _peel_index: "PeelIndex | None" = field(default=None, repr=False, compare=False)

    @property
    def num_vertices(self) -> int:
        """Vertices excluding the hub itself (which has zero weight)."""
        return len(self.x_nodes) + len(self.y_nodes)

    @property
    def num_elements(self) -> int:
        """Elements materialized: one leg per vertex plus the cross-edges."""
        return self.num_vertices + len(self.cross_edges)

    def elements(self) -> list[Edge]:
        """All social edges this hub-graph can serve, in element order.

        Canonical order: push legs (``x_nodes`` order), pull legs
        (``y_nodes`` order), then cross-edges.  A leg touches its single
        side vertex; a cross-edge touches one X- and one Y-vertex.
        """
        legs_in = [(x, self.hub) for x in self.x_nodes]
        legs_out = [(self.hub, y) for y in self.y_nodes]
        return legs_in + legs_out + list(self.cross_edges)

    def edges_at(self, positions) -> list[Edge]:
        """The social edges at element ``positions``, in the order given.

        Decodes :meth:`elements` positions without materializing the
        list: push legs, then pull legs, then cross-edges.
        """
        hub = self.hub
        x_nodes = self.x_nodes
        y_nodes = self.y_nodes
        cross_edges = self.cross_edges
        num_x = len(x_nodes)
        num_verts = num_x + len(y_nodes)
        return [
            (x_nodes[ei], hub)
            if ei < num_x
            else (hub, y_nodes[ei - num_x])
            if ei < num_verts
            else cross_edges[ei - num_verts]
            for ei in positions
        ]

    def peel_index(self) -> "PeelIndex":
        """Static peeling structure for the densest-subgraph oracle.

        Built once per hub-graph and reused by every oracle call (the
        CHITCHAT schedulers cache hub-graphs for exactly this reason): the
        vertex list (X side then Y side, aligned so leg element ``i``
        touches vertex ``i``) and each element's two endpoint indices, in
        :meth:`elements` order; incidence lists, the tie-break rank
        and the flat numpy mirrors are derived by :class:`PeelIndex` on
        first use.
        """
        if self._peel_index is None:
            verts: list[HubVertex] = [(X_SIDE, x) for x in self.x_nodes]
            verts += [(Y_SIDE, y) for y in self.y_nodes]
            # legs first: leg element i touches vertex i alone
            assign_vert_list = list(range(len(verts)))
            assign_alt_list = list(range(len(verts)))
            if self.cross_edges:
                num_x = len(self.x_nodes)
                x_pos = {x: i for i, x in enumerate(self.x_nodes)}
                y_pos = {y: i for i, y in enumerate(self.y_nodes, num_x)}
                assign_vert_list += [x_pos[x] for x, _ in self.cross_edges]
                assign_alt_list += [y_pos[y] for _, y in self.cross_edges]
            self._peel_index = PeelIndex(
                verts, assign_vert_list, assign_alt_list, len(self.x_nodes)
            )
        return self._peel_index


def build_hub_graph(
    graph,
    hub: Node,
    max_cross_edges: int | None = None,
    elements: Iterable[Edge] | None = None,
) -> HubGraph:
    """Materialize the hub-graph centered on ``hub`` — maximal by default.

    Parameters
    ----------
    graph:
        A graph on dense edge ids: a :class:`~repro.graph.csr.CSRGraph`,
        or — for restricted builds — any graph exposing ``edge_id(u, v)``
        (the churn tier's mutable graph).  Anything else raises
        :class:`GraphError` naming the fix: freeze it with
        :func:`~repro.graph.view.to_csr`, after
        :meth:`~repro.graph.digraph.SocialGraph.relabeled` when its ids
        are not ``0..n-1``.
    max_cross_edges:
        Optional cap on enumerated cross-edges, the counterpart of the
        paper's MapReduce bound ``b`` (section 3.2): hubs of very dense
        graphs can have quadratically many cross-edges, so production runs
        bound the enumeration and accept missing some optimization
        opportunities.  ``None`` means unbounded.
    elements:
        Build the hub-graph *restricted* to these social edges instead of
        the maximal one: each must be an element the hub can serve — a
        push leg ``(x, hub)``, a pull leg ``(hub, y)``, or a cross-edge
        ``(x, y)`` with ``x -> hub -> y`` a wedge (:class:`GraphError`
        otherwise).  ``X``/``Y`` keep only the endpoints incident to the
        given elements and the cross-edges are exactly the given ones, in
        the same canonical order as the maximal build (sides in ``repr``
        order; cross-edges by producer, then consumer), so the result is
        an order-preserving sub-hub-graph of the maximal one and costs
        O(len(elements)) to build, independent of the hub's degree.  Both
        oracles admit only vertices incident to an *uncovered* element, so
        for any uncovered set within ``elements`` they return the same
        champion on the restricted build as on the maximal one, bit for
        bit (property-tested in ``tests/test_restricted_hubgraph.py``) —
        the delta repair's output-sensitive path.  Mutually exclusive with
        ``max_cross_edges``: truncation clips a prefix of the *maximal*
        enumeration order, which a restricted build never enumerates.
    """
    if elements is not None:
        if max_cross_edges is not None:
            raise GraphError(
                "elements= cannot be combined with max_cross_edges: "
                "truncation is defined on the maximal enumeration order"
            )
        if not hasattr(graph, "edge_id"):
            raise GraphError(_dense_ids_hint(graph))
        return _build_restricted_hub_graph(graph, hub, elements)
    if not isinstance(graph, CSRGraph):
        raise GraphError(_dense_ids_hint(graph))
    return _build_hub_graph_csr(graph, hub, max_cross_edges)


def _dense_ids_hint(graph) -> str:
    return (
        f"hub-graphs are built on dense edge ids, not on a "
        f"{type(graph).__name__}: freeze the graph with to_csr(graph) "
        "(relabel ids that are not 0..n-1 with SocialGraph.relabeled() first)"
    )


def _build_restricted_hub_graph(
    graph, hub: Node, elements: Iterable[Edge]
) -> HubGraph:
    """Sub-hub-graph induced by ``elements``.

    Work is proportional to ``len(elements)``: nothing here reads the
    hub's neighbourhood; each leg and cross-edge is checked to be a social
    edge by its ``graph.edge_id`` lookup, which raises :class:`GraphError`
    when it is absent.
    """
    xs: set[Node] = set()
    ys: set[Node] = set()
    cross_set: set[Edge] = set()
    for u, v in elements:
        if v == hub:
            xs.add(u)
        elif u == hub:
            ys.add(v)
        else:
            xs.add(u)
            ys.add(v)
            cross_set.add((u, v))
    x_nodes = sorted(xs, key=repr)
    y_nodes = sorted(ys, key=repr)
    x_rank = {x: i for i, x in enumerate(x_nodes)}
    cross = sorted(cross_set, key=lambda edge: (x_rank[edge[0]], repr(edge[1])))
    edge_id = graph.edge_id
    element_ids = [edge_id(x, hub) for x in x_nodes]
    element_ids += [edge_id(hub, y) for y in y_nodes]
    element_ids += [edge_id(u, v) for u, v in cross]
    return HubGraph(
        hub=hub,
        x_nodes=x_nodes,
        y_nodes=y_nodes,
        cross_edges=cross,
        element_ids=np.asarray(element_ids, dtype=np.int64),
    )


def _build_hub_graph_csr(
    graph: CSRGraph,
    hub: Node,
    max_cross_edges: int | None,
) -> HubGraph:
    """Vectorized construction on the CSR snapshot.

    One kernel scans the concatenated successor slices of every producer
    against the sorted consumer slice; the flat positions of the hits *are*
    their global edge ids, captured into :attr:`HubGraph.element_ids`
    together with the leg ids.  Producers and, per producer, consumers
    come in ``repr`` order — the restricted build's canonical order — and
    truncation clips a prefix of it.
    """
    hub = int(hub)
    x_arr = graph.predecessors(hub)
    y_arr = graph.successors(hub)
    x_nodes = sorted(x_arr.tolist(), key=repr)
    y_nodes = sorted(y_arr.tolist(), key=repr)

    indptr = graph.out_indptr
    starts = indptr[x_arr]
    counts = indptr[x_arr + 1] - starts
    total = int(counts.sum())
    cross: list[Edge] = []
    cross_ids: list[int] = []
    truncated = False
    x_leg_ids: dict[int, int] = {}
    if total:
        # flat positions of every producer's successor slice in out_indices;
        # a position in out_indices is the edge's global id
        group_ends = np.cumsum(counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            group_ends - counts, counts
        )
        positions = np.repeat(starts, counts) + within
        cand_x = np.repeat(x_arr, counts)
        cand_y = graph.out_indices[positions]
        # x-leg ids fall out of the same scan: the hits where y == hub
        leg_mask = cand_y == hub
        x_leg_ids = dict(
            zip(cand_x[leg_mask].tolist(), positions[leg_mask].tolist())
        )
        if y_arr.size:
            slot = np.searchsorted(y_arr, cand_y)
            slot_clipped = np.minimum(slot, y_arr.size - 1)
            hit = y_arr[slot_clipped] == cand_y
            xs = cand_x[hit].tolist()
            ys = cand_y[hit].tolist()
            ids = positions[hit].tolist()
            x_rank = {x: i for i, x in enumerate(x_nodes)}
            order = sorted(
                range(len(xs)), key=lambda i: (x_rank[xs[i]], repr(ys[i]))
            )
            if max_cross_edges is not None and len(order) > max_cross_edges:
                truncated = True
                order = order[:max_cross_edges]
            cross = [(xs[i], ys[i]) for i in order]
            cross_ids = [ids[i] for i in order]

    y_slice_start = int(indptr[hub])
    y_leg_ids = (
        y_slice_start + np.searchsorted(y_arr, np.asarray(y_nodes, dtype=np.int64))
    ).tolist()
    element_ids = np.asarray(
        [x_leg_ids[x] for x in x_nodes] + y_leg_ids + cross_ids, dtype=np.int64
    )
    return HubGraph(
        hub=hub,
        x_nodes=x_nodes,
        y_nodes=y_nodes,
        cross_edges=cross,
        truncated=truncated,
        element_ids=element_ids,
    )


def single_consumer_hub_graph(
    graph: GraphView,
    hub: Node,
    consumer: Node,
    schedule: RequestSchedule,
    covered: dict[Edge, Node],
    adjacency: NeighborSetCache | None = None,
) -> list[Node]:
    """The producer set ``X`` of PARALLELNOSY's hub-graph ``G(X, w, {y})``.

    Selection conditions from section 3.2, phase 1:

    * ``x -> w`` must not already be covered through some other hub
      (pushing over it would undo a previous optimization);
    * the cross-edge ``x -> y`` must exist and be neither covered nor
      already scheduled as a push or pull (covering it again is useless).

    ``adjacency`` optionally supplies a
    :class:`~repro.graph.view.NeighborSetCache`; callers probing many
    edges (PARALLELNOSY's phase 1 scans every edge per iteration) pass one
    so repeated neighborhoods are materialized as Python sets once.
    """
    if adjacency is not None:
        preds_w = adjacency.predecessors(hub)
        preds_y = adjacency.predecessors(consumer)
        if len(preds_y) <= len(preds_w):
            candidates: list[Node] = [x for x in preds_y if x in preds_w]
        else:
            candidates = [x for x in preds_w if x in preds_y]
    elif isinstance(graph, CSRGraph):
        candidates = sorted_array_intersect(
            graph.predecessors(hub), graph.predecessors(consumer)
        )
    else:
        preds_w = graph.predecessors_view(hub)
        preds_y = graph.predecessors_view(consumer)
        if len(preds_y) <= len(preds_w):
            candidates = [x for x in preds_y if x in preds_w]
        else:
            candidates = [x for x in preds_w if x in preds_y]
    xs: list[Node] = []
    for x in candidates:
        if x == consumer:
            continue
        if (x, hub) in covered:
            continue
        cross = (x, consumer)
        if cross in covered or cross in schedule.push or cross in schedule.pull:
            continue
        xs.append(x)
    xs.sort(key=repr)
    return xs
