"""The parent commit's weighted peel, frozen as a test-only reference.

A verbatim copy of ``repro.core.densest.densest_subgraph`` (and the probe
helpers it called) as it stood before the production kernel got its
scalar small-problem path and integer heap keys: heap entries are
``(ratio, HubVertex, index)`` tuples whose ties compare nested tuples,
every list is hub-graph sized, and the probe walks all elements.
``tests/test_peel_kernel.py`` requires the production kernel to equal it
bit for bit.  Do not optimize or "fix" this file: it is the definition of
the schedule digests the perf ledger pins.  (One deliberate exception, in
lock-step with production: :func:`probe_optimum_bound` picks the probe twin
by hub-graph size on every backend — see its docstring.)

It keeps its own tuple element index (:func:`element_index`) and scalar
vertex pricing (:func:`vertex_weight`), which production no longer has:
called with an ``uncovered`` set alone, it filters and prices elements
the way the set-based oracle did, so the suite pins the dense-id kernel
to that definition as well as to the bitmask one.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.densest import DensestResult, OracleArrays, OracleCutoff
from repro.core.hubgraph import X_SIDE, Y_SIDE, HubGraph, HubVertex
from repro.core.schedule import RequestSchedule
from repro.core.tolerances import OPT_BOUND_MARGIN
from repro.graph.digraph import Edge
from repro.workload.rates import Workload

#: Water-filling rounds of the bounded probe.  Each round costs a couple
#: of weighted bincounts and the probe exits the moment its floor beats
#: the caller's bound, so typical probes stop after one or two rounds.
_PROBE_ROUNDS = 6
#: Charge fraction a cross-edge shifts toward its less congested endpoint
#: per round.
_PROBE_STEP = 0.25
#: Below this element count the probe runs its scalar twin — per-call
#: numpy overhead dominates on tiny hub-graphs.
_PROBE_VECTOR_THRESHOLD = 192


def element_index(hub_graph: HubGraph) -> list[tuple[Edge, tuple[HubVertex, ...]]]:
    """Elements paired with their weighted endpoints, in element order.

    Push legs (``x_nodes`` order), pull legs (``y_nodes`` order), then
    cross-edges; a leg touches its single side vertex, a cross-edge one X-
    and one Y-vertex.
    """
    hub = hub_graph.hub
    index: list[tuple[Edge, tuple[HubVertex, ...]]] = [
        ((x, hub), ((X_SIDE, x),)) for x in hub_graph.x_nodes
    ]
    index += [((hub, y), ((Y_SIDE, y),)) for y in hub_graph.y_nodes]
    index += [
        ((x, y), ((X_SIDE, x), (Y_SIDE, y))) for x, y in hub_graph.cross_edges
    ]
    return index


def vertex_weight(
    hub_graph: HubGraph,
    vertex: HubVertex,
    workload: Workload,
    schedule: RequestSchedule,
) -> float:
    """The set-cover weight ``g`` of a hub-graph vertex.

    ``g(x) = rp(x)`` unless the push ``x -> w`` is already paid for
    (``∈ H``), and ``g(y) = rc(y)`` unless the pull ``w -> y`` is already
    paid for (``∈ L``) — exactly the weight updates of Algorithm 1.
    """
    side, node = vertex
    if side == X_SIDE:
        if (node, hub_graph.hub) in schedule.push:
            return 0.0
        return workload.rp(node)
    if (hub_graph.hub, node) in schedule.pull:
        return 0.0
    return workload.rc(node)


def _probe_bound_vectorized(
    peel,
    weight: np.ndarray,
    alive: np.ndarray,
    num_verts: int,
) -> float:
    """Best water-filled mediant floor found (margin applied), vectorized.

    Deterministic in the oracle inputs alone — it always runs to
    stagnation (or the round cap) so callers may cache the answer per
    hub-state and skip re-probing an unchanged state.
    """
    prim = peel.assign_vert[alive]
    alt = peel.assign_alt[alive]
    w_prim = weight[prim]
    w_alt = weight[alt]
    # start all charge on the X side, except crosses whose X endpoint is
    # already free while Y is not (charging a free vertex floors the bound
    # at zero; both endpoints free genuinely means free coverage)
    z = np.where((w_prim <= 0.0) & (w_alt > 0.0), 0.0, 1.0)
    movable = (prim != alt) & (w_prim > 0.0) & (w_alt > 0.0)
    any_movable = bool(movable.any())
    # zero-weight vertices get garbage congestion via the 1.0 stand-in;
    # they are never endpoints of a movable element, so it is masked out
    safe_weight = np.where(weight > 0.0, weight, 1.0)
    best = 0.0
    for _ in range(_PROBE_ROUNDS):
        load = np.bincount(prim, weights=z, minlength=num_verts)
        load += np.bincount(alt, weights=1.0 - z, minlength=num_verts)
        charged = load > 0.0
        bound = float(np.min(weight[charged] / load[charged])) * OPT_BOUND_MARGIN
        if bound <= best:
            break  # water-filling stagnated
        best = bound
        if not any_movable:
            break
        congestion = load / safe_weight
        delta = np.sign(congestion[prim] - congestion[alt])
        z = np.where(movable, np.clip(z - _PROBE_STEP * delta, 0.0, 1.0), z)
    return best


def _probe_bound_python(
    peel,
    weight: list[float],
    alive_element: list[bool],
    num_verts: int,
) -> float:
    """Scalar twin of :func:`_probe_bound_vectorized`.

    Used for small hub-graphs (tight loops over a few dozen elements beat
    numpy call overhead).
    """
    prim_all = peel.assign_vert_list
    alt_all = peel.assign_alt_list
    prim: list[int] = []
    alt: list[int] = []
    z: list[float] = []
    movable: list[int] = []
    touched: set[int] = set()
    for ei, is_alive in enumerate(alive_element):
        if not is_alive:
            continue
        p, q = prim_all[ei], alt_all[ei]
        wp, wq = weight[p], weight[q]
        z.append(0.0 if (wp <= 0.0 and wq > 0.0) else 1.0)
        prim.append(p)
        alt.append(q)
        touched.add(p)
        touched.add(q)
        if p != q and wp > 0.0 and wq > 0.0:
            movable.append(len(z) - 1)
    charged = list(touched)
    load = [0.0] * num_verts
    for k, p in enumerate(prim):
        load[p] += z[k]
        load[alt[k]] += 1.0 - z[k]
    best = 0.0
    for _ in range(_PROBE_ROUNDS):
        bound = min(
            weight[v] / load[v] for v in charged if load[v] > 0.0
        ) * OPT_BOUND_MARGIN
        if bound <= best:
            break  # water-filling stagnated
        best = bound
        if not movable:
            break
        # shift charge toward the less congested endpoint, updating loads
        # in place (Gauss-Seidel) so each round is one pass over the
        # movable cross-edges instead of a full recount
        for k in movable:
            p, q = prim[k], alt[k]
            congestion_p = load[p] / weight[p]
            congestion_q = load[q] / weight[q]
            if congestion_p > congestion_q:
                shift = z[k] if z[k] < _PROBE_STEP else _PROBE_STEP
                if shift > 0.0:
                    z[k] -= shift
                    load[p] -= shift
                    load[q] += shift
            elif congestion_q > congestion_p:
                room = 1.0 - z[k]
                shift = room if room < _PROBE_STEP else _PROBE_STEP
                if shift > 0.0:
                    z[k] += shift
                    load[p] += shift
                    load[q] -= shift
    return best


def dense_vertex_weights(
    hub_graph: HubGraph, peel, arrays: OracleArrays
) -> np.ndarray:
    """All vertex weights of a CSR-built hub-graph in one vectorized pass.

    Leg element ``i`` touches exactly vertex ``i`` and
    :attr:`HubGraph.element_ids` lists legs first, so the scheduled-leg
    masks zero out exactly the paid vertices.  Shared by the peel and the
    exact max-flow oracle so both price identical weights bit-for-bit.
    """
    element_ids = hub_graph.element_ids
    num_x = len(hub_graph.x_nodes)
    num_verts = len(peel.verts)
    weight_x = np.where(
        arrays.push_mask[element_ids[:num_x]], 0.0, arrays.rp[peel.x_arr]
    )
    weight_y = np.where(
        arrays.pull_mask[element_ids[num_x:num_verts]],
        0.0,
        arrays.rc[peel.y_arr],
    )
    return np.concatenate((weight_x, weight_y))


def probe_optimum_bound(
    peel,
    weight: list[float],
    weight_arr: np.ndarray | None,
    alive_element: list[bool],
    alive_arr: np.ndarray | None,
    num_verts: int,
    num_elems: int,
) -> float:
    """Certified optimum-cost lower bound via the water-filled mediant probe.

    Twin dispatch shared by both oracles (the lazy schedulers memoize
    probe outcomes per hub state, so every oracle must produce identical
    bounds for identical inputs): vectorized on hub-graphs of at least
    :data:`_PROBE_VECTOR_THRESHOLD` elements, scalar otherwise — on every
    backend.  This dispatch is the one part of the file that is *not* the
    PR 19 parent's: that one ran the scalar twin on every dict-built
    hub-graph, which made heap keys (and, once the lazy scheduler kept
    peel champions across coverage events, schedules) depend on the graph
    backend.  The twins and the peel below are untouched.
    """
    if num_elems >= _PROBE_VECTOR_THRESHOLD:
        return _probe_bound_vectorized(
            peel,
            weight_arr if weight_arr is not None else np.asarray(weight),
            alive_arr
            if alive_arr is not None
            else np.asarray(alive_element, dtype=bool),
            num_verts,
        )
    return _probe_bound_python(peel, weight, alive_element, num_verts)


def reference_densest_subgraph(
    hub_graph: HubGraph,
    workload: Workload,
    schedule: RequestSchedule,
    uncovered: set[Edge],
    uncovered_mask: np.ndarray | None = None,
    arrays: OracleArrays | None = None,
    upper_bound: float | None = None,
) -> DensestResult | OracleCutoff | None:
    """Run the weighted peeling on ``hub_graph`` against ``uncovered``.

    Returns ``None`` when no sub-hub-graph covers any uncovered element.
    Deterministic: ties in the weighted degree break by vertex ordering.
    ``uncovered_mask`` is an optional dense bool vector over global edge
    ids (must agree with ``uncovered``) and ``arrays`` the matching
    schedule mirrors; both are used only when the hub-graph carries
    :attr:`HubGraph.element_ids`, turning element filtering, degree
    counting, and weight computation into vectorized ops.

    ``upper_bound`` enables the early exit: when the pre-peel relaxation
    proves the champion's cost per element strictly exceeds it, the peel
    is abandoned and an :class:`OracleCutoff` carrying the certified
    bound is returned instead of a result.
    """
    hub = hub_graph.hub
    index = element_index(hub_graph)
    peel = hub_graph.peel_index()
    verts = peel.verts
    endpoint_idx = peel.endpoint_idx
    incident = peel.incident
    num_verts = len(verts)
    num_elems = len(index)
    element_ids = hub_graph.element_ids
    vectorized = element_ids is not None
    use_vectorized = vectorized and uncovered_mask is not None

    # --- Restrict to the still-uncovered elements.
    if use_vectorized:
        alive_arr = uncovered_mask[element_ids]
        alive_element = alive_arr.tolist()
        alive_count = int(alive_arr.sum())
    else:
        alive_arr = None
        alive_element = [edge in uncovered for edge, _ in index]
        alive_count = sum(alive_element)
    if alive_count == 0:
        return None
    # the peel mutates alive_element; reconstruction needs the initial
    # state (alive_arr already preserves it on the vectorized path)
    initial_alive = alive_element.copy() if alive_arr is None else None

    # --- Degrees over alive elements; only incident vertices join the peel
    # (a positive-weight vertex with no alive element would peel off first
    # at ratio 0, a free one would be dropped as useless — excluding them
    # up front is output-equivalent and skips their bookkeeping).  Cutoff
    # probes never need degrees, so the vectorized path defers them until
    # after the probe's possible early exit.
    def compute_degrees() -> tuple[list[int], list[int]]:
        if alive_arr is not None:
            degree_arr = np.bincount(
                peel.inc_vert[alive_arr[peel.inc_elem]], minlength=num_verts
            )
            return degree_arr.tolist(), np.nonzero(degree_arr)[0].tolist()
        counts = [0] * num_verts
        for ei, alive in enumerate(alive_element):
            if alive:
                for i in endpoint_idx[ei]:
                    counts[i] += 1
        return counts, [i for i in range(num_verts) if counts[i] > 0]

    # --- Vertex weights (vectorized when the leg masks are available;
    # leg element i touches exactly vertex i, so element_ids[:num_verts]
    # are the leg edge ids in vertex order).  The scalar path prices only
    # vertices with an alive element, so it needs the degrees up front.
    weight_arr: np.ndarray | None = None
    degree: list[int] | None = None
    active: list[int] | None = None
    if arrays is not None and use_vectorized:
        weight_arr = dense_vertex_weights(hub_graph, peel, arrays)
        weight = weight_arr.tolist()
    else:
        degree, active = compute_degrees()
        weight = [
            vertex_weight(hub_graph, verts[i], workload, schedule)
            if degree[i] > 0
            else 0.0
            for i in range(num_verts)
        ]

    # --- Bounded probe (lazy CHITCHAT): a mediant relaxation floors the
    # *optimum* cost per element without peeling.  Distribute each alive
    # element's unit charge over its weighted endpoints: any sub-hub-graph
    # S covers at most ``sum(load[v] for v in S)`` elements at weight
    # ``sum(w[v] for v in S)``, so its ratio is at least
    # ``min_v w[v] / load[v]`` — valid for *every* fractional assignment
    # (by LP duality the best assignment attains the optimum exactly).  A
    # few water-filling rounds move cross-edge charge toward the less
    # congested endpoint, tightening the floor to near-exact; the moment
    # it beats ``upper_bound`` the peel is abandoned.
    mediant_bound = 0.0
    if upper_bound is not None:
        mediant_bound = probe_optimum_bound(
            peel, weight, weight_arr, alive_element, alive_arr, num_verts, num_elems
        )
        if mediant_bound > upper_bound:
            # even the relaxation costs more than the caller's incumbent:
            # no sub-hub-graph here can win — abandon before peeling
            return OracleCutoff(hub=hub, lower_bound=mediant_bound)

    if degree is None:
        degree, active = compute_degrees()

    # --- Peeling state (index-addressed).
    alive_vertex = [False] * num_verts
    total_weight = 0.0
    for i in active:
        alive_vertex[i] = True
        total_weight += weight[i]

    def ratio(i: int) -> float:
        if weight[i] <= 0.0:
            return math.inf  # free vertices are never peeled
        return degree[i] / weight[i]

    # Heap keys are (ratio, vertex); the trailing index is payload only —
    # it can never influence ordering since equal (ratio, vertex) implies
    # the same vertex, hence the same index.
    heap: list[tuple[float, HubVertex, int]] = [
        (ratio(i), verts[i], i) for i in active
    ]
    heapq.heapify(heap)

    # Track the best intermediate subgraph.  `removal_order` reconstructs it.
    best_cost = 0.0 if total_weight <= 0.0 else total_weight / alive_count
    best_covered = alive_count
    best_removed = 0  # prefix length of removal_order giving the best set
    removal_order: list[int] = []
    # Certificate for ``opt_lower_bound``: when the peel first removes a
    # vertex u of the optimal subgraph S*, the whole of S* is still alive,
    # so u's ratio is at least d(u in S*)/w(u) >= opt density (removing u
    # from S* cannot improve its density).  Hence opt density <= the
    # maximum removal ratio, i.e. optimum cost >= 1 / max_removal_ratio —
    # usually far tighter than the factor-2 worst case.
    max_removal_ratio = 0.0

    while heap:
        r, v, i = heapq.heappop(heap)
        if not alive_vertex[i] or r != ratio(i):
            continue  # stale heap entry
        if math.isinf(r):
            break  # only free vertices remain; peeling them never helps
        if r > max_removal_ratio:
            max_removal_ratio = r
        alive_vertex[i] = False
        removal_order.append(i)
        total_weight -= weight[i]
        for ei in incident[i]:
            if not alive_element[ei]:
                continue
            alive_element[ei] = False
            alive_count -= 1
            for j in endpoint_idx[ei]:
                if j != i and alive_vertex[j]:
                    degree[j] -= 1
                    heapq.heappush(heap, (ratio(j), verts[j], j))
        if alive_count > 0:
            cost = 0.0 if total_weight <= 0.0 else total_weight / alive_count
            if cost < best_cost or (
                cost == best_cost and alive_count > best_covered
            ):
                best_cost = cost
                best_covered = alive_count
                best_removed = len(removal_order)

    if best_covered <= 0 or math.isinf(best_cost):
        return None

    # --- Reconstruct the best subgraph: everything not in the removed
    # prefix.  One pass over the flat incidence arrays marks elements with
    # a removed endpoint; survivors among the initially-alive elements are
    # covered, and the distinct endpoints of covered elements (minus the
    # removed) are the selected vertices — dropping positive-weight
    # survivors that cover nothing (free-vertex early exit leaves them
    # behind), which would pad the cost for no coverage.
    removed_prefix = removal_order[:best_removed]
    removed_mask = np.zeros(num_verts, dtype=bool)
    if removed_prefix:
        removed_mask[np.asarray(removed_prefix, dtype=np.int64)] = True
    elem_removed = np.zeros(num_elems, dtype=bool)
    elem_removed[peel.inc_elem[removed_mask[peel.inc_vert]]] = True
    covered_arr = ~elem_removed
    covered_arr &= (
        alive_arr
        if alive_arr is not None
        else np.asarray(initial_alive, dtype=bool)
    )
    covered_pos = np.nonzero(covered_arr)[0].tolist()
    if not covered_pos:
        return None
    covered = {index[ei][0] for ei in covered_pos}
    useful = np.unique(peel.inc_vert[covered_arr[peel.inc_elem]])
    selected = useful[~removed_mask[useful]].tolist()
    # `selected` is ascending vertex indices and the vertex list follows
    # the canonical (repr-sorted) x_nodes/y_nodes order, so splitting by
    # side preserves the historical output order without re-sorting.
    xs = tuple(verts[i][1] for i in selected if verts[i][0] == X_SIDE)
    ys = tuple(verts[i][1] for i in selected if verts[i][0] != X_SIDE)
    final_weight = sum(weight[i] for i in selected)
    covered_ids = (
        element_ids[np.asarray(covered_pos, dtype=np.int64)]
        if vectorized
        else None
    )
    cost_per_element = final_weight / len(covered)
    opt_lb = max(mediant_bound, cost_per_element / 2.0)
    if max_removal_ratio > 0.0:
        opt_lb = max(opt_lb, OPT_BOUND_MARGIN / max_removal_ratio)
    # the returned subgraph is itself feasible, so the optimum can never
    # exceed its cost; the clamp guards the certificate against float fuzz
    opt_lb = min(opt_lb, cost_per_element * OPT_BOUND_MARGIN)
    return DensestResult(
        hub=hub,
        x_selected=xs,
        y_selected=ys,
        covered=frozenset(covered),
        weight=final_weight,
        covered_ids=covered_ids,
        opt_lower_bound=opt_lb,
    )
