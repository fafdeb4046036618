"""Weighted densest-subgraph oracle (paper section 3.1, Lemma 1).

CHITCHAT's greedy SET-COVER step must find, inside the maximal hub-graph of a
node ``w``, the sub-hub-graph with the best *cost per newly covered edge*:

    maximize  d_w(S) = |E(S) ∩ Z| / g(S)

where ``E(S)`` are the social edges the sub-hub-graph serves (its push legs,
pull legs, and cross-edges), ``Z`` the still-uncovered edges, and ``g`` the
vertex weights (production rates on the X side, consumption rates on the Y
side, zero for legs already paid for).

The paper solves this with the Asahiro/Charikar greedy adapted to weights:
iteratively delete the vertex minimizing the *weighted degree*
``d(u) / g(u)``, and return the best intermediate subgraph.  Lemma 1 proves
this is a factor-2 approximation.  This module implements that peeling with a
lazy heap, giving ``O(m log m)`` per oracle call.

Hypergraph note: a leg element touches a single weighted vertex (the hub
itself has weight zero and is structurally always present), while a
cross-edge touches one X-vertex and one Y-vertex.  The peeling treats both
uniformly: an element stays alive while all its weighted endpoints are alive.

Implementation notes
--------------------
The peel only admits vertices incident to at least one *uncovered*
element — vertices whose elements are all covered either peel off first at
ratio 0 (positive weight) or are dropped from the result as useless (zero
weight), so excluding them up front is output-equivalent and keeps
late-run oracle calls proportional to the remaining uncovered elements,
not the hub size.

There is one peel loop (:func:`_peel`) over flat index-addressed lists,
and two set-ups around it, chosen by the number of alive elements:

* the **small-problem path** (at most ``_SMALL_PEEL_THRESHOLD`` alive
  elements — most CELF re-evaluations late in a run, and every churn
  repair) renumbers the alive elements and the vertices they touch into a
  compact index and runs probe, peel and reconstruction on Python
  scalars: nothing is hub-graph sized, only touched vertices are priced,
  and no numpy runs after the alive-element gather;
* the **general path** keeps hub-graph-sized lists and uses numpy for
  degrees, weights and the reconstruction.

Both perform the same float operations in the same order, so which one
answers is unobservable (``tests/test_peel_kernel.py`` pins both, bit for
bit, to the frozen tuple-keyed peel of ``tests/reference_peel.py``).  Heap
entries are ``(ratio, rank, index)`` with ``rank`` the vertex's position in
tuple order, precomputed per hub-graph (:attr:`PeelIndex.rank`): ratio ties
cost one int compare instead of a nested-tuple compare.  A stale entry is
one whose ratio no longer equals the vertex's current one; free vertices
(weight <= 0) are never peeled and never enter the heap.

When the hub-graph was built on the CSR backend it carries the global edge
id of every element (:attr:`HubGraph.element_ids`); callers that maintain a
dense uncovered bitmask (the CHITCHAT CSR fast path) can pass it as
``uncovered_mask`` and the element filtering becomes one vectorized numpy
lookup instead of per-element set membership.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.hubgraph import HubGraph
from repro.core.tolerances import OPT_BOUND_MARGIN
from repro.core.schedule import RequestSchedule
from repro.errors import WorkloadError
from repro.graph.digraph import Edge, Node
from repro.workload.rates import Workload


@dataclass(frozen=True)
class DensestResult:
    """Best sub-hub-graph found for one hub.

    ``cost_per_element`` is ``g(S) / |covered|`` — the SET-COVER selection
    key (0.0 when the subgraph is free, ``inf`` when it covers nothing).
    ``covered_ids`` holds the global CSR edge ids of ``covered`` (same
    iteration order) when the hub-graph was CSR-built, else ``None``.

    ``opt_lower_bound`` is a certified lower bound on the *true optimum*
    cost per element over all sub-hub-graphs (``max`` of the pre-peel
    mediant relaxation and ``cost_per_element / 2`` from the Lemma 1
    factor-2 guarantee).  Unlike the peel's output — which can dip when
    covering events reshuffle the peel order — the true optimum only
    rises while no leg of the hub-graph is paid for, so this bound stays
    valid across coverage events: the lazy CHITCHAT heap uses it as the
    downgraded key of a dirtied champion.

    ``exact`` marks results produced by the parametric max-flow oracle
    (:mod:`repro.flow`): ``cost_per_element`` is then the true optimum
    itself, not a 2-approximation, so ``opt_lower_bound`` sits a float
    margin below it.  The lazy CHITCHAT heap retains *any* champion
    across coverage events that do not touch ``covered`` (its cost is
    unchanged and the optimum only rose, so a factor-2 answer stays one);
    for an ``exact`` one the retained champion is moreover still optimal,
    which keeps lazy and eager schedules byte-identical under that oracle.
    """

    hub: Node
    x_selected: tuple[Node, ...]
    y_selected: tuple[Node, ...]
    covered: frozenset[Edge]
    weight: float
    covered_ids: np.ndarray | None = None
    opt_lower_bound: float = 0.0
    exact: bool = False

    @property
    def density(self) -> float:
        """``|covered| / g(S)`` (``inf`` for free subgraphs)."""
        if not self.covered:
            return 0.0
        if self.weight <= 0.0:
            return math.inf
        return len(self.covered) / self.weight

    @property
    def cost_per_element(self) -> float:
        """``g(S) / |covered|``, the greedy SET-COVER priority."""
        if not self.covered:
            return math.inf
        return self.weight / len(self.covered)


@dataclass(frozen=True)
class OracleCutoff:
    """Early-exit outcome of a bounded oracle call.

    Returned by :func:`densest_subgraph` when ``upper_bound`` is given and
    the pre-peel mediant relaxation proves every sub-hub-graph of this hub
    costs at least ``lower_bound`` (> ``upper_bound``) per covered
    element: the caller's incumbent candidate cannot be beaten, so the
    ``O(m log m)`` peel is skipped after an ``O(m)`` probe.

    ``lower_bound`` is certified for the schedule state probed and remains
    a valid lower bound on the hub's champion cost while none of the
    hub-graph's legs is paid for: covering elements only shrinks the
    coverage a sub-hub-graph gets for the same weight (cost per element
    rises), whereas paying a leg zeroes a vertex weight (cost can drop).
    The lazy CHITCHAT schedulers requeue the bound as a dirty heap key and
    eagerly re-oracle hubs whose legs get scheduled.
    """

    hub: Node
    lower_bound: float


@dataclass(frozen=True)
class OracleArrays:
    """Dense mirrors of the scheduler state for the vectorized oracle.

    Maintained by the CSR-mode CHITCHAT schedulers alongside their
    :class:`RequestSchedule`: ``rp``/``rc`` are the
    :meth:`Workload.as_arrays` rate vectors, ``push_mask``/``pull_mask``
    are bool vectors over global edge ids marking scheduled legs.  With
    these (plus the hub-graph's :attr:`HubGraph.element_ids`) vertex
    weights are computed in one ``np.where`` instead of per-vertex set
    membership.
    """

    rp: np.ndarray
    rc: np.ndarray
    push_mask: np.ndarray
    pull_mask: np.ndarray


class ScheduleMirror:
    """Keeps the dense oracle mirrors in lockstep with a scheduler's state.

    A CSR-mode ``ChitchatScheduler`` owns one of these and routes
    every mutation through it: :meth:`add_push`/:meth:`add_pull`
    after the corresponding :class:`RequestSchedule` update, and
    :meth:`cover` whenever edges leave the uncovered set.  ``arrays`` is
    ``None`` when the workload has no dense id space (the oracle then
    prices legs in Python); the uncovered bitmask works regardless.
    """

    __slots__ = ("edge_ids", "uncovered_mask", "arrays")

    def __init__(self, graph, workload: Workload, edges: list[Edge]) -> None:
        self.edge_ids: dict[Edge, int] = {
            edge: i for i, edge in enumerate(edges)
        }
        self.uncovered_mask = np.ones(len(edges), dtype=bool)
        try:
            rp, rc = workload.as_arrays(graph.num_nodes)
        except WorkloadError:
            self.arrays: OracleArrays | None = None
        else:
            self.arrays = OracleArrays(
                rp=rp,
                rc=rc,
                push_mask=np.zeros(len(edges), dtype=bool),
                pull_mask=np.zeros(len(edges), dtype=bool),
            )

    def add_push(self, edge: Edge) -> None:
        if self.arrays is not None:
            self.arrays.push_mask[self.edge_ids[edge]] = True

    def add_pull(self, edge: Edge) -> None:
        if self.arrays is not None:
            self.arrays.pull_mask[self.edge_ids[edge]] = True

    def cover(self, edges, edge_ids: np.ndarray | None = None) -> None:
        """Clear uncovered bits for ``edges`` (by precomputed ids if given)."""
        if edge_ids is not None:
            self.uncovered_mask[edge_ids] = False
        else:
            for edge in edges:
                self.uncovered_mask[self.edge_ids[edge]] = False

    def cover_all(self) -> None:
        self.uncovered_mask[:] = False


#: Water-filling rounds of the bounded probe.  Each round costs a couple
#: of weighted bincounts and the probe exits the moment its floor beats
#: the caller's bound, so typical probes stop after one or two rounds.
_PROBE_ROUNDS = 6
#: Charge fraction a cross-edge shifts toward its less congested endpoint
#: per round.
_PROBE_STEP = 0.25
#: Below this *hub-graph* element count the probe runs its scalar twin —
#: per-call numpy overhead dominates on tiny hub-graphs.  The twins are
#: different iterations (vectorized = Jacobi, scalar = Gauss–Seidel) whose
#: bounds differ in the last digits and become heap keys, and the lazy
#: scheduler's retained champions make the schedule a function of every
#: heap key, so the choice must depend on the hub-graph's size alone:
#: never on how many of its elements are still alive, nor on which graph
#: backend built it.
_PROBE_VECTOR_THRESHOLD = 192
#: At or below this many alive (still-uncovered) elements the oracle runs
#: on Python scalars over the compact alive index; above it the numpy
#: set-up and reconstruction pay for themselves.  Measured, not guessed:
#: replaying recorded calls on warm hub-graphs, full peels break even at
#: 64-96 alive elements (probe cutoffs earlier, at 8-16), and a hub-graph
#: that never leaves the small path never builds its incidence lists and
#: numpy mirrors.  End to end (perf ledger, seed 1, 6 interleaved runs per
#: value, ``items_per_s`` against 64): 24 and 128 sit within +-4 % on
#: ``copying_peel`` / ``churn_delta`` (a flat plateau); 0 — general path
#: only — loses 26 % on ``churn_delta``, 15 % on ``ldbc_shard``, 17 % on
#: ``copying_peel``; 10**9 — small path only — ties on the first two,
#: loses 14 % on ``copying_peel`` and lengthens the E12 bench's walls by
#: 19-27 %.  Neither set-up is dispensable.
_SMALL_PEEL_THRESHOLD = 64


def _probe_bound_vectorized(
    prim: np.ndarray,
    alt: np.ndarray,
    weight: np.ndarray,
    num_verts: int,
) -> float:
    """Best water-filled mediant floor found (margin applied), vectorized.

    ``prim``/``alt`` are the alive elements' primary and alternate
    vertices, indexing ``weight`` (finite, non-negative).  Deterministic
    in the oracle inputs alone — it always runs to stagnation (or the
    round cap) so callers may cache the answer per hub-state and skip
    re-probing an unchanged state.

    Every load is a sum of multiples of ``_PROBE_STEP`` (a power of two),
    hence exact in any summation order: only the *movable* cross-edges
    (both endpoints weighted) are iterated, as signed shifts on top of
    the round-one loads, and the floors still equal, bit for bit, those
    of recounting every element's charge each round.
    """
    prim_weighted = weight[prim] > 0.0
    alt_weighted = weight[alt] > 0.0
    # all charge starts on the X side, except crosses whose X endpoint is
    # already free while Y is not (charging a free vertex floors the bound
    # at zero; both endpoints free genuinely means free coverage)
    start = np.where(alt_weighted > prim_weighted, alt, prim)
    load = start_load = np.bincount(start, minlength=num_verts)
    movable = (prim != alt) & prim_weighted & alt_weighted
    num_movable = int(np.count_nonzero(movable))
    ends = np.concatenate((prim[movable], alt[movable]))
    end_weight = weight[ends]
    # charge shifted so far from each movable cross-edge's primary (first
    # half, negated) to its alternate (second half)
    shifted = np.zeros(2 * num_movable)
    from_prim = shifted[:num_movable]
    to_alt = shifted[num_movable:]
    best = 0.0
    # an uncharged vertex divides to inf (or, if free, to nan): fmin skips
    # both, and some vertex is always charged
    with np.errstate(divide="ignore", invalid="ignore"):
        for rounds_left in range(_PROBE_ROUNDS - 1, -1, -1):
            bound = float(np.fmin.reduce(weight / load)) * OPT_BOUND_MARGIN
            if bound <= best:
                break  # water-filling stagnated
            best = bound
            if not (num_movable and rounds_left):
                break
            # shift charge toward the less congested endpoint (Jacobi: all
            # cross-edges move against the same loads)
            congestion = load[ends] / end_weight
            step = congestion[:num_movable] - congestion[num_movable:]
            np.sign(step, out=step)
            step *= _PROBE_STEP
            to_alt += step
            np.maximum(to_alt, 0.0, out=to_alt)
            np.minimum(to_alt, 1.0, out=to_alt)
            np.negative(to_alt, out=from_prim)
            load = np.bincount(ends, weights=shifted, minlength=num_verts)
            load += start_load
    return best


def _probe_bound_python(
    prim: list[int],
    alt: list[int],
    weight: list[float],
    num_verts: int,
) -> float:
    """Scalar twin of :func:`_probe_bound_vectorized`.

    Used for small hub-graphs (tight loops over a few dozen elements beat
    numpy call overhead).  Walks the alive elements only.
    """
    load = [0.0] * num_verts
    # movable cross-edges (both endpoints weighted), each with the charge
    # fraction ``z`` it keeps on its primary endpoint; every other element
    # stays where it starts
    mov_prim: list[int] = []
    mov_alt: list[int] = []
    for p, q in zip(prim, alt):
        if weight[p] > 0.0:
            load[p] += 1.0
            if p != q and weight[q] > 0.0:
                mov_prim.append(p)
                mov_alt.append(q)
        elif weight[q] > 0.0:
            load[q] += 1.0  # charging the free X endpoint would floor at zero
        else:
            load[p] += 1.0
    z = [1.0] * len(mov_prim)
    charged = {*prim, *alt}
    best = 0.0
    for _ in range(_PROBE_ROUNDS):
        bound = (
            min([weight[v] / load[v] for v in charged if load[v] > 0.0])
            * OPT_BOUND_MARGIN
        )
        if bound <= best:
            break  # water-filling stagnated
        best = bound
        if not z:
            break
        # shift charge toward the less congested endpoint, updating loads
        # in place (Gauss-Seidel) so each round is one pass over the
        # movable cross-edges instead of a full recount
        for k, p in enumerate(mov_prim):
            q = mov_alt[k]
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


def _vector_probe(num_elems: int) -> bool:
    """Which probe twin answers — decided by the hub-graph's size alone
    (see :data:`_PROBE_VECTOR_THRESHOLD`), the same on every backend."""
    return num_elems >= _PROBE_VECTOR_THRESHOLD


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

    The exact oracle's entry to the probe the peel runs (the lazy
    schedulers memoize probe outcomes per hub state, so every oracle must
    produce identical bounds for identical inputs): same twins, same
    :func:`_vector_probe` dispatch, over the whole-hub-graph index.
    """
    if _vector_probe(num_elems):
        if alive_arr is None:
            alive_arr = np.asarray(alive_element, dtype=bool)
        return _probe_bound_vectorized(
            peel.assign_vert[alive_arr],
            peel.assign_alt[alive_arr],
            weight_arr if weight_arr is not None else np.asarray(weight),
            num_verts,
        )
    prim_all = peel.assign_vert_list
    alt_all = peel.assign_alt_list
    alive_pos = [ei for ei, alive in enumerate(alive_element) if alive]
    return _probe_bound_python(
        [prim_all[ei] for ei in alive_pos],
        [alt_all[ei] for ei in alive_pos],
        weight,
        num_verts,
    )


def _peel(
    active: Iterable[int],
    weight: list[float],
    degree: list[int],
    rank: list[int],
    incident: list[list[int]],
    prim: list[int],
    alt: list[int],
    alive_element: list[bool],
    alive_count: int,
) -> tuple[list[int], float] | None:
    """The weighted peel itself, on index-addressed state.

    ``active`` lists, in ascending order, the vertices with an alive
    element; ``weight``/``degree``/``rank``/``incident`` are indexed by
    vertex and ``prim``/``alt`` (an element's two endpoints, equal for a
    leg) / ``alive_element`` by element — in whatever index space the
    caller set up (whole hub-graph or compact alive index).  Mutates
    ``degree`` and ``alive_element``.

    Returns the removed prefix that leaves the best intermediate
    subgraph — never an empty one: a prefix only counts while an element
    is still alive — and the maximum removal ratio seen, or ``None`` when
    no prefix has a finite cost (the weights' sum overflows).
    """
    inf = math.inf
    push = heapq.heappush
    pop = heapq.heappop
    # Heap keys are (ratio, rank); the trailing index is payload only.
    # Free vertices (weight <= 0) are never peeled, so they never enter
    # the heap and count as not peelable from the start.
    peelable = [False] * len(weight)
    current = [inf] * len(weight)  # the ratio of each vertex's live entry
    heap: list[tuple[float, int, int]] = []
    total_weight = 0.0
    for i in active:
        w = weight[i]
        total_weight += w
        if w > 0.0:
            peelable[i] = True
            current[i] = r = degree[i] / w
            heap.append((r, rank[i], i))
    heapq.heapify(heap)

    # Track the best intermediate subgraph; the removal order's prefix of
    # length `best_removed` reconstructs it.
    best_cost = 0.0 if total_weight <= 0.0 else total_weight / alive_count
    best_covered = alive_count
    best_removed = 0
    removal_order: list[int] = []
    # Certificate for ``opt_lower_bound``: when the peel first removes a
    # vertex u of the optimal subgraph S*, the whole of S* is still alive,
    # so u's ratio is at least d(u in S*)/w(u) >= opt density (removing u
    # from S* cannot improve its density).  Hence opt density <= the
    # maximum removal ratio, i.e. optimum cost >= 1 / max_removal_ratio —
    # usually far tighter than the factor-2 worst case.
    max_removal_ratio = 0.0

    while heap:
        r, _, i = pop(heap)
        if not peelable[i] or r != current[i]:
            continue  # stale heap entry
        if r == inf:
            break  # degree / denormal weight overflowed: stop peeling
        if r > max_removal_ratio:
            max_removal_ratio = r
        peelable[i] = False
        removal_order.append(i)
        total_weight -= weight[i]
        for ei in incident[i]:
            if not alive_element[ei]:
                continue
            alive_element[ei] = False
            alive_count -= 1
            j = prim[ei]
            if j == i:
                j = alt[ei]
            if peelable[j]:  # false for j == i, removed just above
                degree[j] = d = degree[j] - 1
                current[j] = r = d / weight[j]
                push(heap, (r, rank[j], j))
        if alive_count > 0:
            cost = 0.0 if total_weight <= 0.0 else total_weight / alive_count
            if cost < best_cost or (
                cost == best_cost and alive_count > best_covered
            ):
                best_cost = cost
                best_covered = alive_count
                best_removed = len(removal_order)

    if best_cost == inf:
        return None
    return removal_order[:best_removed], max_removal_ratio


def densest_subgraph(
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
    element_ids = hub_graph.element_ids
    # --- Restrict to the still-uncovered elements: the compact alive index.
    if element_ids is not None and uncovered_mask is not None:
        alive_arr = uncovered_mask[element_ids]
        alive_pos = alive_arr.nonzero()[0]
    else:
        alive_arr = None
        arrays = None  # the dense mirrors are addressed by element_ids
        alive_pos = [
            ei
            for ei, (edge, _) in enumerate(hub_graph.element_index())
            if edge in uncovered
        ]
    if len(alive_pos) == 0:
        return None
    solve = (
        _densest_small
        if len(alive_pos) <= _SMALL_PEEL_THRESHOLD
        else _densest_general
    )
    return solve(
        hub_graph, workload, schedule, alive_pos, alive_arr, arrays, upper_bound
    )


def _densest_small(
    hub_graph: HubGraph,
    workload: Workload,
    schedule: RequestSchedule,
    alive_pos,
    alive_arr: np.ndarray | None,
    arrays: OracleArrays | None,
    upper_bound: float | None,
) -> DensestResult | OracleCutoff | None:
    """Small-problem path: Python scalars over the compact alive index.

    Elements are renumbered ``0..m-1`` in ``alive_pos`` order and the
    vertices they touch ``0..t-1`` in ascending vertex order, so every
    list below is O(alive), whatever the hub-graph's size, and only
    touched vertices are priced.  Performs the float operations of
    :func:`_densest_general` in the same order — results are equal bit
    for bit (``tests/test_peel_kernel.py``).
    """
    peel = hub_graph.peel_index()
    if alive_arr is not None:
        alive_pos = alive_pos.tolist()
    prim_all = peel.assign_vert_list
    alt_all = peel.assign_alt_list
    prim_verts = [prim_all[ei] for ei in alive_pos]
    alt_verts = [alt_all[ei] for ei in alive_pos]
    active = sorted({*prim_verts, *alt_verts})
    num_active = len(active)
    local = dict(zip(active, range(num_active)))
    prim = [local[i] for i in prim_verts]
    alt = [local[i] for i in alt_verts]

    verts = peel.verts
    if arrays is not None:
        num_x = len(hub_graph.x_nodes)
        leg_id = hub_graph.element_ids.item
        push_paid = arrays.push_mask.item
        pull_paid = arrays.pull_mask.item
        rp = arrays.rp.item
        rc = arrays.rc.item
        weight = [
            (0.0 if push_paid(leg_id(i)) else rp(verts[i][1]))
            if i < num_x
            else (0.0 if pull_paid(leg_id(i)) else rc(verts[i][1]))
            for i in active
        ]
    else:
        vertex_weight = hub_graph.vertex_weight
        weight = [vertex_weight(verts[i], workload, schedule) for i in active]

    mediant_bound = 0.0
    if upper_bound is not None:
        # the twin is chosen by hub-graph size, as on the general path
        if _vector_probe(len(prim_all)):
            mediant_bound = _probe_bound_vectorized(
                np.asarray(prim, dtype=np.int64),
                np.asarray(alt, dtype=np.int64),
                np.asarray(weight, dtype=np.float64),
                num_active,
            )
        else:
            mediant_bound = _probe_bound_python(prim, alt, weight, num_active)
        if mediant_bound > upper_bound:
            return OracleCutoff(hub=hub_graph.hub, lower_bound=mediant_bound)

    incident: list[list[int]] = [[] for _ in active]
    for k, (p, q) in enumerate(zip(prim, alt)):
        incident[p].append(k)
        if q != p:
            incident[q].append(k)
    rank = peel.rank
    peeled = _peel(
        range(num_active),
        weight,
        [len(elems) for elems in incident],
        [rank[i] for i in active],
        incident,
        prim,
        alt,
        [True] * len(alive_pos),
        len(alive_pos),
    )
    if peeled is None:
        return None
    removed_prefix, max_removal_ratio = peeled

    # --- Reconstruct: covered = alive elements with no removed endpoint,
    # selected = their endpoints (see _densest_general).
    removed = [False] * num_active
    for t in removed_prefix:
        removed[t] = True
    covered_local = [
        k
        for k, (p, q) in enumerate(zip(prim, alt))
        if not (removed[p] or removed[q])
    ]
    useful = [False] * num_active
    for k in covered_local:
        useful[prim[k]] = True
        useful[alt[k]] = True
    selected_local = [t for t in range(num_active) if useful[t]]
    return _package(
        hub_graph,
        [active[t] for t in selected_local],
        sum([weight[t] for t in selected_local]),
        [alive_pos[k] for k in covered_local],
        mediant_bound,
        max_removal_ratio,
    )


def _densest_general(
    hub_graph: HubGraph,
    workload: Workload,
    schedule: RequestSchedule,
    alive_pos,
    alive_arr: np.ndarray | None,
    arrays: OracleArrays | None,
    upper_bound: float | None,
) -> DensestResult | OracleCutoff | None:
    """General path: hub-graph-sized index-addressed state, numpy set-up
    and reconstruction around the shared :func:`_peel`."""
    peel = hub_graph.peel_index()
    verts = peel.verts
    prim = peel.assign_vert_list
    alt = peel.assign_alt_list
    num_verts = len(verts)
    num_elems = len(prim)

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
        for ei in alive_pos:
            counts[prim[ei]] += 1
            if alt[ei] != prim[ei]:
                counts[alt[ei]] += 1
        return counts, [i for i in range(num_verts) if counts[i] > 0]

    # --- Vertex weights (vectorized when the leg masks are available;
    # leg element i touches exactly vertex i, so element_ids[:num_verts]
    # are the leg edge ids in vertex order).  The scalar path prices only
    # vertices with an alive element, so it needs the degrees up front.
    weight_arr: np.ndarray | None = None
    degree: list[int] | None = None
    active: list[int] | None = None
    if arrays is not None:
        weight_arr = dense_vertex_weights(hub_graph, peel, arrays)
        weight = weight_arr.tolist()
    else:
        degree, active = compute_degrees()
        weight = [
            hub_graph.vertex_weight(verts[i], workload, schedule)
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
        if _vector_probe(num_elems):
            mediant_bound = _probe_bound_vectorized(
                peel.assign_vert[alive_pos],
                peel.assign_alt[alive_pos],
                weight_arr if weight_arr is not None else np.asarray(weight),
                num_verts,
            )
        else:
            alive_list = alive_pos if alive_arr is None else alive_pos.tolist()
            mediant_bound = _probe_bound_python(
                [prim[ei] for ei in alive_list],
                [alt[ei] for ei in alive_list],
                weight,
                num_verts,
            )
        if mediant_bound > upper_bound:
            # even the relaxation costs more than the caller's incumbent:
            # no sub-hub-graph here can win — abandon before peeling
            return OracleCutoff(hub=hub_graph.hub, lower_bound=mediant_bound)

    # hub-graph-sized peel state, built only once the probe has let the
    # call through
    if alive_arr is not None:
        alive_element = alive_arr.tolist()
    else:
        alive_element = [False] * num_elems
        for ei in alive_pos:
            alive_element[ei] = True
    if degree is None:
        degree, active = compute_degrees()
    peeled = _peel(
        active,
        weight,
        degree,
        peel.rank,
        peel.incident,
        prim,
        alt,
        alive_element,
        len(alive_pos),
    )
    if peeled is None:
        return None
    removed_prefix, max_removal_ratio = peeled

    # --- Reconstruct the best subgraph: everything not in the removed
    # prefix.  One pass over the flat incidence arrays marks elements with
    # a removed endpoint; survivors among the initially-alive elements are
    # covered, and the distinct endpoints of covered elements are the
    # selected vertices — dropping positive-weight survivors that cover
    # nothing (the peel stops at the free vertices and leaves them
    # behind), which would pad the cost for no coverage.
    removed_mask = np.zeros(num_verts, dtype=bool)
    if removed_prefix:
        removed_mask[np.asarray(removed_prefix, dtype=np.int64)] = True
    covered_arr = np.zeros(num_elems, dtype=bool)
    covered_arr[alive_pos] = True
    covered_arr[peel.inc_elem[removed_mask[peel.inc_vert]]] = False
    covered_pos = np.nonzero(covered_arr)[0].tolist()
    # ascending vertex indices, summed by Python's sequential ``sum``
    # (``np.sum`` is pairwise and differs in the last bit)
    selected = np.unique(peel.inc_vert[covered_arr[peel.inc_elem]]).tolist()
    return _package(
        hub_graph,
        selected,
        sum([weight[i] for i in selected]),
        covered_pos,
        mediant_bound,
        max_removal_ratio,
    )


def _package(
    hub_graph: HubGraph,
    selected: list[int],
    final_weight: float,
    covered_pos: list[int],
    mediant_bound: float,
    max_removal_ratio: float,
) -> DensestResult:
    """The oracle's result for ``selected`` vertices covering the elements
    at ``covered_pos`` (both ascending hub-graph indices)."""
    hub = hub_graph.hub
    element_ids = hub_graph.element_ids
    # `selected` is ascending vertex indices and the vertex list follows
    # the canonical (repr-sorted) x_nodes/y_nodes order, so splitting by
    # side preserves the historical output order without re-sorting.
    x_nodes = hub_graph.x_nodes
    y_nodes = hub_graph.y_nodes
    num_x = len(x_nodes)
    covered = frozenset(hub_graph.edges_at(covered_pos))
    cost_per_element = final_weight / len(covered)
    opt_lb = max(mediant_bound, cost_per_element / 2.0)
    if max_removal_ratio > 0.0:
        opt_lb = max(opt_lb, OPT_BOUND_MARGIN / max_removal_ratio)
    # the returned subgraph is itself feasible, so the optimum can never
    # exceed its cost; the clamp guards the certificate against float fuzz
    opt_lb = min(opt_lb, cost_per_element * OPT_BOUND_MARGIN)
    return DensestResult(
        hub=hub,
        x_selected=tuple([x_nodes[i] for i in selected if i < num_x]),
        y_selected=tuple([y_nodes[i - num_x] for i in selected if i >= num_x]),
        covered=covered,
        weight=final_weight,
        covered_ids=(
            element_ids.take(covered_pos) if element_ids is not None else None
        ),
        opt_lower_bound=opt_lb,
    )


def unweighted_densest_subgraph(
    adjacency: dict[Node, set[Node]],
) -> tuple[set[Node], float]:
    """Charikar's classic 2-approximation on an undirected graph.

    Provided as the reference implementation the weighted variant
    generalizes; used by tests to cross-check the peeling machinery (with all
    weights 1 the two must agree) and exposed for reuse.

    Parameters
    ----------
    adjacency:
        Symmetric adjacency: ``b in adjacency[a]`` iff ``a in adjacency[b]``.

    Returns
    -------
    (nodes, density):
        The best subset found and its density ``|E(S)| / |S|``.
    """
    nodes = list(adjacency)
    if not nodes:
        return set(), 0.0
    degree = {v: len(adjacency[v]) for v in nodes}
    alive = {v: True for v in nodes}
    edge_count = sum(degree.values()) // 2
    node_count = len(nodes)
    # integer tie-break ranks (one repr sort up front instead of a string
    # per heap entry); rank order matches the historical repr ordering
    rank = {v: i for i, v in enumerate(sorted(nodes, key=repr))}
    heap = [(degree[v], rank[v], v) for v in nodes]
    heapq.heapify(heap)
    best_density = edge_count / node_count
    best_removed = 0
    removal_order: list[Node] = []
    while node_count > 1:
        d, _, v = heapq.heappop(heap)
        if not alive[v] or d != degree[v]:
            continue
        alive[v] = False
        removal_order.append(v)
        node_count -= 1
        edge_count -= degree[v]
        for u in adjacency[v]:
            if alive[u]:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], rank[u], u))
        density = edge_count / node_count
        if density > best_density:
            best_density = density
            best_removed = len(removal_order)
    removed = set(removal_order[:best_removed])
    return {v for v in nodes if v not in removed}, best_density
