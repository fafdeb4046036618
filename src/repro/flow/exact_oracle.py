"""Exact densest-subgraph oracle with the peel oracle's calling contract.

:class:`ExactOracle` is a drop-in replacement for
:func:`repro.core.densest.densest_subgraph`: same signature, same
``DensestResult | OracleCutoff | None`` outcomes, but the champion it
returns is the *true optimum* sub-hub-graph (parametric max-flow,
:mod:`repro.flow.parametric`) rather than the Lemma-1 2-approximation.
It is also a *session*: per-hub flow problems persist across calls
(LRU-capped), and each call repairs the previous preflow instead of
rebuilding it — see the class docstring.
Results carry ``exact=True`` and an ``opt_lower_bound`` one float margin
below the optimum itself.  The lazy CHITCHAT heap retains any champion
whose covered set a covering event does not touch (see
``ChitchatScheduler._invalidate``); the exact optimum is monotone
non-decreasing under coverage events, so a retained *exact* champion
stays exactly optimal — which keeps lazy and eager runs byte-identical
under this oracle — and a dirtied one is parked at its true cost rather
than at a factor-2 certificate.

The probe-based ``upper_bound`` early exit is *shared* with the peel
(:func:`repro.core.densest.probe_optimum_bound`): the lazy scheduler
memoizes probe outcomes per hub state, so both oracles must certify
identical bounds for identical inputs — and the O(m) probe is exactly as
valid a reason to skip an exact max-flow as it is to skip a peel.

Oracle-mode validation lives here too: ``oracle="peel"`` (the default
everywhere) or ``"exact"`` (this module's oracle on every hub-graph).
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.densest import (
    DensestResult,
    OracleArrays,
    OracleCutoff,
    dense_vertex_weights,
    probe_optimum_bound,
)
from repro.core.hubgraph import HubGraph
from repro.core.schedule import RequestSchedule
from repro.core.tolerances import BATCH_MIN_BLOCKS, OPT_BOUND_MARGIN
from repro.errors import ReproError
from repro.flow.maxflow import validate_flow_method
from repro.flow.batched_solve import BatchedNetwork, FlowStats
from repro.flow.parametric import (
    MAX_DINKELBACH_ITERATIONS,
    ParametricDensest,
    _Prepared,
)
from repro.graph.digraph import Edge, Node
from repro.obs import trace
from repro.obs.metrics import MetricNode
from repro.workload.rates import Workload

#: Valid ``oracle=`` arguments of the scheduling entry points.
ORACLE_MODES = ("peel", "exact")

#: Default ceiling on cached per-hub flow problems in an
#: :class:`ExactOracle` session.  Each cached
#: :class:`~repro.flow.parametric.ParametricDensest` holds the compiled
#: arcs plus the warm preflow.  Measured with ``tracemalloc`` on the perf
#: ledger's ``copying_exact`` instance (n=3000), that is about 0.7 KB per
#: hub-graph element: 713 B on loop networks, 737 B on wave ones.  At that
#: instance's mean of 45 elements per hub-graph the cap bounds the
#: session near 260 MB, and it never evicts on the benchmarked workloads
#: (every E10–E15 instance has fewer eligible hubs).  Least-recently-
#: *solved* hubs are evicted first; an evicted hub simply rebuilds cold
#: on its next call, and a hub with nothing left uncovered releases its
#: network outright.
ORACLE_SESSION_HUBS = 8192


@dataclass
class _PricedHub:
    """One hub-graph priced for an oracle solve (shared peel pricing).

    Produced by :meth:`ExactOracle._price` and consumed by
    :meth:`ExactOracle._package`, on both the sequential
    :meth:`ExactOracle.__call__` path and the batched
    :class:`MultiHubSession` — pricing and packaging are byte-identical
    by construction because both paths run the same code.  Elements are
    addressed by :class:`~repro.core.hubgraph.PeelIndex` position; their
    edges are decoded only for the covered set of the packaged result.
    """

    hub_graph: HubGraph
    peel: object
    element_ids: np.ndarray | None
    weight: list[float]
    weight_arr: np.ndarray | None
    alive_element: list[bool]
    alive_arr: np.ndarray | None
    num_verts: int
    num_elems: int

    def probe_bound(self) -> float:
        """The peel's O(m) mediant probe bound for this pricing."""
        return probe_optimum_bound(
            self.peel,
            self.weight,
            self.weight_arr,
            self.alive_element,
            self.alive_arr,
            self.num_verts,
            self.num_elems,
        )


def validate_oracle_mode(oracle: str) -> None:
    """Raise :class:`ReproError` naming the options unless ``oracle`` is one."""
    if oracle not in ORACLE_MODES:
        raise ReproError(
            f"unknown oracle mode {oracle!r}; options: {ORACLE_MODES}"
        )


class ExactOracle:
    """Stateful exact oracle session: one cached flow problem per hub.

    A hub-graph's incidence structure never changes over a scheduler run
    (only coverage and leg payments do), so the per-hub
    :class:`~repro.flow.parametric.ParametricDensest` network is compiled
    once and re-parameterized on every call — and each call *repairs the
    previous call's preflow* instead of resetting it: coverage only
    removes element arcs and leg payments only shrink vertex weights, so
    most of the routed flow is still valid and the per-hub solver re-runs
    its density search seeded from the hub's previous optimum.
    ``warm=False`` (per-call cold solves) exists only as the reference
    the differential tests compare warm sessions against: both return
    byte-identical results, and every scheduler runs warm.

    Schedulers own one session per run; the cache is keyed by hub node
    and capped at ``max_cached`` problems (:data:`ORACLE_SESSION_HUBS`,
    ``None`` = unbounded) with least-recently-solved eviction, so
    million-hub graphs cannot pin one flow network per hub in memory.

    Session counters (cumulative, read by the schedulers into their
    run stats): ``warm_solves`` — flow solves that resumed a preflow;
    ``preflow_repairs`` — capacity decreases that cancelled routed flow;
    ``flow_passes`` — solver work units (loop discharges / wave sweeps),
    the E15 benchmark's warm-vs-cold metric; ``evictions`` — cache
    evictions under the ``max_cached`` cap; ``peak_cached`` — the most
    networks cached at once.  A call that finds no uncovered element
    releases the hub's network: coverage only shrinks within a run.
    """

    def __init__(
        self,
        warm: bool = True,
        max_cached: int | None = ORACLE_SESSION_HUBS,
        method: str = "auto",
        metrics: MetricNode | None = None,
    ) -> None:
        if max_cached is not None and max_cached < 1:
            raise ReproError(
                f"max_cached must be >= 1 or None, got {max_cached!r}"
            )
        validate_flow_method(method)
        self.warm = warm
        self.max_cached = max_cached
        #: Flow kernel selection threaded into every per-hub network and
        #: network of this session (``"auto"``/``"wave"``/``"loop"``, see
        #: :data:`repro.flow.maxflow.FLOW_METHODS`; batched arenas always
        #: run the wave kernel).  Kernel choice is a pure perf knob:
        #: results are byte-identical across methods.
        self.method = method
        self.warm_solves = 0
        self.preflow_repairs = 0
        self.flow_passes = 0
        self.evictions = 0
        #: Most flow networks the session held cached at once.
        self.peak_cached = 0
        #: Kernel profile of this session: solver entries (sequential
        #: and arena), batched dispatch counts, and the batched tier's
        #: freeze/discharge/relabel time split.  When a scheduler passes
        #: its registry's ``oracle`` node via ``metrics``, these cells
        #: live in the run's tree (under ``oracle/flow``) and the
        #: scheduler-level stats views share them.
        self.flow_stats = FlowStats(
            node=metrics.node("flow") if metrics is not None else None
        )
        # hub -> (peel index the network was compiled from, compiled
        # problem); the peel reference backs an O(1) identity check that
        # the hub-graph is still the one the session knows
        self._problems: OrderedDict[Node, tuple[object, ParametricDensest]] = (
            OrderedDict()
        )

    def _problem(self, hub_graph: HubGraph) -> ParametricDensest:
        peel = hub_graph.peel_index()
        entry = self._problems.get(hub_graph.hub)
        problem = None
        if entry is not None:
            cached_peel, problem = entry
            if cached_peel is not peel and (
                problem.num_verts != len(peel.verts)
                or problem.endpoints != [tuple(e) for e in peel.endpoint_idx]
            ):
                # same hub id, different hub-graph: the session outlived
                # the graph it was built against (sessions are per
                # scheduler run; reuse across graphs is a caller bug we
                # refuse to serve with a stale network).  The schedulers
                # cache HubGraph objects and peel_index() is memoized, so
                # correct use hits the identity check above and the full
                # incidence comparison — not a shape check, since two
                # hubs of a regular graph can share vertex/element counts
                # exactly — runs only on genuine cache misses.
                problem = None
        if problem is None:
            problem = ParametricDensest(
                peel.endpoint_idx,
                len(peel.verts),
                method=self.method,
                warm=self.warm,
            )
        self._problems[hub_graph.hub] = (peel, problem)
        self._problems.move_to_end(hub_graph.hub)
        if (
            self.max_cached is not None
            and len(self._problems) > self.max_cached
        ):
            self._problems.popitem(last=False)
            self.evictions += 1
        self.peak_cached = max(self.peak_cached, len(self._problems))
        return problem

    def invalidate(self, hub: Node) -> None:
        """Force the hub's next solve cold (keep its compiled network).

        The per-call capacity diff keeps a session consistent across any
        monotone covering sequence on its own; this hook exists for
        callers that mutate coverage *non-monotonically* between calls
        (e.g. recycling a session across scheduler runs).
        """
        entry = self._problems.get(hub)
        if entry is not None:
            entry[1].invalidate()

    def invalidate_all(self) -> None:
        """Cold-restart every cached hub problem (see :meth:`invalidate`)."""
        for _peel, problem in self._problems.values():
            problem.invalidate()

    def __call__(
        self,
        hub_graph: HubGraph,
        workload: Workload,
        schedule: RequestSchedule,
        uncovered: set[Edge],
        uncovered_mask: np.ndarray | None = None,
        arrays: OracleArrays | None = None,
        upper_bound: float | None = None,
    ) -> DensestResult | OracleCutoff | None:
        """Exact counterpart of :func:`~repro.core.densest.densest_subgraph`."""
        priced = self._price(
            hub_graph, workload, schedule, uncovered, uncovered_mask, arrays
        )
        if priced is None:
            return None

        # --- Bounded probe: identical certificate to the peel's, so the
        # schedulers' per-state probe memoization stays oracle-agnostic.
        if upper_bound is not None:
            mediant_bound = priced.probe_bound()
            if mediant_bound > upper_bound:
                return OracleCutoff(hub=hub_graph.hub, lower_bound=mediant_bound)

        problem = self._problem(hub_graph)
        net = problem.net
        passes_before, repairs_before = net.passes, net.repairs
        warm_before, solves_before = problem.warm_solves, net.solves
        seconds_before = net.solve_seconds
        with trace.span("oracle.solve") as span:
            selection = problem.solve(priced.weight, priced.alive_element)
            span.set(
                hub=hub_graph.hub,
                warm=problem.warm_solves > warm_before,
                passes=net.passes - passes_before,
            )
        self.flow_passes += net.passes - passes_before
        self.preflow_repairs += net.repairs - repairs_before
        self.warm_solves += problem.warm_solves - warm_before
        self.flow_stats.kernel_invocations += net.solves - solves_before
        self.flow_stats.solve_seconds += net.solve_seconds - seconds_before
        return self._package(priced, selection)

    def _price(
        self,
        hub_graph: HubGraph,
        workload: Workload,
        schedule: RequestSchedule,
        uncovered: set[Edge],
        uncovered_mask: np.ndarray | None,
        arrays: OracleArrays | None,
    ) -> _PricedHub | None:
        """Alive elements and vertex weights, priced exactly as the peel.

        Shared by the sequential :meth:`__call__` and the batched
        :class:`MultiHubSession` (vectorized helpers on the CSR path,
        which never builds the hub-graph's tuple
        :meth:`~repro.core.hubgraph.HubGraph.element_index`).
        ``None`` when no element of the hub-graph is still uncovered; the
        hub's cached flow network is then released, since coverage only
        shrinks within a run (a caller that re-opens elements gets a
        cold rebuild, which solves to the same answer).
        """
        peel = hub_graph.peel_index()
        verts = peel.verts
        num_verts = len(verts)
        num_elems = len(peel.assign_vert_list)
        element_ids = hub_graph.element_ids
        use_vectorized = element_ids is not None and uncovered_mask is not None

        if use_vectorized:
            alive_arr = uncovered_mask[element_ids]
            alive_element = alive_arr.tolist()
            alive_count = int(alive_arr.sum())
        else:
            alive_arr = None
            alive_element = [
                edge in uncovered for edge, _ in hub_graph.element_index()
            ]
            alive_count = sum(alive_element)
        if alive_count == 0:
            self._problems.pop(hub_graph.hub, None)
            return None
        weight_arr: np.ndarray | None = None
        if arrays is not None and use_vectorized:
            weight_arr = dense_vertex_weights(hub_graph, peel, arrays)
            weight = weight_arr.tolist()
        else:
            incident = peel.incident
            weight = [
                hub_graph.vertex_weight(verts[i], workload, schedule)
                if any(alive_element[ei] for ei in incident[i])
                else 0.0
                for i in range(num_verts)
            ]
        return _PricedHub(
            hub_graph=hub_graph,
            peel=peel,
            element_ids=element_ids,
            weight=weight,
            weight_arr=weight_arr,
            alive_element=alive_element,
            alive_arr=alive_arr,
            num_verts=num_verts,
            num_elems=num_elems,
        )

    def _package(self, priced: _PricedHub, selection) -> DensestResult | None:
        """Package a parametric selection as the oracle's ``DensestResult``."""
        if selection is None or not selection.covered:
            return None
        hub_graph = priced.hub_graph
        element_ids = priced.element_ids
        covered_pos = selection.covered
        covered = frozenset(hub_graph.edges_at(covered_pos))
        # selected is ascending and the vertex list is X side first
        x_nodes = hub_graph.x_nodes
        y_nodes = hub_graph.y_nodes
        num_x = len(x_nodes)
        covered_ids = (
            element_ids[np.asarray(covered_pos, dtype=np.int64)]
            if element_ids is not None
            else None
        )
        cost_per_element = selection.weight / len(covered)
        return DensestResult(
            hub=hub_graph.hub,
            x_selected=tuple(x_nodes[i] for i in selection.selected if i < num_x),
            y_selected=tuple(
                y_nodes[i - num_x] for i in selection.selected if i >= num_x
            ),
            covered=covered,
            weight=selection.weight,
            covered_ids=covered_ids,
            opt_lower_bound=cost_per_element * OPT_BOUND_MARGIN,
            exact=True,
        )


class MultiHubSession:
    """Batched Dinkelbach driver: many hub solves, one arena per round.

    Wraps an :class:`ExactOracle` session.  A call takes ``k`` hub-graphs
    at the *same* scheduler state, prices each one exactly as the
    sequential oracle would, runs each problem's
    :meth:`~repro.flow.parametric.ParametricDensest.begin` (warm repair
    or reset on the hub's own network), and then advances every prepared
    Dinkelbach search in lockstep on one block-diagonal
    :class:`~repro.flow.batched_solve.BatchedNetwork`: each arena pass
    discharges all still-searching blocks in shared wave sweeps, each
    block takes its own
    :meth:`~repro.flow.parametric.ParametricDensest._dinkelbach_step`
    decision (the same code the sequential path runs), blocks that
    converge write their solved state back to their hub's network — so
    cross-call warm starts keep working — and are masked out of the
    arena.  Rare per-block exits (the maximality repair cut, the
    iteration-cap fallback) drop to the hub's own network, which just
    adopted the block state, and finish sequentially.

    Results are byte-identical to ``k`` sequential oracle calls
    (differential-tested in ``tests/test_batched_solve.py``); only the
    kernel-invocation count and the wall-clock change.  Fewer than
    :data:`~repro.core.tolerances.BATCH_MIN_BLOCKS` flow-bound hubs —
    free-shortcut and fully-covered hubs never reach the flow — fall
    back to the sequential path outright.

    ``upper_bounds`` gives each hub the sequential path's bounded-probe
    early exit: a hub whose O(m) mediant bound exceeds its bound gets an
    :class:`~repro.core.densest.OracleCutoff` result slot and never
    reaches the flow — so speculative batch evaluation pays the same
    probe the lazy scheduler would have paid, not a full solve.
    """

    def __init__(self, oracle: ExactOracle) -> None:
        self.oracle = oracle

    def __call__(
        self,
        hub_graphs: Sequence[HubGraph],
        workload: Workload,
        schedule: RequestSchedule,
        uncovered: set[Edge],
        uncovered_mask: np.ndarray | None = None,
        arrays: OracleArrays | None = None,
        upper_bounds: Sequence[float | None] | None = None,
    ) -> list[DensestResult | OracleCutoff | None]:
        """Solve every hub-graph exactly; one result slot per input."""
        with trace.span("oracle.batch") as span:
            span.set(hubs=len(hub_graphs))
            return self._call_impl(
                hub_graphs,
                workload,
                schedule,
                uncovered,
                uncovered_mask,
                arrays,
                upper_bounds,
            )

    def _call_impl(
        self,
        hub_graphs: Sequence[HubGraph],
        workload: Workload,
        schedule: RequestSchedule,
        uncovered: set[Edge],
        uncovered_mask: np.ndarray | None,
        arrays: OracleArrays | None,
        upper_bounds: Sequence[float | None] | None,
    ) -> list[DensestResult | OracleCutoff | None]:
        oracle = self.oracle
        results: list[DensestResult | OracleCutoff | None] = [None] * len(
            hub_graphs
        )
        pending: list[tuple[int, _PricedHub, ParametricDensest, _Prepared]] = []
        marks: list[tuple[ParametricDensest, int, int, int, int, float]] = []
        seen: set[Node] = set()
        repeats: list[tuple[int, HubGraph]] = []
        for i, hub_graph in enumerate(hub_graphs):
            if hub_graph.hub in seen:
                # a repeated hub shares one flow problem; interleaving two
                # begin()s on it would corrupt the warm state, so replay
                # the repeat sequentially after the batch completes
                repeats.append((i, hub_graph))
                continue
            seen.add(hub_graph.hub)
            priced = oracle._price(
                hub_graph, workload, schedule, uncovered, uncovered_mask, arrays
            )
            if priced is None:
                continue
            bound = upper_bounds[i] if upper_bounds is not None else None
            if bound is not None:
                mediant_bound = priced.probe_bound()
                if mediant_bound > bound:
                    results[i] = OracleCutoff(
                        hub=hub_graph.hub, lower_bound=mediant_bound
                    )
                    continue
            problem = oracle._problem(hub_graph)
            net = problem.net
            marks.append(
                (
                    problem,
                    net.passes,
                    net.repairs,
                    problem.warm_solves,
                    net.solves,
                    net.solve_seconds,
                )
            )
            prepared = problem.begin(priced.weight, priced.alive_element)
            if not isinstance(prepared, _Prepared):
                # free shortcut (or nothing alive): never reaches the flow
                results[i] = oracle._package(priced, prepared)
                continue
            pending.append((i, priced, problem, prepared))

        if len(pending) >= BATCH_MIN_BLOCKS:
            self._solve_batched(pending, results)
        else:
            for i, priced, problem, prepared in pending:
                results[i] = oracle._package(priced, problem._iterate(prepared))

        for problem, passes0, repairs0, warm0, solves0, seconds0 in marks:
            net = problem.net
            oracle.flow_passes += net.passes - passes0
            oracle.preflow_repairs += net.repairs - repairs0
            oracle.warm_solves += problem.warm_solves - warm0
            oracle.flow_stats.kernel_invocations += net.solves - solves0
            oracle.flow_stats.solve_seconds += net.solve_seconds - seconds0
        for i, hub_graph in repeats:
            results[i] = oracle(
                hub_graph,
                workload,
                schedule,
                uncovered,
                uncovered_mask,
                arrays,
                upper_bound=(
                    upper_bounds[i] if upper_bounds is not None else None
                ),
            )
        return results

    def _solve_batched(
        self,
        pending: list[tuple[int, _PricedHub, ParametricDensest, _Prepared]],
        results: list[DensestResult | None],
    ) -> None:
        """Advance all prepared searches in lockstep on one arena."""
        oracle = self.oracle
        blocks = [
            (problem.template(), *problem.export_flow_state())
            for _i, _priced, problem, _prep in pending
        ]
        arena = BatchedNetwork(blocks, stats=oracle.flow_stats)
        # per-block raise-path arrays: incident verts' sink arcs, their
        # grouped positions, and weights — fixed for the whole batch, so
        # each "raise" round is three vectorized ops instead of a
        # per-vertex Python loop
        raise_arcs: list[np.ndarray] = []
        raise_pos: list[np.ndarray] = []
        raise_w: list[np.ndarray] = []
        for _i, _priced, problem, p in pending:
            arcs = np.asarray(
                [problem._sink_arcs[v] for v in p.incident_verts],
                dtype=np.int64,
            )
            raise_arcs.append(arcs)
            raise_pos.append(problem.template().pos[arcs])
            raise_w.append(
                np.maximum(
                    np.asarray(
                        [p.weight[v] for v in p.incident_verts],
                        dtype=np.float64,
                    ),
                    0.0,
                )
            )

        def writeback(j: int) -> None:
            _i, _priced, problem, _prep = pending[j]
            cap, excess = arena.export_block(slot[j])
            problem.import_flow_state(cap, excess)
            arena.mark_done(slot[j])

        live = list(range(len(pending)))
        slot = {j: j for j in live}
        arena_passes = 0
        while live:
            still = []
            for j in live:
                i, priced, problem, p = pending[j]
                if (
                    p.iterations >= MAX_DINKELBACH_ITERATIONS
                ):  # pragma: no cover - defensive, mirrors _iterate's cap
                    writeback(j)
                    sel, cov, _w = p.best
                    results[i] = oracle._package(
                        priced,
                        problem._finish(
                            list(sel), list(cov), p.weight, p.iterations
                        ),
                    )
                else:
                    p.iterations += 1
                    still.append(j)
            if not still:
                break
            if len(still) == 1:
                # lone straggler: an arena sweep costs O(arena) no matter
                # how few blocks are live — finish the search on the
                # hub's own (warm) network, which adopts the block state
                j = still[0]
                i, priced, problem, p = pending[j]
                p.iterations -= 1  # _iterate re-increments per round
                writeback(j)
                results[i] = oracle._package(priced, problem._iterate(p))
                break
            if len(still) * 2 <= arena.num_blocks:
                # stragglers: compact the arena down to the live blocks so
                # the shared sweeps scale with the work left, not the
                # batch's original width (freeze is ~an arena pass)
                arena_passes += arena.passes
                compacted = []
                new_slot: dict[int, int] = {}
                for b, j in enumerate(still):
                    cap, excess = arena.export_block(slot[j])
                    compacted.append((pending[j][2].template(), cap, excess))
                    new_slot[j] = b
                arena = BatchedNetwork(
                    compacted, stats=oracle.flow_stats, count_dispatch=False
                )
                slot = new_slot
            arena.solve()
            sides = arena.source_sides()
            live = []
            for j in still:
                i, priced, problem, p = pending[j]
                kind, selected, covered = problem._dinkelbach_step(
                    p,
                    arena.block_value(slot[j]),
                    arena.block_side(sides, slot[j]),
                )
                if kind == "done":
                    writeback(j)
                    results[i] = oracle._package(
                        priced,
                        problem._finish(
                            selected, covered, p.weight, p.iterations
                        ),
                    )
                elif kind == "repair":
                    # maximality repair cut: lowers capacities, which the
                    # arena cannot do — finish on the hub's own network,
                    # which just adopted the block's solved preflow
                    writeback(j)
                    results[i] = oracle._package(
                        priced, problem._repair_cut_finish(p)
                    )
                else:  # "raise": grow this block's sink capacities in place
                    net = problem.net
                    arcs = raise_arcs[j]
                    target = p.lam * raise_w[j]
                    base = net.base_cap
                    # keep the hub network's base capacities in sync,
                    # exactly as raise_capacity would: the eventual
                    # writeback must land on matching bases (an array on
                    # wave networks, a list on loop ones)
                    if net.grouped_layout:
                        deltas = target - base[arcs]
                        base[arcs] = target
                    else:
                        deltas = target - np.asarray(
                            [base[a] for a in arcs], dtype=np.float64
                        )
                        for a, t in zip(arcs.tolist(), target.tolist()):
                            base[a] = t
                    arena.add_capacity(slot[j], raise_pos[j], deltas)
                    live.append(j)
        self.oracle.flow_passes += arena_passes + arena.passes
