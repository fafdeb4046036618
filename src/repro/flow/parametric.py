"""Exact weighted densest subgraph via parametric max-flow.

Goldberg's fractional-programming construction, generalized to the
hub-graph *hypergraph* of :mod:`repro.core.densest`: elements (push legs,
pull legs, cross-edges) touch one or two weighted vertices, and the goal
is the vertex set ``S`` maximizing the density

    d(S) = |{alive elements with all weighted endpoints in S}| / g(S).

For a density guess ``λ`` build the network

    source ──1──▶ element ──∞──▶ vertex ──λ·g(v)──▶ sink

(one unit arc per *alive* element).  A cut keeping element ``e`` on the
source side must keep all its endpoints there too (the ∞ arcs), so the
minimum cut equals ``alive − max_S [cov(S) − λ·g(S)]``: the flow value
decides whether any subgraph beats density ``λ``, and the residual
graph's maximal source side is the *largest* such subgraph.

The density search is Dinkelbach's iteration rather than binary search:
start from a feasible density guess, cut, re-set ``λ`` to the density of
the extracted subgraph, repeat until the excess vanishes.  Each step
strictly increases ``λ``, so the sink capacities ``λ·g(v)`` only grow —
the previous preflow stays feasible and
:meth:`~repro.flow.maxflow.FlowNetwork.raise_capacity` +
:meth:`~repro.flow.maxflow.FlowNetwork.solve` resume it warm instead of
recomputing from scratch.  Convergence is finite (each iterate is the
exact density of a distinct subgraph); the iteration count is governed
by the starting guess, so :meth:`ParametricDensest.solve` seeds ``λ``
with the *best single-vertex density* (one vectorized pass over the
single-endpoint elements) rather than the full alive subgraph's density:
on hub-graphs the optimum usually is one consumer vertex with its
covered legs, so the seeded search typically converges in a single cut
where the full-graph seed needed 5–7 (the dominant term of the E14
kernel speedup).  Seeding never changes the answer — Dinkelbach from
any feasible ``λ`` converges to the same maximal optimal subgraph.

Free subgraphs (every weighted endpoint already zero-weight because its
leg is paid for) are peeled off before the flow ever runs: they have
infinite density, which the parametric machinery cannot represent.

Cross-call warm starts
----------------------
``warm=True`` extends the residual reuse *across* :meth:`solve` calls:
instead of reprogramming every capacity and :meth:`~FlowNetwork.reset`-ing,
the solver diffs the requested capacities against what the network
currently holds and repairs the previous call's preflow in place —
:meth:`~repro.flow.maxflow.FlowNetwork.raise_capacity` where a capacity
grew, :meth:`~repro.flow.maxflow.FlowNetwork.lower_capacities` (cancel
overflowing flow, drain the deficit in a bounded vectorized sweep) where
it shrank.  CHITCHAT's covering events only ever *remove* element arcs
and only ever *shrink* vertex weights, so most of the routed flow
survives from call to call and the next Dinkelbach search starts with
the network nearly solved.  The search is additionally seeded at the
previous call's optimal selection re-priced under the current weights
and alive set — a genuine sub-hypergraph, hence always a feasible
Dinkelbach seed, and usually within one cut of the new optimum.  Warm
and cold solves return byte-identical selections: the maximal min cut
is a property of the capacities, not of the preflow history
(differential-tested in ``tests/test_warm_oracle.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.tolerances import DINKELBACH_RTOL, OPT_BOUND_MARGIN
from repro.flow.maxflow import FlowNetwork
from repro.obs import trace

#: Positive vertex weights spanning more than a double's mantissa (the
#: smallest below ``max × 2⁻⁵²``) make a warm solve restart cold.
WARM_WEIGHT_SPAN = 2.0**-52

#: Hard cap on Dinkelbach iterations; the search is provably finite and
#: empirically needs single digits, so hitting this means float trouble —
#: the incumbent (still a feasible, near-optimal subgraph) is returned.
MAX_DINKELBACH_ITERATIONS = 100


@dataclass
class _Prepared:
    """Mutable state of one in-flight Dinkelbach search.

    Produced by :meth:`ParametricDensest.begin` once the capacities are
    programmed; consumed either by the sequential
    :meth:`ParametricDensest._iterate` loop or by the batched multi-hub
    driver (:class:`repro.flow.exact_oracle.MultiHubSession`), which
    advances many of these in lockstep — one per arena block — through
    the same :meth:`ParametricDensest._dinkelbach_step` decisions.
    """

    weight: Sequence[float]
    alive: Sequence[bool]
    alive_idx: list[int]
    alive_count: float
    incident_verts: list[int]
    lam: float
    best: tuple[tuple[int, ...], tuple[int, ...], float]
    best_is_seed: bool
    #: whether capacity changes may repair the live preflow in place
    repairable: bool
    iterations: int = 0


@dataclass(frozen=True)
class DenseSelection:
    """Optimal sub-hypergraph found by the parametric search.

    ``selected`` are weighted-vertex indices (ascending), ``covered`` the
    alive-element indices (ascending) whose endpoints are all selected;
    ``weight`` is ``g(selected)`` and ``iterations`` the number of
    Dinkelbach cuts it took (0 when the free shortcut fired).
    """

    selected: tuple[int, ...]
    covered: tuple[int, ...]
    weight: float
    iterations: int

    @property
    def density(self) -> float:
        if not self.covered:
            return 0.0
        if self.weight <= 0.0:
            return float("inf")
        return len(self.covered) / self.weight


class ParametricDensest:
    """Reusable exact solver for one element/vertex incidence structure.

    The structure (``endpoints[e]`` = weighted-vertex indices of element
    ``e``) is compiled into a flow network once; every :meth:`solve` call
    re-parameterizes the capacities for the current weights and alive
    set.  The CHITCHAT exact oracle keeps one instance per hub for
    exactly this reason — the hub-graph never changes, only coverage and
    leg payments do.

    ``method`` selects the max-flow solver (``"auto"`` — the default —
    picks the vectorized wave kernel for networks at or above
    :data:`~repro.flow.maxflow.WAVE_AUTO_MIN_ARCS` forward arcs and the
    pure-Python loop below; ``"wave"`` / ``"loop"`` force one, which the
    E14 kernel benchmark uses to measure the crossover).  ``seed_lambda``
    enables the single-vertex density seed of the Dinkelbach search;
    ``False`` restores the PR 3 behavior (seed at the full alive
    subgraph's density), kept as the E14 reference configuration — the
    answer is identical either way, only the cut count changes.

    ``warm`` enables the cross-call preflow reuse described in the
    module docstring: each :meth:`solve` repairs the network left by the
    previous one instead of resetting it, and seeds the density search
    from the previous optimal selection.  Identical selections either
    way; ``warm_solves`` counts the calls that actually resumed a
    preflow (the first call, and any call after :meth:`invalidate`, is
    cold).  The flow-level work counters live on ``self.net``
    (:attr:`~repro.flow.maxflow.FlowNetwork.passes` /
    :attr:`~repro.flow.maxflow.FlowNetwork.repairs`).
    """

    def __init__(
        self,
        endpoints: Sequence[tuple[int, ...]],
        num_verts: int,
        method: str = "auto",
        seed_lambda: bool = True,
        warm: bool = False,
    ) -> None:
        self.endpoints = [tuple(e) for e in endpoints]
        self.num_verts = num_verts
        num_elems = len(self.endpoints)
        self._elem_base = 2
        self._vert_base = 2 + num_elems
        net = FlowNetwork(
            2 + num_elems + num_verts, source=0, sink=1, method=method
        )
        big = float(num_elems + 1)  # exceeds any feasible flow: acts as ∞
        self._src_arcs = [
            net.add_arc(0, self._elem_base + e, 0.0) for e in range(num_elems)
        ]
        for e, verts in enumerate(self.endpoints):
            for v in verts:
                net.add_arc(self._elem_base + e, self._vert_base + v, big)
        self._sink_arcs = [
            net.add_arc(self._vert_base + v, 1, 0.0) for v in range(num_verts)
        ]
        net.freeze()
        self.net = net
        if net.grouped_layout:
            # wave networks program capacities as whole arrays
            self._sink_arr = np.asarray(self._sink_arcs, dtype=np.int64)
            self._all_arr = np.asarray(
                self._src_arcs + self._sink_arcs, dtype=np.int64
            )
        self.seed_lambda = seed_lambda
        self.warm = warm
        #: Calls that resumed the previous preflow instead of resetting.
        self.warm_solves = 0
        # cross-call warm state: whether the network's residuals encode a
        # completed solve of its current base capacities, and the last
        # optimal selection (its re-priced density seeds the next search)
        self._warm_ready = False
        self._prev_selected: tuple[int, ...] = ()
        self._prev_covered: tuple[int, ...] = ()
        # vertex -> incident element lists, for the free shortcut and the
        # useless-vertex filter
        self._incident: list[list[int]] = [[] for _ in range(num_verts)]
        for e, verts in enumerate(self.endpoints):
            for v in verts:
                self._incident[v].append(e)
        # single-endpoint elements, for the λ-seeding pass: element e with
        # endpoints (v,) contributes to the density of the subgraph {v}
        self._single_vert = np.fromiter(
            (e[0] if len(e) == 1 else -1 for e in self.endpoints),
            dtype=np.int64,
            count=num_elems,
        )
        # lazily compiled grouped-layout view for the batched arena
        self._template = None

    # ------------------------------------------------------------------
    def solve(
        self,
        weight: Sequence[float],
        alive: Sequence[bool] | None = None,
    ) -> DenseSelection | None:
        """Exact densest selection for the given weights and alive mask.

        Returns ``None`` when no alive element exists.  Ties in density
        resolve to the unique *maximal* optimal subgraph (the union of
        all optimal ones), matching the peel's more-coverage preference
        and making the result deterministic and backend-independent.

        Internally :meth:`begin` + :meth:`_iterate`; the batched
        multi-hub driver calls :meth:`begin` itself and replays the
        iteration on the shared arena — both paths take every density
        decision through :meth:`_dinkelbach_step`, so they cannot drift.
        """
        prepared = self.begin(weight, alive)
        if not isinstance(prepared, _Prepared):
            return prepared
        return self._iterate(prepared)

    def begin(
        self,
        weight: Sequence[float],
        alive: Sequence[bool] | None = None,
    ) -> DenseSelection | None | _Prepared:
        """Price, seed, and program one solve; stop short of the flow.

        Returns the finished :class:`DenseSelection` when the free
        shortcut fires, ``None`` when no element is alive, and otherwise
        a :class:`_Prepared` search state with the network's capacities
        programmed (warm-repaired or reset, exactly as a full
        :meth:`solve` would) and the Dinkelbach λ seeded.  The caller
        owns the iteration: :meth:`_iterate` here, or the batched arena
        in :class:`repro.flow.exact_oracle.MultiHubSession`.
        """
        endpoints = self.endpoints
        num_elems = len(endpoints)
        if alive is None:
            alive = [True] * num_elems
        alive_idx = [e for e in range(num_elems) if alive[e]]
        if not alive_idx:
            return None

        # --- Free shortcut: elements whose every endpoint is already
        # weightless are coverable at cost 0 (infinite density).
        free_vert = [weight[v] <= 0.0 for v in range(self.num_verts)]
        free_elems = [
            e for e in alive_idx if all(free_vert[v] for v in endpoints[e])
        ]
        if free_elems:
            selected = sorted({v for e in free_elems for v in endpoints[e]})
            return DenseSelection(
                selected=tuple(selected),
                covered=tuple(free_elems),
                weight=0.0,
                iterations=0,
            )

        # --- Initial feasible density: the better of the full alive
        # subgraph and the best single-vertex subgraph (its alive
        # single-endpoint elements over its weight).  Both are genuine
        # sub-hypergraphs, so either density is a valid Dinkelbach seed;
        # the single-vertex one is usually within one cut of the optimum.
        incident_verts = sorted({v for e in alive_idx for v in endpoints[e]})
        total_weight = sum(weight[v] for v in incident_verts)
        # no free elements => every alive element touches positive weight
        best = (tuple(incident_verts), tuple(alive_idx), total_weight)
        best_is_seed = False
        lam = len(alive_idx) / total_weight
        single = self._single_vert
        alive_arr = np.asarray(alive, dtype=bool)
        singles = (
            single[alive_arr & (single >= 0)]
            if self.seed_lambda
            else np.empty(0, dtype=np.int64)
        )
        if singles.size:
            counts = np.bincount(singles, minlength=self.num_verts)
            weight_arr = np.asarray(weight, dtype=np.float64)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                density = np.where(
                    (counts > 0) & (weight_arr > 0.0),
                    counts / weight_arr,
                    0.0,
                )
            seed_vert = int(np.argmax(density))
            if density[seed_vert] > lam:
                lam = float(density[seed_vert])
                covered_seed = np.nonzero(
                    alive_arr & (single == seed_vert)
                )[0]
                best = (
                    (seed_vert,),
                    tuple(int(e) for e in covered_seed),
                    float(weight[seed_vert]),
                )
                # unlike every later incumbent, this one is not a
                # maximal cut: if the search converges onto it via the
                # float-overshoot path, a repair cut re-establishes the
                # maximal-selection contract (see below)
                best_is_seed = True
        # repairing a preflow in place needs every capacity representable
        # next to the largest: positive weights spanning more than a
        # double's mantissa make the repair lose flow and cut wrongly, so
        # such a solve (and its repair cut) runs cold
        repairable = self._repairable(weight)
        if not repairable:
            self.invalidate()
        if self._warm_ready and self._prev_selected:
            # the previous call's optimal selection, re-priced under the
            # current weights and alive set, is still a genuine
            # sub-hypergraph (its covered elements kept all their
            # endpoints) — a feasible Dinkelbach seed that is usually
            # within one cut of the new optimum, since covering events
            # only trim it
            prev_weight = sum(weight[v] for v in self._prev_selected)
            if prev_weight > 0.0:
                prev_cov = tuple(
                    e for e in self._prev_covered if alive[e]
                )
                if prev_cov and len(prev_cov) / prev_weight > lam:
                    lam = len(prev_cov) / prev_weight
                    best = (self._prev_selected, prev_cov, prev_weight)
                    best_is_seed = True

        net = self.net
        use_warm = self._warm_ready
        # not warm-ready again until a solve completes through _finish
        self._warm_ready = False
        if use_warm:
            self.warm_solves += 1
        self._program_capacities(*self._targets(lam, weight, alive), use_warm)
        return _Prepared(
            weight=weight,
            alive=alive,
            alive_idx=alive_idx,
            alive_count=float(len(alive_idx)),
            incident_verts=incident_verts,
            lam=lam,
            best=best,
            best_is_seed=best_is_seed,
            repairable=repairable,
        )

    def _iterate(self, p: _Prepared) -> DenseSelection:
        """Run the Dinkelbach density search on this problem's own network."""
        net = self.net
        with trace.span("oracle.dinkelbach") as span:
            while p.iterations < MAX_DINKELBACH_ITERATIONS:
                p.iterations += 1
                value = net.solve()
                side = net.source_side()
                kind, selected, covered = self._dinkelbach_step(p, value, side)
                if kind == "done":
                    span.set(iterations=p.iterations)
                    return self._finish(
                        selected, covered, p.weight, p.iterations
                    )
                if kind == "repair":
                    span.set(iterations=p.iterations, repair=True)
                    return self._repair_cut_finish(p)
                # kind == "raise": p.lam advanced, grow the sink capacities
                # in place and resume the preflow warm
                if net.grouped_layout:
                    verts = np.asarray(p.incident_verts, dtype=np.int64)
                    weight = np.asarray(p.weight, dtype=np.float64)[verts]
                    net.raise_capacities(
                        self._sink_arr[verts], p.lam * np.maximum(weight, 0.0)
                    )
                else:
                    for v in p.incident_verts:
                        net.raise_capacity(
                            self._sink_arcs[v], p.lam * max(p.weight[v], 0.0)
                        )
            sel, cov, _w = p.best  # pragma: no cover - defensive fallback
            return self._finish(list(sel), list(cov), p.weight, p.iterations)

    def _dinkelbach_step(
        self, p: _Prepared, value: float, side: Sequence[bool]
    ) -> tuple[str, list[int], list[int]]:
        """One Dinkelbach decision from a solved cut; mutates ``p``.

        ``side`` is the maximal min-cut source side over this problem's
        *local* node ids (a block slice under the batched driver).
        Returns ``("done", selected, covered)`` when the search ends
        here (converged, stagnated, or falling back to the incumbent),
        ``("repair", [], [])`` when the raw λ-seed incumbent needs the
        maximality repair cut (:meth:`_repair_cut_finish` — the batched
        driver drops the block out of the arena for it), or
        ``("raise", [], [])`` after advancing ``p.lam``/``p.best`` — the
        caller grows the sink capacities to ``p.lam·g(v)`` and re-solves.
        Shared verbatim by the sequential and batched paths, which is
        what keeps their selections byte-identical.
        """
        selected = [
            v for v in p.incident_verts if side[self._vert_base + v]
        ]
        covered = [e for e in p.alive_idx if side[self._elem_base + e]]
        excess = p.alive_count - value
        if excess <= p.alive_count * DINKELBACH_RTOL:
            # converged: the maximal source side is the largest
            # subgraph of optimal density (empty only on float
            # overshoot, where the incumbent is the optimum)
            if covered:
                return "done", selected, covered
            if p.best_is_seed:
                # the incumbent is the raw λ-seed, optimal in value
                # but possibly not maximal on exact density ties —
                # one repair cut a margin below its density always
                # extracts the *maximal* optimum (every optimal
                # subgraph is strictly positive there)
                return "repair", [], []
            sel, cov, _w = p.best
            return "done", list(sel), list(cov)
        sel_weight = sum(p.weight[v] for v in selected)
        if not covered or sel_weight <= 0.0:  # pragma: no cover - defensive
            sel, cov, _w = p.best
            return "done", list(sel), list(cov)
        new_lam = len(covered) / sel_weight
        if new_lam <= p.lam:  # float stagnation: cannot improve further
            return "done", selected, covered
        p.best = (tuple(selected), tuple(covered), sel_weight)
        p.best_is_seed = False
        p.lam = new_lam
        return "raise", [], []

    def _repair_cut_finish(self, p: _Prepared) -> DenseSelection:
        """Maximality repair cut for a converged raw λ-seed incumbent.

        One cut a float margin below the incumbent's density extracts
        the *maximal* optimal subgraph (every optimal subgraph is
        strictly positive there); runs on this problem's own network —
        warm when the solve is (``p.repairable``), since the residuals
        encode the preflow just solved at the higher λ and the cut only
        lowers sink capacities.
        """
        net = self.net
        sel, cov, wgt = p.best
        lam = (len(cov) / wgt) * OPT_BOUND_MARGIN
        self._program_capacities(*self._targets(lam, p.weight), p.repairable)
        p.iterations += 1
        net.solve()
        side = net.source_side()
        repaired = [e for e in p.alive_idx if side[self._elem_base + e]]
        if repaired:
            return self._finish(
                [v for v in p.incident_verts if side[self._vert_base + v]],
                repaired,
                p.weight,
                p.iterations,
            )
        return self._finish(list(sel), list(cov), p.weight, p.iterations)

    def _targets(
        self,
        lam: float,
        weight: Sequence[float],
        alive: Sequence[bool] | None = None,
    ):
        """``(arcs, capacities)``: every sink arc at ``λ·g(v)``, led by
        every source arc at its alive bit when ``alive`` is given.

        Parallel numpy arrays on wave networks (programmed as whole
        arrays), parallel lists on loop ones.
        """
        num_verts = self.num_verts
        if self.net.grouped_layout:
            caps = lam * np.maximum(
                np.asarray(weight, dtype=np.float64)[:num_verts], 0.0
            )
            if alive is None:
                return self._sink_arr, caps
            return self._all_arr, np.concatenate(
                (np.asarray(alive, dtype=np.float64), caps)
            )
        caps = [lam * max(weight[v], 0.0) for v in range(num_verts)]
        if alive is None:
            return self._sink_arcs, caps
        return (
            self._src_arcs + self._sink_arcs,
            [1.0 if a else 0.0 for a in alive] + caps,
        )

    def _program_capacities(self, arcs, caps, repair: bool) -> None:
        """Install target capacities: repair the live preflow, or reset.

        Both the initial per-call programming and the repair cut go
        through here, so warm and cold solves can never drift apart on
        how a capacity is installed.
        """
        if repair:
            self._repair_capacities(arcs, caps)
            return
        net = self.net
        if net.grouped_layout:
            net.base_cap[arcs] = caps  # non-negative by construction
        else:
            for arc, capacity in zip(arcs, caps):
                net.set_base_capacity(arc, capacity)
        net.reset()

    def _repair_capacities(self, arcs, caps) -> None:
        """Diff target capacities against the network; repair in place.

        Raises are warm by construction; decreases go through the batched
        :meth:`~repro.flow.maxflow.FlowNetwork.lower_capacities` repair
        (one vectorized drain sweep on the wave kernel).  Arcs already at
        their target are untouched, which is the common case across
        covering events.  Wave networks diff the whole capacity array at
        once; arcs are distinct, so applying every raise before the
        lowers changes nothing.
        """
        net = self.net
        base = net.base_cap
        if net.grouped_layout:
            current = base[arcs]
            up = caps > current
            if up.any():
                net.raise_capacities(arcs[up], caps[up])
            down = caps < current
            if down.any():
                net.lower_capacities(arcs[down], caps[down])
            return
        lower_arcs: list[int] = []
        lower_caps: list[float] = []
        for arc, capacity in zip(arcs, caps):
            current = base[arc]
            if capacity > current:
                net.raise_capacity(arc, capacity)
            elif capacity < current:
                lower_arcs.append(arc)
                lower_caps.append(capacity)
        if lower_arcs:
            net.lower_capacities(lower_arcs, lower_caps)

    # ------------------------------------------------------------------
    # Batched-arena interface
    # ------------------------------------------------------------------
    def template(self):
        """Grouped-layout :class:`~repro.flow.batched_solve.BlockTemplate`.

        Compiled lazily (the sequential path never needs it) and cached —
        the grouping is the same tail-sorted layout the wave kernel
        freezes, so a wave-method network's state arrays *are* the block
        layout and round-trip without permutation.
        """
        if self._template is None:
            from repro.flow.batched_solve import BlockTemplate

            self._template = BlockTemplate.from_network(self.net)
        return self._template

    def export_flow_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of ``(grouped residual caps, node excess)`` for the arena."""
        net = self.net
        if net.grouped_layout:
            return (
                np.array(net.cap, dtype=np.float64),
                np.array(net.excess, dtype=np.float64),
            )
        tmpl = self.template()
        cap = np.asarray(net.cap, dtype=np.float64)[tmpl.perm]
        return cap, np.array(net.excess, dtype=np.float64)

    def import_flow_state(
        self, cap_grouped: np.ndarray, excess: np.ndarray
    ) -> None:
        """Adopt an arena block's solved state as this network's preflow.

        The inverse of :meth:`export_flow_state`; afterwards the network
        holds a completed solve of its current base capacities, so the
        next warm call repairs it exactly as if the sequential path had
        produced it.
        """
        net = self.net
        if net.grouped_layout:
            net.adopt_state(cap_grouped, excess)
            return
        tmpl = self.template()
        arc_cap = np.empty_like(cap_grouped)
        arc_cap[tmpl.perm] = cap_grouped
        net.adopt_state(arc_cap.tolist(), excess.tolist())

    def sink_position(self, vert: int) -> int:
        """Grouped position of vertex ``vert``'s sink arc (arena raises)."""
        return int(self.template().pos[self._sink_arcs[vert]])

    def invalidate(self) -> None:
        """Drop the cross-call warm state; the next :meth:`solve` is cold.

        Needed only when the caller's notion of the instance diverges
        from the network's (e.g. the owning session is recycled across
        scheduler runs); within one monotone covering sequence the
        per-call capacity diff keeps the state consistent by itself.
        """
        self._warm_ready = False
        self._prev_selected = ()
        self._prev_covered = ()

    def _finish(
        self,
        selected: list[int],
        covered: list[int],
        weight: Sequence[float],
        iterations: int,
    ) -> DenseSelection:
        """Drop selected vertices that cover nothing, then package up.

        Only zero-weight vertices can be useless in a min cut (a
        positive-weight one would lower the cut by leaving), so the
        filter never changes the selection's weight or coverage — it
        keeps the result contract aligned with the peel, which applies
        the same cleanup.
        """
        covered_set = set(covered)
        useful = [
            v
            for v in selected
            if any(e in covered_set for e in self._incident[v])
        ]
        selection = DenseSelection(
            selected=tuple(useful),
            covered=tuple(sorted(covered)),
            weight=sum(weight[v] for v in useful),
            iterations=iterations,
        )
        # the network now holds a completed solve of its base capacities:
        # the next warm call may repair it, seeded by this selection —
        # unless these weights already left the state unrepairable
        self._prev_selected = selection.selected
        self._prev_covered = selection.covered
        self._warm_ready = self._repairable(weight)
        return selection

    def _repairable(self, weight: Sequence[float]) -> bool:
        """Whether a warm session may repair a preflow under ``weight``:
        its positive weights span at most ``WARM_WEIGHT_SPAN``."""
        if not self.warm:
            return False
        weights = np.asarray(weight, dtype=np.float64)[: self.num_verts]
        positive = weights[weights > 0.0]
        return not positive.size or bool(
            positive.min() >= positive.max() * WARM_WEIGHT_SPAN
        )


def densest_selection(
    endpoints: Sequence[tuple[int, ...]],
    num_verts: int,
    weight: Sequence[float],
    alive: Sequence[bool] | None = None,
) -> DenseSelection | None:
    """One-shot :class:`ParametricDensest` solve (tests, ad-hoc use)."""
    return ParametricDensest(endpoints, num_verts).solve(weight, alive)
