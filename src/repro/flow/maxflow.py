"""Push-relabel max-flow on flat paired-arc arrays.

The kernel behind the exact densest-subgraph oracle
(:mod:`repro.flow.parametric`).  The networks it solves are small (one
per hub-graph, a few thousand arcs at most) but are re-solved many times
with *changing capacities* over a fixed topology — once per Dinkelbach
density iteration, and once per oracle call as coverage shrinks the
element set — so the design splits structure from state:

* the arc structure (paired forward/reverse arcs, CSR-style adjacency)
  is built once and frozen;
* base capacities can be rewritten between runs (:meth:`FlowNetwork.reset`
  starts a fresh preflow), *raised in place*
  (:meth:`FlowNetwork.raise_capacity` keeps the current preflow, which
  stays feasible because residuals only grow), or *lowered in place*
  (:meth:`FlowNetwork.lower_capacity` /
  :meth:`FlowNetwork.lower_capacities` repair the preflow: flow above
  the new capacity is cancelled and the resulting inflow deficit is
  pulled forward out of the downstream flow paths in a bounded sweep,
  absorbing parked excess along the way) so a later
  :meth:`FlowNetwork.solve` resumes from the previous flow instead of
  recomputing it — the warm start that makes the parametric density
  search cheap within one call (capacity raises per Dinkelbach
  iteration) and across calls (capacity decreases as coverage kills
  element arcs, see :mod:`repro.flow.parametric`).

Two interchangeable solvers sit behind :meth:`FlowNetwork.solve`
(``method=`` at construction):

``"wave"``
    Numpy-vectorized wave passes over the flat arc arrays: every
    iteration sweeps the populated label levels top-down, batch-pushing
    along *all* admissible arcs of each level's active nodes (excess is
    split across a node's admissible arcs proportionally to residual,
    by per-segment reductions), then batch-relabels every stuck active
    node to one past the segment-minimum of its residual neighbor
    heights, applies the gap heuristic from a label histogram, and
    periodically recomputes exact labels by a vectorized reverse BFS
    (global relabeling).  This is the production kernel above the
    :data:`WAVE_AUTO_MIN_ARCS` crossover; combined with the λ-seeded
    Dinkelbach search of :mod:`repro.flow.parametric` it runs the E13
    workload's exact oracle ~4x faster than the PR 3 stack (E14
    benchmark, 10x on the biggest hubs).

``"loop"``
    The original FIFO discharge loop in pure Python, kept both as the
    reference implementation the wave solver is property-tested against
    and as the faster choice on very small networks, where per-wave
    numpy dispatch overhead dominates.

``"auto"`` (the default) resolves at :meth:`FlowNetwork.freeze` time:
wave at or above :data:`WAVE_AUTO_MIN_ARCS` forward arcs, loop below —
the crossover measured by ``benchmarks/chitchat_perf.e14_flow_kernel``.

Both solvers execute only the first phase of push-relabel: it yields a
*maximum preflow*, whose value at the sink already equals the
max-flow/min-cut value and whose residual graph exposes the min cut,
which is all the densest-subgraph reduction needs — excess stranded at
high labels is never routed back to the source, and doubles as the
starting state of the next warm run.

Arc ``i``'s reverse is ``i ^ 1`` (forward arcs are even).  Capacities are
floats; residuals at or below :data:`~repro.core.tolerances.FLOW_EPS`
count as saturated.  Push-relabel terminates for arbitrary real
capacities (unlike augmenting-path methods, its push/relabel bounds are
purely combinatorial), so no integrality is assumed.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.tolerances import FLOW_EPS
from repro.errors import ReproError
from repro.obs import trace
from repro.obs.metrics import Stopwatch

#: Valid ``method=`` arguments of :class:`FlowNetwork`.
FLOW_METHODS = ("auto", "wave", "loop")

#: Forward-arc count at or above which ``method="auto"`` resolves to the
#: vectorized wave solver.  Below it the pure-Python loop's lower constant
#: factor wins (numpy dispatch overhead is paid per wave and per level,
#: not per arc).  Measured by the E14 kernel benchmark on the E13
#: hub-graph network family: the seeded wave/loop crossover sits near
#: 1.1k forward arcs (≈ 380 hub-graph elements), and the penalty for
#: picking wave slightly early is under ~20% on the bucket below.
WAVE_AUTO_MIN_ARCS = 1024

#: Relabel operations between global relabels of the wave solver.  Low
#: values make the solver behave like Dinic's phase structure — exact
#: labels either expose an admissible arc on every active node or park
#: unreachable excess at label ``n`` outright — which is what keeps wave
#: counts small on the shallow hub-graph networks this kernel serves,
#: where a vectorized reverse BFS costs only a handful of array passes.
_GLOBAL_RELABEL_INTERVAL = 4

#: Warm-aware global-relabel cadence (E15's before/after knob).  The
#: cold-tuned interval above re-derives exact labels aggressively, which
#: PR 5 measured to *narrow* the warm-start win: a warm re-entry whose
#: preflow suffered few repairs since the last completed solve is nearly
#: converged, and the entry relabel alone restores exact labels — the
#: periodic re-relabels mostly re-prove what the entry already knew.  On
#: warm entries the interval is therefore stretched by how intact the
#: previous solve's state is (its pass count over the repairs since, see
#: :meth:`FlowNetwork._relabel_interval`), capped at
#: :data:`WARM_RELABEL_MAX_STRETCH`.  Results are cadence-independent
#: (the relabel schedule changes the preflow trajectory, never the value
#: or the maximal cut), so the flag is purely a perf toggle.
ADAPTIVE_WARM_RELABEL = True

#: Ceiling on the warm-entry stretch factor of the relabel interval.
WARM_RELABEL_MAX_STRETCH = 8


def compile_grouped(adj, head, num_nodes: int):
    """Compile tail-sorted grouped arc arrays from paired-arc adjacency.

    Shared by :meth:`FlowNetwork._freeze_wave` and the block templates of
    :mod:`repro.flow.batched_solve`, so the two tiers can never disagree
    on the grouped layout (the batched arena round-trips per-network
    capacity state through it).  Grouped position ``p`` holds arc
    ``perm[p]``; ``rev[p]`` is the grouped position of its paired reverse
    arc (``perm`` is a bijection, hence so is ``rev``).

    Returns ``(perm, pos, rev, g_head, g_tail, ptr, counts)``.
    """
    perm = np.fromiter(
        (a for node_arcs in adj for a in node_arcs),
        dtype=np.int64,
        count=len(head),
    )
    pos = np.empty(len(head), dtype=np.int64)
    pos[perm] = np.arange(len(head), dtype=np.int64)
    counts = np.fromiter(
        (len(node_arcs) for node_arcs in adj), dtype=np.int64, count=num_nodes
    )
    ptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    rev = pos[perm ^ 1]
    g_head = np.asarray(head, dtype=np.int64)[perm]
    g_tail = np.repeat(np.arange(num_nodes, dtype=np.int64), counts)
    return perm, pos, rev, g_head, g_tail, ptr, counts


class FlowError(ReproError):
    """Invalid flow-network construction or capacity update."""


def validate_flow_method(method: str) -> None:
    """Raise :class:`FlowError` naming the options unless ``method`` is one.

    Every entry point that takes a flow method calls this at
    construction, whatever its oracle, so a bad value fails up front
    rather than when (or if) the first flow network is built.
    """
    if method not in FLOW_METHODS:
        raise FlowError(
            f"unknown flow method {method!r}; options: {FLOW_METHODS}"
        )


class FlowNotFrozenError(FlowError):
    """A flow-state operation was attempted before :meth:`FlowNetwork.freeze`.

    ``reset``, ``solve``, and the in-place capacity repairs all operate on
    the solver state compiled at freeze time; call :meth:`freeze` once the
    topology is complete (``set_base_capacity`` stays legal before it).
    """


class FlowMidSolveError(FlowError):
    """Flow state was mutated while a :meth:`FlowNetwork.solve` is discharging.

    The solvers read and rewrite residuals/excess/labels throughout a
    discharge; a concurrent ``reset()`` or capacity repair (from a signal
    handler, another thread, or a re-entrant callback) would corrupt the
    preflow invariants silently, so it is rejected with this distinct
    error rather than the unfrozen-network one.
    """


class FlowNetwork:
    """A max-flow instance with static topology and rewritable capacities.

    Parameters
    ----------
    num_nodes:
        Node ids are ``0 .. num_nodes - 1``; ``source`` and ``sink`` are
        two of them.
    method:
        ``"wave"`` (vectorized wave passes), ``"loop"`` (pure-Python FIFO
        discharge, the reference), or ``"auto"`` (default: pick by arc
        count at :meth:`freeze`, see :data:`WAVE_AUTO_MIN_ARCS`).

    Usage::

        net = FlowNetwork(4, source=0, sink=3)
        a = net.add_arc(0, 1, 2.0)
        net.add_arc(1, 3, 1.5)
        net.freeze()
        net.reset()
        value = net.solve()
        side = net.source_side()   # maximal min-cut source side

    After :meth:`freeze`, :attr:`method` holds the resolved solver name.
    The capacity state lives in Python lists under ``"loop"`` and in the
    grouped numpy arrays under ``"wave"`` (see :attr:`grouped_layout`);
    both are updated consistently
    by :meth:`reset` / :meth:`raise_capacity` / :meth:`set_base_capacity`,
    so callers never need to know which solver runs.  A frozen wave
    network is array-only: ``head`` and ``base_cap`` become numpy arrays
    and the per-node adjacency lists are dropped (``adj`` is ``None``) —
    the grouped segments carry the same arcs in the same order.
    """

    __slots__ = (
        "num_nodes",
        "source",
        "sink",
        "method",
        "head",
        "cap",
        "base_cap",
        "adj",
        "excess",
        "label",
        "passes",
        "repairs",
        "solves",
        "solve_seconds",
        "_frozen",
        "_in_solve",
        "_has_solved",
        "_passes_last",
        "_repairs_mark",
        "_g_perm",
        "_g_pos",
        "_g_rev",
        "_g_head",
        "_g_tail",
        "_g_src",
        "_g_tail_ok",
        "_g_forward",
        "_g_ptr",
        "_g_counts",
    )

    def __init__(
        self, num_nodes: int, source: int, sink: int, method: str = "auto"
    ) -> None:
        if not (0 <= source < num_nodes and 0 <= sink < num_nodes):
            raise FlowError("source/sink out of range")
        if source == sink:
            raise FlowError("source and sink must differ")
        validate_flow_method(method)
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.method = method
        self.head: list[int] = []
        self.base_cap: list[float] = []
        self.cap: list[float] = []
        self.adj: list[list[int]] | None = [[] for _ in range(num_nodes)]
        self.excess = [0.0] * num_nodes
        self.label = [0] * num_nodes
        #: Work counters for the warm-start diagnostics: ``passes`` counts
        #: solver progress units (node discharges under ``"loop"``, wave
        #: iterations under ``"wave"`` — comparable across runs of the
        #: same network, not across methods); ``repairs`` counts capacity
        #: decreases that had to cancel routed flow; ``solves`` counts
        #: :meth:`solve` entries (the per-network share of the oracle
        #: stack's kernel-invocation metric).  All cumulative; callers
        #: diff them around a solve.
        self.passes = 0
        self.repairs = 0
        self.solves = 0
        #: Wall seconds spent inside :meth:`solve` (cumulative).  Callers
        #: diff it around a solve, like the counters above.
        self.solve_seconds = 0.0
        self._frozen = False
        self._in_solve = False
        # warm-cadence bookkeeping: whether the current residuals descend
        # from a completed solve (vs a reset), how many passes that solve
        # took, and the repair count recorded when it finished
        self._has_solved = False
        self._passes_last = 0
        self._repairs_mark = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_arc(self, tail: int, head: int, capacity: float = 0.0) -> int:
        """Append a forward arc (and its zero-capacity reverse); return its id."""
        if self._frozen:
            raise FlowError("cannot add arcs after freeze()")
        if capacity < 0.0:
            raise FlowError(f"negative capacity {capacity!r}")
        arc = len(self.head)
        self.head.append(head)
        self.base_cap.append(capacity)
        self.adj[tail].append(arc)
        self.head.append(tail)
        self.base_cap.append(0.0)
        self.adj[head].append(arc + 1)
        return arc

    def freeze(self) -> None:
        """Seal the topology and resolve the solver; capacities stay rewritable.

        ``method="auto"`` resolves to ``"wave"`` at or above
        :data:`WAVE_AUTO_MIN_ARCS` forward arcs, ``"loop"`` below.  The
        wave solver's grouped arc arrays (arcs sorted by tail, CSR-style
        segment pointers, reverse-arc position map) are built here, once.
        """
        self._frozen = True
        if self.method == "auto":
            forward_arcs = len(self.head) // 2
            self.method = "wave" if forward_arcs >= WAVE_AUTO_MIN_ARCS else "loop"
        if self.grouped_layout:
            self._freeze_wave()
        else:
            self.cap = list(self.base_cap)

    @property
    def grouped_layout(self) -> bool:
        """Whether the capacity state lives in the grouped numpy arrays.

        True for the ``"wave"`` solver (the tail-sorted grouped layout
        compiled by :meth:`_freeze_wave`), false for the arc-ordered
        Python lists of ``"loop"``.  Callers that import/export raw flow
        state branch on this, never on :attr:`method` itself.
        """
        return self.method == "wave"

    def _freeze_wave(self) -> None:
        """Compile the grouped (tail-sorted) arc arrays for the wave solver.

        Grouped position ``p`` holds arc ``perm[p]``; ``_g_rev[p]`` is the
        grouped position of its paired reverse arc, so residual updates
        are pure fancy-indexing (``perm`` is a bijection, hence so is
        ``_g_rev`` — no scatter conflicts).  Node ``v``'s segment
        ``_g_ptr[v] : _g_ptr[v + 1]`` lists its arcs in adjacency order, so
        the build-time lists are dropped here: ``head`` and ``base_cap``
        become arrays, ``adj`` becomes ``None``.
        """
        n = self.num_nodes
        perm, pos, rev, g_head, g_tail, ptr, counts = compile_grouped(
            self.adj, self.head, n
        )
        self._g_perm = perm
        self._g_pos = pos
        self._g_rev = rev
        self._g_head = g_head
        self._g_tail = g_tail
        self._g_src = np.nonzero(
            (self._g_tail == self.source) & (perm % 2 == 0)
        )[0]
        self._g_tail_ok = self._g_tail != self.source
        self._g_forward = perm % 2 == 0
        self._g_ptr = ptr
        self._g_counts = counts
        self.head = np.asarray(self.head, dtype=np.int64)
        self.base_cap = np.asarray(self.base_cap, dtype=np.float64)
        self.adj = None
        self.cap = self.base_cap[perm]
        self.excess = np.zeros(n, dtype=np.float64)
        self.label = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------
    # Capacity state
    # ------------------------------------------------------------------
    def _check_mutable(self, operation: str) -> None:
        """Reject flow-state mutation on unfrozen or mid-solve networks.

        The two failure modes get *distinct* errors: an unfrozen network
        has no solver state to mutate yet (:class:`FlowNotFrozenError`,
        fix: call :meth:`freeze`), while a network inside an active
        :meth:`solve` has state that must not change under the solver's
        feet (:class:`FlowMidSolveError`, fix: mutate between solves).
        """
        if self._in_solve:
            raise FlowMidSolveError(
                f"{operation} called while solve() is discharging; "
                "mutate the flow state only between solves"
            )
        if not self._frozen:
            raise FlowNotFrozenError(f"freeze() before {operation}")

    def set_base_capacity(self, arc: int, capacity: float) -> None:
        """Rewrite a forward arc's base capacity (applied by :meth:`reset`)."""
        if capacity < 0.0:
            raise FlowError(f"negative capacity {capacity!r}")
        self.base_cap[arc] = capacity

    def reset(self) -> None:
        """Zero the flow: residuals back to base capacities, excesses cleared."""
        self._check_mutable("reset()")
        self._has_solved = False
        if self.grouped_layout:
            self.cap = self.base_cap[self._g_perm]
            self.excess = np.zeros(self.num_nodes, dtype=np.float64)
        else:
            self.cap = list(self.base_cap)
            self.excess = [0.0] * self.num_nodes

    def adopt_state(self, cap, excess) -> None:
        """Install externally solved flow state (batched-arena writeback).

        ``cap``/``excess`` must be a feasible preflow of the *current*
        base capacities in this network's own layout (grouped arrays
        under ``"wave"``, arc-ordered lists under ``"loop"`` — the
        caller, :meth:`repro.flow.parametric.ParametricDensest.import_flow_state`,
        handles the permutation).  The network is marked as holding a
        completed solve, so subsequent capacity repairs and warm solves
        resume from the adopted preflow exactly as if :meth:`solve` had
        produced it.
        """
        self._check_mutable("adopt_state()")
        if self.grouped_layout:
            self.cap = np.asarray(cap, dtype=np.float64)
            self.excess = np.asarray(excess, dtype=np.float64)
        else:
            self.cap = list(cap)
            self.excess = list(excess)
        # a conservative warm mark: pass history of the arena solve is
        # not meaningful per block, so the next warm entry keeps the
        # cold relabel cadence (stretch 1)
        self._has_solved = True
        self._passes_last = 0
        self._repairs_mark = self.repairs

    def raise_capacity(self, arc: int, capacity: float) -> None:
        """Grow a forward arc's capacity *without* discarding the preflow.

        The current preflow stays feasible (the forward residual only
        grows, the reverse residual — the flow already routed — is
        untouched), so the next :meth:`solve` resumes warm.
        """
        self._check_mutable("raise_capacity()")
        delta = capacity - self.base_cap[arc]
        if delta < 0.0:
            raise FlowError("raise_capacity cannot lower a capacity")
        self.base_cap[arc] = capacity
        if self.grouped_layout:
            self.cap[self._g_pos[arc]] += delta
        else:
            self.cap[arc] += delta

    def raise_capacities(self, arcs, capacities) -> None:
        """Batch :meth:`raise_capacity`; one array update on wave.

        Arc ids must be distinct forward arcs.
        """
        self._check_mutable("raise_capacities()")
        if not self.grouped_layout:
            for arc, capacity in zip(arcs, capacities):
                self.raise_capacity(arc, capacity)
            return
        arcs = np.asarray(arcs, dtype=np.int64)
        caps = np.asarray(capacities, dtype=np.float64)
        delta = caps - self.base_cap[arcs]
        if delta.size and delta.min() < 0.0:
            raise FlowError("raise_capacities cannot lower a capacity")
        self.base_cap[arcs] = caps
        self.cap[self._g_pos[arcs]] += delta

    def lower_capacity(self, arc: int, capacity: float) -> None:
        """Shrink a forward arc's capacity *without* discarding the preflow.

        The cheap case consumes unused forward residual only.  When the
        routed flow itself exceeds the new capacity, the overflow is
        cancelled in place: the arc's flow drops to the new capacity, the
        tail keeps the cancelled amount as excess (it already received
        it), and the head's matching inflow *deficit* is pulled forward
        out of its downstream flow paths by :meth:`_drain_deficit` —
        parked excess absorbs the deficit first, the remainder cancels
        flow toward the sink (shrinking the delivered value when it gets
        there).  The result is a feasible preflow of the lowered network,
        so the next :meth:`solve` resumes warm exactly as after a raise;
        labels need no care because both solvers recompute exact labels
        on entry.

        The drain terminates in one sweep per flow-path hop on networks
        whose flow paths are acyclic — true for every parametric densest
        network (source → elements → vertices → sink) — and is bounded
        defensively for arbitrary topologies.
        """
        self._check_mutable("lower_capacity()")
        if capacity < 0.0:
            raise FlowError(f"negative capacity {capacity!r}")
        delta = self.base_cap[arc] - capacity
        if delta < 0.0:
            raise FlowError("lower_capacity cannot raise a capacity")
        if delta == 0.0:
            return
        self.base_cap[arc] = capacity
        cap = self.cap
        if self.grouped_layout:
            pos = int(self._g_pos[arc])
            rev = int(self._g_rev[pos])
            head = int(self._g_head[pos])
            tail = int(self._g_tail[pos])
        else:
            pos = arc
            rev = arc ^ 1
            head = self.head[arc]
            tail = self.head[rev]
        take = min(float(cap[pos]), delta)
        cap[pos] = float(cap[pos]) - take
        over = delta - take
        if over <= 0.0:
            return
        if over > FLOW_EPS:
            self.repairs += 1
        cap[rev] = max(float(cap[rev]) - over, 0.0)
        if tail != self.source:
            self.excess[tail] += over
        self._drain_deficit(head, over)

    def lower_capacities(self, arcs, capacities) -> None:
        """Batch :meth:`lower_capacity`; one vectorized repair sweep on wave.

        Under the wave kernel the whole batch is repaired in a handful of
        array passes (:meth:`_drain_deficits_wave`) instead of one scalar
        drain per arc; the loop kernel applies the scalar repair per arc.
        Arc ids must be distinct forward arcs.
        """
        self._check_mutable("lower_capacities()")
        if not self.grouped_layout:
            for arc, capacity in zip(arcs, capacities):
                self.lower_capacity(arc, capacity)
            return
        arcs = np.asarray(arcs, dtype=np.int64)
        caps = np.asarray(capacities, dtype=np.float64)
        if arcs.size == 0:
            return
        if caps.min() < 0.0:
            raise FlowError("negative capacity in lower_capacities()")
        delta = self.base_cap[arcs] - caps
        if delta.min() < 0.0:
            raise FlowError("lower_capacities cannot raise a capacity")
        self.base_cap[arcs] = caps
        cap = self.cap
        pos = self._g_pos[arcs]
        take = np.minimum(cap[pos], delta)
        cap[pos] -= take
        over = delta - take
        hot = over > 0.0
        if not hot.any():
            return
        self.repairs += int(np.count_nonzero(over > FLOW_EPS))
        pos, over = pos[hot], over[hot]
        rev = self._g_rev[pos]
        cap[rev] = np.maximum(cap[rev] - over, 0.0)
        n = self.num_nodes
        tails = self._g_tail[pos]
        keep = tails != self.source
        if keep.any():
            self.excess += np.bincount(
                tails[keep], weights=over[keep], minlength=n
            )
        deficit = np.bincount(self._g_head[pos], weights=over, minlength=n)
        self._drain_deficits_wave(deficit)

    def _drain_deficit(self, node: int, amount: float) -> None:
        """Scalar deficit drain: cancel downstream flow to restore balance.

        Processes a worklist of ``(node, deficit)`` parcels: each node
        absorbs what it can from its parked excess (the sink absorbs
        everything — its excess *is* the delivered flow value), then
        cancels flow on its outgoing arcs in adjacency order, forwarding
        the cancelled amounts as new parcels at their heads.  Preflow
        conservation guarantees the outgoing flow always suffices once
        excess is exhausted, so every parcel terminates at the sink, at
        parked excess, or at the source.
        """
        cap = self.cap
        excess = self.excess
        pending = deque([(node, amount)])
        budget = 16 * len(self.head) + 64
        while pending:
            budget -= 1
            if budget < 0:  # pragma: no cover - cyclic-flow pathologies
                raise FlowError(
                    "preflow repair did not converge; flow paths of this "
                    "network appear cyclic — reset() instead"
                )
            v, d = pending.popleft()
            if v == self.source:
                continue  # the source under-writes any balance change
            if v == self.sink:
                excess[v] = max(float(excess[v]) - d, 0.0)
                continue
            absorb = min(float(excess[v]), d)
            excess[v] = float(excess[v]) - absorb
            d -= absorb
            if d <= FLOW_EPS:
                continue
            for fwd, bwd, w in self._forward_arcs(v):
                flow = float(cap[bwd])
                if flow <= FLOW_EPS:
                    continue
                t = min(flow, d)
                cap[fwd] = float(cap[fwd]) + t
                cap[bwd] = flow - t
                pending.append((w, t))
                d -= t
                if d <= FLOW_EPS:
                    break

    def _forward_arcs(self, v: int):
        """``(forward slot, reverse slot, head)`` of each arc ``v`` owns.

        In adjacency order on both layouts (a grouped segment keeps it),
        skipping the reverse arcs ``v`` holds for other nodes' arcs —
        they carry no flow out of ``v``.  Slots index :attr:`cap`.
        """
        if self.grouped_layout:
            lo, hi = int(self._g_ptr[v]), int(self._g_ptr[v + 1])
            fwd = np.nonzero(self._g_forward[lo:hi])[0] + lo
            return zip(
                fwd.tolist(),
                self._g_rev[fwd].tolist(),
                self._g_head[fwd].tolist(),
            )
        head = self.head
        return [(arc, arc ^ 1, head[arc]) for arc in self.adj[v] if not arc & 1]

    def _drain_deficits_wave(self, deficit: np.ndarray) -> None:
        """Vectorized deficit drain: one array sweep per flow-path hop.

        Each round absorbs deficits from parked excess (and the sink's
        delivered value), then cancels each remaining node's outgoing
        flow *proportionally* across its flow-carrying arcs — any split
        restores that node's balance, and the proportional one is a pure
        reduceat/repeat pipeline — forwarding the cancelled amounts as
        the next round's deficits.  Depth-bounded on acyclic flow paths
        (3 rounds for the parametric densest networks), defensively
        bounded otherwise.
        """
        n = self.num_nodes
        cap = self.cap
        excess = self.excess
        g_head = self._g_head
        g_rev = self._g_rev
        for _ in range(n + 2):
            deficit[self.source] = 0.0
            sink_d = deficit[self.sink]
            if sink_d > 0.0:
                excess[self.sink] = max(float(excess[self.sink]) - sink_d, 0.0)
                deficit[self.sink] = 0.0
            absorb = np.minimum(excess, deficit)
            excess -= absorb
            deficit -= absorb
            nodes = np.nonzero(deficit > FLOW_EPS)[0]
            if nodes.size == 0:
                return
            idx, seg_start, lens = self._segments(nodes)
            flow = np.where(self._g_forward[idx], cap[g_rev[idx]], 0.0)
            seg_sum = np.add.reduceat(flow, seg_start)
            ratio = np.minimum(
                1.0, deficit[nodes] / np.maximum(seg_sum, 1e-300)
            )
            cancel = flow * np.repeat(ratio, lens)
            moved = np.nonzero(cancel)[0]
            deficit = np.zeros(n, dtype=np.float64)
            if moved.size:
                amount = cancel[moved]
                tgt = idx[moved]
                cap[tgt] += amount
                cap[g_rev[tgt]] = np.maximum(cap[g_rev[tgt]] - amount, 0.0)
                deficit += np.bincount(
                    g_head[tgt], weights=amount, minlength=n
                )
        raise FlowError(  # pragma: no cover - cyclic-flow pathologies
            "preflow repair did not converge; flow paths of this network "
            "appear cyclic — reset() instead"
        )

    # ------------------------------------------------------------------
    # Solver
    # ------------------------------------------------------------------
    def solve(self) -> float:
        """Run/resume push-relabel; return the max-flow value at the sink.

        Starts from the current preflow (zero after :meth:`reset`, the
        previous run's preflow after :meth:`raise_capacity`), saturates
        the source arcs, and discharges until no active node can reach
        the sink.  Dispatches to the wave or loop solver resolved at
        :meth:`freeze`; both compute the same value and expose the same
        maximal min cut via :meth:`source_side`.  Wall time accrues to
        :attr:`solve_seconds`.
        """
        self._check_mutable("solve()")
        self._in_solve = True
        self.solves += 1
        passes_at_entry = self.passes
        with trace.span("flow.solve") as span:
            watch = Stopwatch().start()
            try:
                if self.method == "wave":
                    value = self._solve_wave()
                else:
                    value = self._solve_loop()
            finally:
                self._in_solve = False
            # accrues only on success: an exception skips the stop below
            self.solve_seconds += watch.stop()
            span.set(method=self.method, passes=self.passes - passes_at_entry)
        self._passes_last = self.passes - passes_at_entry
        self._repairs_mark = self.repairs
        self._has_solved = True
        return value

    @property
    def flow_value(self) -> float:
        """Flow currently delivered to the sink."""
        return float(self.excess[self.sink])

    # ------------------------------------------------------------------
    # Wave solver (vectorized)
    # ------------------------------------------------------------------
    def _wave_global_relabel(self) -> np.ndarray:
        """Exact distance-to-sink labels via vectorized reverse BFS.

        One full-array pass per BFS level: an unlabeled tail whose arc
        has residual capacity into the current frontier joins the next
        level.  Unreachable nodes (and the source) keep label ``n``,
        which parks their stranded excess — phase-two flow return is
        never needed for the min-cut/value uses this kernel serves.
        """
        n = self.num_nodes
        cap = self.cap
        g_head = self._g_head
        g_tail = self._g_tail
        label = np.full(n, n, dtype=np.int64)
        label[self.sink] = 0
        residual = (cap > FLOW_EPS) & self._g_tail_ok
        level = 0
        while True:
            into = residual & (label[g_head] == level) & (label[g_tail] == n)
            if not into.any():
                break
            label[g_tail[into]] = level + 1
            level += 1
        self.label = label
        return label

    def _segments(self, nodes: np.ndarray):
        """Gather ``nodes``'s ragged arc segments into one flat index.

        Returns ``(idx, seg_start, lens)``: ``idx[k]`` is the grouped
        position of the k-th gathered arc, node ``nodes[i]``'s segment
        spans ``idx[seg_start[i] : seg_start[i] + lens[i]]``.
        """
        lens = self._g_counts[nodes]
        seg_end = np.cumsum(lens)
        seg_start = seg_end - lens
        idx = np.repeat(self._g_ptr[nodes] - seg_start, lens)
        idx += np.arange(int(seg_end[-1]), dtype=np.int64)
        return idx, seg_start, lens

    def _relabel_interval(self) -> int:
        """Relabel ops between global relabels, stretched on warm entries.

        Cold solves keep :data:`_GLOBAL_RELABEL_INTERVAL`.  A warm entry
        — residuals descending from a completed solve, mutated only by
        in-place capacity updates since — stretches the interval by how
        intact that state is: the previous solve's pass count divided by
        one plus the repairs applied since it finished, capped at
        :data:`WARM_RELABEL_MAX_STRETCH`.  Raise-only re-entries (the
        in-call Dinkelbach iterations: zero repairs) get the full
        stretch; heavily repaired preflows fall back toward the cold
        cadence, since each repair strands excess the exact labels must
        re-park.  Disabled by :data:`ADAPTIVE_WARM_RELABEL` for the E15
        before/after measurement.
        """
        if not (ADAPTIVE_WARM_RELABEL and self._has_solved):
            return _GLOBAL_RELABEL_INTERVAL
        repairs_since = self.repairs - self._repairs_mark
        stretch = max(
            1,
            min(
                WARM_RELABEL_MAX_STRETCH,
                self._passes_last // (1 + repairs_since),
            ),
        )
        return _GLOBAL_RELABEL_INTERVAL * stretch

    def _solve_wave(self) -> float:
        """Wave-based discharge: top-down level sweeps over the frontier.

        Every wave:

        * **sweeps the populated label levels in descending order**,
          batch-pushing along every admissible arc of each level's
          active nodes — descending order lets a parcel admitted at a
          high label cascade through every level down to the sink
          within one wave.  A node's excess is split across its
          admissible arcs *proportionally to their residuals* (any
          split is a legal preflow move; the proportional one saturates
          downstream capacities evenly, avoiding overflow-and-bounce
          rounds).  Labels are fixed for the whole sweep, so pushes are
          individually valid: admissibility cannot hold for an arc and
          its reverse simultaneously.
        * **batch-relabels** every still-active node (after a full
          sweep each one is stuck) to one past the segment-minimum of
          its residual neighbor heights — labels only increase, so
          simultaneous relabels preserve validity — then applies the
          gap heuristic from a label histogram;
        * every :data:`_GLOBAL_RELABEL_INTERVAL` relabel operations,
          recomputes *exact* labels by the vectorized reverse BFS — an
          exact labeling either exposes an admissible arc on every
          active node (a shortest-path level structure, as in Dinic's
          phases) or parks unreachable excess at label ``n`` outright.

        Termination follows from the standard push-relabel counting
        argument: labels are monotone and bounded, every stuck node is
        strictly lifted, and every push moves more than ``FLOW_EPS``.
        """
        n = self.num_nodes
        cap = self.cap
        g_head = self._g_head
        g_rev = self._g_rev
        excess = self.excess
        source, sink = self.source, self.sink
        relabel_interval = self._relabel_interval()

        label = self._wave_global_relabel()
        # saturate (re-saturate on warm runs) every forward source arc
        src = self._g_src
        if src.size:
            residual = cap[src]
            live = residual > FLOW_EPS
            if live.any():
                pos = src[live]
                amount = residual[live]
                cap[pos] = 0.0
                cap[g_rev[pos]] += amount
                excess += np.bincount(g_head[pos], weights=amount, minlength=n)

        since_gr = 0
        while True:
            active = (excess > FLOW_EPS) & (label < n)
            active[source] = False
            active[sink] = False
            act = np.nonzero(active)[0]
            if not act.size:
                break
            self.passes += 1
            if since_gr >= relabel_interval:
                label = self._wave_global_relabel()
                since_gr = 0
                continue

            # --- descending level sweep: batch-push each populated level
            # in turn, so a parcel admitted at a high label cascades all
            # the way to the sink within one wave (labels are fixed for
            # the whole sweep; each level reads the excess the levels
            # above it just delivered)
            act_labels = label[act]
            top = int(act_labels.max())
            levels = np.unique(label[(label > 0) & (label < n)])
            for lev in levels[levels <= top][::-1]:
                nodes = np.nonzero((label == lev) & (excess > FLOW_EPS))[0]
                if nodes.size == 0:
                    continue
                idx, seg_start, lens = self._segments(nodes)
                a_cap = cap[idx]
                a_head = g_head[idx]
                adm = (a_cap > FLOW_EPS) & (label[a_head] == lev - 1)
                if not adm.any():
                    continue
                # allocate each node's excess across its admissible arcs
                # proportionally to their residuals: any split is a legal
                # preflow move, and the proportional one spreads load so
                # downstream capacities saturate evenly — far fewer
                # overflow-and-bounce rounds than saturating in arc order
                res = np.where(adm, a_cap, 0.0)
                seg_sum = np.add.reduceat(res, seg_start)
                if not np.all(np.isfinite(seg_sum)):
                    # λ·g sink caps overflow to inf when a weight is
                    # near-denormal; a push can never exceed its tail's
                    # excess, so clamping the split residuals there keeps
                    # the arithmetic finite (inf·0 → NaN otherwise)
                    # without changing which pushes are legal — the loop
                    # kernel's min(excess, res) push is naturally immune,
                    # and the two kernels must agree on every cut
                    res = np.minimum(res, np.repeat(excess[nodes], lens))
                    seg_sum = np.add.reduceat(res, seg_start)
                ratio = np.minimum(
                    1.0, excess[nodes] / np.maximum(seg_sum, 1e-300)
                )
                delta = res * np.repeat(ratio, lens)
                delta[delta <= FLOW_EPS] = 0.0
                # a node whose proportional shares all rounded to dust
                # would stall forever; route its whole excess onto its
                # first admissible arc instead (> FLOW_EPS by admissibility)
                kept = np.add.reduceat(delta, seg_start)
                stalled = (kept <= 0.0) & (seg_sum > 0.0)
                if stalled.any():
                    order = np.cumsum(adm)
                    base = np.repeat(order[seg_start] - adm[seg_start], lens)
                    first = adm & (order - base == 1) & np.repeat(stalled, lens)
                    delta = np.where(
                        first,
                        np.minimum(res, np.repeat(excess[nodes], lens)),
                        delta,
                    )
                moved = np.nonzero(delta)[0]
                if moved.size:
                    amount = delta[moved]
                    tgt = idx[moved]
                    cap[tgt] -= amount
                    cap[g_rev[tgt]] += amount
                    excess += np.bincount(
                        a_head[moved], weights=amount, minlength=n
                    )
                    excess -= np.bincount(
                        np.repeat(nodes, lens)[moved],
                        weights=amount,
                        minlength=n,
                    )

            # --- batched relabel: after a full sweep every still-active
            # node is stuck (its admissible residuals are exhausted), so
            # lift each to one past the segment-minimum of its residual
            # neighbor heights
            active = (excess > FLOW_EPS) & (label < n)
            active[source] = False
            active[sink] = False
            act = np.nonzero(active)[0]
            if not act.size:
                break
            idx, seg_start, _lens = self._segments(act)
            a_cap = cap[idx]
            neigh = np.where(a_cap > FLOW_EPS, label[g_head[idx]], 2 * n)
            seg_min = np.minimum.reduceat(neigh, seg_start)
            cand = seg_min + 1
            lift = cand > label[act]
            if lift.any():
                label[act[lift]] = np.minimum(cand[lift], n)
                since_gr += int(np.count_nonzero(lift))
                # gap heuristic: labels above an empty level can never
                # reach the sink again
                hist = np.bincount(label[label < n], minlength=n)
                gaps = np.nonzero(hist == 0)[0]
                if gaps.size:
                    above = (label > gaps[0]) & (label < n)
                    if above.any():
                        label[above] = n
            else:
                # nodes with admissible arcs left but below FLOW_EPS
                # excess granularity: exact labels resolve the stall
                label = self._wave_global_relabel()
                since_gr = 0
        self.label = label
        return float(excess[sink])

    # ------------------------------------------------------------------
    # Loop solver (pure-Python reference)
    # ------------------------------------------------------------------
    def _global_relabel(self) -> list[int]:
        """Exact distance-to-sink labels over the residual graph.

        Unreachable nodes (and the source) get label ``n``, which keeps
        their stranded excess parked — phase-two flow return is never
        needed for the min-cut/value uses this kernel serves.
        """
        n = self.num_nodes
        cap = self.cap
        head = self.head
        label = [n] * n
        label[self.sink] = 0
        queue = deque([self.sink])
        while queue:
            v = queue.popleft()
            next_label = label[v] + 1
            for arc in self.adj[v]:
                # arc^1 runs head[arc] -> v; residual there means the
                # owner of that arc can still send flow toward the sink
                u = head[arc]
                if label[u] == n and u != self.source and cap[arc ^ 1] > FLOW_EPS:
                    label[u] = next_label
                    queue.append(u)
        label[self.source] = n
        self.label = label
        return label

    def _solve_loop(self) -> float:
        """FIFO discharge with the gap heuristic — the reference solver."""
        n = self.num_nodes
        cap = self.cap
        head = self.head
        adj = self.adj
        excess = self.excess
        source, sink = self.source, self.sink

        label = self._global_relabel()
        # saturate (re-saturate on warm runs) every source arc
        for arc in adj[source]:
            if arc & 1:
                continue  # reverse arc owned by another node
            residual = cap[arc]
            if residual > FLOW_EPS:
                v = head[arc]
                cap[arc] = 0.0
                cap[arc ^ 1] += residual
                excess[v] += residual

        count = [0] * (2 * n)  # label histogram for the gap heuristic
        for v in range(n):
            count[label[v]] += 1
        current = [0] * n
        active = deque(
            v
            for v in range(n)
            if v != source and v != sink and excess[v] > FLOW_EPS and label[v] < n
        )
        in_queue = [False] * n
        for v in active:
            in_queue[v] = True

        while active:
            u = active.popleft()
            in_queue[u] = False
            if label[u] >= n:
                continue  # gap-lifted while queued: can never reach the sink
            self.passes += 1
            arcs = adj[u]
            degree = len(arcs)
            while excess[u] > FLOW_EPS:
                if current[u] == degree:
                    # relabel: one past the lowest admissible neighbor
                    old = label[u]
                    lowest = 2 * n
                    for arc in arcs:
                        if cap[arc] > FLOW_EPS:
                            lv = label[head[arc]]
                            if lv < lowest:
                                lowest = lv
                    new = lowest + 1 if lowest < 2 * n else 2 * n
                    count[old] -= 1
                    if count[old] == 0 and old < n:
                        # gap heuristic: labels above an empty level can
                        # never reach the sink again
                        for v in range(n):
                            if old < label[v] < n and v != source:
                                count[label[v]] -= 1
                                label[v] = n
                                count[n] += 1
                    label[u] = min(new, 2 * n - 1)
                    count[label[u]] += 1
                    current[u] = 0
                    if label[u] >= n:
                        break  # cannot reach the sink; excess stays parked
                    continue
                arc = arcs[current[u]]
                v = head[arc]
                if cap[arc] > FLOW_EPS and label[u] == label[v] + 1:
                    delta = excess[u] if excess[u] < cap[arc] else cap[arc]
                    cap[arc] -= delta
                    cap[arc ^ 1] += delta
                    excess[u] -= delta
                    excess[v] += delta
                    if (
                        v != sink
                        and v != source
                        and not in_queue[v]
                        and label[v] < n
                    ):
                        active.append(v)
                        in_queue[v] = True
                else:
                    current[u] += 1
        return excess[sink]

    # ------------------------------------------------------------------
    # Cut extraction
    # ------------------------------------------------------------------
    def source_side(self) -> list[bool]:
        """The *maximal* min-cut source side of the last :meth:`solve`.

        A node is on the sink side iff it still reaches the sink in the
        residual graph; everything else — including nodes holding
        stranded excess — forms the unique maximal source side.  Maximal
        is the right choice for the densest-subgraph reduction: at the
        optimum density it selects the largest optimal sub-hub-graph,
        mirroring the peel's preference for more coverage on cost ties.
        The maximal side is a property of the max-flow *value*, not of
        the particular preflow found, so both solvers agree.
        """
        if self.grouped_layout:
            n = self.num_nodes
            g_tail = self._g_tail
            g_head = self._g_head
            residual = self.cap > FLOW_EPS
            reaches = np.zeros(n, dtype=bool)
            reaches[self.sink] = True
            while True:
                into = residual & reaches[g_head] & ~reaches[g_tail]
                if not into.any():
                    break
                reaches[g_tail[into]] = True
            return (~reaches).tolist()
        n = self.num_nodes
        cap = self.cap
        head = self.head
        reaches = [False] * n
        reaches[self.sink] = True
        queue = deque([self.sink])
        while queue:
            v = queue.popleft()
            for arc in self.adj[v]:
                u = head[arc]
                if not reaches[u] and cap[arc ^ 1] > FLOW_EPS:
                    reaches[u] = True
                    queue.append(u)
        return [not r for r in reaches]
