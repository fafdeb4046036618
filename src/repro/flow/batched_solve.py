"""Block-diagonal batched max-flow: one wave pass over many hub problems.

After PR 5 the exact oracle's cost is dominated not by any single flow
solve but by the *per-solve overhead* of thousands of small networks
dispatched one at a time — each pays its own numpy dispatch per wave,
per level, per relabel.  The cure is the standard one for a workload of
many independent small subproblems: stack them.  ``k`` hub flow networks
become one flat paired-arc arena whose adjacency is block-diagonal
(arcs never cross blocks), and the wave kernel of
:mod:`repro.flow.maxflow` generalizes almost unchanged:

* **shared descending-level sweeps** — nodes of *every* block at the
  same numeric label discharge together; pushes stay within a block by
  construction, so per-arc admissibility is untouched;
* **segmented reverse BFS** for global relabeling — one BFS grown from
  all sinks simultaneously; blocks are disconnected, so the flat label
  frontier *is* the per-block distance computation;
* **per-block parking sentinels** — a node unreachable from its sink
  parks at its *own block's* node count (the single-network ``n``), so
  excess parks exactly as it would in an isolated solve;
* **per-block gap heuristic** — one ``bincount`` over
  ``block·stride + label`` gives every block's label histogram at once;
  nodes above their block's first empty level park;
* **per-block termination masks** — a block whose Dinkelbach search
  converged is marked done: its arcs leave the BFS residual and its
  nodes leave the frontier, so finished blocks cost nothing while the
  stragglers iterate.

The arena does not own the problems: it is loaded from, and written
back to, the per-hub :class:`~repro.flow.maxflow.FlowNetwork` state via
:class:`BlockTemplate` (the same tail-sorted grouped layout the wave
kernel freezes, compiled by
:func:`~repro.flow.maxflow.compile_grouped` so the two tiers cannot
disagree).  Warm state therefore flows in both directions — a batched
solve resumes whatever preflow the per-hub network held, and leaves its
result behind for the next sequential *or* batched call to repair.

Correctness contract: a batched solve of ``k`` blocks computes, per
block, the same max-flow value and the same *maximal* min-cut source
side as ``k`` isolated solves — the value is unique and the maximal cut
is a property of the capacities, not the discharge schedule
(differential-tested in ``tests/test_batched_solve.py``).  On top of
this, :class:`~repro.flow.exact_oracle.MultiHubSession` runs the
batched Dinkelbach driver; the scheduler-level speculation that feeds
it batches is in :class:`~repro.core.chitchat.ChitchatScheduler`
(``batch_k=``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.tolerances import FLOW_EPS
from repro.flow import maxflow
from repro.flow.maxflow import FlowError, FlowNetwork, compile_grouped
from repro.obs import trace
from repro.obs.metrics import StatsView


class FlowStats(StatsView):
    """Profile of the flow tier under one oracle session.

    ``kernel_invocations`` counts solver entries — one per sequential
    :meth:`~repro.flow.maxflow.FlowNetwork.solve` plus one per batched
    arena pass, regardless of how many blocks the pass carried — the
    E18 benchmark's headline ratio.  ``batched_solves`` counts arena
    dispatches and ``batched_blocks`` the hub problems they carried
    (``blocks_per_batch`` is their ratio).  The kernel time split
    (``freeze_seconds`` — arena assembly from block templates,
    ``discharge_seconds`` — wave sweeps and relabels,
    ``relabel_seconds`` — the global-relabel/segmented-BFS share of
    discharge) is measured on the batched tier, where the arena's entry
    points make the boundaries unambiguous.  ``solve_seconds`` is the
    *sequential* tier's solve wall (diffed from
    :attr:`~repro.flow.maxflow.FlowNetwork.solve_seconds` around each
    oracle call), so sequential-vs-batched wall splits read off one
    object.

    Since ISSUE 8 this is a :class:`~repro.obs.metrics.StatsView`: each
    field is a live view over a cell of a metrics-registry node (the
    oracle's ``flow`` subtree when the scheduler wires one through, a
    private tree otherwise), so ``registry.snapshot()`` and these
    attributes always agree.  The field set, defaults, and arithmetic
    (``stats.kernel_invocations += 1``) are unchanged.
    """

    _FIELDS = {
        "kernel_invocations": (("kernel_invocations",), "counter"),
        "batched_solves": (("arena", "batched_solves"), "counter"),
        "batched_blocks": (("arena", "batched_blocks"), "counter"),
        "freeze_seconds": (("arena", "freeze_seconds"), "timer"),
        "discharge_seconds": (("arena", "discharge_seconds"), "timer"),
        "relabel_seconds": (("arena", "relabel_seconds"), "timer"),
        "solve_seconds": (("solve_seconds",), "timer"),
    }

    @property
    def blocks_per_batch(self) -> float:
        if self.batched_solves == 0:
            return 0.0
        return self.batched_blocks / self.batched_solves


class BlockTemplate:
    """Frozen grouped-layout view of one flow network's topology.

    Local node/arc ids; immutable and shareable across arenas.  The
    grouped layout is the wave kernel's own (tail-sorted, CSR segment
    pointers), so a wave-method network's ``cap`` array is already in
    block layout, and a loop-method network round-trips through
    ``perm``/``pos``.
    """

    __slots__ = (
        "num_nodes",
        "num_positions",
        "source",
        "sink",
        "perm",
        "pos",
        "rev",
        "head",
        "tail",
        "ptr",
        "counts",
        "src_pos",
    )

    def __init__(
        self, num_nodes, source, sink, perm, pos, rev, head, tail, ptr, counts
    ) -> None:
        self.num_nodes = num_nodes
        self.num_positions = len(head)
        self.source = source
        self.sink = sink
        self.perm = perm
        self.pos = pos
        self.rev = rev
        self.head = head
        self.tail = tail
        self.ptr = ptr
        self.counts = counts
        # grouped positions of the forward arcs out of the source, for
        # the (re-)saturation step of every solve
        self.src_pos = np.nonzero((tail == source) & (perm % 2 == 0))[0]

    @classmethod
    def from_network(cls, net: FlowNetwork) -> "BlockTemplate":
        """Compile a frozen network's topology into a block template.

        A wave network's grouped arrays already are the block layout and
        are shared as they stand; a loop network is compiled from its
        adjacency lists by the same :func:`compile_grouped`.
        """
        if not net._frozen:
            raise FlowError("freeze() the network before templating it")
        if net.grouped_layout:
            perm, pos, rev = net._g_perm, net._g_pos, net._g_rev
            head, tail = net._g_head, net._g_tail
            ptr, counts = net._g_ptr, net._g_counts
        else:
            perm, pos, rev, head, tail, ptr, counts = compile_grouped(
                net.adj, net.head, net.num_nodes
            )
        return cls(
            net.num_nodes,
            net.source,
            net.sink,
            perm,
            pos,
            rev,
            head,
            tail,
            ptr,
            counts,
        )


class BatchedNetwork:
    """``k`` independent flow networks stacked into one paired-arc arena.

    Parameters
    ----------
    blocks:
        ``(template, cap, excess)`` triples — the grouped residual
        capacities and node excesses of each block's current (possibly
        warm) preflow, as produced by
        :meth:`~repro.flow.parametric.ParametricDensest.export_flow_state`.
        The arrays are copied into the arena; per-block slices come back
        out via :meth:`export_block`.
    stats:
        Optional :class:`FlowStats` accumulating assembly/discharge/
        relabel time and invocation counts across arenas.

    The arena always runs the wave kernel (segmented numpy sweeps over
    all blocks at once): the per-block ``"loop"`` tier has no batched
    counterpart — arenas exist precisely to avoid per-block dispatch.

    :meth:`solve` discharges every live block to completion (max preflow
    per block); :meth:`block_value` reads a block's delivered flow,
    :meth:`source_sides` extracts every live block's maximal min cut in
    one segmented reverse BFS, :meth:`add_capacity` grows arc residuals
    in place (the Dinkelbach sink raises), and :meth:`mark_done` drops a
    finished block out of every frontier.
    """

    def __init__(
        self,
        blocks,
        stats: FlowStats | None = None,
        count_dispatch: bool = True,
    ) -> None:
        if not blocks:
            raise FlowError("BatchedNetwork needs at least one block")
        t0 = perf_counter()
        self.stats = stats
        templates = [t for t, _cap, _ex in blocks]
        self.num_blocks = len(blocks)
        node_counts = np.array([t.num_nodes for t in templates], dtype=np.int64)
        arc_counts = np.array(
            [t.num_positions for t in templates], dtype=np.int64
        )
        self._node_off = np.zeros(self.num_blocks + 1, dtype=np.int64)
        np.cumsum(node_counts, out=self._node_off[1:])
        self._arc_off = np.zeros(self.num_blocks + 1, dtype=np.int64)
        np.cumsum(arc_counts, out=self._arc_off[1:])
        self.num_nodes = int(self._node_off[-1])
        n = self.num_nodes
        self._g_head = np.concatenate(
            [t.head + off for t, off in zip(templates, self._node_off[:-1])]
        )
        self._g_tail = np.concatenate(
            [t.tail + off for t, off in zip(templates, self._node_off[:-1])]
        )
        self._g_rev = np.concatenate(
            [t.rev + off for t, off in zip(templates, self._arc_off[:-1])]
        )
        self._g_counts = np.concatenate([t.counts for t in templates])
        self._g_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self._g_counts, out=self._g_ptr[1:])
        self._src_pos = np.concatenate(
            [t.src_pos + off for t, off in zip(templates, self._arc_off[:-1])]
        )
        self._sink_nodes = np.array(
            [t.sink + off for t, off in zip(templates, self._node_off[:-1])],
            dtype=np.int64,
        )
        source_nodes = np.array(
            [t.source + off for t, off in zip(templates, self._node_off[:-1])],
            dtype=np.int64,
        )
        # per-block parking sentinel: a node unreachable from its own
        # sink parks at its block's node count, exactly as an isolated
        # solve would park it at n
        self._park = np.repeat(node_counts, node_counts)
        self._block_node = np.repeat(
            np.arange(self.num_blocks, dtype=np.int64), node_counts
        )
        self._stride = int(node_counts.max()) + 1
        self._is_source = np.zeros(n, dtype=bool)
        self._is_source[source_nodes] = True
        self._mid = np.ones(n, dtype=bool)
        self._mid[source_nodes] = False
        self._mid[self._sink_nodes] = False
        self._tail_ok = ~self._is_source[self._g_tail]
        self._park_tail = self._park[self._g_tail]
        # per-block termination masks: a done block's nodes leave the
        # frontier and its arcs leave every residual scan
        self._node_done = np.zeros(n, dtype=bool)
        self._arc_live = np.ones(len(self._g_head), dtype=bool)
        self.cap = np.concatenate([cap for _t, cap, _ex in blocks]).astype(
            np.float64, copy=False
        )
        self.excess = np.concatenate(
            [ex for _t, _cap, ex in blocks]
        ).astype(np.float64, copy=False)
        self.label = self._park.copy()
        self._has_solved = False
        #: Wave iterations across all :meth:`solve` calls (the arena's
        #: share of the oracle session's ``flow_passes``).
        self.passes = 0
        #: :meth:`solve` entries (the arena's share of
        #: :attr:`FlowStats.kernel_invocations`).
        self.solves = 0
        elapsed = perf_counter() - t0
        trace.complete(
            "flow.arena.freeze", t0, elapsed, blocks=self.num_blocks
        )
        if stats is not None:
            stats.freeze_seconds += elapsed
            if count_dispatch:
                # compaction arenas (count_dispatch=False) continue the
                # same logical dispatch: their time accrues, but they are
                # not a new batch for the blocks_per_batch accounting
                stats.batched_solves += 1
                stats.batched_blocks += self.num_blocks

    # ------------------------------------------------------------------
    # Block accessors
    # ------------------------------------------------------------------
    def block_value(self, block: int) -> float:
        """Flow delivered to ``block``'s sink."""
        return float(self.excess[self._sink_nodes[block]])

    def block_side(self, sides: np.ndarray, block: int) -> np.ndarray:
        """``block``'s slice of a :meth:`source_sides` result (local ids)."""
        return sides[self._node_off[block] : self._node_off[block + 1]]

    def export_block(self, block: int) -> tuple[np.ndarray, np.ndarray]:
        """Copies of ``block``'s grouped residual caps and node excess."""
        caps = self.cap[self._arc_off[block] : self._arc_off[block + 1]]
        excess = self.excess[
            self._node_off[block] : self._node_off[block + 1]
        ]
        return caps.copy(), excess.copy()

    def add_capacity(self, block: int, positions, deltas) -> None:
        """Grow residuals at ``block``-local grouped positions in place.

        The batched counterpart of
        :meth:`~repro.flow.maxflow.FlowNetwork.raise_capacity`: the
        preflow stays feasible because forward residuals only grow.
        """
        positions = np.asarray(positions, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.float64)
        if deltas.size and deltas.min() < 0.0:
            raise FlowError("add_capacity cannot lower a capacity")
        self.cap[self._arc_off[block] + positions] += deltas

    def mark_done(self, block: int) -> None:
        """Drop a finished block out of every frontier and residual scan."""
        lo, hi = self._node_off[block], self._node_off[block + 1]
        self._node_done[lo:hi] = True
        self._arc_live[self._arc_off[block] : self._arc_off[block + 1]] = False

    # ------------------------------------------------------------------
    # Kernel
    # ------------------------------------------------------------------
    def _global_relabel(self) -> np.ndarray:
        """Segmented reverse BFS: exact sink distances for every live block.

        One flat frontier grown from all live sinks at once; blocks are
        disconnected, so the shared level counter computes every block's
        distances simultaneously.  Unreachable nodes (and sources) stay
        at their block's parking sentinel.
        """
        t0 = perf_counter()
        cap = self.cap
        g_head = self._g_head
        g_tail = self._g_tail
        park_tail = self._park_tail
        label = self._park.copy()
        label[self._sink_nodes[~self._block_done_mask()]] = 0
        residual = (cap > FLOW_EPS) & self._tail_ok & self._arc_live
        level = 0
        while True:
            into = (
                residual
                & (label[g_head] == level)
                & (label[g_tail] == park_tail)
            )
            if not into.any():
                break
            label[g_tail[into]] = level + 1
            level += 1
        self.label = label
        elapsed = perf_counter() - t0
        trace.complete("flow.arena.relabel", t0, elapsed)
        if self.stats is not None:
            self.stats.relabel_seconds += elapsed
        return label

    def _block_done_mask(self) -> np.ndarray:
        return self._node_done[self._sink_nodes]

    def _segments(self, nodes: np.ndarray):
        """Flat gather of ``nodes``'s ragged arc segments (see maxflow)."""
        lens = self._g_counts[nodes]
        seg_end = np.cumsum(lens)
        seg_start = seg_end - lens
        idx = np.repeat(self._g_ptr[nodes] - seg_start, lens)
        idx += np.arange(int(seg_end[-1]), dtype=np.int64)
        return idx, seg_start, lens

    def solve(self) -> None:
        """Discharge every live block to completion in shared waves.

        The wave kernel of :meth:`FlowNetwork._solve_wave`, generalized:
        the descending level sweep runs over the union of every live
        block's populated levels (same-level nodes of different blocks
        discharge together), relabels lift to per-block parking
        sentinels, and the gap heuristic reads one per-block histogram.
        Per-block flow values are read afterwards via
        :meth:`block_value`.
        """
        with trace.span("flow.arena.solve") as span:
            span.set(blocks=self.num_blocks)
            self._solve_wave()

    def _solve_wave(self) -> None:
        t0 = perf_counter()
        self.solves += 1
        if self.stats is not None:
            self.stats.kernel_invocations += 1
        # global-relabel cadence: the per-network interval, scaled by the
        # live block count (``since_gr`` counts lifts arena-wide, so k
        # blocks earn k networks' worth of lifts between exact BFS
        # passes) and by the warm stretch on re-entries — an arena
        # re-entry is raise-only by construction (repair blocks leave
        # the arena), which is exactly the case the sequential kernel's
        # adaptive cadence stretches hardest
        live_blocks = int(np.count_nonzero(~self._block_done_mask()))
        interval = _ARENA_RELABEL_INTERVAL * max(1, live_blocks)
        if self._has_solved and maxflow.ADAPTIVE_WARM_RELABEL:
            interval *= maxflow.WARM_RELABEL_MAX_STRETCH
        self._has_solved = True
        cap = self.cap
        g_head = self._g_head
        g_rev = self._g_rev
        excess = self.excess
        park = self._park
        block_node = self._block_node
        stride = self._stride
        big = 2 * stride

        label = self._global_relabel()
        # (re-)saturate every live forward source arc
        src = self._src_pos[self._arc_live[self._src_pos]]
        if src.size:
            residual = cap[src]
            live = residual > FLOW_EPS
            if live.any():
                pos = src[live]
                amount = residual[live]
                cap[pos] = 0.0
                cap[g_rev[pos]] += amount
                excess += np.bincount(
                    g_head[pos], weights=amount, minlength=self.num_nodes
                )

        frontier_ok = self._mid & ~self._node_done
        since_gr = 0
        while True:
            active = (excess > FLOW_EPS) & (label < park) & frontier_ok
            act = np.nonzero(active)[0]
            if not act.size:
                break
            self.passes += 1
            if since_gr >= interval:
                label = self._global_relabel()
                since_gr = 0
                continue

            # --- shared descending level sweep: every block's nodes at
            # the same numeric level discharge together; arcs stay
            # within a block, so pushes are exactly the isolated ones.
            # Labels are fixed for the whole sweep, so the frontier is
            # grouped by level ONCE per pass — each level then touches
            # only its own nodes (the excess filter must stay live: a
            # level's nodes may have received their excess from the
            # levels above mid-sweep), keeping per-level work O(level)
            # instead of O(arena)
            top = int(label[act].max())
            cand = np.nonzero((label > 0) & (label < park) & frontier_ok)[0]
            order = np.argsort(label[cand], kind="stable")
            cand = cand[order]
            lab_sorted = label[cand]
            uniq, starts = np.unique(lab_sorted, return_index=True)
            bounds = np.append(starts, cand.size)
            for ui in range(len(uniq) - 1, -1, -1):
                lev = int(uniq[ui])
                if lev > top:
                    continue
                seg = cand[bounds[ui] : bounds[ui + 1]]
                nodes = seg[excess[seg] > FLOW_EPS]
                if nodes.size == 0:
                    continue
                idx, seg_start, lens = self._segments(nodes)
                a_cap = cap[idx]
                a_head = g_head[idx]
                adm = (a_cap > FLOW_EPS) & (label[a_head] == lev - 1)
                if not adm.any():
                    continue
                res = np.where(adm, a_cap, 0.0)
                seg_sum = np.add.reduceat(res, seg_start)
                if not np.all(np.isfinite(seg_sum)):
                    # same inf guard as the sequential wave kernel: λ·g
                    # sink caps overflow for near-denormal weights, and a
                    # push never exceeds its tail's excess anyway
                    res = np.minimum(res, np.repeat(excess[nodes], lens))
                    seg_sum = np.add.reduceat(res, seg_start)
                ratio = np.minimum(
                    1.0, excess[nodes] / np.maximum(seg_sum, 1e-300)
                )
                delta = res * np.repeat(ratio, lens)
                delta[delta <= FLOW_EPS] = 0.0
                kept = np.add.reduceat(delta, seg_start)
                stalled = (kept <= 0.0) & (seg_sum > 0.0)
                if stalled.any():
                    order = np.cumsum(adm)
                    base = np.repeat(order[seg_start] - adm[seg_start], lens)
                    first = (
                        adm & (order - base == 1) & np.repeat(stalled, lens)
                    )
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
                        a_head[moved], weights=amount, minlength=self.num_nodes
                    )
                    excess -= np.bincount(
                        np.repeat(nodes, lens)[moved],
                        weights=amount,
                        minlength=self.num_nodes,
                    )

            # --- batched relabel to per-block parking sentinels
            active = (excess > FLOW_EPS) & (label < park) & frontier_ok
            act = np.nonzero(active)[0]
            if not act.size:
                break
            idx, seg_start, _lens = self._segments(act)
            a_cap = cap[idx]
            neigh = np.where(a_cap > FLOW_EPS, label[g_head[idx]], big)
            seg_min = np.minimum.reduceat(neigh, seg_start)
            cand = seg_min + 1
            lift = cand > label[act]
            if lift.any():
                label[act[lift]] = np.minimum(cand[lift], park[act[lift]])
                since_gr += int(np.count_nonzero(lift))
                # per-block gap heuristic: one bincount over
                # block·stride + label gives every block's histogram;
                # nodes above their block's first empty level park
                live = label < park
                key = block_node[live] * stride + label[live]
                hist = np.bincount(
                    key, minlength=self.num_blocks * stride
                ).reshape(self.num_blocks, stride)
                # a block's labels are < park <= stride - 1 wherever
                # live, so level stride-1 is always empty: argmax on the
                # inverted occupancy always finds a genuine first gap
                gap = (hist[:, 1:] == 0).argmax(axis=1) + 1
                parkit = live & (label > gap[block_node])
                if parkit.any():
                    label[parkit] = park[parkit]
            else:
                # admissible arcs remain but below FLOW_EPS granularity:
                # exact labels resolve the stall
                label = self._global_relabel()
                since_gr = 0
        self.label = label
        if self.stats is not None:
            self.stats.discharge_seconds += perf_counter() - t0

    # ------------------------------------------------------------------
    # Cut extraction
    # ------------------------------------------------------------------
    def source_sides(self) -> np.ndarray:
        """Maximal min-cut source sides of every *live* block, flat.

        One segmented reverse reachability BFS from all live sinks; a
        node is on its block's sink side iff it still reaches that sink
        in the residual graph.  Done blocks are masked out of the scan —
        their slices read all-True (no residual arcs are live) and must
        not be consumed.  Slice per block with :meth:`block_side`.
        """
        t0 = perf_counter()
        residual = (self.cap > FLOW_EPS) & self._arc_live
        g_head = self._g_head
        g_tail = self._g_tail
        reaches = np.zeros(self.num_nodes, dtype=bool)
        reaches[self._sink_nodes[~self._block_done_mask()]] = True
        while True:
            into = residual & reaches[g_head] & ~reaches[g_tail]
            if not into.any():
                break
            reaches[g_tail[into]] = True
        elapsed = perf_counter() - t0
        trace.complete("flow.arena.cut", t0, elapsed)
        if self.stats is not None:
            self.stats.relabel_seconds += elapsed
        return ~reaches


#: Per-block relabel operations between global relabels of the arena
#: kernel — the cold cadence of
#: :data:`repro.flow.maxflow._GLOBAL_RELABEL_INTERVAL`.  At solve time
#: it is scaled by the live block count (lifts are counted arena-wide)
#: and, on re-entries, by the sequential kernel's warm stretch: a block
#: re-enters the arena only after a raise-only Dinkelbach step (repairs
#: drop it out), the exact case
#: :meth:`repro.flow.maxflow.FlowNetwork._relabel_interval` stretches
#: hardest.
_ARENA_RELABEL_INTERVAL = 4
