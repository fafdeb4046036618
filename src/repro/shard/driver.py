"""Sharded multi-process CHITCHAT: plan, fan out, merge, reconcile.

This is the execution tier the ROADMAP's "sharded, multi-process
scheduling at 10^6–10^7 nodes" item asks for, and it turns the
placement machinery (:class:`~repro.store.partition.HashPartitioner`,
:mod:`repro.analysis.partitioning`) from what-if analytics into how
schedules actually get computed:

1. **plan** — every edge ``u -> v`` is owned by ``shard(u)`` under the
   partitioner's hash placement (producer-side ownership, the same rule
   the paper's MapReduce jobs use to key adjacency by source).  Shards
   therefore own *disjoint element sets*, which is what makes the merge
   trivially feasible.
2. **fan out** — per-shard CSR slabs (full ``0..n-1`` node space,
   filtered edge set) and one shared rate slab go into
   ``multiprocessing.shared_memory``; workers attach zero-copy views and
   run lazy CHITCHAT independently (:mod:`repro.shard.worker`) with the
   same default oracle as every other entry point, the factor-2 peel
   (``oracle="peel"``; ``"exact"`` opts a run into the flow oracle of
   :mod:`repro.flow`).  The default start method is ``spawn`` so nothing
   rides on fork-inherited state.
3. **merge** — union of the per-shard push/pull sets and hub covers.
   Disjoint elements + legs that are real graph edges ⇒ the union serves
   every edge of the full graph; shared legs deduplicate, so the merged
   cost is at most the sum of the parts.
4. **reconcile** — the bounded sequential fix-up of
   :mod:`repro.shard.reconcile` re-covers direct-served elements through
   boundary hubs other shards selected, ordered by the workers'
   CELF-certified bounds.  Monotone: cost only decreases.

The measured price of sharding is the *quality gap*: each worker sees
only ``~1/k`` of a cross-shard element's wedge hubs.  The E21 bench
reports the gap against a sequential run — it is data, not an assertion.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from time import perf_counter, time

import numpy as np

from repro.core.cost import schedule_cost
from repro.core.schedule import RequestSchedule
from repro.errors import ReproError
from repro.flow.exact_oracle import validate_oracle_mode
from repro.flow.maxflow import validate_flow_method
from repro.graph.csr import CSRGraph
from repro.graph.slab import Slab, export_arrays, export_csr
from repro.graph.view import GraphView, to_csr
from repro.obs import get_tracer, trace
from repro.shard.reconcile import reconcile_boundary_hubs
from repro.shard.worker import run_shard_task
from repro.store.partition import HashPartitioner
from repro.workload.rates import Workload

__all__ = ["ShardPlan", "ShardExecution", "plan_shards", "sharded_chitchat_schedule"]

#: Hard wall-clock ceiling on the worker fan-out (seconds).  A wedged
#: worker (pickling bug, slab mismatch, deadlocked pool) fails the run
#: loudly instead of hanging the caller's CI job.
DEFAULT_WORKER_TIMEOUT = 3600.0


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic edge-ownership plan for one sharded run."""

    num_shards: int
    seed: int
    owner: np.ndarray  # per-node owning shard (hash placement)
    edge_owner: np.ndarray  # per-edge owning shard == owner[src]
    shard_edge_counts: tuple[int, ...]
    cut_edges: int  # edges whose endpoints live on different shards

    @property
    def cut_fraction(self) -> float:
        total = int(self.edge_owner.shape[0])
        return self.cut_edges / total if total else 0.0


@dataclass
class ShardExecution:
    """Everything a sharded run produced, beyond the schedule itself."""

    schedule: RequestSchedule
    plan: ShardPlan
    num_workers: int
    cost: float
    merged_cost: float  # before reconciliation
    shard_reports: list[dict] = field(default_factory=list)
    reconciliation: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    workers_wall_seconds: float = 0.0  # sum of per-worker walls
    trace_streams: list[dict] = field(default_factory=list)

    @property
    def oracle_calls(self) -> int:
        return sum(r["stats"]["oracle_calls"] for r in self.shard_reports)


def plan_shards(
    graph: CSRGraph, num_shards: int, seed: int = 0
) -> ShardPlan:
    """Hash-place nodes and derive producer-side edge ownership."""
    if num_shards <= 0:
        raise ReproError(f"num_shards must be positive, got {num_shards}")
    partitioner = HashPartitioner(num_shards, seed)
    owner = partitioner.servers_of_array(np.arange(graph.num_nodes, dtype=np.int64))
    src, dst = graph.edge_arrays()
    edge_owner = owner[src]
    counts = np.bincount(edge_owner, minlength=num_shards)
    cut = int((owner[src] != owner[dst]).sum())
    return ShardPlan(
        num_shards=num_shards,
        seed=seed,
        owner=owner,
        edge_owner=edge_owner,
        shard_edge_counts=tuple(int(c) for c in counts),
        cut_edges=cut,
    )


def _merge_schedules(results: list[dict]) -> RequestSchedule:
    merged = RequestSchedule()
    for result in results:
        merged.push.update(map(tuple, result["push"]))
        merged.pull.update(map(tuple, result["pull"]))
        merged.hub_cover.update(result["hub_cover"])
    return merged


def sharded_chitchat_schedule(
    graph: GraphView,
    workload: Workload,
    num_shards: int = 4,
    num_workers: int | None = None,
    *,
    seed: int = 0,
    oracle: str = "peel",
    method: str = "auto",
    epsilon: float = 0.0,
    batch_k: int = 0,
    max_cross_edges: int | None = None,
    reconcile_hub_budget: int | None = None,
    reconcile_wedge_budget: int | None = None,
    start_method: str = "spawn",
    timeout: float | None = None,
    trace_workers: bool = False,
) -> ShardExecution:
    """Compute a full-graph CHITCHAT schedule with multi-process shards.

    ``num_workers`` defaults to ``min(num_shards, cpu_count)``; with
    ``num_shards=1`` the single worker still runs out of process, so the
    spawn/slab path is always exercised.  ``timeout`` is the hard
    wall-clock guard on the fan-out (:data:`DEFAULT_WORKER_TIMEOUT` when
    ``None``); a stuck worker raises instead of hanging.
    ``trace_workers=True`` collects each worker's span stream (merge
    them with :func:`repro.obs.merge_trace_streams`).

    ``oracle`` and ``method`` are handed to every worker's scheduler, and
    checked here first — before any planning or slab export — so a bad
    value fails in the driver, not in a spawned worker.  The default is
    the peel: on the degree-skewed, community-structured LDBC instance of
    the perf ledger, the flow oracle returned the byte-identical schedule
    about 1.8x slower in 1.6x the memory.
    """
    validate_oracle_mode(oracle)
    validate_flow_method(method)
    started = perf_counter()
    csr = graph if isinstance(graph, CSRGraph) else to_csr(graph)
    rp, rc = workload.as_arrays(csr.num_nodes)
    if num_workers is None:
        num_workers = max(1, min(num_shards, os.cpu_count() or 1))
    timeout = DEFAULT_WORKER_TIMEOUT if timeout is None else timeout

    with trace.span("shard.plan"):
        plan = plan_shards(csr, num_shards, seed)
        src, dst = csr.edge_arrays()

    slabs: list[Slab] = []
    anchor = (perf_counter(), time())
    try:
        with trace.span("shard.export"):
            rates_slab = export_arrays({"rp": rp, "rc": rc})
            slabs.append(rates_slab)
            tasks = []
            for shard_id in range(num_shards):
                mask = plan.edge_owner == shard_id
                shard_csr = CSRGraph.from_arrays(csr.num_nodes, src[mask], dst[mask])
                slab = export_csr(shard_csr)
                slabs.append(slab)
                tasks.append(
                    {
                        "shard_id": shard_id,
                        "graph_manifest": slab.manifest,
                        "rates_manifest": rates_slab.manifest,
                        "oracle": oracle,
                        "method": method,
                        "epsilon": epsilon,
                        "batch_k": batch_k,
                        "max_cross_edges": max_cross_edges,
                        "trace": trace_workers,
                    }
                )

        with trace.span("shard.fanout") as fan_span:
            context = multiprocessing.get_context(start_method)
            with context.Pool(processes=num_workers) as pool:
                async_result = pool.map_async(run_shard_task, tasks, chunksize=1)
                try:
                    results = async_result.get(timeout=timeout)
                except multiprocessing.TimeoutError:
                    pool.terminate()
                    raise ReproError(
                        f"sharded fan-out exceeded the {timeout:.0f}s hard "
                        f"timeout ({num_shards} shards, {num_workers} workers)"
                    ) from None
            results.sort(key=lambda result: result["shard_id"])
            fan_span.set(shards=num_shards, workers=num_workers)
    finally:
        for slab in slabs:
            slab.unlink()

    with trace.span("shard.merge"):
        schedule = _merge_schedules(results)
        merged_cost = schedule_cost(schedule, workload)

    hub_bounds: dict[int, float] = {}
    for result in results:
        for hub, bound in result["hub_bounds"].items():
            known = hub_bounds.get(hub)
            hub_bounds[hub] = bound if known is None else min(known, bound)
    reconciliation = reconcile_boundary_hubs(
        csr,
        rp,
        rc,
        schedule,
        plan.owner,
        hub_bounds,
        hub_budget=reconcile_hub_budget,
        wedge_budget=reconcile_wedge_budget,
    )

    trace_streams = [r.pop("trace_stream") for r in results if "trace_stream" in r]
    if trace_workers:
        tracer = get_tracer()
        if tracer.enabled:
            trace_streams.insert(
                0, {"label": "driver", "anchor": anchor, "events": tracer.events()}
            )

    return ShardExecution(
        schedule=schedule,
        plan=plan,
        num_workers=num_workers,
        cost=schedule_cost(schedule, workload),
        merged_cost=merged_cost,
        shard_reports=results,
        reconciliation=reconciliation,
        wall_seconds=perf_counter() - started,
        workers_wall_seconds=sum(r["wall_seconds"] for r in results),
        trace_streams=trace_streams,
    )
