"""Worker-process entry point of the sharded execution tier.

Each worker task attaches its shard's CSR slab and the shared rate slab
(:mod:`repro.graph.slab`), rebuilds a zero-copy
:class:`~repro.graph.csr.CSRGraph` plus a dense-path
:class:`~repro.workload.rates.Workload`, runs lazy CHITCHAT exactly like
a standalone run — peel oracle unless the task names another; under
``"exact"`` the worker owns its warm
:class:`~repro.flow.exact_oracle.ExactOracle` session and flow tier —
and returns a plain-pickle result:
the shard's schedule sets, the CELF heap's certified per-hub lower
bounds (the reconciliation pass orders boundary hubs by them), counter
snapshots, and (when tracing) the worker's span stream with a wall-clock
anchor so the driver can splice all streams into one Chrome trace.

This module must stay importable with no side effects: under the
``spawn`` start method the child interpreter imports it fresh to resolve
:func:`run_shard_task`, which is also what keeps fork-inherited state
from masking pickling bugs (the CI shard suite runs spawn-only for that
reason).
"""

from __future__ import annotations

from time import perf_counter, time

from repro.graph.slab import attach_arrays, attach_csr
from repro.obs import get_tracer

__all__ = ["run_shard_task"]


def run_shard_task(task: dict) -> dict:
    """Run lazy CHITCHAT over one shard's slab; returns picklable results."""
    # deferred so the module itself imports instantly in the child
    from repro.core.chitchat import ChitchatScheduler
    from repro.workload.rates import Workload

    tracer = get_tracer()
    if task.get("trace"):
        tracer.clear()
        tracer.start()
    anchor = (perf_counter(), time())
    started = perf_counter()

    graph, graph_slab = attach_csr(task["graph_manifest"])
    rates_slab = attach_arrays(task["rates_manifest"])
    workload = Workload.from_dense_arrays(
        rates_slab.arrays["rp"], rates_slab.arrays["rc"]
    )
    with tracer.span("shard.worker") as span:
        scheduler = ChitchatScheduler(
            graph,
            workload,
            max_cross_edges=task.get("max_cross_edges"),
            oracle=task.get("oracle", "peel"),
            epsilon=task.get("epsilon", 0.0),
            batch_k=task.get("batch_k", 0),
            method=task.get("method", "auto"),
        )
        schedule = scheduler.run()
        span.set(shard=task["shard_id"], edges=graph.num_edges)

    hub_bounds = {
        int(hub): float(bound)
        for hub, bound in scheduler.certified_bounds(
            schedule.hub_cover.values()
        ).items()
    }
    stats = scheduler.stats
    result = {
        "shard_id": task["shard_id"],
        "push": [(int(u), int(v)) for u, v in schedule.push],
        "pull": [(int(u), int(v)) for u, v in schedule.pull],
        "hub_cover": {
            (int(u), int(v)): int(h) for (u, v), h in schedule.hub_cover.items()
        },
        "hub_bounds": hub_bounds,
        "edges": graph.num_edges,
        "wall_seconds": perf_counter() - started,
        "stats": {
            "oracle_calls": stats.oracle_calls,
            "exact_oracle_calls": stats.exact_oracle_calls,
            "hub_selections": stats.hub_selections,
            "singleton_selections": stats.singleton_selections,
            "final_cost": stats.final_cost,
        },
    }
    if task.get("trace"):
        tracer.stop()
        result["trace_stream"] = {
            "label": f"shard-{task['shard_id']}",
            "anchor": anchor,
            "events": tracer.events(),
        }
    # release the slab mappings (no-ops if views are still exported; the
    # graph/workload just went out of scope with the scheduler)
    del scheduler, schedule, graph, workload
    graph_slab.close()
    rates_slab.close()
    return result
