"""Shared measurement collectors for the CHITCHAT perf-regression suite.

Each collector runs a deterministic experiment at a given ``scale`` and
returns plain dicts (rows + headline ratios) so the same code backs both
the pytest benchmarks (which add assertions) and the machine-readable
``benchmarks/run_benchmarks.py`` emitter that records the perf trajectory
across commits.
"""

from __future__ import annotations

import os
import time

from repro.core.baselines import hybrid_schedule
from repro.core.chitchat import ChitchatScheduler
from repro.core.cost import schedule_cost
from repro.core.coverage import validate_schedule
from repro.core.delta import DeltaScheduler
from repro.core.parallelnosy import parallel_nosy_schedule
from repro.core.tolerances import BATCH_K
from repro.experiments.datasets import e10_twitter_sample
from repro.graph.generators import social_copying_graph
from repro.graph.view import as_graph_view, to_csr
from repro.obs import chrome_trace, get_tracer, validate_chrome_trace
from repro.shard import sharded_chitchat_schedule
from repro.workload.churn import churn_stream
from repro.workload.ldbc import ldbc_instance
from repro.workload.rates import Workload, log_degree_workload

#: E12 instance at bench scale 1.0 (default scale 0.25 gives the n=3000
#: acceptance instance).  Dense enough that eager invalidation's wedge
#: blow-up — the cost the lazy heap eliminates — dominates.
E12_BASE_NODES = 12_000
E12_OUT_DEGREE = 24
E12_READ_WRITE_RATIO = 8.0

#: E13 instance family (scale 0.25 gives the n=3000 acceptance instance,
#: where the exact schedule prices strictly below the peel's).  Moderate
#: degree keeps hub-graphs within the exact oracle's sweet spot; at
#: smaller quick-tier sizes greedy path-dependence can flip the cost
#: comparison by <0.1% either way, so only the acceptance instance
#: carries the hard cost invariant.
E13_BASE_NODES = 12_000
E13_OUT_DEGREE = 10
E13_READ_WRITE_RATIO = 5.0

#: E16 churn instance (scale 0.25 gives the acceptance point: n=3000
#: with a 10k-event stream).  The event volume scales with the instance
#: so the churn fraction — roughly a third of the edge set turned over —
#: stays comparable across tiers.
E16_BASE_NODES = 12_000
E16_BASE_EVENTS = 40_000
E16_OUT_DEGREE = 10
E16_READ_WRITE_RATIO = 5.0
E16_CHECKPOINTS = 5


def _schedules_equal(a, b) -> bool:
    return a.push == b.push and a.pull == b.pull and a.hub_cover == b.hub_cover


def e12_lazy_vs_eager(scale: float) -> dict:
    """E12 — lazy vs eager CHITCHAT on the CSR backend.

    Returns rows for both modes plus the headline ``call_ratio`` (eager
    full peels / lazy full peels) and ``wall_ratio``.  Both schedules are
    validated here (infeasibility raises); ``lazy_cost_ratio`` (lazy cost
    / eager cost) is the quality certificate — the lazy heap keeps peel
    champions across covering events that miss them, so under the peel
    the two modes are cost-equivalent, not byte-identical.
    """
    n = max(600, int(E12_BASE_NODES * scale))
    graph = social_copying_graph(
        num_nodes=n,
        out_degree=E12_OUT_DEGREE,
        copy_fraction=0.7,
        reciprocity=0.2,
        seed=7,
    )
    workload = log_degree_workload(graph, read_write_ratio=E12_READ_WRITE_RATIO)
    rows = []
    runs = {}
    for mode, lazy in (("eager", False), ("lazy", True)):
        started = time.perf_counter()
        scheduler = ChitchatScheduler(graph, workload, backend="csr", lazy=lazy)
        schedule = scheduler.run()
        elapsed = time.perf_counter() - started
        validate_schedule(graph, schedule)
        runs[mode] = (scheduler.stats, elapsed)
        rows.append(
            {
                "mode": mode,
                "nodes": n,
                "edges": graph.num_edges,
                "oracle_calls": scheduler.stats.oracle_calls,
                "oracle_early_exits": scheduler.stats.oracle_early_exits,
                "oracle_calls_saved": scheduler.stats.oracle_calls_saved,
                "champions_retained": scheduler.stats.champions_retained,
                "hubs_pruned": scheduler.stats.hubs_pruned,
                "cost": round(scheduler.stats.final_cost, 1),
                "seconds": round(elapsed, 2),
            }
        )
    eager_stats, eager_secs = runs["eager"]
    lazy_stats, lazy_secs = runs["lazy"]
    return {
        "nodes": n,
        "rows": rows,
        "lazy_cost_ratio": lazy_stats.final_cost / eager_stats.final_cost,
        "call_ratio": eager_stats.oracle_calls / max(1, lazy_stats.oracle_calls),
        "wall_ratio": eager_secs / max(1e-9, lazy_secs),
    }


def e13_exact_vs_peel(scale: float) -> dict:
    """E13 — peel vs exact (parametric max-flow) oracle, lazy heap on both.

    Runs lazy CHITCHAT on the CSR backend with both densest-subgraph
    oracles.  Headlines: ``reeval_ratio`` (peel full evaluations / exact
    full evaluations — the exact optimum's monotonicity lets the lazy
    heap retain champions and park dirty hubs at near-true keys, so the
    flow oracle re-evaluates less) and ``cost_ratio`` (peel cost / exact
    cost, ≥ 1 on the n≥3000 acceptance instance; smaller sizes can flip
    it marginally either way).
    """
    n = max(600, int(E13_BASE_NODES * scale))
    graph = social_copying_graph(
        num_nodes=n,
        out_degree=E13_OUT_DEGREE,
        copy_fraction=0.7,
        reciprocity=0.2,
        seed=7,
    )
    workload = log_degree_workload(graph, read_write_ratio=E13_READ_WRITE_RATIO)
    rows = []
    runs = {}
    for oracle in ("peel", "exact"):
        started = time.perf_counter()
        scheduler = ChitchatScheduler(
            graph, workload, backend="csr", lazy=True, oracle=oracle
        )
        schedule = scheduler.run()
        elapsed = time.perf_counter() - started
        runs[oracle] = (schedule, scheduler.stats, elapsed)
        rows.append(
            {
                "oracle": oracle,
                "nodes": n,
                "edges": graph.num_edges,
                "oracle_calls": scheduler.stats.oracle_calls,
                "exact_calls": scheduler.stats.exact_oracle_calls,
                "early_exits": scheduler.stats.oracle_early_exits,
                "retained": scheduler.stats.champions_retained,
                "saved": scheduler.stats.oracle_calls_saved,
                "cost": round(scheduler.stats.final_cost, 1),
                "seconds": round(elapsed, 2),
            }
        )
    peel_stats, exact_stats = runs["peel"][1], runs["exact"][1]
    return {
        "nodes": n,
        "rows": rows,
        "reeval_ratio": peel_stats.oracle_calls
        / max(1, exact_stats.oracle_calls),
        "cost_ratio": peel_stats.final_cost / max(1e-9, exact_stats.final_cost),
        "cost_delta": peel_stats.final_cost - exact_stats.final_cost,
    }


def e10_scaling(scale: float) -> dict:
    """E10 — oracle-call volume of the scaling techniques (compact form)."""
    sample, workload = e10_twitter_sample(scale=min(scale, 0.3))
    ff_cost = schedule_cost(hybrid_schedule(sample, workload), workload)
    rows = []

    for name, lazy in (("ChitChat (eager)", False), ("ChitChat (lazy)", True)):
        started = time.perf_counter()
        scheduler = ChitchatScheduler(sample, workload, backend="dict", lazy=lazy)
        schedule = scheduler.run()
        rows.append(
            {
                "algorithm": name,
                "vs_hybrid": round(ff_cost / schedule_cost(schedule, workload), 3),
                "oracle_calls": scheduler.stats.oracle_calls,
                "seconds": round(time.perf_counter() - started, 2),
            }
        )

    started = time.perf_counter()
    pn_schedule = parallel_nosy_schedule(sample, workload, max_iterations=10)
    rows.append(
        {
            "algorithm": "ParallelNosy",
            "vs_hybrid": round(ff_cost / schedule_cost(pn_schedule, workload), 3),
            "oracle_calls": 0,
            "seconds": round(time.perf_counter() - started, 2),
        }
    )
    return {"nodes": sample.num_nodes, "rows": rows}


def e11_backends(scale: float) -> dict:
    """E11 — per-backend wall clock of sequential CHITCHAT (compact form)."""
    n = max(600, int(12_000 * scale))
    graph = social_copying_graph(
        num_nodes=n, out_degree=10, copy_fraction=0.7, reciprocity=0.2, seed=7
    )
    workload = log_degree_workload(graph)
    rows = []
    schedules = {}
    for backend in ("dict", "csr"):
        resolved = as_graph_view(graph, backend)
        started = time.perf_counter()
        scheduler = ChitchatScheduler(resolved, workload, backend=backend)
        schedules[backend] = scheduler.run()
        rows.append(
            {
                "backend": backend,
                "nodes": n,
                "oracle_calls": scheduler.stats.oracle_calls,
                "seconds": round(time.perf_counter() - started, 2),
            }
        )
    return {
        "nodes": n,
        "rows": rows,
        "equal": _schedules_equal(schedules["dict"], schedules["csr"]),
    }


#: E14 size tiers (hub-graph element counts): the top tier is where the
#: wave solver beats the loop outright; the bottom tiers are where
#: ``method="auto"`` falls back to the (λ-seeded) loop.
E14_BUCKETS = ((1024, None), (256, 1024), (64, 256), (0, 64))


def e14_flow_kernel(scale: float) -> dict:
    """E14 — vectorized flow kernel vs the PR 3 loop on E13 hub-graphs.

    Solves every eligible hub-graph of the E13 instance (initial
    weights, everything uncovered) exactly, under two kernel
    configurations:

    * ``pr3`` — the loop discharge with the full-graph Dinkelbach seed,
      byte-for-byte the kernel PR 3 shipped;
    * ``new`` — the current default: single-vertex-seeded Dinkelbach on
      ``method="auto"`` (wave discharge at or above
      :data:`~repro.flow.maxflow.WAVE_AUTO_MIN_ARCS` forward arcs, loop
      below).

    Rows bucket the hubs by element count and also time the factor-2
    peel on the same hub-graphs — the crossover data behind
    :data:`~repro.flow.maxflow.WAVE_AUTO_MIN_ARCS`.
    Headlines: ``kernel_speedup`` (total pr3 seconds / total new
    seconds, the ISSUE 4 acceptance metric) and ``exact_vs_peel`` (total
    new seconds / total peel seconds); ``equal`` certifies that both
    kernel configurations returned identical selections on every hub.
    """
    from repro.core.densest import densest_subgraph
    from repro.core.hubgraph import build_hub_graph
    from repro.core.schedule import RequestSchedule
    from repro.flow.parametric import ParametricDensest

    n = max(600, int(E13_BASE_NODES * scale))
    graph = social_copying_graph(
        num_nodes=n,
        out_degree=E13_OUT_DEGREE,
        copy_fraction=0.7,
        reciprocity=0.2,
        seed=7,
    )
    workload = log_degree_workload(graph, read_write_ratio=E13_READ_WRITE_RATIO)
    view = as_graph_view(graph, "dict")
    schedule = RequestSchedule()

    hubs = []
    for node in view.nodes():
        if view.in_degree(node) > 0 and view.out_degree(node) > 0:
            hub_graph = build_hub_graph(view, node, None)
            elements = hub_graph.num_vertices + len(hub_graph.cross_edges)
            hubs.append((elements, node, hub_graph))
    hubs.sort(key=lambda item: (-item[0], item[1]))

    def kernel_seconds(hub_graph, method, seed_lambda):
        peel = hub_graph.peel_index()
        problem = ParametricDensest(
            peel.endpoint_idx,
            len(peel.verts),
            method=method,
            seed_lambda=seed_lambda,
        )
        weight = [
            hub_graph.vertex_weight(peel.verts[i], workload, schedule)
            for i in range(len(peel.verts))
        ]
        started = time.perf_counter()
        selection = problem.solve(weight)
        return time.perf_counter() - started, selection

    def peel_seconds(hub_graph):
        uncovered = {edge for edge, _ in hub_graph.element_index()}
        started = time.perf_counter()
        densest_subgraph(hub_graph, workload, schedule, uncovered)
        return time.perf_counter() - started

    totals = {
        (lo, hi): {"hubs": 0, "elements": 0, "pr3": 0.0, "new": 0.0, "peel": 0.0}
        for lo, hi in E14_BUCKETS
    }
    equal = True
    for elements, _node, hub_graph in hubs:
        bucket = next(
            (lo, hi)
            for lo, hi in E14_BUCKETS
            if elements >= lo and (hi is None or elements < hi)
        )
        pr3_s, pr3_sel = kernel_seconds(hub_graph, "loop", seed_lambda=False)
        new_s, new_sel = kernel_seconds(hub_graph, "auto", seed_lambda=True)
        if (
            pr3_sel is not None
            and new_sel is not None
            and (
                pr3_sel.selected != new_sel.selected
                or pr3_sel.covered != new_sel.covered
            )
        ):
            equal = False
        cell = totals[bucket]
        cell["hubs"] += 1
        cell["elements"] += elements
        cell["pr3"] += pr3_s
        cell["new"] += new_s
        cell["peel"] += peel_seconds(hub_graph)

    rows = []
    for (lo, hi), cell in totals.items():
        if not cell["hubs"]:
            continue
        rows.append(
            {
                "elements": f"[{lo},{'inf' if hi is None else hi})",
                "hubs": cell["hubs"],
                "mean_elements": cell["elements"] // cell["hubs"],
                "pr3_loop_ms": round(cell["pr3"] * 1000, 1),
                "new_kernel_ms": round(cell["new"] * 1000, 1),
                "peel_ms": round(cell["peel"] * 1000, 1),
                "speedup": round(cell["pr3"] / max(cell["new"], 1e-9), 2),
            }
        )
    pr3_total = sum(cell["pr3"] for cell in totals.values())
    new_total = sum(cell["new"] for cell in totals.values())
    peel_total = sum(cell["peel"] for cell in totals.values())
    return {
        "nodes": n,
        "hubs": sum(cell["hubs"] for cell in totals.values()),
        "rows": rows,
        "equal": equal,
        "kernel_speedup": pr3_total / max(new_total, 1e-9),
        "exact_vs_peel": new_total / max(peel_total, 1e-9),
    }


def e15_warm_oracle(scale: float) -> dict:
    """E15 — cross-call warm starts of the exact oracle (ISSUE 5 + 6).

    Runs lazy exact-oracle CHITCHAT on the E13 instance (CSR backend)
    three times: ``cold`` (the scheduler's session swapped for the cold
    reference ``ExactOracle(warm=False)`` before the run — every oracle
    call resets its hub's flow network and rebuilds the preflow from
    zero, the PR 4 behavior), ``warm-fixed`` (the scheduler's own warm
    session with the warm-aware global-relabel cadence disabled — the
    original fixed interval), and ``warm`` (the warm session with
    :data:`~repro.flow.maxflow.ADAPTIVE_WARM_RELABEL` on: the relabel
    interval stretches by how intact the resumed preflow is).  All
    three run with ``batch_k=0`` so the rows measure the sequential
    kernel's cadence, not the arena's (E18 owns the batched tier).

    Headlines: ``pass_ratio`` — cold flow-solver work units over
    (adaptive) warm, the ISSUE 5 acceptance metric — plus
    ``cadence_pass_ratio`` (fixed-cadence warm passes / adaptive warm
    passes, the ISSUE 6 before/after), ``wall_ratio``, and ``equal``
    certifying all three schedules are byte-identical.
    """
    from repro.flow import maxflow
    from repro.flow.exact_oracle import ExactOracle

    n = max(600, int(E13_BASE_NODES * scale))
    graph = social_copying_graph(
        num_nodes=n,
        out_degree=E13_OUT_DEGREE,
        copy_fraction=0.7,
        reciprocity=0.2,
        seed=7,
    )
    workload = log_degree_workload(graph, read_write_ratio=E13_READ_WRITE_RATIO)
    rows = []
    runs = {}
    configs = (
        ("cold", False, True),
        ("warm-fixed", True, False),
        ("warm", True, True),
    )
    for mode, warm, adaptive in configs:
        saved = maxflow.ADAPTIVE_WARM_RELABEL
        maxflow.ADAPTIVE_WARM_RELABEL = adaptive
        try:
            started = time.perf_counter()
            scheduler = ChitchatScheduler(
                graph,
                workload,
                backend="csr",
                lazy=True,
                oracle="exact",
                batch_k=0,
            )
            if not warm:
                scheduler._exact = ExactOracle(
                    warm=False, metrics=scheduler.metrics.node("scheduler", "oracle")
                )
            schedule = scheduler.run()
            elapsed = time.perf_counter() - started
        finally:
            maxflow.ADAPTIVE_WARM_RELABEL = saved
        runs[mode] = (schedule, scheduler.stats, elapsed)
        rows.append(
            {
                "mode": mode,
                "nodes": n,
                "edges": graph.num_edges,
                "oracle_calls": scheduler.stats.oracle_calls,
                "flow_passes": scheduler.stats.flow_passes,
                "warm_solves": scheduler.stats.warm_solves,
                "preflow_repairs": scheduler.stats.preflow_repairs,
                "cost": round(scheduler.stats.final_cost, 1),
                "seconds": round(elapsed, 2),
            }
        )
    cold_schedule, cold_stats, cold_secs = runs["cold"]
    fixed_schedule, fixed_stats, _fixed_secs = runs["warm-fixed"]
    warm_schedule, warm_stats, warm_secs = runs["warm"]
    return {
        "nodes": n,
        "rows": rows,
        "equal": _schedules_equal(cold_schedule, warm_schedule)
        and _schedules_equal(fixed_schedule, warm_schedule),
        "pass_ratio": cold_stats.flow_passes / max(1, warm_stats.flow_passes),
        "cadence_pass_ratio": fixed_stats.flow_passes
        / max(1, warm_stats.flow_passes),
        "wall_ratio": cold_secs / max(1e-9, warm_secs),
        "warm_solves": warm_stats.warm_solves,
        "preflow_repairs": warm_stats.preflow_repairs,
    }


def e18_batched_solve(scale: float) -> dict:
    """E18 — the batched block-diagonal multi-hub flow tier (ISSUE 6).

    Runs lazy exact-oracle CHITCHAT on the E13 instance (CSR backend)
    twice: ``sequential`` (the default ``batch_k=0`` — every dirty
    heap-top hub gets its own per-hub Dinkelbach solve) and ``batched``
    (opted in at ``batch_k=BATCH_K`` — up to
    :data:`~repro.core.tolerances.BATCH_K` dirty
    heap-top hubs are popped together and their flow problems solved in
    one :class:`~repro.flow.batched_solve.BatchedNetwork` wave pass per
    Dinkelbach round).

    Headlines: ``invocation_ratio`` — sequential kernel invocations over
    batched ones (one arena solve counts once however many blocks it
    discharges; the acceptance floor is 3×, reached at the default
    ``BATCH_K=16``) — ``wall_ratio`` (informative: the pure-numpy arena
    runs at wall parity because an arena pass costs about as much as the
    per-block passes it replaces and non-kernel stages dominate the run;
    the pytest gate only enforces a non-regression floor, see
    ``benchmarks/test_bench_batched_solve.py``), and ``equal``
    certifying the schedules are byte-identical (the batch tier is a
    pure performance change at ``epsilon=0``).  Rows record the arena's
    profile: batched solves, blocks per batch, and the
    freeze/discharge/relabel time split.
    """
    n = max(600, int(E13_BASE_NODES * scale))
    graph = social_copying_graph(
        num_nodes=n,
        out_degree=E13_OUT_DEGREE,
        copy_fraction=0.7,
        reciprocity=0.2,
        seed=7,
    )
    workload = log_degree_workload(graph, read_write_ratio=E13_READ_WRITE_RATIO)
    rows = []
    runs = {}
    for mode, batch_k in (("sequential", 0), ("batched", BATCH_K)):
        started = time.perf_counter()
        scheduler = ChitchatScheduler(
            graph,
            workload,
            backend="csr",
            lazy=True,
            oracle="exact",
            batch_k=batch_k,
        )
        schedule = scheduler.run()
        elapsed = time.perf_counter() - started
        runs[mode] = (schedule, scheduler.stats, elapsed)
        rows.append(
            {
                "mode": mode,
                "nodes": n,
                "edges": graph.num_edges,
                "oracle_calls": scheduler.stats.oracle_calls,
                "kernel_invocations": scheduler.stats.kernel_invocations,
                "batched_solves": scheduler.stats.batched_solves,
                "blocks_per_batch": round(scheduler.stats.blocks_per_batch, 2),
                "freeze_s": round(scheduler.stats.batch_freeze_seconds, 3),
                "discharge_s": round(scheduler.stats.batch_discharge_seconds, 3),
                "relabel_s": round(scheduler.stats.batch_relabel_seconds, 3),
                "cost": round(scheduler.stats.final_cost, 1),
                "seconds": round(elapsed, 2),
            }
        )
    seq_schedule, seq_stats, seq_secs = runs["sequential"]
    bat_schedule, bat_stats, bat_secs = runs["batched"]
    return {
        "nodes": n,
        "rows": rows,
        "equal": _schedules_equal(seq_schedule, bat_schedule),
        "invocation_ratio": seq_stats.kernel_invocations
        / max(1, bat_stats.kernel_invocations),
        "wall_ratio": seq_secs / max(1e-9, bat_secs),
        "batched_solves": bat_stats.batched_solves,
        "blocks_per_batch": bat_stats.blocks_per_batch,
    }


def e20_obs_overhead(scale: float) -> dict:
    """E20 — span-tracer overhead and Chrome-trace validity (ISSUE 8).

    Runs lazy exact-oracle CHITCHAT on the E13 instance twice with the
    global tracer disabled and twice with it enabled, taking the
    min-of-2 wall on each side (the first disabled run doubles as
    warmup).  Headlines:

    * ``enabled_overhead`` — enabled wall / disabled wall − 1, the cost
      of actually recording every span (acceptance <= 0.15 at n>=3000);
    * ``disabled_overhead`` — a *projection*, not a wall diff: the
      per-call cost of a disabled ``tracer.span()`` (microbenched over
      200k calls) times the number of events one traced run records,
      divided by the disabled wall.  Shared CI hardware cannot resolve
      a <=2% wall delta by direct timing, while the projection is
      near-deterministic and measures exactly the disabled hot-path
      work (one attribute check, no allocation) the acceptance bounds;
    * ``equal`` — all four schedules byte-identical (tracing is pure
      observation);
    * ``trace_valid`` / ``trace_problems`` — the Chrome-trace document
      built from the enabled runs passes
      :func:`repro.obs.validate_chrome_trace` with ``scheduler``,
      ``oracle`` and ``flow`` span categories all present.

    The collector saves and restores the global tracer's enabled flag,
    so it composes with an outer ``run_benchmarks.py --trace`` session
    (``start()``/``stop()`` never clear recorded events).
    """
    n = max(600, int(E13_BASE_NODES * scale))
    graph = social_copying_graph(
        num_nodes=n,
        out_degree=E13_OUT_DEGREE,
        copy_fraction=0.7,
        reciprocity=0.2,
        seed=7,
    )
    workload = log_degree_workload(graph, read_write_ratio=E13_READ_WRITE_RATIO)
    tracer = get_tracer()
    prior_enabled = tracer.enabled

    def one_run() -> tuple:
        started = time.perf_counter()
        scheduler = ChitchatScheduler(
            graph, workload, backend="csr", lazy=True, oracle="exact"
        )
        schedule = scheduler.run()
        return schedule, scheduler.stats, time.perf_counter() - started

    rows = []
    schedules = []
    walls: dict[str, list[float]] = {"disabled": [], "enabled": []}
    span_count = 0
    try:
        for mode in ("disabled", "enabled"):
            tracer.enabled = mode == "enabled"
            for attempt in (1, 2):
                before = len(tracer.events())
                schedule, stats, elapsed = one_run()
                if mode == "enabled" and attempt == 1:
                    span_count = len(tracer.events()) - before
                schedules.append(schedule)
                walls[mode].append(elapsed)
                rows.append(
                    {
                        "mode": mode,
                        "run": attempt,
                        "nodes": n,
                        "edges": graph.num_edges,
                        "oracle_calls": stats.oracle_calls,
                        "cost": round(stats.final_cost, 1),
                        "seconds": round(elapsed, 2),
                    }
                )
        document = chrome_trace(tracer)
        problems = validate_chrome_trace(
            document, require_categories=("scheduler", "oracle", "flow")
        )
        # microbench the disabled hot path: one attribute check, shared
        # null span, no allocation
        tracer.enabled = False
        calls = 200_000
        started = time.perf_counter()
        for _ in range(calls):
            with tracer.span("e20.null"):
                pass
        null_span_s = (time.perf_counter() - started) / calls
    finally:
        tracer.enabled = prior_enabled

    disabled_wall = min(walls["disabled"])
    enabled_wall = min(walls["enabled"])
    equal = all(_schedules_equal(schedules[0], other) for other in schedules[1:])
    return {
        "nodes": n,
        "rows": rows,
        "equal": equal,
        "enabled_overhead": enabled_wall / max(disabled_wall, 1e-9) - 1.0,
        "disabled_overhead": null_span_s * span_count / max(disabled_wall, 1e-9),
        "span_count": span_count,
        "null_span_ns": round(null_span_s * 1e9, 1),
        "trace_valid": not problems,
        "trace_problems": problems,
    }


def e16_churn(scale: float) -> dict:
    """E16 — delta scheduling under churn (ISSUE 9).

    Runs CHITCHAT once from scratch, wraps the completed run in a
    :class:`~repro.core.delta.DeltaScheduler`, and drives a seeded
    LDBC-style churn stream through it with per-event repair.  At
    :data:`E16_CHECKPOINTS` evenly spaced points the maintained cost is
    compared against a fresh from-scratch CHITCHAT run on a snapshot of
    the churned instance (graph copy + *frozen* workload copy — the
    delta's own workload is a live mutable view and must never be handed
    to another scheduler).

    Headlines:

    * ``refresh_ratio`` — the from-scratch run's oracle calls over the
      delta's *mean per-event* hub refreshes: how much oracle work one
      event costs relative to re-running the optimizer.  The acceptance
      bar is >=10x; the measured value at n=3000 is in the thousands —
      the locality certificate (only endpoint/wedge hubs of re-opened
      elements are candidates) is what's being priced.
    * ``max_cost_ratio`` — worst checkpoint ratio of maintained cost to
      the fresh run's; must stay within
      ``1 + repro.core.tolerances.DELTA_QUALITY_EPSILON``.
    * ``equal`` — the final maintained schedule is feasible and its
      incrementally tracked cost matches the full rescan.

    The counter headline is paired with its wall: ``events_per_s`` (and
    its reciprocal ``per_event_ms``) over the apply+repair loop alone,
    and ``event_p99_ms``, the per-event latency tail the mega-hubs own.
    """
    n = max(600, int(E16_BASE_NODES * scale))
    num_events = max(800, int(E16_BASE_EVENTS * scale))
    graph = social_copying_graph(
        num_nodes=n,
        out_degree=E16_OUT_DEGREE,
        copy_fraction=0.7,
        reciprocity=0.2,
        seed=16,
    )
    workload = log_degree_workload(graph, read_write_ratio=E16_READ_WRITE_RATIO)

    started = time.perf_counter()
    scratch = ChitchatScheduler(graph, workload, lazy=True)
    scratch.run()
    scratch_seconds = time.perf_counter() - started
    scratch_calls = scratch.stats.oracle_calls

    events = churn_stream(graph, workload, num_events, seed=16)
    delta = DeltaScheduler.from_scheduler(scratch)
    checkpoint_every = max(1, num_events // E16_CHECKPOINTS)
    rows = []
    cost_ratios = []
    latencies = []
    for index, event in enumerate(events, start=1):
        started = time.perf_counter()
        delta.apply(event)
        delta.repair()
        latencies.append(time.perf_counter() - started)
        if index % checkpoint_every == 0 or index == num_events:
            snapshot_graph = delta.graph.copy()
            snapshot_workload = Workload(
                production=dict(delta.workload.production),
                consumption=dict(delta.workload.consumption),
            )
            started = time.perf_counter()
            fresh = ChitchatScheduler(snapshot_graph, snapshot_workload, lazy=True)
            fresh_schedule = fresh.run()
            fresh_seconds = time.perf_counter() - started
            fresh_cost = schedule_cost(fresh_schedule, snapshot_workload)
            ratio = delta.cost() / fresh_cost
            cost_ratios.append(ratio)
            rows.append(
                {
                    "events": index,
                    "nodes": n,
                    "edges": snapshot_graph.num_edges,
                    "refreshes": delta.stats.hub_refreshes,
                    "reopened": delta.stats.elements_reopened,
                    "covers_broken": delta.stats.covers_broken,
                    "delta_cost": round(delta.cost(), 1),
                    "fresh_cost": round(fresh_cost, 1),
                    "cost_ratio": round(ratio, 4),
                    "fresh_seconds": round(fresh_seconds, 2),
                }
            )
    per_event_refreshes = delta.stats.hub_refreshes / max(1, num_events)
    delta_seconds = sum(latencies)
    latencies.sort()
    p99_seconds = latencies[(99 * len(latencies)) // 100]
    rescan = schedule_cost(delta.schedule, delta.workload)
    tracked_ok = abs(delta.cost() - rescan) <= 1e-6 * max(1.0, rescan)
    return {
        "nodes": n,
        "events": num_events,
        "rows": rows,
        "equal": delta.is_feasible() and tracked_ok,
        "refresh_ratio": scratch_calls / max(1e-9, per_event_refreshes),
        "per_event_refreshes": per_event_refreshes,
        "scratch_calls": scratch_calls,
        "cost_ratios": [round(r, 4) for r in cost_ratios],
        "max_cost_ratio": max(cost_ratios),
        "noop_events": delta.stats.noop_events,
        "scratch_seconds": round(scratch_seconds, 2),
        "delta_seconds": round(delta_seconds, 2),
        "per_event_ms": round(1000.0 * delta_seconds / max(1, num_events), 3),
        "events_per_s": round(num_events / max(1e-9, delta_seconds), 1),
        "event_p99_ms": round(1000.0 * p99_seconds, 3),
    }


#: E21 instance family.  Sequential lazy CHITCHAT is ~O(n) at ~2.3 ms
#: per node on the LDBC-style family, so the instance size scales
#: *cubically* with the bench scale: scale 1.0 is the paper-scale
#: 10^6-node acceptance instance (~40 min sequential), the default
#: quick tier (0.25) lands at 15625 nodes (~1 min end to end), and the
#: CI tier (0.1) sits on the 4000-node floor.
E21_BASE_NODES = 1_000_000
E21_MIN_NODES = 4_000
E21_NUM_SHARDS = 4
E21_READ_WRITE_RATIO = 5.0


def e21_shard(scale: float) -> dict:
    """E21 — sharded multi-process CHITCHAT vs the sequential run (ISSUE 10).

    Generates an LDBC-style social graph plus log-degree workload,
    schedules it once with sequential lazy CHITCHAT and once with the
    :mod:`repro.shard` tier (:data:`E21_NUM_SHARDS` hash shards, spawn
    workers over shared-memory CSR slabs, boundary-hub reconciliation),
    and prices both.  Both sides run their default oracle — the peel —
    so the bench measures what users get.  Headlines:

    * ``shard_wall_speedup`` — sequential wall / sharded wall.  The
      acceptance criterion (>=3x) only binds on the 10^6-node instance
      with >=4 usable cores; the quick tier reports the value.
    * ``shard_cost_ratio`` — sharded cost / sequential cost, the
      *quality gap* from each worker seeing only ``~1/k`` of a
      cross-shard element's wedge hubs.  Reported as data (acceptance
      <=1.05), never assert-away-ed: the merged (pre-reconcile) and
      reconciled costs are both in the rows.
    * ``feasible`` — both schedules pass Theorem-1 coverage validation.
    """
    n = max(E21_MIN_NODES, int(E21_BASE_NODES * scale**3))
    cores = len(os.sched_getaffinity(0))
    workers = max(1, min(E21_NUM_SHARDS, cores))
    graph, workload = ldbc_instance(
        n, read_write_ratio=E21_READ_WRITE_RATIO, seed=21
    )
    csr = to_csr(graph)

    started = time.perf_counter()
    sequential = ChitchatScheduler(csr, workload, backend="csr", lazy=True)
    seq_schedule = sequential.run()
    seq_wall = time.perf_counter() - started
    seq_cost = schedule_cost(seq_schedule, workload)
    validate_schedule(csr, seq_schedule)

    execution = sharded_chitchat_schedule(
        csr,
        workload,
        num_shards=E21_NUM_SHARDS,
        num_workers=workers,
        seed=21,
    )
    validate_schedule(csr, execution.schedule)
    recon = execution.reconciliation

    rows = [
        {
            "mode": "sequential",
            "nodes": n,
            "edges": csr.num_edges,
            "oracle_calls": sequential.stats.oracle_calls,
            "hubs": sequential.stats.hub_selections,
            "cost": round(seq_cost, 1),
            "seconds": round(seq_wall, 2),
        },
        {
            "mode": f"sharded x{E21_NUM_SHARDS}",
            "nodes": n,
            "edges": csr.num_edges,
            "oracle_calls": execution.oracle_calls,
            "hubs": sum(
                r["stats"]["hub_selections"] for r in execution.shard_reports
            ),
            "cost": round(execution.cost, 1),
            "merged_cost": round(execution.merged_cost, 1),
            "seconds": round(execution.wall_seconds, 2),
        },
    ]
    return {
        "nodes": n,
        "edges": csr.num_edges,
        "cores": cores,
        "workers": workers,
        "shards": E21_NUM_SHARDS,
        "rows": rows,
        "feasible": True,  # both validate_schedule calls above are strict
        "shard_wall_speedup": seq_wall / max(1e-9, execution.wall_seconds),
        "shard_cost_ratio": execution.cost / max(1e-9, seq_cost),
        "merged_cost_ratio": execution.merged_cost / max(1e-9, seq_cost),
        "cut_fraction": round(execution.plan.cut_fraction, 4),
        "boundary_hubs": recon["boundary_hubs"],
        "elements_recovered": recon["elements_recovered"],
        "cost_recovered": round(recon["cost_recovered"], 1),
        "budget_exhausted": recon["budget_exhausted"],
        "workers_wall_seconds": round(execution.workers_wall_seconds, 2),
    }


COLLECTORS = {
    "E10": e10_scaling,
    "E11": e11_backends,
    "E12": e12_lazy_vs_eager,
    "E13": e13_exact_vs_peel,
    "E14": e14_flow_kernel,
    "E15": e15_warm_oracle,
    "E16": e16_churn,
    "E18": e18_batched_solve,
    "E20": e20_obs_overhead,
    "E21": e21_shard,
}
