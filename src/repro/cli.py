"""``repro-schedule`` — operational CLI for computing and inspecting
request schedules.

The workflow the paper implies for a production deployment:

1. export the social graph as an edge list;
2. compute per-user rates (or synthesize the log-degree model);
3. run a scheduler offline (PARALLELNOSY for big graphs, CHITCHAT for
   quality on samples);
4. ship the schedule file to the application servers.

Commands::

    repro-schedule optimize GRAPH -o schedule.json [--algorithm ...] [...]
    repro-schedule update GRAPH schedule.json events.json -o new.json [...]
    repro-schedule validate GRAPH schedule.json
    repro-schedule cost GRAPH schedule.json [workload options]
    repro-schedule compare GRAPH [workload options]
    repro-schedule stats GRAPH

``GRAPH`` is a whitespace edge-list file (``producer consumer`` per line,
``.gz`` supported).  Workload options: ``--read-write-ratio`` (default 5),
``--workload-file`` to load explicit rates instead.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.reporting import format_table
from repro.core.baselines import hybrid_schedule, pull_all_schedule, push_all_schedule
from repro.core.chitchat import ChitchatScheduler, ChitchatStats
from repro.core.cost import schedule_cost
from repro.core.coverage import validate_schedule
from repro.core.delta import DeltaScheduler
from repro.core.parallelnosy import parallel_nosy_schedule
from repro.core.serialize import (
    load_events,
    load_schedule,
    load_workload,
    save_delta_state,
    save_schedule,
)
from repro.errors import ReproError
from repro.flow.exact_oracle import ORACLE_MODES
from repro.graph.io import read_edge_list
from repro.graph.stats import summarize
from repro.obs import Stopwatch, get_tracer, profile_table, write_chrome_trace
from repro.workload.rates import log_degree_workload


def _run_chitchat(graph, workload, args):
    """CHITCHAT with the CLI's oracle selection; returns (schedule, stats)."""
    if getattr(args, "shards", None):
        from repro.shard import sharded_chitchat_schedule

        execution = sharded_chitchat_schedule(
            graph,
            workload,
            num_shards=args.shards,
            num_workers=getattr(args, "workers", None),
            oracle=getattr(args, "oracle", "peel"),
            epsilon=getattr(args, "epsilon", 0.0),
            max_cross_edges=args.cross_edge_bound,
        )
        recon = execution.reconciliation
        print(
            f"sharded: {execution.plan.num_shards} shards x "
            f"{execution.num_workers} workers, "
            f"cut={execution.plan.cut_fraction:.3f}, "
            f"merged={execution.merged_cost:.1f} -> "
            f"reconciled={execution.cost:.1f} "
            f"(recovered {recon['elements_recovered']} elements over "
            f"{recon['boundary_hubs']} boundary hubs)"
        )
        return execution.schedule, None
    scheduler = ChitchatScheduler(
        graph,
        workload,
        max_cross_edges=args.cross_edge_bound,
        oracle=getattr(args, "oracle", "peel"),
        epsilon=getattr(args, "epsilon", 0.0),
    )
    return scheduler.run(), scheduler.stats


def _oracle_stats_line(oracle: str, stats: ChitchatStats) -> str:
    """One-line oracle diagnostics for ``--stats`` output."""
    line = (
        f"oracle={oracle}: calls={stats.oracle_calls} "
        f"exact={stats.exact_oracle_calls} "
        f"early_exits={stats.oracle_early_exits} "
        f"saved={stats.oracle_calls_saved} "
        f"retained={stats.champions_retained} "
        f"pruned={stats.hubs_pruned} "
        f"epsilon_accepts={stats.epsilon_accepts} "
        f"warm_solves={stats.warm_solves} "
        f"preflow_repairs={stats.preflow_repairs} "
        f"hub_selections={stats.hub_selections} "
        f"singletons={stats.singleton_selections}"
    )
    if stats.kernel_invocations or stats.batched_solves:
        line += (
            f"\nflow: kernel_invocations={stats.kernel_invocations} "
            f"batched_solves={stats.batched_solves} "
            f"blocks={stats.batched_blocks} "
            f"blocks_per_batch={stats.blocks_per_batch:.2f} "
            f"freeze={stats.batch_freeze_seconds:.3f}s "
            f"discharge={stats.batch_discharge_seconds:.3f}s "
            f"relabel={stats.batch_relabel_seconds:.3f}s "
            f"solve={stats.flow_solve_seconds:.3f}s"
        )
    return line


#: Every factory returns ``(schedule, oracle_stats-or-None)``; only
#: CHITCHAT has oracle diagnostics to surface.
ALGORITHMS = {
    "parallelnosy": lambda g, w, args: (
        parallel_nosy_schedule(g, w, max_iterations=args.iterations),
        None,
    ),
    "chitchat": _run_chitchat,
    "hybrid": lambda g, w, args: (hybrid_schedule(g, w), None),
    "push-all": lambda g, w, args: (push_all_schedule(g), None),
    "pull-all": lambda g, w, args: (pull_all_schedule(g), None),
}


def _add_workload_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--read-write-ratio",
        type=float,
        default=5.0,
        help="average consumption/production ratio for the synthetic "
        "log-degree workload (default 5, the paper's reference)",
    )
    parser.add_argument(
        "--workload-file",
        help="load explicit per-user rates (repro-workload JSON) instead "
        "of synthesizing the log-degree model",
    )


def _load_workload(graph, args):
    if args.workload_file:
        return load_workload(args.workload_file)
    return log_degree_workload(graph, read_write_ratio=args.read_write_ratio)


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record a span trace of the run and write it as Chrome "
        "trace-event JSON (load in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase wall-clock profile table after the run",
    )


def _start_tracing(args) -> bool:
    """Enable the global span tracer when ``--trace``/``--profile`` ask."""
    if getattr(args, "trace", None) or getattr(args, "profile", False):
        get_tracer().start()
        return True
    return False


def _finish_tracing(args, active: bool) -> None:
    """Stop tracing and emit the requested exports."""
    if not active:
        return
    tracer = get_tracer()
    tracer.stop()
    if getattr(args, "trace", None):
        path = write_chrome_trace(args.trace, tracer)
        print(f"wrote Chrome trace to {path}")
    if getattr(args, "profile", False):
        print(profile_table(tracer))


def build_parser() -> argparse.ArgumentParser:
    """Build the repro-schedule argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-schedule",
        description="Compute, validate, and compare social-piggybacking "
        "request schedules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="compute a schedule and save it")
    opt.add_argument("graph", help="edge-list file")
    opt.add_argument("-o", "--output", required=True, help="schedule output path")
    opt.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="parallelnosy",
    )
    opt.add_argument("--iterations", type=int, default=15, help="PARALLELNOSY cap")
    opt.add_argument(
        "--cross-edge-bound",
        type=int,
        default=None,
        help="CHITCHAT per-hub cross-edge bound b",
    )
    opt.add_argument(
        "--oracle",
        choices=ORACLE_MODES,
        default="peel",
        help="CHITCHAT densest-subgraph oracle: the factor-2 peel "
        "(default) or the exact parametric max-flow oracle",
    )
    opt.add_argument(
        "--epsilon",
        type=float,
        default=0.0,
        help="CHITCHAT (1+epsilon) approximately-greedy relaxation: skip "
        "re-evaluating a dirty hub when a clean candidate is priced "
        "within this factor of its certified bound (default 0 = exact "
        "greedy; the measured production recommendation is "
        "repro.core.tolerances.PRODUCTION_EPSILON = 0.01)",
    )
    opt.add_argument(
        "--shards",
        type=int,
        default=None,
        help="CHITCHAT sharded execution tier: hash-shard the graph by "
        "producer and run one lazy CHITCHAT per shard in parallel worker "
        "processes over shared-memory slabs, then reconcile boundary "
        "hubs (repro.shard; implies --algorithm chitchat)",
    )
    opt.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-process count for --shards "
        "(default min(shards, cpu_count))",
    )
    opt.add_argument(
        "--stats",
        action="store_true",
        help="print oracle diagnostics (CHITCHAT only): full evaluations, "
        "early exits, lazy savings, retained champions, epsilon accepts, "
        "warm solves and preflow repairs, plus a flow line with batched-"
        "solve counts and the kernel time split when the exact oracle ran",
    )
    _add_obs_options(opt)
    _add_workload_options(opt)

    upd = sub.add_parser(
        "update",
        help="apply a churn-event script to a stored schedule "
        "(delta repair, no full re-run)",
    )
    upd.add_argument("graph", help="edge-list file the schedule was computed on")
    upd.add_argument("schedule", help="stored schedule to maintain")
    upd.add_argument("events", help="churn script (repro-churn JSON)")
    upd.add_argument(
        "-o", "--output", required=True, help="maintained-schedule output path"
    )
    upd.add_argument(
        "--repair-every",
        type=int,
        default=1,
        dest="repair_every",
        help="run the localized repair after every N events (default 1; "
        "0 defers all repair to one pass at end of stream)",
    )
    upd.add_argument(
        "--oracle",
        choices=ORACLE_MODES,
        default="peel",
        help="repair-greedy densest-subgraph oracle (see optimize --oracle)",
    )
    upd.add_argument(
        "--state-out",
        default=None,
        dest="state_out",
        metavar="PATH",
        help="also snapshot the full delta state (live edges, drifted "
        "rates, residue) as repro-delta JSON, resumable by a later run",
    )
    upd.add_argument(
        "--stats",
        action="store_true",
        help="print delta diagnostics: effective/no-op events, covers "
        "broken, elements re-opened, oracle refreshes, greedy selections",
    )
    _add_obs_options(upd)
    _add_workload_options(upd)

    val = sub.add_parser("validate", help="check Theorem 1 coverage of a schedule")
    val.add_argument("graph")
    val.add_argument("schedule")

    cost = sub.add_parser("cost", help="print the cost of a stored schedule")
    cost.add_argument("graph")
    cost.add_argument("schedule")
    _add_workload_options(cost)

    cmp_ = sub.add_parser("compare", help="compare all algorithms on a graph")
    cmp_.add_argument("graph")
    cmp_.add_argument("--iterations", type=int, default=15)
    cmp_.add_argument("--cross-edge-bound", type=int, default=None)
    cmp_.add_argument(
        "--oracle",
        choices=ORACLE_MODES,
        default="peel",
        help="CHITCHAT densest-subgraph oracle (see optimize --oracle)",
    )
    cmp_.add_argument(
        "--epsilon",
        type=float,
        default=0.0,
        help="CHITCHAT (1+epsilon) approximately-greedy relaxation "
        "(see optimize --epsilon)",
    )
    cmp_.add_argument(
        "--stats",
        action="store_true",
        help="append a CHITCHAT oracle-diagnostics line below the table",
    )
    cmp_.add_argument(
        "--skip-chitchat",
        action="store_true",
        help="skip CHITCHAT (slow on large graphs)",
    )
    _add_obs_options(cmp_)
    _add_workload_options(cmp_)

    stats = sub.add_parser("stats", help="structural statistics of a graph")
    stats.add_argument("graph")
    return parser


def cmd_optimize(args) -> int:
    """Run an optimizer on an edge-list graph and save the schedule."""
    graph = read_edge_list(args.graph)
    workload = _load_workload(graph, args)
    if getattr(args, "shards", None):
        args.algorithm = "chitchat"  # --shards is a CHITCHAT execution tier
    tracing = _start_tracing(args)
    with Stopwatch() as watch:
        schedule, stats = ALGORITHMS[args.algorithm](graph, workload, args)
    elapsed = watch.seconds
    _finish_tracing(args, tracing)
    validate_schedule(graph, schedule)
    metadata = {
        "algorithm": args.algorithm,
        "graph": str(args.graph),
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "cost": schedule_cost(schedule, workload),
    }
    if args.algorithm == "chitchat":
        metadata["oracle"] = args.oracle
        metadata["epsilon"] = args.epsilon
        if getattr(args, "shards", None):
            metadata["shards"] = args.shards
            if args.workers is not None:
                metadata["workers"] = args.workers
    records = save_schedule(schedule, args.output, metadata=metadata)
    print(
        f"{args.algorithm}: cost={schedule_cost(schedule, workload):.1f} "
        f"({records} records -> {args.output}, {elapsed:.1f}s)"
    )
    if args.stats:
        if stats is not None:
            print(_oracle_stats_line(args.oracle, stats))
        else:
            print(f"(no oracle stats for {args.algorithm})")
    return 0


def cmd_update(args) -> int:
    """Maintain a stored schedule through a churn script (delta repair)."""
    graph = read_edge_list(args.graph)
    workload = _load_workload(graph, args)
    schedule, schedule_meta = load_schedule(args.schedule)
    events, _events_meta = load_events(args.events)
    delta = DeltaScheduler(
        graph,
        workload,
        schedule,
        oracle=args.oracle,
    )
    tracing = _start_tracing(args)
    with Stopwatch() as watch:
        delta.apply_events(events, repair_every=args.repair_every)
    elapsed = watch.seconds
    _finish_tracing(args, tracing)
    validate_schedule(delta.graph, delta.schedule)
    metadata = {
        "algorithm": "delta-update",
        "base_schedule": str(args.schedule),
        "base_algorithm": schedule_meta.get("algorithm"),
        "events": len(events),
        "oracle": args.oracle,
        "cost": delta.cost(),
    }
    records = save_schedule(delta.schedule, args.output, metadata=metadata)
    print(
        f"delta-update: {len(events)} events, cost={delta.cost():.1f} "
        f"({records} records -> {args.output}, {elapsed:.1f}s)"
    )
    if args.state_out:
        save_delta_state(delta, args.state_out, metadata=metadata)
        print(f"delta state -> {args.state_out}")
    if args.stats:
        stats = delta.stats
        print(
            f"delta: events={stats.events_applied} noops={stats.noop_events} "
            f"added={stats.edges_added} removed={stats.edges_removed} "
            f"rates={stats.rate_changes} covers_broken={stats.covers_broken} "
            f"legs_freed={stats.legs_freed} repairs={stats.repairs} "
            f"reopened={stats.elements_reopened} "
            f"refreshes={stats.hub_refreshes} "
            f"materialized={stats.elements_materialized} "
            f"exact={stats.exact_refreshes} "
            f"invalidated={stats.sessions_invalidated} "
            f"hubs={stats.hub_selections} "
            f"singletons={stats.singleton_selections}"
        )
    return 0


def cmd_validate(args) -> int:
    """Check Theorem 1 coverage of a stored schedule."""
    graph = read_edge_list(args.graph)
    schedule, metadata = load_schedule(args.schedule)
    report = validate_schedule(graph, schedule, strict=False)
    print(
        f"edges={report.total_edges} push={report.push_served} "
        f"pull={report.pull_served} hub={report.hub_served} "
        f"uncovered={len(report.uncovered)}"
    )
    if metadata:
        print(f"metadata: {metadata}")
    if not report.feasible:
        print("INFEASIBLE: schedule violates bounded staleness (Theorem 1)")
        return 1
    print("OK: schedule is feasible")
    return 0


def cmd_cost(args) -> int:
    """Price a stored schedule against a workload."""
    graph = read_edge_list(args.graph)
    schedule, _metadata = load_schedule(args.schedule)
    workload = _load_workload(graph, args)
    baseline = schedule_cost(hybrid_schedule(graph, workload), workload)
    cost = schedule_cost(schedule, workload)
    print(f"cost={cost:.1f} hybrid={baseline:.1f} improvement={baseline / cost:.3f}x")
    return 0


def cmd_compare(args) -> int:
    """Compare all algorithms on one graph and print a table."""
    graph = read_edge_list(args.graph)
    workload = _load_workload(graph, args)
    rows = []
    chitchat_stats = None
    baseline = schedule_cost(hybrid_schedule(graph, workload), workload)
    tracing = _start_tracing(args)
    for name, factory in ALGORITHMS.items():
        if args.skip_chitchat and name == "chitchat":
            continue
        with Stopwatch() as watch:
            schedule, stats = factory(graph, workload, args)
        if stats is not None:
            chitchat_stats = stats
        validate_schedule(graph, schedule)
        cost = schedule_cost(schedule, workload)
        rows.append(
            {
                "algorithm": name,
                "cost": round(cost, 1),
                "vs hybrid": round(baseline / cost, 3),
                "piggybacked": len(schedule.hub_cover),
                "seconds": round(watch.seconds, 2),
            }
        )
    _finish_tracing(args, tracing)
    print(format_table(rows, title=f"{args.graph}: schedule comparison"))
    if args.stats and chitchat_stats is not None:
        print(_oracle_stats_line(args.oracle, chitchat_stats))
    return 0


def cmd_stats(args) -> int:
    """Print structural statistics of an edge-list graph."""
    graph = read_edge_list(args.graph)
    stats = summarize(graph)
    print(format_table([stats.as_row()], title=f"{args.graph}: structure"))
    return 0


COMMANDS = {
    "optimize": cmd_optimize,
    "update": cmd_update,
    "validate": cmd_validate,
    "cost": cmd_cost,
    "compare": cmd_compare,
    "stats": cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
