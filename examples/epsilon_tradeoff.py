"""Sweep the (1+ε) approximately-greedy relaxation: cost vs oracle calls.

Runs lazy CHITCHAT on one instance for ε ∈ {0, 0.01, 0.05, 0.1} and
prints, per ε, the schedule cost (with its ratio against exact greedy),
the number of full densest-subgraph evaluations, and how often the
relaxation fired (``stats.epsilon_accepts``).  The pattern to expect:
tiny ε already collapses the oracle-call count — most dirty-hub
re-evaluations merely reconfirm a near-tie — while the cost stays within
a fraction of a percent of exact greedy, far inside the (1+ε)·per-step
guarantee.

Two instances are available: the default synthetic one, and the E10
Twitter-sample workload (``--dataset twitter``: the twitter-like preset
breadth-first-sampled exactly as the E10 scaling benchmark does) — the
ROADMAP's real-graph sweep used to pick the production recommendation
recorded as :data:`repro.core.tolerances.PRODUCTION_EPSILON` and
documented in docs/BENCHMARKS.md.  Run:

    PYTHONPATH=src python examples/epsilon_tradeoff.py
    PYTHONPATH=src python examples/epsilon_tradeoff.py --dataset twitter
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.reporting import format_table
from repro.core.chitchat import ChitchatScheduler
from repro.core.coverage import validate_schedule
from repro.core.cost import schedule_cost
from repro.experiments.datasets import e10_twitter_sample
from repro.graph.generators import social_copying_graph
from repro.workload.rates import log_degree_workload

EPSILONS = (0.0, 0.01, 0.05, 0.1)


def synthetic_instance():
    graph = social_copying_graph(
        num_nodes=1500, out_degree=10, copy_fraction=0.7, reciprocity=0.2, seed=7
    )
    return graph, log_degree_workload(graph, read_write_ratio=5.0)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dataset",
        choices=("synthetic", "twitter"),
        default="synthetic",
        help="synthetic copying-model instance (default) or the E10 "
        "twitter-sample workload the production default was picked on",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset scale multiplier (twitter dataset only)",
    )
    args = parser.parse_args(argv)
    if args.dataset == "twitter":
        graph, workload = e10_twitter_sample(scale=args.scale)
    else:
        graph, workload = synthetic_instance()
    print(
        f"instance: {args.dataset}, {graph.num_nodes} users, "
        f"{graph.num_edges} edges"
    )

    rows = []
    exact_cost = None
    for epsilon in EPSILONS:
        scheduler = ChitchatScheduler(graph, workload, epsilon=epsilon)
        started = time.perf_counter()
        schedule = scheduler.run()
        elapsed = time.perf_counter() - started
        validate_schedule(graph, schedule)
        cost = schedule_cost(schedule, workload)
        if epsilon == 0.0:
            exact_cost = cost
        rows.append(
            {
                "epsilon": epsilon,
                "cost": round(cost, 1),
                "vs exact": round(cost / exact_cost, 5),
                "oracle_calls": scheduler.stats.oracle_calls,
                "eps_accepts": scheduler.stats.epsilon_accepts,
                "seconds": round(elapsed, 2),
            }
        )
    print(format_table(rows, title="(1+epsilon) relaxation trade-off"))
    print(
        "every epsilon>0 schedule is feasible and priced within "
        "(1+epsilon) of exact greedy"
    )


if __name__ == "__main__":
    main()
