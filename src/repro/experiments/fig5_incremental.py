"""Figure 5 — incremental vs static PARALLELNOSY under edge insertions.

The paper's experiment: optimize half of the Flickr graph with
PARALLELNOSY, then add increasingly large random batches of the held-out
edges, comparing two policies —

* **incremental** — new edges are served directly with the hybrid rule
  (section 3.3's cheap maintenance: :meth:`DeltaScheduler.apply
  <repro.core.delta.DeltaScheduler.apply>` with no ``repair``); and
* **static** — PARALLELNOSY is re-run from scratch on the grown graph.

Both are scored by the predicted improvement ratio over FEEDINGFRENZY on
the *grown* graph.  Shape expectations (Figure 5): the incremental curve
starts at the static level and degrades slowly as the batch grows — after
adding a third of the initial graph it is still within a few percent — so
periodic re-optimization is enough.

Batch sizes are scaled down proportionally to the synthetic graph (the
paper sweeps 10⁴…10⁷ on a 71 M-edge graph, i.e. up to ~28 % of the start
size; we sweep the same *fractions*).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.analysis.reporting import format_series
from repro.core.baselines import hybrid_schedule
from repro.core.cost import schedule_cost
from repro.core.delta import DeltaScheduler
from repro.core.parallelnosy import parallel_nosy_schedule
from repro.experiments.datasets import load_dataset
from repro.graph.digraph import SocialGraph
from repro.workload.churn import ChurnEvent


@dataclass(frozen=True)
class Fig5Config:
    """Parameters of the Figure 5 reproduction."""

    dataset: str = "flickr"
    scale: float = 1.0
    seed: int = 5
    iterations: int = 12
    #: batch sizes as fractions of the *initial* (half) edge count;
    #: the paper's 10^4..10^7 on half-Flickr spans ~0.03%..28%.
    batch_fractions: tuple[float, ...] = (0.003, 0.01, 0.03, 0.1, 0.28)


@dataclass
class Fig5Result:
    """Improvement ratios per batch size for both policies."""

    batch_sizes: list[int] = field(default_factory=list)
    incremental: list[float] = field(default_factory=list)
    static: list[float] = field(default_factory=list)

    def to_text(self) -> str:
        return format_series(
            self.batch_sizes,
            {
                "incremental ParallelNosy": self.incremental,
                "ParallelNosy": self.static,
            },
            x_label="batch_size",
            title="Figure 5: incremental vs static PARALLELNOSY (growing graph)",
        )


def _split_edges(graph: SocialGraph, seed: int) -> tuple[SocialGraph, list]:
    """Random half split: (half graph with all nodes, held-out edge list)."""
    rng = random.Random(seed)
    edges = sorted(graph.edges(), key=repr)
    rng.shuffle(edges)
    half = len(edges) // 2
    base = SocialGraph()
    base.add_nodes_from(graph.nodes())
    base.add_edges_from(edges[:half])
    return base, edges[half:]


def run(config: Fig5Config = Fig5Config()) -> Fig5Result:
    """Execute the experiment and return both policy curves."""
    dataset = load_dataset(config.dataset, config.scale)
    graph, workload = dataset.graph, dataset.workload
    base_graph, held_out = _split_edges(graph, config.seed)
    base_schedule = parallel_nosy_schedule(
        base_graph, workload, max_iterations=config.iterations
    )

    result = Fig5Result()
    initial_edges = base_graph.num_edges
    for fraction in config.batch_fractions:
        batch_size = min(len(held_out), max(1, int(initial_edges * fraction)))
        batch = held_out[:batch_size]

        # Incremental policy: serve added edges directly (no repair).
        inc_graph = base_graph.copy()
        delta = DeltaScheduler(inc_graph, workload, base_schedule.copy())
        for edge in batch:
            delta.apply(ChurnEvent("add", edge=edge))
        baseline_cost = schedule_cost(
            hybrid_schedule(inc_graph, workload), workload
        )
        result.incremental.append(baseline_cost / delta.cost())

        # Static policy: re-optimize the grown graph from scratch.
        static_schedule = parallel_nosy_schedule(
            inc_graph, workload, max_iterations=config.iterations
        )
        result.static.append(
            baseline_cost / schedule_cost(static_schedule, workload)
        )
        result.batch_sizes.append(batch_size)
    return result


def main() -> None:  # pragma: no cover - CLI glue
    """Print the figure's series to stdout."""
    print(run().to_text())


if __name__ == "__main__":  # pragma: no cover
    main()
