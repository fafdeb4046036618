"""The one table: workloads, metrics, bounds.  ``BENCHMARK.json`` mirrors it.

Nothing here is read from the environment or the command line; the smoke
test asserts that ``BENCHMARK.json`` and this module agree.  A later PR is
judged by these names, so changing one is a benchmark change, not a perf
change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: ``run_seconds`` of BENCHMARK.json: the ``--seconds`` every gated run uses.
RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the call that is measured on it.

    ``--seconds`` fixes the amount of measured work, not a deadline:
    ``units = max(min_units, int(seconds / op_seconds))`` operations are
    issued, where ``op_seconds`` is the operation's wall on the reference
    host (2 cores, no numba) at the commit that added the ledger.  Parent
    and change therefore do identical work for the same ``--seed`` and
    ``--seconds``, and every count and digest repeats exactly.
    """

    name: str
    kind: str  # "schedule" | "shard" | "churn"
    why: str
    seed_offset: int
    graph: dict  # generator keyword arguments (without the seed)
    read_write_ratio: float
    op_seconds: float
    min_units: int = 1
    setup_reps: int = 1
    scheduler: dict = field(default_factory=dict)  # ChitchatScheduler kwargs
    num_shards: int = 0
    max_workers: int = 0

    def units(self, seconds: float) -> int:
        return max(self.min_units, int(seconds / self.op_seconds))


#: The E13 reference rung (social-copying family, CSR backend).
_COPYING = {"num_nodes": 3000, "out_degree": 10, "copy_fraction": 0.7, "reciprocity": 0.2}

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="copying_peel",
        kind="schedule",
        why=(
            "Default path every user hits: ChitchatScheduler, every knob default, on the "
            "E13 copying graph (n=3000); peel oracle, lazy heap and hub-graph builds do "
            "all the work, the flow subsystem none."
        ),
        seed_offset=1000,
        graph=_COPYING,
        read_write_ratio=5.0,
        op_seconds=6.2,
        setup_reps=5,
    ),
    Workload(
        name="copying_exact",
        kind="schedule",
        why=(
            "Same instance (n=3000), oracle='exact': the oracle layer is repro.flow "
            "(session, Dinkelbach, wave/arena kernels), the peel is bypassed; a flow "
            "gain shows here and predicts no change on copying_peel."
        ),
        seed_offset=1000,  # the same instance as copying_peel for the same --seed
        graph=_COPYING,
        read_write_ratio=5.0,
        op_seconds=13.3,
        setup_reps=5,
        scheduler={"oracle": "exact"},
    ),
    Workload(
        name="ldbc_shard",
        kind="shard",
        why=(
            "Only workload where repro.shard (plan, slab export/attach, spawn fan-out, "
            "merge, reconcile) runs: a degree-skewed, community-structured LDBC graph "
            "(n=20000, ~195k edges), 4 shards, workers <= cores."
        ),
        seed_offset=2000,
        # the generator's default degree_exponent=2.2 draws out-degrees from a
        # Pareto(1.2) tail: edge counts then span 143k-264k across seeds at
        # n=30000 and no wall-clock metric can be bounded; 3.0 keeps the skewed
        # in-degree and the communities and pins the size to about 1%
        graph={"num_nodes": 20000, "degree_exponent": 3.0},
        read_write_ratio=5.0,
        op_seconds=11.0,
        setup_reps=5,
        num_shards=4,
        max_workers=4,
    ),
    Workload(
        name="churn_delta",
        kind="churn",
        why=(
            "Closed loop, one client: seeded 40/40/20 add/remove/rate churn (6000 events, "
            "n=3000) through DeltaScheduler apply+repair on the mutable dict graph; "
            "tiny repairs and the latency tail show only here."
        ),
        seed_offset=3000,
        graph=_COPYING,
        read_write_ratio=5.0,
        op_seconds=1.0 / 300.0,  # one churn event; 6000 events at --seconds 20
        min_units=200,
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only: allowed worsening, share of parent


#: Printed by every ``--trace 0`` run, on every workload, never zero.  An
#: *operation* is one complete schedule (copying_*, ldbc_shard) or one churn
#: event's apply+repair (churn_delta); an *item* is an edge or an event.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("op_tail_ms", "ms", "lower", 0.25),
    Metric("items_per_s", "items/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("cost_ratio_vs_hybrid", "ratio", "lower", 0.10),
)

_S = ("s", "lower")
_LESS = ("count", "lower")
_MORE = ("count", "higher")

#: Printed by every ``--trace 1`` run.  ``_s`` metrics are span self times
#: (``chitchat.run_s`` is inclusive; ``chitchat.glue_s`` is its self time).
#: A layer that does not run on a workload reports 0; a layer whose entry
#: point no longer exists reports ``null`` in documents and -1 on the
#: driver's result line.
PER_LAYER: tuple[Metric, ...] = tuple(
    Metric(name, unit, better)
    for name, (unit, better) in {
        "graph.generate_s": _S,
        "graph.to_csr_s": _S,
        "graph.slab_export_s": _S,
        "graph.slab_attach_s": _S,
        "graph.io_roundtrip_s": _S,
        "workload.rates_s": _S,
        "workload.churn_stream_s": _S,
        "chitchat.init_s": _S,
        "chitchat.run_s": _S,
        "chitchat.glue_s": _S,
        "chitchat.oracle_calls": _LESS,
        "chitchat.oracle_early_exits": _MORE,
        "chitchat.oracle_calls_saved": _MORE,
        "chitchat.hub_selections": _MORE,
        "chitchat.singleton_selections": _LESS,
        "chitchat.useful_ratio": ("ratio", "higher"),
        "hubgraph.build_s": _S,
        "hubgraph.build_calls": _LESS,
        "hubgraph.elements_total": _LESS,
        "densest.peel_s": _S,
        "densest.peel_calls": _LESS,
        "flow.oracle_s": _S,
        "flow.parametric_s": _S,
        "flow.kernel_s": _S,
        "flow.freeze_s": _S,
        "flow.kernel_invocations": _LESS,
        "flow.passes": _LESS,
        "flow.warm_solves": _MORE,
        "flow.preflow_repairs": _LESS,
        "flow.batched_solves": _LESS,
        "flow.blocks_per_batch": ("ratio", "higher"),
        "delta.from_scheduler_s": _S,
        "delta.apply_s": _S,
        "delta.repair_s": _S,
        "delta.hub_refreshes": _LESS,
        "delta.refreshes_per_event": ("ratio", "lower"),
        "delta.elements_reopened": _LESS,
        "delta.covers_broken": _LESS,
        "delta.noop_events": _LESS,
        "delta.cost_ratio_vs_fresh": ("ratio", "lower"),
        "shard.plan_s": _S,
        "shard.export_s": _S,
        "shard.fanout_s": _S,
        "shard.worker_glue_s": _S,
        "shard.worker_wall_max_s": _S,
        "shard.worker_wall_sum_s": _S,
        "shard.straggler_ratio": ("ratio", "lower"),
        "shard.merge_s": _S,
        "shard.reconcile_s": _S,
        "shard.cut_fraction": ("fraction", "lower"),
        "shard.boundary_hubs": _LESS,
        "shard.elements_recovered": _MORE,
        "shard.merged_cost_ratio": ("ratio", "lower"),
        "verify.validate_s": _S,
        "verify.cost_s": _S,
        "verify.hybrid_s": _S,
        "serialize.save_s": _S,
        "serialize.load_s": _S,
        "serialize.bytes": ("bytes", "lower"),
        "ledger.trace_overhead_frac": ("fraction", "lower"),
        "ledger.layer_sum_gap_frac": ("fraction", "lower"),
    }.items()
)


def workload(name: str) -> Workload:
    for spec in WORKLOADS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r}; options: {[w.name for w in WORKLOADS]}")


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` must contain (the smoke test compares them)."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
