"""Set-up, measured operation and output verification of the four workloads.

Untraced runs (``trace=0``) time the public entry points and nothing else
inside the timed region; the traced run (``trace=1``) repeats set-up,
operation and verification once under :class:`~.tracing.Tracer` and then
runs one untraced reference operation, whose wall gives the tracing
overhead.  The program only ever receives the generated inputs.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import math
import os
import resource
import statistics
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.core.baselines import hybrid_schedule
from repro.core.chitchat import ChitchatScheduler
from repro.core.cost import schedule_cost
from repro.core.coverage import validate_schedule
from repro.core.delta import DeltaScheduler
from repro.core.schedule import RequestSchedule
from repro.graph.csr import CSRGraph
from repro.graph.generators import social_copying_graph
from repro.graph.view import to_csr
from repro.shard import sharded_chitchat_schedule
from repro.workload import churn_stream, log_degree_workload
from repro.workload.ldbc import ldbc_instance

from .calibration import SpeedMeter, available_cores
from .spec import END_TO_END, PER_LAYER, Workload
from .tracing import PATCH_TARGETS, NullTracer, Tracer, resolve, warn

#: Reported cost must equal the ``schedule_cost`` rescan this closely.
COST_RTOL = 1e-6
#: Offset of the churn stream's seed from the graph's.
_STREAM_SEED_OFFSET = 7
#: Generator seeds one ``--seed`` owns: repetition ``i`` schedules instance
#: ``seed_offset + seed * _SEED_STRIDE + i``, so no two runs share an input.
_SEED_STRIDE = 16
#: Churn events between two calibration slices.
_CHURN_BLOCK = 500


def generator_seed(spec: Workload, seed: int, index: int = 0) -> int:
    return spec.seed_offset + seed * _SEED_STRIDE + index


@dataclass
class Instance:
    """A ready input: what set-up hands to the measured operation."""

    graph: object  # CSRGraph the scheduler receives
    workload: object
    num_edges: int
    base: object = None  # churn: the completed initial ChitchatScheduler
    delta: object = None  # churn: DeltaScheduler wrapped around ``base``
    events: list = field(default_factory=list)


@dataclass
class Outcome:
    """Operations attempted / failed, and what the first schedule looked like."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digest: str | None = None
    cost: float | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def attempt(self, fn, *args):
        """Run one operation; an exception fails it and the run carries on.

        A result that comes back is counted when :func:`check_schedule`
        judges it, so every operation is attempted exactly once.
        """
        try:
            return fn(*args)
        except Exception:  # the boundary that must keep running and report
            self.attempted += 1
            self.fail(traceback.format_exc(limit=6))
            return None


def peak_rss_mb() -> float:
    """Largest ``ru_maxrss`` of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def percentile(ordered: list, share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def relative_spread(samples: list) -> float:
    """Quartile distance over median (range over median below four samples)."""
    if len(samples) < 4:
        return (max(samples) - min(samples)) / statistics.median(samples)
    first, _, third = statistics.quantiles(samples, n=4)
    return (third - first) / statistics.median(samples)


def schedule_digest(schedule) -> str:
    """SHA-256 of the sorted push / pull / hub-cover records."""
    records = [f"push {u!r} {v!r}" for u, v in schedule.push]
    records += [f"pull {u!r} {v!r}" for u, v in schedule.pull]
    records += [f"hub {u!r} {v!r} {w!r}" for (u, v), w in schedule.hub_cover.items()]
    records.sort()
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def _copying_instance(spec: Workload, seed: int, tr) -> tuple:
    social = tr.call("graph.generate", social_copying_graph, seed=seed, **spec.graph)
    workload = tr.call(
        "workload.rates", log_degree_workload, social, read_write_ratio=spec.read_write_ratio
    )
    return social, workload, tr.call("graph.to_csr", to_csr, social)


def setup_schedule(spec: Workload, seed: int, _units: int, tr) -> Instance:
    _social, workload, csr = _copying_instance(spec, seed, tr)
    return Instance(csr, workload, csr.num_edges)


def setup_shard(spec: Workload, seed: int, _units: int, tr) -> Instance:
    # generation and rates are spanned by name inside ldbc_instance
    csr, workload = ldbc_instance(
        read_write_ratio=spec.read_write_ratio, seed=seed, **spec.graph
    )
    return Instance(csr, workload, csr.num_edges)


def setup_churn(spec: Workload, seed: int, units: int, tr) -> Instance:
    """Instance, the initial default schedule, its delta wrapper, the stream.

    The initial run takes the frozen CSR graph (the schedule is
    byte-identical to the dict backend's and a third cheaper to compute);
    ``from_scheduler`` thaws it into the mutable dict graph the measured
    loop runs on.
    """
    social, workload, csr = _copying_instance(spec, seed, tr)
    base = ChitchatScheduler(csr, workload, **spec.scheduler)
    base.run()
    delta = tr.call("delta.from_scheduler", DeltaScheduler.from_scheduler, base)
    events = tr.call(
        "workload.churn_stream",
        churn_stream,
        social,
        workload,
        num_events=units,
        seed=seed + _STREAM_SEED_OFFSET,
    )
    return Instance(csr, workload, csr.num_edges, base=base, delta=delta, events=events)


SETUP = {"schedule": setup_schedule, "shard": setup_shard, "churn": setup_churn}


# ----------------------------------------------------------------------
# Measured operations: program calls only
# ----------------------------------------------------------------------
def operate_schedule(spec: Workload, inst: Instance):
    scheduler = ChitchatScheduler(inst.graph, inst.workload, **spec.scheduler)
    schedule = scheduler.run()
    return schedule, scheduler.stats.final_cost, None


def operate_shard(spec: Workload, inst: Instance):
    execution = sharded_chitchat_schedule(
        inst.graph,
        inst.workload,
        num_shards=spec.num_shards,
        num_workers=min(spec.max_workers, available_cores()),
    )
    return execution.schedule, execution.cost, execution


OPERATE = {"schedule": operate_schedule, "shard": operate_shard}


def churn_loop(delta, events, outcome: Outcome, meter: SpeedMeter) -> tuple[list, float]:
    """Closed loop, one client: the next event is issued when this one returns.

    Returns the per-event latencies and the loop wall.  A calibration slice
    runs between blocks of events, outside every clock.
    """
    latencies: list = []
    wall = 0.0
    clock = perf_counter
    tracer = meter.tracer
    for start in range(0, len(events), _CHURN_BLOCK):
        block_begun = clock()
        # the loop target tags each event's spans with the event's index
        for tracer.request, event in enumerate(events[start : start + _CHURN_BLOCK], start):
            begun = clock()
            try:
                delta.apply(event)
                delta.repair()
            except Exception:  # one failed operation; the stream carries on
                outcome.fail(traceback.format_exc(limit=6))
            latencies.append(clock() - begun)
        wall += clock() - block_begun
        meter.mark()
    outcome.attempted += len(events)
    return latencies, wall


def shard_pipeline(spec: Workload, inst: Instance, tr: Tracer):
    """The driver's dataflow from its public parts, shard tasks in-process.

    Running the tasks sequentially here puts the worker-side hubgraph /
    densest / flow split under the wrappers; the real fan-out's walls come
    from the untraced reference run's ``shard_reports``.  Task defaults are
    read off ``sharded_chitchat_schedule``'s signature.
    """
    names = ("plan_shards", "export_arrays", "export_csr", "run_shard_task", "reconcile_boundary_hubs")
    parts = {name: resolve("repro.shard.driver", name) for name in names}
    if None in parts.values():
        raise LookupError("repro.shard.driver lost a public part")
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(sharded_chitchat_schedule).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }
    csr, workload = inst.graph, inst.workload
    rp, rc = workload.as_arrays(csr.num_nodes)
    with tr.span("shard.plan"):
        plan = parts["plan_shards"](csr, spec.num_shards, defaults["seed"])
        src, dst = csr.edge_arrays()
    slabs = []
    try:
        with tr.span("shard.export"):
            rates_slab = tr.call("graph.slab_export", parts["export_arrays"], {"rp": rp, "rc": rc})
            slabs.append(rates_slab)
            tasks = []
            for shard_id in range(spec.num_shards):
                mask = plan.edge_owner == shard_id
                shard_csr = CSRGraph.from_arrays(csr.num_nodes, src[mask], dst[mask])
                slab = tr.call("graph.slab_export", parts["export_csr"], shard_csr)
                slabs.append(slab)
                tasks.append(
                    {
                        "shard_id": shard_id,
                        "graph_manifest": slab.manifest,
                        "rates_manifest": rates_slab.manifest,
                        "trace": False,
                        **{
                            key: defaults[key]
                            for key in ("oracle", "method", "epsilon", "batch_k", "max_cross_edges")
                        },
                    }
                )
        results = []
        for tr.request, task in enumerate(tasks):  # tags each task's spans with its shard
            results.append(tr.call("shard.worker", parts["run_shard_task"], task))
    finally:
        for slab in slabs:
            slab.unlink()
    with tr.span("shard.merge"):
        schedule = RequestSchedule()
        for result in results:
            schedule.push.update(map(tuple, result["push"]))
            schedule.pull.update(map(tuple, result["pull"]))
            schedule.hub_cover.update(result["hub_cover"])
        schedule_cost(schedule, workload)  # the driver prices the merge too
    with tr.span("shard.reconcile"):
        hub_bounds: dict = {}
        for result in results:
            for hub, bound in result["hub_bounds"].items():
                hub_bounds[hub] = min(bound, hub_bounds.get(hub, bound))
        parts["reconcile_boundary_hubs"](csr, rp, rc, schedule, plan.owner, hub_bounds)
    cost = tr.call("verify.cost", schedule_cost, schedule, workload)
    return schedule, cost, sum(result["wall_seconds"] for result in results)


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
def _schedule_problems(graph, workload, schedule, reported_cost, same_as, tr):
    """``(rescanned cost, digest, problems)`` of one schedule."""
    try:
        tr.call("verify.validate", validate_schedule, graph, schedule)
        cost = tr.call("verify.cost", schedule_cost, schedule, workload)
        with tr.span("ledger.digest"):
            digest = schedule_digest(schedule)
    except Exception:
        return None, None, [traceback.format_exc(limit=6)]
    problems = []
    if not math.isclose(reported_cost, cost, rel_tol=COST_RTOL):
        problems.append(f"reported cost {reported_cost!r} != rescan {cost!r}")
    if same_as is not None and digest != same_as:
        problems.append(f"schedule digest {digest} differs from {same_as} on the same input")
    return cost, digest, problems


def check_schedule(outcome: Outcome, graph, workload, schedule, reported_cost, tr, same_as=None):
    """Judge one schedule operation: valid, priced as reported, repeatable.

    Returns ``(rescanned cost, digest)`` — ``(None, None)`` when validation
    raised.  ``same_as`` is the digest an earlier run produced on this input.
    """
    outcome.attempted += 1
    cost, digest, problems = _schedule_problems(graph, workload, schedule, reported_cost, same_as, tr)
    if problems:
        outcome.fail("; ".join(problems))
    return cost, digest


def check_delta(outcome: Outcome, delta, tr, same_as=None):
    """The churn run's closing operation: feasible, valid, tracked == rescan."""
    outcome.attempted += 1
    try:
        problems = [] if delta.is_feasible() else ["maintained schedule is infeasible"]
    except Exception:
        problems = [traceback.format_exc(limit=6)]
    cost, digest, more = _schedule_problems(
        delta.graph, delta.workload, delta.schedule, delta.cost(), same_as, tr
    )
    if problems + more:
        outcome.fail("; ".join(problems + more))
    return cost, digest


def hybrid_cost(graph, workload, tr) -> float:
    return schedule_cost(tr.call("verify.hybrid", hybrid_schedule, graph, workload), workload)


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def run_untraced(spec: Workload, seed: int, seconds: float) -> dict:
    tr = NullTracer()
    outcome = Outcome()
    units = spec.units(seconds)
    operations = 1 if spec.kind == "churn" else units  # churn: one stream of ``units`` events
    meter = SpeedMeter(tr)

    # set-up: one fresh instance per repetition, extra ones for the median
    instances, setup_samples = [], []
    for index in range(max(operations, spec.setup_reps)):
        gc.collect()
        begun = perf_counter()
        inst = SETUP[spec.kind](spec, generator_seed(spec, seed, index), units, tr)
        setup_samples.append(perf_counter() - begun)
        meter.mark()
        if index < operations:
            instances.append(inst)
    del inst

    digests, costs, hybrids = [], [], []
    if spec.kind == "churn":
        (inst,) = instances
        gc.collect()
        samples, wall = churn_loop(inst.delta, inst.events, outcome, meter)
        rss = peak_rss_mb()
        cost, outcome.digest = check_delta(outcome, inst.delta, tr)
        costs.append(cost)
        hybrids.append(hybrid_cost(inst.delta.graph, inst.delta.workload, tr))
        ordered = sorted(samples)
        p50, tail, tail_name = statistics.median(ordered), percentile(ordered, 0.99), "p99"
        items = len(samples)
        extra = {
            "events": items,
            "raw_p999_ms": percentile(ordered, 0.999) * 1e3,
            "raw_max_ms": ordered[-1] * 1e3,
        }
    else:
        samples = []
        for inst in instances:
            gc.collect()
            begun = perf_counter()
            result = outcome.attempt(OPERATE[spec.kind], spec, inst)
            samples.append(perf_counter() - begun)
            meter.mark()
            if result is not None:
                cost, digest = check_schedule(outcome, inst.graph, inst.workload, result[0], result[1], tr)
                costs.append(cost)
                digests.append(digest)
            del result
        rss = peak_rss_mb()
        hybrids = [hybrid_cost(inst.graph, inst.workload, tr) for inst in instances]
        # no percentile above the median has ten samples beyond it here
        p50 = tail = statistics.median(samples)
        tail_name = "p50"
        items, wall = sum(inst.num_edges for inst in instances), sum(samples)
        extra = {
            "repetitions": operations,
            "raw_slowest_ms": max(samples) * 1e3,
            "num_edges": [inst.num_edges for inst in instances],
            "repetition_digests": digests,
        }
        # each repetition scheduled its own instance: one digest over theirs
        outcome.digest = hashlib.sha256("\n".join(map(str, digests)).encode()).hexdigest()

    if None in costs or len(costs) != len(hybrids):
        ratio = None
    else:
        outcome.cost = sum(costs)
        ratio = sum(costs) / sum(hybrids)
    speed = meter.factor()  # every time below is reported at reference speed
    values = {
        "setup_s": statistics.median(setup_samples) * speed,
        "op_p50_ms": p50 * speed * 1e3,
        "op_tail_ms": tail * speed * 1e3,
        "items_per_s": items / (wall * speed),
        "peak_rss_mb": rss,
        "cost_ratio_vs_hybrid": ratio,
    }
    repeated = {"setup_s": setup_samples, "op_p50_ms": [] if spec.kind == "churn" else samples}
    metrics = {}
    for metric in END_TO_END:
        entry = {"value": values[metric.name], "unit": metric.unit}
        observed = repeated.get(metric.name, [])
        if len(observed) > 1:
            entry.update(n=len(observed), spread=relative_spread(observed))
        metrics[metric.name] = entry
    extra.update(
        op_samples=len(samples),
        op_tail=tail_name,
        host_speed=speed,
        calibration_slices=len(meter.slices),
        raw_measured_wall_s=wall,
        raw_setup_s=statistics.median(setup_samples),
    )
    return _document(spec, seed, seconds, 0, outcome, metrics, extra)


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
_SETUP, _MEASURE, _VERIFY = ("setup",), ("measure",), ("verify",)
_RUN = _SETUP + _MEASURE  # churn_delta runs its scheduler during set-up

#: metric -> (span, field, phases)
SPAN_METRICS = {
    "graph.generate_s": ("graph.generate", "self", _SETUP),
    "graph.to_csr_s": ("graph.to_csr", "self", _SETUP),
    "graph.slab_export_s": ("graph.slab_export", "self", _MEASURE),
    "graph.slab_attach_s": ("graph.slab_attach", "self", _MEASURE),
    "graph.io_roundtrip_s": ("graph.io_roundtrip", "self", _VERIFY),
    "workload.rates_s": ("workload.rates", "self", _SETUP),
    "workload.churn_stream_s": ("workload.churn_stream", "self", _SETUP),
    "chitchat.init_s": ("chitchat.init", "self", _RUN),
    "chitchat.run_s": ("chitchat.run", "total", _RUN),
    "chitchat.glue_s": ("chitchat.run", "self", _RUN),
    "hubgraph.build_s": ("hubgraph.build", "self", _MEASURE),
    "hubgraph.build_calls": ("hubgraph.build", "count", _MEASURE),
    "densest.peel_s": ("densest.peel", "self", _MEASURE),
    "densest.peel_calls": ("densest.peel", "count", _MEASURE),
    "flow.oracle_s": ("flow.oracle", "self", _MEASURE),
    "flow.parametric_s": ("flow.parametric", "self", _MEASURE),
    "flow.kernel_s": ("flow.kernel", "self", _MEASURE),
    "flow.freeze_s": ("flow.freeze", "self", _MEASURE),
    "delta.from_scheduler_s": ("delta.from_scheduler", "self", _SETUP),
    "delta.apply_s": ("delta.apply", "self", _MEASURE),
    "delta.repair_s": ("delta.repair", "self", _MEASURE),
    "shard.plan_s": ("shard.plan", "self", _MEASURE),
    "shard.export_s": ("shard.export", "self", _MEASURE),
    "shard.worker_glue_s": ("shard.worker", "self", _MEASURE),
    "shard.merge_s": ("shard.merge", "self", _MEASURE),
    "shard.reconcile_s": ("shard.reconcile", "self", _MEASURE),
    "verify.validate_s": ("verify.validate", "self", _VERIFY),
    "verify.cost_s": ("verify.cost", "self", _VERIFY),
    "verify.hybrid_s": ("verify.hybrid", "self", _VERIFY),
    "serialize.save_s": ("serialize.save", "self", _VERIFY),
    "serialize.load_s": ("serialize.load", "self", _VERIFY),
}

#: metric -> ``scheduler.stats`` field, summed over the pass's scheduler runs
COUNTER_METRICS = {
    "chitchat.oracle_calls": "oracle_calls",
    "chitchat.oracle_early_exits": "oracle_early_exits",
    "chitchat.oracle_calls_saved": "oracle_calls_saved",
    "chitchat.hub_selections": "hub_selections",
    "chitchat.singleton_selections": "singleton_selections",
    "flow.kernel_invocations": "kernel_invocations",
    "flow.passes": "flow_passes",
    "flow.warm_solves": "warm_solves",
    "flow.preflow_repairs": "preflow_repairs",
    "flow.batched_solves": "batched_solves",
}

#: the benchmark's own phase spans: their self time is what no layer accounts for
_PHASE_SPANS = ("ledger.setup", "ledger.measure", "ledger.verify")
#: per-layer metrics of the shard driver's own side of the fan-out
_DRIVER_SIDE = ("shard.plan_s", "shard.export_s", "graph.slab_export_s", "shard.merge_s", "shard.reconcile_s")
#: what the in-process shard pass records (all unobservable when it breaks)
_SHARD_SPANS = (
    "shard.plan",
    "shard.export",
    "shard.worker",
    "shard.merge",
    "shard.reconcile",
    "graph.slab_export",
    "graph.slab_attach",
)


def _ratio(numerator, denominator) -> float | None:
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def layer_values(tracer: Tracer, speed: float) -> dict:
    """Every span- and counter-fed per-layer metric; times at reference speed."""
    values: dict = {metric.name: 0.0 for metric in PER_LAYER}
    for name, (span, which, phases) in SPAN_METRICS.items():
        value = tracer.stat(span, which, phases)
        values[name] = value if value is None or which == "count" else value * speed
    stats_readable = "chitchat.run" not in tracer.missing
    for name, counter in COUNTER_METRICS.items():
        values[name] = tracer.counter(counter) if stats_readable else None
    values["chitchat.useful_ratio"] = _ratio(
        values["chitchat.hub_selections"], values["chitchat.oracle_calls"]
    )
    values["flow.blocks_per_batch"] = _ratio(
        tracer.counter("batched_blocks") if stats_readable else None,
        values["flow.batched_solves"],
    )
    values["hubgraph.elements_total"] = (
        None if "hubgraph.build" in tracer.missing else tracer.counter("hub_elements", _MEASURE)
    )
    pass_wall = sum(tracer.stat(span, "total") for span in _PHASE_SPANS)
    unaccounted = sum(tracer.stat(span, "self") for span in _PHASE_SPANS)
    values["ledger.layer_sum_gap_frac"] = unaccounted / pass_wall
    return values


def _delta_counts(delta, events: int) -> dict:
    stats = getattr(delta, "stats", None)
    counts = {
        f"delta.{name}": getattr(stats, name, None)
        for name in ("hub_refreshes", "elements_reopened", "covers_broken", "noop_events")
    }
    counts["delta.refreshes_per_event"] = _ratio(counts["delta.hub_refreshes"], events)
    return counts


_SHARD_WALLS = ("shard.fanout_s", "shard.worker_wall_max_s", "shard.worker_wall_sum_s")


def _shard_counts(execution) -> dict:
    """Fan-out walls and reconciliation counts of the real multi-process run.

    ``shard.fanout_s`` starts as the run's whole wall; the caller takes the
    traced pass's driver-side layers off it.
    """
    try:
        walls = [report["wall_seconds"] for report in execution.shard_reports]
        reconciliation = execution.reconciliation
        return {
            "shard.fanout_s": execution.wall_seconds,
            "shard.worker_wall_max_s": max(walls),
            "shard.worker_wall_sum_s": sum(walls),
            "shard.straggler_ratio": max(walls) / (sum(walls) / len(walls)),
            "shard.cut_fraction": execution.plan.cut_fraction,
            "shard.boundary_hubs": reconciliation["boundary_hubs"],
            "shard.elements_recovered": reconciliation["elements_recovered"],
            "shard.merged_cost_ratio": execution.merged_cost / execution.cost,
        }
    except (AttributeError, KeyError, TypeError) as exc:
        warn(f"ShardExecution no longer reports its fan-out ({exc!r}); shard counts read null")
        return dict.fromkeys(
            m.name for m in PER_LAYER if m.name.startswith("shard.") and m.name not in SPAN_METRICS
        )


def _roundtrips(tracer: Tracer, inst: Instance, schedule, scratch: Path) -> dict:
    """Price the serialize and edge-list layers on this run's own outputs."""
    provided: dict = {}
    save = resolve("repro.core.serialize", "save_schedule")
    load = resolve("repro.core.serialize", "load_schedule")
    if save is None or load is None:
        tracer.mark_missing("serialize.save", "repro.core.serialize.save_schedule")
        tracer.mark_missing("serialize.load", "repro.core.serialize.load_schedule")
        provided["serialize.bytes"] = None
    else:
        path = scratch / "schedule.jsonl"
        tracer.call("serialize.save", save, schedule, path)
        provided["serialize.bytes"] = path.stat().st_size
        loaded = tracer.call("serialize.load", load, path)[0]
        if schedule_digest(loaded) != schedule_digest(schedule):
            raise AssertionError("schedule changed across save_schedule / load_schedule")
    write = resolve("repro.graph.io", "write_edge_list")
    read = resolve("repro.graph.io", "read_edge_list")
    if write is None or read is None:
        tracer.mark_missing("graph.io_roundtrip", "repro.graph.io.write_edge_list")
    else:
        path = scratch / "graph.txt"
        with tracer.span("graph.io_roundtrip"):
            write(inst.graph, path)
            reread = read(path)
        if reread.num_edges != inst.num_edges:
            raise AssertionError("edge count changed across write_edge_list / read_edge_list")
    return provided


def _reference_operation(spec: Workload, inst: Instance, outcome: Outcome, meter: SpeedMeter):
    """The same operation with the wrappers gone: ``(wall, ShardExecution or None)``.

    Its schedule's digest becomes ``outcome.digest``, which the traced
    operation on the same input must reproduce.
    """
    null = NullTracer()
    if spec.kind == "churn":
        reference = DeltaScheduler.from_scheduler(inst.base)
        _samples, wall = churn_loop(reference, inst.events, outcome, meter)
        _cost, outcome.digest = check_delta(outcome, reference, null)
        return wall, None
    begun = perf_counter()
    result = outcome.attempt(OPERATE[spec.kind], spec, inst)
    wall = perf_counter() - begun
    meter.mark()
    if result is None:
        return wall, None
    schedule, reported_cost, execution = result
    _cost, outcome.digest = check_schedule(
        outcome, inst.graph, inst.workload, schedule, reported_cost, null
    )
    return wall, execution


def _traced_operation(spec: Workload, inst: Instance, outcome: Outcome, tracer: Tracer, meter):
    """The operation under the wrappers: ``(schedule, reported cost, wall)``."""
    if spec.kind == "churn":
        _samples, wall = churn_loop(inst.delta, inst.events, outcome, meter)
        return inst.delta.schedule, inst.delta.cost(), wall
    if spec.kind == "shard":
        try:
            return shard_pipeline(spec, inst, tracer)
        except Exception:  # degrade: the shard layer became unobservable
            warn("traced shard pass failed; shard metrics read null\n" + traceback.format_exc(limit=6))
            for span in _SHARD_SPANS:
                tracer.mark_missing(span, "repro.shard.driver")
            return None, None, None
    begun = perf_counter()
    result = outcome.attempt(OPERATE[spec.kind], spec, inst)
    wall = perf_counter() - begun
    return (None, None, wall) if result is None else (result[0], result[1], wall)


def _traced_verification(spec, inst, schedule, reported_cost, outcome, tracer, scratch) -> dict:
    """Judge the traced operation's output and price the verify-side layers."""
    provided: dict = {}
    if spec.kind == "churn":
        provided.update(_delta_counts(inst.delta, len(inst.events)))
        graph, workload = inst.delta.graph, inst.delta.workload
        outcome.cost, _digest = check_delta(outcome, inst.delta, tracer, same_as=outcome.digest)
        if outcome.cost is not None:
            fresh = ChitchatScheduler(to_csr(graph), workload, **spec.scheduler)
            provided["delta.cost_ratio_vs_fresh"] = outcome.cost / schedule_cost(fresh.run(), workload)
    else:
        graph, workload = inst.graph, inst.workload
        outcome.cost, _digest = check_schedule(
            outcome, graph, workload, schedule, reported_cost, tracer, same_as=outcome.digest
        )
    hybrid_cost(graph, workload, tracer)
    try:
        provided.update(_roundtrips(tracer, inst, schedule, Path(scratch)))
    except Exception:
        outcome.attempted += 1
        outcome.fail(traceback.format_exc(limit=6))
    return provided


def run_traced(spec: Workload, seed: int, seconds: float, targets=PATCH_TARGETS) -> dict:
    outcome = Outcome()
    units = spec.units(seconds)
    tracer = Tracer(targets)
    meter = SpeedMeter(tracer)
    provided: dict = {}
    with tempfile.TemporaryDirectory(prefix=".ledger_tmp_", dir=os.getcwd()) as scratch:
        with tracer.installed(), tracer.phase("setup"):
            inst = SETUP[spec.kind](spec, generator_seed(spec, seed), units, tracer)
        meter.mark()

        gc.collect()
        untraced_wall, execution = _reference_operation(spec, inst, outcome, meter)
        if execution is not None:  # the real multi-process shard run
            provided.update(_shard_counts(execution))
            # tracing cost sits in the workers: compare their summed walls
            untraced_wall = provided["shard.worker_wall_sum_s"]
        del execution

        gc.collect()
        with tracer.installed():
            with tracer.phase("measure"):
                schedule, reported_cost, traced_wall = _traced_operation(
                    spec, inst, outcome, tracer, meter
                )
            meter.mark()
            if schedule is not None:
                with tracer.phase("verify"):
                    provided.update(
                        _traced_verification(
                            spec, inst, schedule, reported_cost, outcome, tracer, scratch
                        )
                    )
        meter.mark()
    provided["ledger.trace_overhead_frac"] = (
        None
        if traced_wall is None or untraced_wall is None
        else (traced_wall - untraced_wall) / untraced_wall
    )

    speed = meter.factor()  # every ``_s`` metric is reported at reference speed
    for name in _SHARD_WALLS:
        if provided.get(name) is not None:
            provided[name] *= speed
    values = layer_values(tracer, speed)
    if provided.get("shard.fanout_s") is not None:
        # what the real run's wall holds beyond the driver-side layers
        driver_side = [values[name] for name in _DRIVER_SIDE]
        provided["shard.fanout_s"] = (
            None if None in driver_side else provided["shard.fanout_s"] - sum(driver_side)
        )
    values.update(provided)
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}
    extra = {
        "units": units,
        "num_edges": inst.num_edges,
        "raw_traced_wall_s": traced_wall,
        "raw_untraced_wall_s": untraced_wall,
        "calibration_slices": len(meter.slices),
        "host_speed": speed,
        "missing": tracer.missing,
        "span_summary": tracer.summary(),
        "spans_recorded": len(tracer.spans),
    }
    document = _document(spec, seed, seconds, 1, outcome, metrics, extra)
    document["_spans"] = tracer.spans  # split off by the caller, never printed
    return document


def _document(spec, seed, seconds, trace, outcome: Outcome, metrics: dict, extra: dict) -> dict:
    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / max(outcome.attempted, 1),
        "errors": outcome.errors,
        "schedule_digest": outcome.digest,
        "cost": outcome.cost,
        "metrics": metrics,
        "extra": extra,
    }
