"""E11 — GraphView backend comparison at scale (the CSR fast path).

The scheduling stack runs on either adjacency backend through the
:class:`~repro.graph.view.GraphView` protocol; ``backend="auto"`` freezes
large dense-id graphs into :class:`~repro.graph.csr.CSRGraph` snapshots
whose flat-array kernels (vectorized hub-graph construction, bitmask
element filtering in the densest-subgraph oracle, batch singleton/hybrid
pricing) pay off as the instance grows.

Two instances, both scaled by ``REPRO_BENCH_SCALE`` (default 0.25):

* a 10^4-node copying-model graph for the bulk hybrid scheduler —
  backends must produce *identical* schedules, and the per-backend wall
  clock is reported;
* a ~3·10^3-node graph for sequential CHITCHAT, the oracle-heaviest
  algorithm and the headline beneficiary of the CSR kernels (every
  selection re-oracles every touched hub, so hub-graph element filtering
  dominates) — here the CSR/dict wall-clock ratio is asserted, with slack
  for CI timing noise.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.analysis.reporting import format_table
from repro.core.baselines import hybrid_schedule
from repro.core.chitchat import chitchat_schedule
from repro.core.cost import schedule_cost
from repro.graph.generators import social_copying_graph
from repro.graph.view import as_graph_view
from repro.workload.rates import log_degree_workload

#: Node counts at bench scale 1.0 (default scale 0.25 gives 10^4 / 3·10^3).
BULK_BASE_NODES = 40_000
CHITCHAT_BASE_NODES = 12_000


def _compare_backends(name, graph, workload, run_algorithm, rows):
    """Run on both backends, assert identical schedules, record timings."""
    timings = {}
    schedules = {}
    for backend in ("dict", "csr"):
        resolved = as_graph_view(graph, backend)
        started = time.perf_counter()
        schedules[backend] = run_algorithm(resolved, backend)
        timings[backend] = time.perf_counter() - started
    assert schedules["dict"].push == schedules["csr"].push, name
    assert schedules["dict"].pull == schedules["csr"].pull, name
    assert schedules["dict"].hub_cover == schedules["csr"].hub_cover, name
    ratio = timings["csr"] / timings["dict"]
    rows.append(
        {
            "algorithm": name,
            "nodes": graph.num_nodes,
            "cost": round(schedule_cost(schedules["dict"], workload), 1),
            "dict s": round(timings["dict"], 2),
            "csr s": round(timings["csr"], 2),
            "csr/dict": round(ratio, 2),
        }
    )
    return ratio


def test_bench_graphview_backends(benchmark, bench_scale):
    bulk_graph = social_copying_graph(
        num_nodes=max(2_000, int(BULK_BASE_NODES * bench_scale)),
        out_degree=14,
        copy_fraction=0.7,
        reciprocity=0.2,
        seed=7,
    )
    bulk_workload = log_degree_workload(bulk_graph)
    cc_graph = social_copying_graph(
        num_nodes=max(600, int(CHITCHAT_BASE_NODES * bench_scale)),
        out_degree=10,
        copy_fraction=0.7,
        reciprocity=0.2,
        seed=7,
    )
    cc_workload = log_degree_workload(cc_graph)

    def work():
        rows = []
        _compare_backends(
            "hybrid (FF)",
            bulk_graph,
            bulk_workload,
            lambda g, b: hybrid_schedule(g, bulk_workload),
            rows,
        )
        chitchat_ratio = _compare_backends(
            "ChitChat (sequential)",
            cc_graph,
            cc_workload,
            lambda g, b: chitchat_schedule(g, cc_workload, backend=b),
            rows,
        )
        return rows, chitchat_ratio

    rows, chitchat_ratio = run_once(benchmark, work)
    print()
    print(format_table(rows, title="E11: GraphView backend comparison"))
    # Sequential CHITCHAT is the oracle-heaviest path and must benefit from
    # the CSR kernels (observed ~0.8); the bound leaves room for CI noise.
    assert chitchat_ratio < 1.05
