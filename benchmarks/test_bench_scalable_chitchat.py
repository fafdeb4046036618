"""E10 — the paper's future-work direction: scaling CHITCHAT.

Section 4.4 concludes that the CHITCHAT/PARALLELNOSY gap "suggests
interesting future work on the design of techniques to scale the CHITCHAT
algorithm".  This bench evaluates the lazy dirty-hub CHITCHAT
(``repro.core.chitchat``, lazily re-oracled hubs) against the published
algorithms on a sample graph, reporting schedule quality (improvement
over FF), oracle-call volume (the scalability currency), and wall-clock
time against the eager reference.  The other scaling technique, sharded
multi-process CHITCHAT, is E21's (``repro.shard``).
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.analysis.reporting import format_table
from repro.core.baselines import hybrid_schedule
from repro.core.chitchat import ChitchatScheduler
from repro.core.cost import schedule_cost
from repro.core.parallelnosy import parallel_nosy_schedule
from repro.experiments.datasets import load_dataset
from repro.graph.sampling import breadth_first_sample
from repro.workload.rates import log_degree_workload
from tests.reference_eager import EagerChitchatScheduler


def test_bench_scalable_chitchat(benchmark, bench_scale):
    dataset = load_dataset("twitter", scale=min(bench_scale, 0.3))
    sample = breadth_first_sample(
        dataset.graph, target_edges=dataset.graph.num_edges // 4, seed=0
    )
    # samples keep original node ids; relabel to dense 0..n-1 so every
    # scheduler reads the same ids (CHITCHAT then freezes without a copy)
    sample, _mapping = sample.relabeled()
    workload = log_degree_workload(sample, read_write_ratio=2.0)
    ff_cost = schedule_cost(hybrid_schedule(sample, workload), workload)

    def work():
        rows = []

        started = time.perf_counter()
        cc_eager = EagerChitchatScheduler(sample, workload)
        cc_eager_schedule = cc_eager.run()
        rows.append(
            {
                "algorithm": "ChitChat (eager)",
                "vs hybrid": ff_cost / schedule_cost(cc_eager_schedule, workload),
                "oracle calls": cc_eager.stats.oracle_calls,
                "seconds": round(time.perf_counter() - started, 2),
            }
        )

        started = time.perf_counter()
        cc = ChitchatScheduler(sample, workload)
        cc_schedule = cc.run()
        assert cc_schedule.push == cc_eager_schedule.push
        assert cc_schedule.pull == cc_eager_schedule.pull
        assert cc_schedule.hub_cover == cc_eager_schedule.hub_cover
        rows.append(
            {
                "algorithm": "ChitChat (lazy)",
                "vs hybrid": ff_cost / schedule_cost(cc_schedule, workload),
                "oracle calls": cc.stats.oracle_calls,
                "seconds": round(time.perf_counter() - started, 2),
            }
        )

        started = time.perf_counter()
        pn_schedule = parallel_nosy_schedule(sample, workload, max_iterations=10)
        rows.append(
            {
                "algorithm": "ParallelNosy",
                "vs hybrid": ff_cost / schedule_cost(pn_schedule, workload),
                "oracle calls": 0,
                "seconds": round(time.perf_counter() - started, 2),
            }
        )
        return rows

    rows = run_once(benchmark, work)
    print()
    print(format_table(rows, title="E10: scaling CHITCHAT (future work of §4.4)"))

    by_name = {row["algorithm"]: row for row in rows}
    eager = by_name["ChitChat (eager)"]
    cc = by_name["ChitChat (lazy)"]
    # the lazy heap needs far fewer oracle calls than the published eager
    # CHITCHAT for the same schedule
    assert cc["oracle calls"] < eager["oracle calls"]
    assert all(row["vs hybrid"] >= 1.0 - 1e-9 for row in rows)
