"""E18 — batched block-diagonal multi-hub flow solves (ISSUE 6).

ISSUE 6 added a batched tier to the lazy scheduler: up to
:data:`~repro.core.tolerances.BATCH_K` dirty heap-top hubs are popped
together and their Dinkelbach flow problems advance in lockstep on one
block-diagonal :class:`~repro.flow.batched_solve.BatchedNetwork`, so one
wave pass discharges every still-searching block.  This bench runs lazy
exact-oracle CHITCHAT on the E13 instance sequentially (``batch_k=0``)
and batched (opted in at ``batch_k=BATCH_K``; per-hub solves are the
default) and compares kernel dispatch counts.

Acceptance (ISSUE 6, at the n>=3000 default-scale CSR instance): the
batched run issues >=3x fewer kernel invocations (one arena solve counts
once however many blocks it discharges), with the two schedules
byte-identical.  Wall-clock is gated as a *non-regression floor* only:
the pure-numpy arena runs at wall parity — an arena pass costs about as
much as the per-block passes it replaces, and the non-kernel stages
(pricing, hub-graph builds, heap maintenance) dominate the run — so the
dispatch-count reduction, not wall time, is the headline this tier
delivers (see docs/BENCHMARKS.md "E18" for the measured breakdown).
``benchmarks/run_benchmarks.py --json`` records the rows and headline
ratios in ``BENCH_chitchat.json``.
"""

from __future__ import annotations

from benchmarks.chitchat_perf import e18_batched_solve
from benchmarks.conftest import run_once
from repro.analysis.reporting import format_table

#: Acceptance thresholds at the n>=3000 instance (ISSUE 6); smaller quick
#: tiers gather shallower batches (fewer dirty hubs per state), so the
#: invocation floor is slacker there.
ACCEPTANCE_NODES = 3000
ACCEPTANCE_INVOCATION_RATIO = 3.0
QUICK_TIER_INVOCATION_RATIO = 2.0
#: Wall-clock non-regression floor (both tiers): the arena must not make
#: the run materially slower, but parity is the measured reality.
WALL_FLOOR = 0.5


def test_bench_batched_solve_invocation_reduction(benchmark, bench_scale):
    result = run_once(benchmark, lambda: e18_batched_solve(bench_scale))
    print()
    print(
        format_table(
            result["rows"], title="E18: multi-hub solves, sequential vs batched"
        )
    )
    print(
        f"invocation ratio {result['invocation_ratio']:.2f}x "
        f"(wall {result['wall_ratio']:.2f}x), "
        f"{result['batched_solves']} arena solves, "
        f"{result['blocks_per_batch']:.1f} blocks/batch"
    )
    # batching is a pure performance change: byte-identical schedules
    assert result["equal"]
    # the reduction must come from *real* arena dispatches, not fallbacks
    assert result["batched_solves"] > 0
    assert result["blocks_per_batch"] >= 2.0
    bar = (
        ACCEPTANCE_INVOCATION_RATIO
        if result["nodes"] >= ACCEPTANCE_NODES
        else QUICK_TIER_INVOCATION_RATIO
    )
    # dispatch counts are deterministic (no wall-clock noise): no retry
    assert result["invocation_ratio"] >= bar
    assert result["wall_ratio"] >= WALL_FLOOR
