"""E12 — lazy vs eager oracle re-evaluation in sequential CHITCHAT.

The lazy dirty-hub heap (``repro.core.chitchat``, PR 2) replaces the
eager Algorithm 1 line 14 invalidation — which re-oracles every endpoint
*and every wedge hub* of every covered edge after each selection — with
CELF-style deferred recomputation: stale heap keys are certified lower
bounds on each hub's optimum, so hubs are re-peeled only when they reach
the heap top, and bounded oracle probes abandon non-competitive hubs
after an O(m) pass.

This bench runs both modes — the eager one is the test reference
``tests/reference_eager.py`` — on a dense copying-model graph (the
regime where eager invalidation's wedge blow-up dominates) on the CSR
backend, asserts both schedules are feasible and cost-equivalent, and
asserts the headline acceptance ratios at the n=3000 instance (default
``REPRO_BENCH_SCALE`` of 0.25): >= 3x fewer full oracle peels and >= 2x
faster wall clock.  Oracle-call counts are deterministic; the wall-clock
ratio compares two back-to-back runs on the same machine.

Since ISSUE 24 the lazy heap also keeps a hub's *peel* champion across
covering events that take none of its elements.  A retained champion is
still a factor-2 answer (Lemma 1) but not necessarily what a fresh peel
would return, so the two modes' schedules may differ — here in 2 push
legs and 1 hub assignment out of 69 k edges, at equal cost; by a few
1e-5 of the cost on the perf ledger's ``copying_peel`` instances — and
the bench certifies cost-equivalence (|lazy / eager - 1| <= 0.5 %) where
it used to certify byte-identity.  The per-step guarantee is
``tests/test_step_certificate.py``.
"""

from __future__ import annotations

from benchmarks.chitchat_perf import e12_lazy_vs_eager
from benchmarks.conftest import run_once
from repro.analysis.reporting import format_table

#: Acceptance thresholds at the n>=3000 instance (ISSUE 2); smaller quick
#: runs only assert that laziness pays at all.
ACCEPTANCE_NODES = 3000
ACCEPTANCE_CALL_RATIO = 3.0
ACCEPTANCE_WALL_RATIO = 2.0
#: how far the lazy schedule's cost may sit from the eager one's
COST_TOLERANCE = 0.005


def test_bench_lazy_chitchat(benchmark, bench_scale):
    result = run_once(benchmark, lambda: e12_lazy_vs_eager(bench_scale))
    print()
    print(format_table(result["rows"], title="E12: lazy vs eager CHITCHAT (CSR)"))
    print(
        f"oracle-call ratio {result['call_ratio']:.2f}x, "
        f"wall-clock ratio {result['wall_ratio']:.2f}x, "
        f"lazy / eager cost {result['lazy_cost_ratio']:.6f}"
    )
    # both schedules validated inside the collector; the lazy heap's
    # retained champions may reorder the greedy, never cheapen its quality
    assert abs(result["lazy_cost_ratio"] - 1.0) <= COST_TOLERANCE
    by_mode = {row["mode"]: row for row in result["rows"]}
    assert by_mode["lazy"]["oracle_calls_saved"] > 0
    assert by_mode["lazy"]["champions_retained"] > 0
    assert by_mode["eager"]["champions_retained"] == 0
    assert by_mode["lazy"]["oracle_calls"] < by_mode["eager"]["oracle_calls"]
    if result["nodes"] >= ACCEPTANCE_NODES:
        assert result["call_ratio"] >= ACCEPTANCE_CALL_RATIO
        assert result["wall_ratio"] >= ACCEPTANCE_WALL_RATIO
    else:  # quick tier: laziness must still pay, thresholds stay soft
        assert result["call_ratio"] >= 1.1
