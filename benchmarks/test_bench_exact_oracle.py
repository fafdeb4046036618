"""E13 — exact (parametric max-flow) vs peel densest-subgraph oracle.

The ``repro.flow`` subsystem replaces the factor-2 peeling with Goldberg's
fractional-programming construction solved by warm-restarted push-relabel
(Dinkelbach density search).  Exact champions are true optima, so the
lazy CHITCHAT heap parks dirtied hubs at keys a float margin below their
true value instead of a factor-2 certificate: dirty hubs resurface only
when genuinely competitive.  (Retaining champions whose covered sets a
selection did not touch used to be the exact oracle's privilege too;
since ISSUE 24 the lazy heap does it for peel champions as well, which
is why the re-evaluation edge measured here fell from 1.39x to 1.09x —
the peel's count dropped, the exact oracle's did not move.)

This bench runs lazy CHITCHAT with both oracles on the E13 copying-model
instance (CSR backend) and asserts the acceptance criteria at the n=3000
instance (default ``REPRO_BENCH_SCALE`` of 0.25):

* the exact schedule never prices above the peel's, and
* lazy+exact performs strictly fewer full oracle re-evaluations than
  lazy+peel, with the champion-retention machinery demonstrably firing
  under both oracles.

Quick tiers below the acceptance size keep the re-evaluation assertions
but only tolerance-guard the cost: each greedy *step* picks an optimal
candidate, yet the greedy composition is path-dependent, so sub-0.1%
cost flips in either direction occur at some scales.

``benchmarks/run_benchmarks.py --json`` records ``reeval_ratio`` and
``cost_ratio`` in ``BENCH_chitchat.json`` so the oracle-call-ratio
trajectory is tracked across commits.
"""

from __future__ import annotations

from benchmarks.chitchat_perf import e13_exact_vs_peel
from benchmarks.conftest import run_once
from repro.analysis.reporting import format_table

#: Size of the acceptance instance (ISSUE 3), the one that carries the
#: hard cost invariant.  The former ``reeval_ratio >= 1.2`` gate went with
#: ISSUE 24: the ratio's denominator (exact calls) is unchanged, its
#: numerator (peel calls) fell once peel champions are retained too, so
#: what is asserted — at every size — is "exact re-evaluates strictly less".
ACCEPTANCE_NODES = 3000


def test_bench_exact_vs_peel_oracle(benchmark, bench_scale):
    result = run_once(benchmark, lambda: e13_exact_vs_peel(bench_scale))
    print()
    print(format_table(result["rows"], title="E13: peel vs exact oracle (lazy, CSR)"))
    print(
        f"re-evaluation ratio {result['reeval_ratio']:.2f}x, "
        f"cost ratio {result['cost_ratio']:.5f}x "
        f"(exact cheaper by {result['cost_delta']:.2f})"
    )
    by_oracle = {row["oracle"]: row for row in result["rows"]}
    # every exact full evaluation goes through the flow oracle, none of
    # the peel's do
    assert by_oracle["exact"]["exact_calls"] == by_oracle["exact"]["oracle_calls"]
    assert by_oracle["peel"]["exact_calls"] == 0
    # lazy+exact re-evaluates strictly less than lazy+peel
    assert by_oracle["exact"]["oracle_calls"] < by_oracle["peel"]["oracle_calls"]
    assert by_oracle["exact"]["retained"] > 0
    assert by_oracle["peel"]["retained"] > 0
    if result["nodes"] >= ACCEPTANCE_NODES:
        # the exact oracle must never price the acceptance schedule above
        # the peel's
        assert result["cost_ratio"] >= 1.0
    else:
        # quick tiers: greedy path-dependence can flip tiny cost deltas
        # either way below the acceptance size (the per-step candidates
        # are optimal, the greedy composition is not), so only guard
        # against a real quality regression
        assert result["cost_ratio"] >= 0.995
