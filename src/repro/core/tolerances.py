"""Float-drift tolerances shared by the scheduling oracles.

The greedy schedulers compare float costs that were computed along
different code paths (scalar vs vectorized, peel vs max-flow, cached vs
recomputed), so every comparison that must not flip on rounding noise
goes through the constants below.  Keeping them in one module stops the
epsilons from drifting apart: a bound certified with one margin must be
compared with the same margin everywhere, or the lazy scheduler can
diverge from its eager reference implementation on cost ties.
"""

from __future__ import annotations

#: Relative margin shaved off every certified optimum lower bound.  The
#: bounds are mathematically valid for real arithmetic, but the oracles'
#: float evaluation of the *same* champion can drift by ulps between
#: states (summation order changes with the alive set); keys a hair below
#: the certificate are always safe — they only trigger a recompute a
#: moment earlier — whereas a key one ulp above the true value would make
#: the lazy scheduler diverge from eager on cost ties.
OPT_BOUND_MARGIN = 1.0 - 1e-9

#: Absolute slack added to the ``(1 + ε)``-acceptance comparison of the
#: approximately-greedy scheduler (``epsilon=`` on ``ChitchatScheduler``):
#: a clean candidate priced exactly at ``(1 + ε) ×`` a dirty certified
#: bound must be accepted on both float evaluation paths (dict and CSR),
#: or the ε-run would depend on summation order.  At ``ε = 0`` the
#: relaxation is disabled outright, so this slack can never perturb an
#: exact-greedy run.
EPS_ACCEPT_SLACK = 1e-12

#: Residual capacities at or below this are treated as saturated by the
#: max-flow kernel (arc absent from the residual graph).  Capacities in
#: the densest-subgraph networks are unit source arcs and ``λ·g`` sink
#: arcs with rates well above 1e-6, so 1e-10 is far below any genuine
#: residual yet far above accumulated subtraction noise.
FLOW_EPS = 1e-10

#: Relative convergence tolerance of the Dinkelbach density iteration:
#: stop once a round's flow excess proves no sub-hub-graph beats the
#: incumbent density by more than this fraction of the covered count.
DINKELBACH_RTOL = 1e-12

#: Documented opt-in width of the lazy scheduler's batched multi-hub
#: flow tier (``batch_k=`` on ``ChitchatScheduler``, off by default): up to
#: this many dirty heap-top hubs are popped together and solved in one
#: block-diagonal arena pass
#: (:class:`repro.flow.batched_solve.BatchedNetwork`).  Refreshing the
#: runners-up is pure speculation — the greedy winner is re-derived from
#: the refreshed true costs with the same tie-breaks, so the schedule is
#: unchanged at any width (property-tested across widths in
#: ``tests/test_batch_k_identity.py``) — and the E18 sweep on the
#: n=3000 E13 instance picks 16 as the knee of the kernel-invocation
#: curve: width 8 cuts invocations 2.7x, width 16 reaches 3.2x (past
#: the ISSUE 6 3x floor), and width 32 adds only ~0.3x more while the
#: probe filter discards a growing share of the deeper gathers.  Fewer
#: kernel invocations did not buy wall time: on the perf ledger's
#: ``copying_exact`` workload per-hub solves ran faster and peaked about
#: 45 MB lower, so ``batch_k=0`` (per-hub solves) is the default.
BATCH_K = 16

#: Minimum number of prepared blocks an arena dispatch needs to beat two
#: sequential solves; below it the batched tier falls back to the
#: per-hub path (arena assembly would cost more than it saves).
BATCH_MIN_BLOCKS = 2

#: Quality bar of the delta-repair tier (``repro.core.delta``): the E16
#: churn bench and the differential suite assert that a schedule
#: maintained by per-event :meth:`DeltaScheduler.repair` stays within
#: ``(1 + DELTA_QUALITY_EPSILON)`` of a from-scratch CHITCHAT run on the
#: mutated instance.  The repair is *provably* never worse than serving
#: the re-opened edges directly (each greedy step is charged at most the
#: cheapest remaining singleton), but closeness to the global greedy is
#: empirical: the localized repair only re-optimizes the dirtied region,
#: so drift accumulates with churn volume.  0.25 holds with wide margin
#: on the measured streams (the E16 acceptance instance stays under
#: 1.05x at every checkpoint); treat a bench breach as a quality
#: regression, not a tolerance to widen.
DELTA_QUALITY_EPSILON = 0.25

#: Recommended production setting for the ``epsilon=`` approximately-
#: greedy relaxation, chosen by the ε sweep on the E10 Twitter-sample
#: workload (``examples/epsilon_tradeoff.py --dataset twitter``; the
#: measured trade-off is recorded in docs/BENCHMARKS.md): 0.01 already
#: collapses most dirty-hub re-evaluations while the end-to-end schedule
#: cost stays within a small fraction of a percent of exact greedy,
#: and larger ε buys little further.  Not a float-drift margin and not
#: a silent default — the schedulers keep ``epsilon=0.0`` (exact
#: greedy) unless a caller opts in; this constant is the value to opt
#: in *to*, pinned by a regression test.
PRODUCTION_EPSILON = 0.01
