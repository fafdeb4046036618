"""``--compare A.json B.json``: judge ledger B against ledger A.

One row per (workload, end-to-end metric), by the metric's direction and
the bound fixed in :mod:`.spec`:

* ``regressed`` / ``improved`` — B's value is worse / better than A's by
  more than the bound;
* ``unresolved`` — the change is within the bound, but the spread between
  a document's own repetitions (quartile distance over median; range over
  median below four samples) is wider than the bound, so "unchanged"
  cannot be claimed;
* ``ok`` — within the bound, with repetitions tighter than the bound.

Exit status 1 on any ``regressed`` row or any rise in ``failed_share``.
"""

from __future__ import annotations

import json
import sys

from .spec import END_TO_END


def judge(metric, a: dict, b: dict) -> tuple[str, float, float]:
    """``(verdict, worse_by, spread)`` of B against A for one metric."""
    before, after = a["value"], b["value"]
    change = (after - before) / abs(before)
    worse_by = change if metric.better == "lower" else -change
    spread = max(a.get("spread", 0.0), b.get("spread", 0.0))
    if worse_by > metric.bound:
        return "regressed", worse_by, spread
    if worse_by < -metric.bound:
        return "improved", worse_by, spread
    return ("unresolved" if spread > metric.bound else "ok"), worse_by, spread


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    status = 0
    for key in ("seed", "seconds"):
        if a.get(key) != b.get(key):
            print(f"warning: {key} differs ({a.get(key)} vs {b.get(key)}): not the same work", file=out)
    env_a, env_b = a.get("environment", {}), b.get("environment", {})
    for key in sorted(set(env_a) | set(env_b)):
        if key != "git_commit" and env_a.get(key) != env_b.get(key):
            print(f"warning: environment {key} differs ({env_a.get(key)} vs {env_b.get(key)})", file=out)
    print(f"A {env_a.get('git_commit', 'unknown')}  B {env_b.get('git_commit', 'unknown')}", file=out)
    header = f"{'workload':<14} {'metric':<22} {'A':>12} {'B':>12} {'worse by':>9} {'spread':>7} {'bound':>6}  verdict"
    print(header, file=out)
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None or "end_to_end" not in entry_a or "end_to_end" not in entry_b:
            print(f"{name:<14} missing from one document", file=out)
            status = 1
            continue
        run_a, run_b = entry_a["end_to_end"], entry_b["end_to_end"]
        for metric in END_TO_END:
            verdict, worse_by, spread = judge(metric, run_a["metrics"][metric.name], run_b["metrics"][metric.name])
            print(
                f"{name:<14} {metric.name:<22} {run_a['metrics'][metric.name]['value']:>12.6g} "
                f"{run_b['metrics'][metric.name]['value']:>12.6g} {worse_by:>+9.2%} {spread:>7.2%} "
                f"{metric.bound:>6.0%}  {verdict}",
                file=out,
            )
            status |= verdict == "regressed"
        rose = run_b["failed_share"] > run_a["failed_share"]
        print(
            f"{name:<14} {'failed_share':<22} {run_a['failed_share']:>12.6g} {run_b['failed_share']:>12.6g} "
            f"{'':>9} {'':>7} {'0':>6}  {'regressed' if rose else 'ok'}",
            file=out,
        )
        status |= rose
        same = run_a["schedule_digest"] == run_b["schedule_digest"]
        print(f"{name:<14} schedule_digest {'identical' if same else 'DIFFERS'}", file=out)
    return int(status)


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as handle_a, open(path_b) as handle_b:
        return compare(json.load(handle_a), json.load(handle_b))
