#!/usr/bin/env python
"""Machine-readable benchmark emitter for the CHITCHAT perf trajectory.

Runs the scheduling benchmarks (E10 scaling, E11 backends, E12 lazy vs
eager, E13 peel vs exact oracle, E14 flow-kernel speedup, E15 warm vs
cold exact-oracle session) through the
shared collectors in :mod:`benchmarks.chitchat_perf` and writes one JSON
document with wall-clock times and oracle-call counts, so successive
commits can be compared mechanically (CI uploads the file as an
artifact).  ``docs/BENCHMARKS.md`` documents every experiment and how to
read the emitted rows::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --json BENCH_chitchat.json
    python benchmarks/run_benchmarks.py --scale 0.1 --experiments E12
    python benchmarks/run_benchmarks.py --baseline BENCH_chitchat.json
    python benchmarks/run_benchmarks.py --experiments E20 --trace TRACE_e20.json

``--trace PATH`` records obs spans across every collector and writes a
Chrome trace-event document; ``--profile`` prints the per-phase wall
table instead of (or in addition to) saving it.

``--scale`` defaults to the ``REPRO_BENCH_SCALE`` environment variable
(0.25 if unset), matching the pytest benchmark suite.

``--baseline PATH`` diffs the fresh run's headline ratios against a
previously committed document (the repo keeps one at
``benchmarks/BENCH_chitchat.json``) and prints per-headline deltas —
*warn-only*: a regression prints a ``WARNING`` line but never changes
the exit code, since wall-clock headlines are hardware-noisy and the
hard perf floors live in the pytest benchmark gates instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(_ROOT), str(_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np  # noqa: E402  (after sys.path setup)

from benchmarks.chitchat_perf import COLLECTORS  # noqa: E402
from repro.obs import (  # noqa: E402
    Stopwatch,
    get_tracer,
    profile_table,
    write_chrome_trace,
)

SCHEMA_VERSION = 1

#: Headline keys where bigger is better; a drop past
#: :data:`BASELINE_WARN_FRACTION` prints a warn-only regression line.
RATIO_HEADLINES = (
    "call_ratio",
    "wall_ratio",
    "pass_ratio",
    "cadence_pass_ratio",
    "invocation_ratio",
    "kernel_speedup",
    "reeval_ratio",
    "refresh_ratio",
    "shard_wall_speedup",
)

#: Relative drop in a ratio headline that triggers a warning (wall-clock
#: ratios are noisy across hosts, so the margin is generous).
BASELINE_WARN_FRACTION = 0.2


def diff_baseline(document: dict, baseline: dict) -> list[str]:
    """Warn-only headline comparison of a fresh run against a baseline.

    Returns the report lines (also used by the tests); ``WARNING``-
    prefixed lines mark ratio headlines that dropped by more than
    :data:`BASELINE_WARN_FRACTION`, and ``equal`` flags that went from
    true to false (a correctness certificate disappearing is always
    worth a look, even warn-only).
    """
    lines: list[str] = []
    if baseline.get("scale") != document.get("scale"):
        lines.append(
            "note: baseline scale %s != run scale %s; deltas are indicative only"
            % (baseline.get("scale"), document.get("scale"))
        )
    old_experiments = baseline.get("experiments", {})
    for name, result in document.get("experiments", {}).items():
        old = old_experiments.get(name)
        if old is None:
            lines.append(f"{name}: no baseline entry (new experiment)")
            continue
        for key in RATIO_HEADLINES:
            if key not in result or key not in old:
                continue
            new_v, old_v = float(result[key]), float(old[key])
            delta = (new_v - old_v) / old_v if old_v else 0.0
            line = f"{name}.{key}: {old_v:.2f} -> {new_v:.2f} ({delta:+.1%})"
            if delta < -BASELINE_WARN_FRACTION:
                line = "WARNING " + line
            lines.append(line)
        if old.get("equal") is True and result.get("equal") is False:
            lines.append(f"WARNING {name}.equal: True -> False")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        type=Path,
        default=Path("BENCH_chitchat.json"),
        help="output path for the JSON document (default: %(default)s)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_SCALE", "0.25")),
        help="dataset scale multiplier (default: env REPRO_BENCH_SCALE or 0.25)",
    )
    parser.add_argument(
        "--experiments",
        default=",".join(COLLECTORS),
        help="comma-separated subset of %s (default: all)" % ",".join(COLLECTORS),
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed BENCH JSON to diff headline ratios against "
        "(warn-only: regressions print WARNING lines, exit code stays 0)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="record spans across every collector and write a Chrome "
        "trace-event JSON (load in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-phase wall/self-time table after the run",
    )
    args = parser.parse_args(argv)

    wanted = [name.strip().upper() for name in args.experiments.split(",") if name.strip()]
    unknown = [name for name in wanted if name not in COLLECTORS]
    if unknown:
        parser.error(f"unknown experiments {unknown}; options: {sorted(COLLECTORS)}")

    tracer = get_tracer()
    if args.trace is not None or args.profile:
        tracer.clear()
        tracer.start()

    experiments = {}
    for name in wanted:
        with Stopwatch() as watch:
            result = COLLECTORS[name](args.scale)
        result["total_seconds"] = round(watch.seconds, 2)
        experiments[name] = result
        print(f"{name}: done in {result['total_seconds']}s")
        if "events_per_s" in result:  # E16: the counter headline's wall
            print(
                f"{name}: {result['events_per_s']:.0f} events/s, "
                f"p99 {result['event_p99_ms']:.2f} ms/event "
                f"(refresh_ratio {result['refresh_ratio']:.0f}x, "
                f"{result['per_event_ms']:.3f} ms/event mean)"
            )

    if args.trace is not None or args.profile:
        tracer.stop()
        if args.trace is not None:
            write_chrome_trace(args.trace, tracer)
            print(f"wrote Chrome trace to {args.trace}")
        if args.profile:
            print(profile_table(tracer))

    document = {
        "schema": SCHEMA_VERSION,
        "scale": args.scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "experiments": experiments,
    }
    args.json.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.json}")
    if args.baseline is not None:
        if args.baseline.exists():
            baseline = json.loads(args.baseline.read_text())
            print(f"--- headline diff vs {args.baseline} (warn-only) ---")
            for line in diff_baseline(document, baseline):
                print(line)
        else:
            print(f"baseline {args.baseline} not found; skipping diff")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
