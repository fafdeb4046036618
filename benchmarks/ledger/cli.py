"""Command line of the perf ledger.

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run in this process: prints every metric by name with its unit and,
    as the last line of standard output, the driver's result object.
``run.py [--workload W] [--seed N] [--seconds S] [--out PATH]``
    The ledger: each workload's untraced and traced run, each in a fresh
    process (so ``peak_rss_mb`` and import state are isolated), merged into
    one JSON document.
``run.py --compare A.json B.json``
    Judge document B against document A by each metric's direction and bound.

No option changes what is measured except ``--seed`` (the inputs) and
``--seconds`` (how much identical work is issued); nothing is read from the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

from .spec import RUN_SECONDS, WORKLOADS, workload

SCHEMA = 1
DEFAULT_SEED = 1
#: What the driver's result line carries for a metric whose layer entry
#: point no longer resolves (``null`` in documents): never a measurement.
UNOBSERVABLE = -1.0


def environment(with_commit: bool) -> dict:
    import numpy

    try:
        import numba  # noqa: F401 - presence is the fact recorded

        jit = "present"
    except ImportError:
        jit = "absent"
    from .calibration import available_cores

    env = {
        "nproc": available_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "numba": jit,
    }
    if with_commit:
        env["git_commit"] = _git_commit()
    return env


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def format_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or (float(value).is_integer() and abs(value) < 1e15):
        return f"{int(value)}"
    return f"{value:.6g}"


def print_metrics(document: dict) -> None:
    mode = "traced, per-layer" if document["trace"] else "untraced, end-to-end"
    print(
        f"== {document['workload']} ({mode}) seed={document['seed']} "
        f"seconds={document['seconds']} attempted={document['attempted']} "
        f"failed={document['failed']} failed_share={document['failed_share']:.6g}"
    )
    for name, entry in document["metrics"].items():
        print(f"  {name:<32} {format_value(entry['value']):>14} {entry['unit']}")
    extra = document["extra"]
    if "raw_p999_ms" in extra:
        p999 = extra["raw_p999_ms"] * extra["host_speed"]
        print(f"  {'(op p99.9, not gated)':<32} {format_value(p999):>14} ms")
    print(f"  host_speed {extra['host_speed']:.4f} (times are multiplied by it; 1 = reference host)")
    print(f"  schedule_digest {document['schedule_digest']}  cost {document['cost']!r}")
    for error in document["errors"][:5]:
        print(f"  FAILED: {error.strip().splitlines()[-1]}")


def result_line(document: dict) -> str:
    """The driver's contract: exactly these keys, numbers only."""
    metrics = {
        name: {
            "value": UNOBSERVABLE if entry["value"] is None else entry["value"],
            "unit": entry["unit"],
        }
        for name, entry in document["metrics"].items()
    }
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": metrics,
        }
    )


def write_document(document: dict, out: str | None) -> None:
    """Write the document; raw spans go to ``<out>.spans.json`` beside it."""
    spans = document.pop("_spans", None)
    if out is None:
        return
    path = Path(out)
    path.write_text(json.dumps(document, indent=1) + "\n")
    if spans is not None:
        names = sorted({span[0] for span in spans})
        index = {name: i for i, name in enumerate(names)}
        path.with_name(path.name + ".spans.json").write_text(
            json.dumps(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "request"],
                    "names": names,
                    "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in spans],
                }
            )
        )


def _stop_resource_tracker() -> None:
    """End and reap multiprocessing's tracker process, which outlives the pool.

    The shard tier's shared-memory slabs start it; left alone it exits only
    when this interpreter does and is never waited for.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def single_run(name: str, seed: int, seconds: float, trace: int, out: str | None) -> int:
    os.environ.pop("REPRO_CSR_THRESHOLD", None)  # pin the program's own default
    try:
        from . import workloads
    except ImportError as exc:
        print(f"ledger: the program under test does not import: {exc}", file=sys.stderr)
        return 2
    spec = workload(name)
    run = workloads.run_traced if trace else workloads.run_untraced
    try:
        document = run(spec, seed, seconds)
    finally:
        _stop_resource_tracker()
    document["schema"] = SCHEMA
    document["environment"] = environment(with_commit=False)
    write_document(document, out)
    print_metrics(document)
    print(result_line(document), flush=True)
    return 0 if document["correct"] else 1


def full_ledger(names: list[str], seed: int, seconds: float, out: str | None) -> int:
    runner = Path(__file__).with_name("run.py")
    ledger = {
        "schema": SCHEMA,
        "kind": "ledger",
        "seed": seed,
        "seconds": seconds,
        "environment": environment(with_commit=True),
        "workloads": {},
    }
    status = 0
    with tempfile.TemporaryDirectory(prefix=".ledger_tmp_", dir=os.getcwd()) as scratch:
        for name in names:
            entry = ledger["workloads"][name] = {"why": workload(name).why}
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                path = Path(scratch) / f"{name}.{trace}.json"
                command = [
                    sys.executable, str(runner),
                    "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace), "--out", str(path),
                ]  # fmt: skip
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                if not path.exists():
                    print(f"ledger: {name} --trace {trace} produced no document", file=sys.stderr)
                    sys.stdout.write(done.stdout)
                    status = 1
                    continue
                document = json.loads(path.read_text())
                document.pop("environment", None)
                entry[key] = document
                print_metrics(document)
                if done.returncode != 0 or not document["correct"]:
                    status = 1
    if out is not None:
        Path(out).write_text(json.dumps(ledger, indent=1) + "\n")
        print(f"wrote {out}")
    print("ledger: " + ("all outputs verified" if status == 0 else "OUTPUT VERIFICATION FAILED"))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write the JSON document here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        from .compare import compare_files

        return compare_files(*args.compare)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return single_run(args.workload, args.seed, args.seconds, args.trace, args.out)
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    return full_ledger(names, args.seed, args.seconds, args.out)

