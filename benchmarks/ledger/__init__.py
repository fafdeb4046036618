"""Perf ledger: the repo's benchmark (see README.md in this directory).

One command, four workloads, end-to-end metrics from untraced runs of the
public entry points and per-layer metrics from a separate traced run whose
timing wrappers live here, not under ``src/``.  ``spec.py`` is the single
table of workloads, metrics and bounds; ``BENCHMARK.json`` mirrors it.
"""
