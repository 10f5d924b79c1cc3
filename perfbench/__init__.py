"""Benchmark of negbound: three seeded workloads, end-to-end metrics and a
traced per-module breakdown.  Run ``python3 perfbench/run.py --help``."""
