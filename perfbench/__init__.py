"""End-to-end and per-layer benchmark of the simulator and the store.

Run ``python3 perfbench/run.py --help`` from the repository root; the
README beside this file documents the workloads and metrics.
"""
