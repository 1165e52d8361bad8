"""Helpers shared by the benchmark's workloads: passes, percentiles, /proc."""

from __future__ import annotations

import math
import os
import time
from typing import Iterator, Sequence

#: the repository root (the benchmark runs from a checkout of it)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: where the program's sources live inside the checkout
SRC = os.path.join(ROOT, "src")


class CheckFailed(AssertionError):
    """An output check of the benchmark did not hold."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; refuses a tail with < 10 samples beyond.

    A p99 over 500 samples rests on five values, which is no tail at
    all, so the helper raises instead of returning a number.
    """
    n = len(samples)
    beyond = n * (100.0 - pct) / 100.0
    if beyond < 10 and pct > 50:
        raise ValueError(
            f"p{pct:g} of {n} samples leaves {beyond:g} beyond it "
            "(need at least 10)")
    if not n:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]


def pass_schedule(seconds: float, min_passes: int) -> Iterator[bool]:
    """The pass policy of every workload: one item per pass to run.

    Yields ``True`` for the warm-up pass, then ``False`` for each timed
    pass: at least ``min_passes`` of them, and more until ``seconds``
    have passed since the warm-up began.  The caller runs one pass per
    item, so the policy serves plain and ``async`` loops alike.
    """
    start = time.perf_counter()
    yield True
    timed = 0
    while timed < min_passes or time.perf_counter() - start < seconds:
        yield False
        timed += 1


def proc_cpu_s(pid: int) -> float:
    """CPU seconds of all threads of process ``pid``.

    Read from ``/proc/<pid>/task/*/schedstat`` (nanoseconds on a CPU)
    rather than ``/proc/<pid>/stat``, whose 10 ms ticks are too coarse
    for one pass.
    """
    total = 0
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/schedstat", encoding="ascii") as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return total / 1e9


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of process ``pid`` in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
