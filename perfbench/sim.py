"""sim-fig7 and sim-observed: figure cells through ``run_once``.

One operation is one cell, a plain
``repro.harness.runner.run_once(workload, system, 8, 1, "quick")``:
a fresh machine whose simulated caches start empty, no result cache.
The simulator seed is fixed at 1, the first seed ``sitm-harness fig7``
runs, so the simulated work and every simulated count repeat exactly
from run to run; ``--seed`` sets the order of the cells in a pass.
sim-fig7 runs the cells unobserved, so they take the engine's fast
loop; sim-observed runs contended cells with ``telemetry=True,
profiling=True``, as ``sitm-harness trace|metrics|profile|blame|bench``
do, which puts the observed loop and ``repro.obs`` on the path.

A :class:`Probe` watches from outside the program, through class-level
wrappers that cost one call per cell: the transaction specs each
instance hands to the engine, entries into ``Engine._run_fast``, the
engine's step count and loads from the harness result cache.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import random
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import hostref
from perfbench.common import CheckFailed, check, pass_schedule, peak_rss_mb
from perfbench.trace import Spans, count_calls, timed_factory

THREADS = 8
PROFILE = "quick"
#: the simulator seed of every cell (see the module docstring)
SIM_SEED = 1
#: left out of sim-fig7 to keep a pass near 3 s on a 2-vCPU host: these
#: six cells alone take ~60% of the grid's host time (long read-only
#: transactions re-run after aborts).  Their workloads keep their SI-TM
#: cell.
FIG7_SKIPPED = frozenset({
    ("array", "2PL"), ("array", "SONTM"), ("list", "2PL"),
    ("list", "SONTM"), ("vacation", "2PL"), ("vacation", "SONTM")})
#: contended cells: read-dominated (rbtree, vacation) and
#: read-modify-write (kmeans), each under SI-TM and 2PL
OBSERVED_CELLS = tuple((w, s) for w in ("rbtree", "kmeans", "vacation")
                       for s in ("SI-TM", "2PL"))
#: RunResult fields that only observed runs fill
OBSERVER_FIELDS = ("metrics", "spans", "timeseries", "phases")
#: timed passes at least; a cell's latency is its median over them
MIN_PASSES = 3
#: ``latency_tail_ms`` is the mean latency of this slowest share of the
#: cells (at least one cell): 3 of 24 on sim-fig7, 1 of 6 on sim-observed
TAIL_SHARE = 0.1


def fig7_cells() -> List[Tuple[str, str]]:
    from repro.harness.experiments import FIGURE_SYSTEMS
    from repro.workloads import PAPER_ORDER
    return [(w, s) for w in PAPER_ORDER for s in FIGURE_SYSTEMS
            if (w, s) not in FIG7_SKIPPED]


def cells_for(workload: str) -> List[Tuple[str, str]]:
    return fig7_cells() if workload == "sim-fig7" else list(OBSERVED_CELLS)


class Probe:
    """Per-cell counts taken from outside the program."""

    def __init__(self, spans: Optional[Spans] = None):
        from repro.harness.executor import ResultCache
        from repro.sim.engine import Engine

        self.tally: Dict[str, int] = defaultdict(int)
        self.engines: list = []
        init = Engine.__init__
        tally = self.tally
        engines = self.engines

        def probed_init(engine, tm, programs, *args, **kwargs):
            programs = [list(p) for p in programs]
            tally["specs"] += sum(len(p) for p in programs)
            if spans is not None:
                programs = [[dataclasses.replace(
                    spec, body_factory=timed_factory(spans,
                                                     spec.body_factory))
                    for spec in p] for p in programs]
            init(engine, tm, programs, *args, **kwargs)
            engines.append(engine)

        Engine.__init__ = probed_init
        count_calls(Engine, "_run_fast", tally, "fast_loop")
        count_calls(ResultCache, "load", tally, "cache_loads")

    def take(self) -> dict:
        """Counts since the last call, plus the engines built."""
        out = dict(self.tally)
        out["engines"] = list(self.engines)
        self.tally.clear()
        self.engines.clear()
        return out


def run_cell(probe: Probe, cell: Tuple[str, str], seed: int,
             observed: bool) -> dict:
    """One operation: a ``run_once`` call and what the probe saw."""
    from repro.harness.runner import run_once
    # collect the previous cell's garbage now, so that neither its
    # collection nor its memory is billed to this cell
    gc.collect()
    cpu0 = time.process_time()
    start = time.perf_counter()
    result = run_once(cell[0], cell[1], THREADS, seed, PROFILE,
                      telemetry=observed, profiling=observed)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    seen = probe.take()
    (engine,) = seen["engines"]
    return {"cell": cell, "result": result, "wall_s": wall, "cpu_s": cpu,
            "steps": engine.steps_taken, "specs": seen.get("specs", 0),
            "fast_loop": seen.get("fast_loop", 0),
            "cache_loads": seen.get("cache_loads", 0),
            "caches": engine.machine.caches.stats()}


def check_cell(rec: dict, observed: bool,
               plain: Optional[dict] = None) -> None:
    """The output checks of one cell (raises :class:`CheckFailed`).

    ``plain`` is :func:`sim_stats` of the same cell run unobserved.
    """
    name = "/".join(rec["cell"])
    result = rec["result"]
    want = 0 if observed else 1
    check(rec["fast_loop"] == want,
          f"{name}: entered Engine._run_fast {rec['fast_loop']} times, "
          f"expected {want}")
    check(rec["cache_loads"] == 0,
          f"{name}: read the harness result cache")
    check(result.verified is not False,
          f"{name}: the workload's verify() failed")
    check(result.commits == rec["specs"],
          f"{name}: {result.commits} commits for {rec['specs']} "
          "transaction specs handed to the engine")
    if observed:
        # run_once raises when CycleProfiler.check_conservation fails;
        # phases is only filled after it passed
        check(result.phases is not None,
              f"{name}: no conservation-checked profile")
    if plain is not None:
        mine = sim_stats(result)
        diff = sorted(k for k in mine if mine[k] != plain[k])
        check(not diff, f"{name}: observed run differs from the plain "
                        f"run in {diff}")


def sim_stats(result) -> dict:
    """Every field of a ``RunResult`` but the observer payloads."""
    data = dataclasses.asdict(result)
    for key in OBSERVER_FIELDS:
        data.pop(key)
    return data


def measure_cell(probe: Probe, cell: Tuple[str, str], seed: int,
                 observed: bool, bracket: hostref.Bracket,
                 plain: Optional[dict] = None) -> dict:
    """Run, normalise and check one cell; keep only its scalars.

    The ``RunResult`` with its span, time-series and metrics payloads is
    dropped on return, so the process's peak memory covers one cell's
    run rather than every pass kept so far.  Host times are normalised
    by the reference loop timed around the cell (:mod:`perfbench.hostref`).
    """
    try:
        rec = run_cell(probe, cell, seed, observed)
    except Exception as exc:  # a failed operation, not a wrong one
        probe.take()
        bracket.factor()
        return {"cell": cell, "failure": f"{'/'.join(cell)}: {exc!r}"}
    factor = bracket.factor()
    try:
        check_cell(rec, observed, plain)
        problem = None
    except CheckFailed as exc:
        problem = str(exc)
    result = rec["result"]
    return {"cell": cell, "failure": None, "problem": problem,
            "wall_s": rec["wall_s"] * factor, "cpu_s": rec["cpu_s"] * factor,
            "steps": rec["steps"], "caches": rec["caches"],
            "commits": result.commits, "aborts": result.aborts,
            "reads": result.reads, "writes": result.writes,
            "backoff_cycles": result.backoff_cycles,
            "commit_wait_cycles": result.commit_wait_cycles,
            "throughput": result.throughput,
            "mvm_stats": dict(result.mvm_stats),
            "spans": len(result.spans or ())}


def run_pass(probe: Probe, cells: Sequence[Tuple[str, str]], seed: int,
             observed: bool, plain: Dict[Tuple[str, str], dict]) -> dict:
    """Every cell once: the cells' records, failures and failed checks."""
    bracket = hostref.Bracket()
    done = [measure_cell(probe, cell, seed, observed, bracket,
                         plain.get(cell)) for cell in cells]
    records = [r for r in done if r["failure"] is None]
    return {"wall_s": sum(r["wall_s"] for r in records),
            "records": records,
            "failures": [r["failure"] for r in done if r["failure"]],
            "problems": [r["problem"] for r in records if r["problem"]]}


def _median_pass(passes: Sequence[dict]) -> dict:
    """The pass of median host-normalised wall time (the lower middle)."""
    ordered = sorted(passes, key=lambda p: p["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def setup_only(workload: str) -> None:
    """What a run does before its first pass: imports and the cell list."""
    from repro.harness import runner  # noqa: F401
    Probe()
    cells_for(workload)


def run(workload: str, seed: int, seconds: float, traced: bool,
        setup_s: Optional[float] = None) -> dict:
    """Run one simulator workload; returns the result object to print."""
    observed = workload == "sim-observed"
    cells = cells_for(workload)
    random.Random(f"{workload}/{seed}").shuffle(cells)
    spans = None
    if traced:
        from perfbench.trace import SIM_ABSORBING, install_sim
        spans = Spans(SIM_ABSORBING)
        install_sim(spans)
    probe = Probe(spans)
    plain = {}
    if observed:
        # the simulated statistics must not depend on the observers
        plain = {cell: sim_stats(run_cell(probe, cell, SIM_SEED,
                                          False)["result"])
                 for cell in cells}
    passes = []
    for _ in pass_schedule(seconds, 1 if traced else MIN_PASSES):
        if spans is not None:
            spans.reset()
        done = run_pass(probe, cells, SIM_SEED, observed, plain)
        if spans is not None:
            done["spans"] = spans.snapshot()
        passes.append(done)
    timed = passes[1:]
    result = {"attempted": len(cells) * len(passes),
              "failed": sum(len(p["failures"]) for p in passes),
              "failures": [msg for p in passes for msg in p["failures"]],
              "problems": [msg for p in passes for msg in p["problems"]]}
    if traced:
        best = _median_pass(timed)
        result["layers"] = layer_metrics(best)
        result["traced_txn_per_s"] = (
            sum(r["commits"] for r in best["records"]) / best["wall_s"])
        return result
    records = [r for p in timed for r in p["records"]]
    wall = sum(p["wall_s"] for p in timed)
    commits = sum(r["commits"] for r in records)
    by_cell = defaultdict(list)
    for r in records:
        by_cell[r["cell"]].append(r["wall_s"] * 1e3)
    cell_ms = sorted(statistics.median(v) for v in by_cell.values())
    slowest = cell_ms[-math.ceil(len(cell_ms) * TAIL_SHARE):]
    result["metrics"] = {
        "setup_s": setup_s,
        "txn_per_s": commits / wall,
        "steps_per_s": sum(r["steps"] for r in records) / wall,
        "cpu_us_per_txn": sum(r["cpu_s"] for r in records) / commits * 1e6,
        "peak_rss_mb": peak_rss_mb(os.getpid()),
        "latency_p50_ms": statistics.median(cell_ms),
        "latency_tail_ms": statistics.fmean(slowest),
    }
    return result


def layer_metrics(best: dict) -> dict:
    """Per-layer figures of one traced pass."""
    records = best["records"]
    self_s = best["spans"]["self_s"]
    calls = best["spans"]["calls"]
    commits = sum(r["commits"] for r in records)
    attempts = commits + sum(r["aborts"] for r in records)

    def total(key: str) -> int:
        return sum(r[key] for r in records)

    def mvm(key: str) -> int:
        return sum(r["mvm_stats"][key] for r in records)

    return {
        "sim.engine.self_s": self_s.get("sim.engine", 0.0),
        "sim.engine.steps": total("steps"),
        "workloads.setup_s": self_s.get("workloads.setup", 0.0),
        "workloads.body_s": self_s.get("workloads.body", 0.0),
        "tm.read_s": self_s.get("tm.read", 0.0),
        "tm.write_s": self_s.get("tm.write", 0.0),
        "tm.commit_s": self_s.get("tm.commit", 0.0),
        "tm.begin_abort_s": self_s.get("tm.begin_abort", 0.0),
        "tm.reads": total("reads"),
        "tm.writes": total("writes"),
        "tm.commits_per_attempt": commits / attempts,
        "tm.backoff_mcycles": total("backoff_cycles") / 1e6,
        "tm.commit_wait_mcycles": total("commit_wait_cycles") / 1e6,
        "tm.txn_per_mcycle": math.exp(statistics.fmean(
            math.log(r["throughput"]) for r in records)),
        "mem.cache.self_s": self_s.get("mem.cache", 0.0),
        "mem.cache.accesses": sum(sum(r["caches"]["levels"].values())
                                  for r in records),
        "mem.cache.l3_misses": sum(r["caches"]["l3"]["misses"]
                                   for r in records),
        "mvm.self_s": self_s.get("mvm", 0.0),
        "mvm.snapshot_reads": calls.get("mvm.snapshot_reads", 0),
        "mvm.versions_installed": mvm("versions_installed"),
        "mvm.versions_coalesced": mvm("versions_coalesced"),
        "mvm.versions_collected": mvm("versions_collected"),
        "mvm.max_live_versions": max(r["mvm_stats"]["max_live_versions"]
                                     for r in records),
        "obs.hooks_s": self_s.get("obs.hooks", 0.0),
        "obs.fold_s": self_s.get("obs.fold", 0.0),
        "obs.spans": total("spans"),
    }
