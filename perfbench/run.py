"""Benchmark entry point.

One run::

    python3 perfbench/run.py --workload sim-fig7 --seed 1 --seconds 20 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Metrics come from ``BENCHMARK.json`` beside this
directory; a workload reports 0 for a layer it does not use.

Repeat mode runs one workload N times, seeds ``seed .. seed+N-1``, each
in a fresh process, and prints each metric's median and quartiles::

    python3 perfbench/run.py --workload store-read --repeat 10 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# import the benchmark as a package, not its modules as top-level names
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))

WORKLOADS = ("sim-fig7", "sim-observed", "store-read", "store-transfer")
#: fresh interpreters timed per sim run; ``setup_s`` is their median
SIM_SETUPS = 5


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sim_setup_s(workload: str) -> float:
    """Median time for a fresh interpreter to get ready for a first pass.

    Host-normalised, like every host time the benchmark reports.
    """
    from perfbench import hostref
    times = []
    bracket = hostref.Bracket()
    for _ in range(SIM_SETUPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--workload", workload, "--setup-only"],
                       cwd=ROOT, check=True)
        times.append((time.perf_counter() - start) * bracket.factor())
    return statistics.median(times)


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload.startswith("sim-"):
        from perfbench import sim
        setup = None if trace else sim_setup_s(workload)
        return sim.run(workload, seed, seconds, trace, setup)
    from perfbench import store
    return store.run(workload, seed, seconds, trace)


def emit(outcome: dict, trace: bool) -> None:
    section = spec()["per_layer" if trace else "end_to_end"]
    values = outcome["layers" if trace else "metrics"]
    for line in outcome.get("failures", []):
        print(f"failed operation: {line}", file=sys.stderr)
    for line in outcome["problems"]:
        print(f"check failed: {line}", file=sys.stderr)
    if trace:
        print(f"traced txn_per_s: {outcome['traced_txn_per_s']:.6g}")
    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]} for m in section},
    }))


def repeat(args: argparse.Namespace) -> int:
    """Run the workload ``args.repeat`` times and summarise the spreads."""
    runs = []
    for i in range(args.repeat):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed + i),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        runs.append(json.loads(out.strip().splitlines()[-1]))
        print(f"run {i + 1}/{args.repeat} seed {args.seed + i}: "
              f"{json.dumps(runs[-1]['metrics'])}", file=sys.stderr)
    summary = {"workload": args.workload, "runs": len(runs),
               "correct": all(r["correct"] for r in runs),
               "failed_share": sorted({r["failed"] / r["attempted"]
                                       for r in runs}),
               "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values}
        print(f"{name:32s} median {med:12.6g}  q1 {q1:12.6g}  "
              f"q3 {q3:12.6g}  spread {summary['metrics'][name]['spread']:.3f}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times in fresh processes and print "
                             "median and quartiles per metric")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        from perfbench import sim
        sim.setup_only(args.workload)
        return 0
    if args.repeat:
        return repeat(args)
    outcome = run_once(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    emit(outcome, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
