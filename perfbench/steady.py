"""Steadiness command: repeat each workload on the same code and report spread.

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread — the
interquartile distance as a share of the median — against the metric's bound
in ``BENCHMARK.json``.  Run from the repository root::

    python3 perfbench/steady.py --runs 10 --first-seed 1 [--trace 1]

Each run is ``perfbench/run.py`` with seeds first-seed, first-seed + 1, ...
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    if trace:
        # The traced run's end-to-end numbers, for the tracing overhead.
        summary = Path(".perfbench_work/results") / f"{workload}-seed{seed}-trace1.json"
        result["end_to_end"] = json.loads(summary.read_text())["end_to_end"]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, args.first_seed + i, spec["run_seconds"], args.trace)
                for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {args.runs} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed shares {sorted(shares)}, wall {max(r['wall_s'] for r in runs):.1f}s max")
        if args.trace:
            names = sorted(runs[0]["metrics"])
            values = {n: [r["metrics"][n]["value"] for r in runs] for n in names}
            e2e = {n: [r["end_to_end"][n] for r in runs] for n in bounds}
        else:
            names = list(bounds)
            values = {n: [r["metrics"][n]["value"] for r in runs] for n in names}
            e2e = values
        for name in names:
            median, q1, q3, share = spread(values[name]) if values[name][0] else (0, 0, 0, 0)
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if share <= bound / 3 else
                                             "WIDE" if share > bound else "near")
            print(f"  {name:24s} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {share:6.3f}" + (f"  bound {bound:.3f} {flag}" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
