"""Run one workload over several seeds and print each metric's quartiles.

    python3 perfbench/spread.py --workload iso-enum --seeds 1-10 [--trace 1]

For each metric: the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, i.e. the distance between the quartiles as a share of the
median.  Also prints the failed share of each run.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_seconds() -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One run of run.py; returns its result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(run_seconds()), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values: dict = {}
    for seed in range(lo, hi + 1):
        res = run_once(args.workload, seed, args.trace)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} share={res['failed'] / res['attempted']:.6f}",
              flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:48s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
