"""Tracing overhead: the traced run against the untraced run of the same seed.

    python3 perfbench/overhead.py --workload iso-enum --seeds 1-3

For each seed, runs the workload untraced and then traced, back to back, and
reads both runs' per-command times in reference seconds (probe-scaled, see
README "Timing") from perfbench/out/result-*.json.  A pass's time is the sum
over the pass's commands of each command's median time; the overhead is the
traced pass time over the untraced one, minus 1.  Everything the traced run
adds to a command is in it: the wrappers, the span arrays, the generator
wrapper's work on every ``next()`` and the counters.  Also prints each
per-layer count of the traced runs, which must be the same for every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from spread import HERE, run_once


def pass_seconds(workload: str, seed: int, trace: int) -> float:
    path = os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        times = json.load(fh)["times"]
    return sum(statistics.median(ts) for ts in times.values())


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-3", help="first-last")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    ratios, counts = [], {}
    for seed in range(lo, hi + 1):
        run_once(args.workload, seed, 0)
        traced_res = run_once(args.workload, seed, 1)
        for name, m in traced_res["metrics"].items():
            if m["unit"] == "count":
                counts.setdefault(name, set()).add(m["value"])
        plain, traced = (pass_seconds(args.workload, seed, t) for t in (0, 1))
        ratios.append(traced / plain - 1.0)
        print(f"seed {seed}: pass {plain:.4f} s untraced, {traced:.4f} s traced, "
              f"overhead {ratios[-1]:+.1%}", flush=True)
    print(f"median overhead {statistics.median(ratios):+.1%}")
    for name, seen in counts.items():  # per-pass counts must not depend on the seed
        print(f"{name}: {' '.join(f'{v:g}' for v in sorted(seen))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
