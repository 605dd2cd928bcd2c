"""Time the benchmark workload commands on two checkouts, paired in one process.

    python3 tools/ab.py PARENT [CHANGE] [--seeds 1 2 3] [--repeat 5] [--kinds iso bounds]

Loads ``src/graphcalc`` of both checkouts side by side, under the module
names ``graphcalc_parent`` and ``graphcalc_change``, with one BLAS thread as
in ``perfbench/run.py``.  CHANGE (by default the checkout that holds this
script) supplies ``perfbench/workloads.py``; the documents are written to a
temporary directory as ``tools/workload_stdout.py`` writes them.  With
``--kinds`` only the commands of those kinds (``workloads.KINDS``: iso,
bounds, flow, verify, spectrum, heat, info) are paired; by default all are.

Each distinct command first runs once on each side, and the commands whose
exit code or stdout differ are listed.  Then each command runs ``--repeat``
more times on each side, alternating which side goes first, through
``cli.main`` as the CLI does, so each call loads its document afresh.  One
line per command gives the parent's and the change's median in ms, their
ratio change/parent and the pairs the change ran faster; one line per
workload and seed gives the same for the sum over its commands.  A shared
machine's speed drifts between runs, and paired calls cancel the drift.

Exits 1 if any command's exit code or stdout differs, else 0.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time

from workload_stdout import SEEDS, one_blas_thread, run_command, workload_commands

SIDES = ("parent", "change")


def load_cli(root: str, name: str):
    """The ``cli`` module of ``root``'s ``src/graphcalc``, loaded as package ``name``."""
    pkg = os.path.join(root, "src", "graphcalc")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the package's relative imports look it up here
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".cli")


def _line(label: str, times: dict) -> str:
    """Medians in ms, their ratio change/parent and the change's pair wins."""
    parent, change = (statistics.median(times[s]) for s in SIDES)
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    ratio = change / parent if parent else float("nan")
    return (f"{label}\t{1e3 * parent:.3f}\t{1e3 * change:.3f}\t{ratio:.3f}\t"
            f"{wins}/{len(times['change'])}")


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="Pair the workload commands of two checkouts.")
    p.add_argument("parent")
    p.add_argument("change", nargs="?", default=os.path.join(os.path.dirname(__file__), ".."))
    p.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    p.add_argument("--repeat", type=int, default=5, help="timed pairs per command")
    p.add_argument("--kinds", nargs="+", help="pair only the commands of these kinds")
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be at least 1")
    roots = [os.path.abspath(r) for r in (args.parent, args.change)]
    one_blas_thread()
    clis = {side: load_cli(root, f"graphcalc_{side}") for side, root in zip(SIDES, roots)}
    sys.path.insert(0, os.path.join(roots[1], "perfbench"))
    import workloads

    if unknown := set(args.kinds or ()) - set(workloads.KINDS):
        p.error(f"unknown kinds {sorted(unknown)}; choose from {', '.join(workloads.KINDS)}")
    kinds = set(args.kinds or workloads.KINDS)
    with tempfile.TemporaryDirectory() as tmp:
        commands = [c for c in workload_commands(workloads, args.seeds, tmp) if c[2].kind in kinds]
        differ = []
        for name, seed, cmd, path in commands:
            outs = [run_command(clis[s], cmd.argv(path))[:2] for s in SIDES]
            if outs[0] != outs[1]:
                differ.append(f"{name} {seed} {cmd.key}")
        print(f"# {len(differ)} of {len(commands)} commands differ in exit code or stdout")
        for label in differ:
            print(f"differs\t{label}")
        print("# command\tparent ms\tchange ms\tchange/parent\tchange faster")
        totals = {}
        for i, (name, seed, cmd, path) in enumerate(commands):
            times = {s: [] for s in SIDES}
            for r in range(args.repeat):
                # the order of a pair's calls can bias their times, so it
                # alternates from pair to pair and, with one pair, by command
                for side in SIDES[::1 - 2 * ((i + r) % 2)]:
                    start = time.perf_counter()
                    run_command(clis[side], cmd.argv(path))
                    times[side].append(time.perf_counter() - start)
            print(_line(f"{name} {seed} {cmd.key}", times), flush=True)
            total = totals.setdefault((name, seed), {s: [0.0] * args.repeat for s in SIDES})
            for side in SIDES:
                total[side] = [a + b for a, b in zip(total[side], times[side])]
        for (name, seed), times in totals.items():
            print(_line(f"total {name} {seed}", times))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
