"""Fingerprint and time the benchmark workload commands of two checkouts in one process.

    python3 tools/ab.py PARENT [CHANGE] [--seeds 1 2 3] [--repeat 5] [--kinds iso bounds]

Loads ``src/graphcalc`` of both checkouts side by side, under the module
names ``graphcalc_parent`` and ``graphcalc_change``, with one BLAS thread as
in ``perfbench/run.py``.  CHANGE (by default the checkout that holds this
script) supplies ``perfbench/workloads.py``; the documents are written to a
temporary directory.  With ``--kinds`` only the commands of those kinds
(``workloads.KINDS``: iso, bounds, flow, verify, spectrum, heat, info) run;
by default all do.

Each distinct command first runs once on each side, and one ``print`` line
fingerprints it on the CHANGE side: the workload, the seed and the command
key, then the exit code and the sha256 of stdout and of stderr,
tab-separated.  ``python3 tools/ab.py X X --repeat 1 | grep ^print``
fingerprints checkout X alone; ``diff`` the lines of two such runs to compare
two checkouts run in two processes, or one checkout under two
``PYTHONHASHSEED`` values, so that no printed byte follows the per-process
salt of ``str`` hashes (the order of a set of strings).

The commands whose exit code or stdout differ between the sides are listed
next, each with what moved.  Where both stdouts parse as JSON objects with
the same keys, a ``moved`` line gives each numeric leaf path that moved
(``.grid[].max_mass``: ``[]`` stands for every list element) with its
largest relative change, measured against the largest magnitude of its list
for a number in a list of numbers (so an eigenvalue moves relative to
lambda_max) and against its own magnitude otherwise.  A ``changed`` line
names each bool, string, null, infinity, list length or key set that moved,
an exit code that moved, or a stdout that is not such a JSON object.  One
``field`` line per leaf path then gives the number of commands in which it
moved and its largest relative change over all of them.

Then each command runs ``--repeat`` more times on each side, alternating
which side goes first, through ``cli.main`` as the CLI does, so each call
loads its document afresh.  One line per command gives the parent's and the
change's median in ms, their ratio change/parent and the pairs the change ran
faster; one line per workload and seed gives the same for the sum over its
commands.  A shared machine's speed drifts between runs, and paired calls
cancel the drift.

Exits 1 if any command's exit code or stdout differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import statistics
import sys
import tempfile
import time
import traceback

SEEDS = (1, 2, 3)
SIDES = ("parent", "change")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def one_blas_thread() -> None:
    """One BLAS thread, as in ``perfbench/run.py``; set before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def workload_commands(workloads, seeds, tmp: str):
    """(workload, seed, command, document path) of each distinct command of
    every workload of the ``workloads`` module at ``seeds``, in order; each
    workload's documents are written under ``tmp`` before its commands."""
    for name, build in workloads.BUILDERS.items():
        for seed in seeds:
            w = build(seed)
            docdir = os.path.join(tmp, f"{name}-{seed}")
            os.mkdir(docdir)
            for doc_name, doc in w.docs.items():
                with open(os.path.join(docdir, doc_name + ".json"), "w") as fh:
                    json.dump(doc, fh)
            seen = set()
            for cmd in w.commands:
                if cmd.key in seen:
                    continue
                seen.add(cmd.key)
                yield name, seed, cmd, os.path.join(docdir, cmd.doc + ".json")


def run_command(cli, argv: list) -> tuple:
    """(exit code, stdout, stderr) of ``cli.main(argv)`` run in this process;
    a traceback is an output too, with exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:
            rc = -1
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


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


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _walk(a, b, path: str, moved: dict, changed: list, scale: float = 0.0) -> None:
    """Compare two parsed JSON values in step: the largest relative change of
    the numbers at each leaf path goes into ``moved``, every other difference
    into ``changed``."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            _walk(a[key], b[key], f"{path}.{key}", moved, changed)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        scale = max((abs(x) for x in a + b if _is_number(x)), default=0.0)
        for x, y in zip(a, b):
            _walk(x, y, path + "[]", moved, changed, scale)
    elif _is_number(a) and _is_number(b):
        if a != b:
            moved[path] = max(moved.get(path, 0.0), abs(a - b) / max(scale, abs(a), abs(b)))
    elif a != b:
        changed.append(f"{path or '.'}\t{json.dumps(a)[:40]} -> {json.dumps(b)[:40]}")


def _field_lines(label: str, outs: list, fields: dict) -> list[str]:
    """The ``moved`` and ``changed`` lines of one differing command; its moved
    paths also update ``fields``, path -> [commands, largest change]."""
    (code_p, out_p), (code_c, out_c) = outs
    moved, changed = {}, []
    if code_p != code_c:
        changed.append(f"exit code\t{code_p} -> {code_c}")
    try:
        docs = json.loads(out_p), json.loads(out_c)
    except ValueError:
        docs = None
    if docs and all(isinstance(d, dict) for d in docs) and docs[0].keys() == docs[1].keys():
        _walk(*docs, "", moved, changed)
    elif out_p != out_c:
        changed.append("stdout\tnot two JSON objects with the same keys")
    for path, rel in moved.items():
        field = fields.setdefault(path, [0, 0.0])
        field[0], field[1] = field[0] + 1, max(field[1], rel)
    return ([f"moved\t{label}\t{path}\t{rel:.2e}" for path, rel in moved.items()]
            + [f"changed\t{label}\t{line}" for line in changed])


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
        differ, fields = [], {}
        for name, seed, cmd, path in commands:
            label = f"{name} {seed} {cmd.key}"
            outs = [run_command(clis[s], cmd.argv(path)) for s in SIDES]
            rc, out, err = outs[1]
            print(f"print\t{label}\t{rc}\t{_sha(out)}\t{_sha(err)}", flush=True)
            if outs[0][:2] != (rc, out):
                differ.append([f"differs\t{label}"]
                              + _field_lines(label, [o[:2] for o in outs], fields))
        print(f"# {len(differ)} of {len(commands)} commands differ in exit code or stdout")
        for lines in differ:
            print("\n".join(lines))
        for path, (count, rel) in sorted(fields.items()):
            print(f"field\t{path}\t{count} commands\t{rel:.2e}")
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
