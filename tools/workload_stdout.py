"""Fingerprint what every benchmark workload command prints.

    python3 tools/workload_stdout.py [--stdout-dir DIR] [CHECKOUT] > prints.txt

Prints one line per distinct command of the perfbench workloads at seeds 1-3:
the workload, the seed and the command key, then the exit code and the
sha256 of stdout and of stderr, tab-separated.  CHECKOUT (by default the
checkout that holds this script) supplies both ``src/graphcalc`` and
``perfbench/workloads.py``.  The documents are written to a temporary
directory, and each command runs in this process through
``graphcalc.cli.main``, with one BLAS thread as in ``perfbench/run.py``.

To see whether a change moves any printed byte or exit code, run it on a
checkout of the parent commit and on the change, and ``diff`` the outputs.
With ``--stdout-dir DIR`` each command's stdout is also written to
``DIR/<workload>-<seed>/<command key>.out``, so that ``diff -r`` between the
directories of two checkouts shows which fields moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback

SEEDS = (1, 2, 3)


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


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="Fingerprint the workload commands' outputs.")
    p.add_argument("checkout", nargs="?", default=os.path.join(os.path.dirname(__file__), ".."))
    p.add_argument("--stdout-dir", help="also write each command's stdout under this directory")
    args = p.parse_args(argv)
    root = os.path.abspath(args.checkout)
    one_blas_thread()
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from graphcalc import cli
    import workloads

    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src") + os.sep):
        sys.stderr.write(f"error: imported graphcalc from {cli.__file__}\n")
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        for name, seed, cmd, path in workload_commands(workloads, SEEDS, tmp):
            rc, out, err = run_command(cli, cmd.argv(path))
            if args.stdout_dir:
                outdir = os.path.join(args.stdout_dir, f"{name}-{seed}")
                os.makedirs(outdir, exist_ok=True)
                with open(os.path.join(outdir, cmd.key.replace(os.sep, "_") + ".out"), "w") as fh:
                    fh.write(out)
            print(f"{name} {seed} {cmd.key}\t{rc}\t{_sha(out)}\t{_sha(err)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
