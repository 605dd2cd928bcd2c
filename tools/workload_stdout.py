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


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="Fingerprint the workload commands' outputs.")
    p.add_argument("checkout", nargs="?", default=os.path.join(os.path.dirname(__file__), ".."))
    p.add_argument("--stdout-dir", help="also write each command's stdout under this directory")
    args = p.parse_args(argv)
    root = os.path.abspath(args.checkout)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from graphcalc import cli
    import workloads

    if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src") + os.sep):
        sys.stderr.write(f"error: imported graphcalc from {cli.__file__}\n")
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        for name, build in workloads.BUILDERS.items():
            for seed in SEEDS:
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
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            rc = cli.main(cmd.argv(os.path.join(docdir, cmd.doc + ".json")))
                        except Exception:  # a traceback is an output too
                            rc = -1
                            traceback.print_exc()
                    if args.stdout_dir:
                        outdir = os.path.join(args.stdout_dir, f"{name}-{seed}")
                        os.makedirs(outdir, exist_ok=True)
                        with open(os.path.join(outdir, cmd.key.replace(os.sep, "_") + ".out"),
                                  "w") as fh:
                            fh.write(out.getvalue())
                    print(f"{name} {seed} {cmd.key}\t{rc}\t{_sha(out.getvalue())}\t"
                          f"{_sha(err.getvalue())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
