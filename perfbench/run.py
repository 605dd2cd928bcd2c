"""Run one workload of the graphcalc benchmark and print its metrics.

    python3 perfbench/run.py --workload iso-enum --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; graphcalc is imported from ./src.
One client in this process calls ``graphcalc.cli.main`` in a closed loop,
capturing and parsing stdout, and sends the next command only when the
previous one has returned.  Each command loads its graph document fresh, as a
CLI process would.  The loop runs whole passes of the workload's command mix
until ``--seconds`` have elapsed.  Every output is then checked, outside the
timed region, against the reference computations in ``reference.py``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``.
A fuller record (per-command times, environment) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
# One BLAS thread (at most nproc): the client is a single Python thread, and
# on a 2-core machine a second BLAS thread shares a core with the machine's
# other load, which widened the run-to-run spread of the eigensolves.
BLAS_THREADS = 1

# The machine's speed swings by up to 2x, in episodes of seconds to minutes,
# from load outside this process.  Every timing is therefore scaled by
# PROBE_REF_S / (time of SpeedProbe's fixed work measured around it), which
# reports it in seconds at the speed at which the probe takes PROBE_REF_S,
# about the reference machine's median speed (see README, "Timing").
PROBE_REF_S = 1.5e-3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["iso-enum", "verify-trials", "spectral-heat"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


class Client:
    """Calls graphcalc.cli.main in-process with stdout and stderr captured."""

    def __init__(self, cli, docdir: str):
        self.cli = cli
        self.docdir = docdir

    def call(self, cmd) -> tuple[int, float, str, str]:
        argv = cmd.argv(os.path.join(self.docdir, cmd.doc + ".json"))
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # start each command without garbage, as a fresh process would
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a traceback is a failed operation, not a crash
                rc = -1
                traceback.print_exc()
            dt = time.perf_counter() - t0
        return rc, dt, out.getvalue(), err.getvalue()


class SpeedProbe:
    """Times a fixed mix of interpreted loops, small numpy operations and
    small matrix products, which tracks how fast the machine runs now."""

    def __init__(self, np):
        self.np = np
        self.x = np.arange(256.0)
        self.m = np.full((96, 96), 1e-3) + np.eye(96)
        self.last = self.measure()

    def measure(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        s = 0
        for k in range(12000):
            s += k * k
        x = self.x
        for _ in range(150):
            x = np.sqrt(x * 1.0000001 + 1.0)
        y = self.m
        for _ in range(6):
            y = y @ self.m
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor from seconds since the previous call to reference seconds."""
        now = self.measure()
        factor = 2.0 * PROBE_REF_S / (self.last + now)
        self.last = now
        return factor


def setup_once(gc_mod, workloads, name: str, seed: int, docdir: str, client):
    """Write and load the workload's documents and warm up each command kind.

    Returns the seconds taken and the warm-up outputs by command key.
    """
    t0 = time.perf_counter()
    w = workloads.BUILDERS[name](seed)
    os.makedirs(docdir, exist_ok=True)
    for doc_name, doc in w.docs.items():
        with open(os.path.join(docdir, doc_name + ".json"), "w") as fh:
            json.dump(doc, fh)
    for doc_name in w.docs:
        with open(os.path.join(docdir, doc_name + ".json")) as fh:
            gc_mod.WeightedGraph.from_dict(json.load(fh))
    outputs = {}
    for cmd in w.warmup():
        rc, _, out, _ = client.call(cmd)
        outputs[cmd.key] = (rc, out)
    return time.perf_counter() - t0, outputs


def check_all(w, first: dict, unstable: set, graphcalc, seed: int) -> tuple[bool, list]:
    """Check every command's output and spot-check the verify graphs.

    Returns whether all went as expected, and the keys of the commands whose
    output is wrong.  Only outputs that match the known closed-graph fault of
    Ĩ_ν exactly, on the documents built to show it, may be wrong while
    ``correct`` stays true.
    """
    import numpy as np
    import reference
    import workloads

    graphs = {name: reference.DocGraph(doc) for name, doc in w.docs.items()}
    correct, bad = True, []
    for cmd in w.commands:
        rc, out = first[cmd.key]
        g, argv = graphs[cmd.doc], cmd.argv(cmd.doc)
        errs = reference.check_output(g, cmd.kind, argv, rc, out)
        if cmd.key in unstable:
            errs.append("stdout differs between repeats of the command")
        if errs:
            bad.append(cmd.key)
            expected = (cmd.doc in workloads.FAULT_DOCS and cmd.key not in unstable
                        and reference.is_known_fault(g, cmd.kind, argv, rc, out))
            correct &= expected
            sys.stderr.write(f"{'known fault' if expected else 'FAILED'}: {cmd.key}: "
                             f"{'; '.join(errs)}\n")
    rng = np.random.default_rng([seed, 7])
    for name in sorted({c.doc for c in w.commands if c.kind == "verify"}):
        errs = reference.spot_check(w.docs[name], graphcalc, rng)
        if errs:
            correct = False
            sys.stderr.write(f"spot check on {name}: {'; '.join(errs)}\n")
    return correct, bad


def end_to_end(w, per_cmd: dict) -> dict:
    """Throughput and per-kind medians from each command's median time."""
    typical = {key: statistics.median(ts) for key, ts in per_cmd.items()}
    verify = [c for c in w.commands if c.kind == "verify"]
    values = {
        "ops_per_s": len(w.commands) / sum(typical[c.key] for c in w.commands),
        "verify_trials_per_s": (sum(c.trials for c in verify)
                                / sum(typical[c.key] for c in verify)),
    }
    for kind in ("iso", "bounds", "flow", "spectrum", "heat"):
        values[f"{kind}_p50_s"] = statistics.median(
            typical[c.key] for c in w.commands if c.kind == kind)
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "graphcalc", "cli.py")):
        sys.stderr.write(f"error: no graphcalc sources under {src}\n")
        return 2
    threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)

    # numpy, scipy and the modules here that use them are imported only now:
    # after the BLAS variables are set, and after graphcalc's timed import
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import graphcalc
    from graphcalc import cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(graphcalc.__file__).startswith(src + os.sep):
        sys.stderr.write(f"error: imported graphcalc from {graphcalc.__file__}\n")
        return 2
    import numpy as np
    import scipy

    probe = SpeedProbe(np)
    import_s *= PROBE_REF_S / probe.last
    import tracing
    import workloads

    docdir = os.path.join(OUT, "docs", f"{args.workload}-seed{args.seed}")
    client = Client(cli, docdir)
    setups = []
    for _ in range(SETUP_REPEATS):
        probe.scale()
        seconds, first = setup_once(graphcalc, workloads, args.workload, args.seed,
                                    docdir, client)
        setups.append(seconds * probe.scale())
    setup_s = import_s + statistics.median(setups)
    w = workloads.BUILDERS[args.workload](args.seed)
    gc.collect()
    gc.freeze()  # keeps the collection before each command short

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.recording = True

    # first: command key -> (rc, stdout) of its first run, warm-up included
    unstable: set = set()
    per_cmd = {c.key: [] for c in w.commands}  # seconds at reference speed
    raw = {c.key: [] for c in w.commands}  # wall seconds
    probes = [probe.last]
    passes = 0
    start = time.perf_counter()
    probe.scale()
    while True:
        for cmd in w.commands:
            rc, dt, out, err = client.call(cmd)
            raw[cmd.key].append(dt)
            per_cmd[cmd.key].append(dt * probe.scale())
            probes.append(probe.last)
            if first.setdefault(cmd.key, (rc, out)) != (rc, out):
                unstable.add(cmd.key)
            if rc not in (0, 1, 2):
                sys.stderr.write(f"{cmd.key}: exit {rc}\n{err}")
        passes += 1
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.recording = False

    correct, bad = check_all(w, first, unstable, graphcalc, args.seed)
    failed = passes * len(bad)
    attempted = passes * len(w.commands)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if tracer else "end_to_end"]
    if tracer is None:
        values = end_to_end(w, per_cmd)
        values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    else:
        values = tracer.layer_metrics(passes, wall, [m["name"] for m in listed])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(os.path.join(OUT, f"trace-{args.workload}.npz"))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "passes": passes, "wall_s": wall, "commands_per_pass": len(w.commands),
        "import_s": import_s, "setup_repeats_s": setups, "failed_commands": bad,
        "times": per_cmd, "wall_times": raw, "probes": probes,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "blas_threads": threads,
                "cpus": len(os.sched_getaffinity(0))},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
