"""Batch command-line interface.

Subcommands: info, spectrum, iso, bounds, heat, verify, gen, flow.  Exit
codes: 0 success, 1 a verification or soundness check failed (diagnostics
still go to stdout as JSON), 2 input/usage error.  Output is byte-stable:
dict keys are emitted in construction order and floats with 17 significant
digits, so identical inputs and seeds reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .graph import GraphError, WeightedGraph, half_degrees, is_connected, L_stats
from .operators import default_mode, eigenvalues
from .isoperimetry import (_finite_constant, _finite_magnification, default_variant,
                           iso_constant, magnification)
from .bounds import alon_field, alon_field_checks, bound_report
from .heat import default_t_grid, heat_grid, heat_kernel
from .verify import run_suite
from . import generators

SCHEMA = "graphcalc/1"


# -- deterministic serialization --------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def _render(obj) -> str:
    """JSON text with %.17g floats and dict insertion order preserved."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_render(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist())
    if isinstance(obj, frozenset):
        return _render(sorted(obj, key=str))
    return json.dumps(str(obj))


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    s = str(v)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _emit(report: dict, rows, out_format: str) -> None:
    if out_format == "csv":
        buf = io.StringIO()
        rows = list(rows or [])
        if not rows:
            rows = [{"key": k, "value": v} for k, v in report.items()
                    if not isinstance(v, (dict, list))]
        header = list(rows[0].keys())
        buf.write(",".join(header) + "\n")
        for r in rows:
            buf.write(",".join(_csv_cell(r.get(h, "")) for h in header) + "\n")
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write(_render(report) + "\n")


# -- input loading -----------------------------------------------------------


def _load_graph(path: str) -> tuple[WeightedGraph, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise GraphError(f"{path} is not valid JSON: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        g = WeightedGraph.from_dict(data)
        sums = {"total vertex measure": g.total_measure(),
                "total edge measure": float(g.emeasure.sum()),
                "rho_sup": half_degrees(g).rho_sup,
                "L_sup": L_stats(g).sup}
    for name, value in sums.items():
        if not math.isfinite(value):
            raise GraphError(f"{path}: {name} overflows the float range")
    return g, digest


def _head(command: str, digest: str | None = None) -> dict:
    head = {"schema": SCHEMA, "command": command}
    if digest is not None:
        head["input_sha256"] = digest
    return head


# -- subcommands --------------------------------------------------------------


def _cmd_info(args) -> int:
    g, digest = _load_graph(args.graph)
    hd = half_degrees(g)
    report = _head("info", digest)
    report.update(
        {
            "vertices": g.n,
            "edges": g.m,
            "boundary_vertices": len(g.boundary),
            "closed": g.is_closed,
            "connected": is_connected(g),
            "total_vertex_measure": g.total_measure(),
            "total_edge_measure": float(g.emeasure.sum()),
            "rho_sup": hd.rho_sup,
            "rho_inf": hd.rho_inf,
            "regular": hd.regularity,
            "L_sup": L_stats(g).sup,
        }
    )
    _emit(report, None, args.out)
    return 0


def _cmd_spectrum(args) -> int:
    if args.k is not None and args.k < 1:
        raise GraphError(f"-k must be at least 1, got {args.k}")
    g, digest = _load_graph(args.graph)
    lams = eigenvalues(g, args.k)
    report = _head("spectrum", digest)
    report.update({"mode": default_mode(g), "k": len(lams), "eigenvalues": list(lams)})
    rows = [{"index": i, "eigenvalue": float(x)} for i, x in enumerate(lams)]
    _emit(report, rows, args.out)
    return 0


def _cmd_iso(args) -> int:
    g, digest = _load_graph(args.graph)
    variant = args.variant or default_variant(g)
    rep = iso_constant(g, args.nu, variant)
    report = _head("iso", digest)
    report.update(
        {
            "nu": args.nu,
            "variant": rep.variant,
            "value": _finite_constant(rep),
            "witness": sorted(map(str, rep.witness.vertices)),
        }
    )
    if args.magnification:
        c, wit = magnification(g)
        report["magnification"] = _finite_magnification(c)
        report["magnification_witness"] = sorted(map(str, wit))
    _emit(report, None, args.out)
    return 0


def _cmd_bounds(args) -> int:
    g, digest = _load_graph(args.graph)
    rep = bound_report(g)
    report = _head("bounds", digest)
    report.update({"mode": rep.mode, "lambda": rep.lam, "sound": rep.sound})
    rows = []
    for b in rep.bounds:
        report[b.name] = {"value": b.value, "applicable": b.applicable}
        rows.append(
            {"bound": b.name, "value": b.value, "applicable": b.applicable,
             "lambda": rep.lam}
        )
    _emit(report, rows, args.out)
    return 0 if rep.sound else 1


def _cmd_heat(args) -> int:
    for t in args.t or ():
        if not (0.0 <= t < math.inf):
            raise GraphError(f"--t must be finite and nonnegative, got {t!r}")
    g, digest = _load_graph(args.graph)
    rows, ok = heat_grid(heat_kernel(g), args.t or default_t_grid())
    report = _head("heat", digest)
    report.update({"mode": default_mode(g), "passed": ok, "grid": rows})
    _emit(report, rows, args.out)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    g, digest = _load_graph(args.graph)
    summary = run_suite(g, args.suite, trials=args.trials, seed=args.seed)
    report = _head("verify", digest)
    report.update(summary)
    _emit(report, None, args.out)
    return 0 if summary.get("failures", 0) == 0 else 1


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "path":
        g = generators.path(args.n, boundary=[args.n] if args.dirichlet else ())
    elif kind == "cycle":
        g = generators.cycle(args.n)
    elif kind == "complete":
        g = generators.complete(args.n)
    elif kind == "hypercube":
        g = generators.hypercube(args.n)
    elif kind == "radial":
        g = generators.radial_graph(args.n, args.nu)
    elif kind == "doubled-radial":
        g = generators.doubled_radial(args.n, args.nu).graph
    elif kind == "classical-radial":
        g = generators.classical_radial(args.n, args.nu, m=args.m).classical
    elif kind == "random":
        g = generators.random_graph(args.n, np.random.default_rng(args.seed))
    else:  # pragma: no cover - argparse restricts the choices
        raise GraphError(f"unknown generator {kind!r}")
    doc = _render(g.to_dict()) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(doc)
        report = _head("gen")
        report.update({"kind": kind, "vertices": g.n, "edges": g.m,
                       "written": args.output})
        _emit(report, None, args.out)
    else:
        sys.stdout.write(doc)
    return 0


def _cmd_flow(args) -> int:
    g, digest = _load_graph(args.graph)
    by_name = {str(v): v for v in g.vertices}  # a bijection: ids are distinct as strings
    A = []
    for s in filter(None, args.set.split(",")):
        if s not in by_name:
            raise GraphError(f"unknown vertex {s!r}")
        A.append(by_name[s])
    af = alon_field(g, A, c=args.c)
    checks = alon_field_checks(g, af)
    flags = {k: v for k, v in sorted(checks.items()) if isinstance(v, bool)}
    ok = all(flags.values())
    report = _head("flow", digest)
    report.update(
        {
            "A": sorted(map(str, af.A)),
            "c": float(af.c),
            "passed": ok,
            "checks": flags,
            "rho_sq": float(checks["rho_sq"]),
            "rho_sq_cap": float(checks["rho_sq_cap"]),
            "field": [float(x) for x in af.field.values],
        }
    )
    rows = [
        {"edge": k, "u": str(u), "v": str(v), "X": x}
        for k, (u, v, x) in enumerate(zip(*g.endpoint_ids(), af.field.values.tolist()))
    ]
    _emit(report, rows, args.out)
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------


def _fraction(text: str) -> Fraction:
    """An exact rational argument; 1/0 is a usage error like any non-number."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one ``error:`` line, like every other refusal;
    the subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="graphcalc", description="calculus on weighted graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, graph=True):
        if graph:
            p.add_argument("graph", help="graph JSON file")
        p.add_argument("--out", choices=["json", "csv"], default="json")

    p = sub.add_parser("info", help="measures, degrees, connectivity")
    common(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("spectrum", help="Laplacian eigenvalues")
    common(p)
    p.add_argument("-k", type=int, default=None, help="number of eigenvalues")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("iso", help="isoperimetric constants by enumeration")
    common(p)
    p.add_argument("--nu", type=float, default=math.inf)
    p.add_argument(
        "--variant", choices=["open", "tilde", "tilde_prime"], default=None
    )
    p.add_argument("--magnification", action="store_true")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("bounds", help="Cheeger-type eigenvalue bounds")
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("heat", help="heat kernel diagnostics over a t-grid")
    common(p)
    p.add_argument("--t", type=float, nargs="*", default=None)
    p.set_defaults(func=_cmd_heat)

    p = sub.add_parser("verify", help="randomized identity/inequality suites")
    common(p)
    p.add_argument("--suite", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="write a generated graph as JSON")
    p.add_argument(
        "kind",
        choices=[
            "path", "cycle", "complete", "hypercube", "radial",
            "doubled-radial", "classical-radial", "random",
        ],
    )
    p.add_argument("n", type=int)
    p.add_argument("--nu", type=float, default=2.0)
    p.add_argument("-m", type=int, default=1, help="classical-radial multiplier")
    p.add_argument("--dirichlet", action="store_true", help="paths: mark the far end")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("flow", help="exact magnification flow certificate")
    common(p)
    p.add_argument("--set", required=True, help="comma-separated interior vertex ids")
    p.add_argument("-c", type=_fraction, default=None, help="exact target magnification, e.g. 1/3")
    p.set_defaults(func=_cmd_flow)

    return ap


_PARSER = _build_parser()  # argparse makes its help formatter when it prints


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help, keep both
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
