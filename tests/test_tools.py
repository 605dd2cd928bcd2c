import ast
import json
import os
import pathlib
import sys
import types

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import ab  # noqa: E402
from graphcalc import cli  # noqa: E402


def test_ab_reports_the_fields_that_moved():
    parent = ('{"lambda": 2.0, "eigenvalues": [0.0, 1.0, 4.0], "sound": true, '
              '"grid": [{"t": 1, "max_mass": 1.0}, {"t": 4, "max_mass": 1.0}]}')
    change = ('{"lambda": 2.0000000000000004, "eigenvalues": [1e-16, 1.0, 4.0], "sound": false, '
              '"grid": [{"t": 1, "max_mass": 1.0000000000000002}, {"t": 4, "max_mass": 1.0}]}')
    fields = {}
    lines = ab._field_lines("cmd", [(0, parent), (1, change)], fields)
    assert lines == [
        "moved\tcmd\t.lambda\t2.22e-16",
        "moved\tcmd\t.eigenvalues[]\t2.50e-17",  # against the list's largest, 4.0
        "moved\tcmd\t.grid[].max_mass\t2.22e-16",
        "changed\tcmd\texit code\t0 -> 1",
        "changed\tcmd\t.sound\ttrue -> false",
    ]
    ab._field_lines("cmd2", [(0, parent), (0, change.replace("1e-16", "0.0"))], fields)
    assert fields[".lambda"][0] == 2 and fields[".eigenvalues[]"][0] == 1
    # a stdout that is not JSON, or JSON with other keys, is named as a whole
    for other in ("error", '{"lambda": 2.0}'):
        assert ab._field_lines("c", [(0, parent), (0, other)], {}) == [
            "changed\tc\tstdout\tnot two JSON objects with the same keys"]


def test_run_command_reports_a_traceback_as_exit_code_minus_one():
    def main(argv):
        raise ZeroDivisionError("boom")

    rc, out, err = ab.run_command(types.SimpleNamespace(main=main), [])
    assert (rc, out) == (-1, "")
    assert err.startswith("Traceback") and err.endswith("ZeroDivisionError: boom\n")


def test_run_command_reports_a_graph_error_as_one_error_line(tmp_path):
    doc = tmp_path / "g.json"
    doc.write_text(json.dumps({"vertices": [{"id": 1, "measure": 1}],
                               "edges": [{"u": 1, "v": 2, "a": 1, "length": 1}]}))
    rc, out, err = ab.run_command(cli, ["info", str(doc)])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_print_lines_have_five_fields(monkeypatch, capsys):
    # ab.main sets the BLAS thread count and puts perfbench on the path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    root = os.path.join(os.path.dirname(__file__), "..")
    assert ab.main([root, "--seeds", "1", "--kinds", "info", "--repeat", "1"]) == 0
    stdout = capsys.readouterr().out
    lines = [line for line in stdout.splitlines() if line.startswith("print\t")]
    assert f"# 0 of {len(lines)} commands differ in exit code or stdout" in stdout
    for line in lines:
        _, label, rc, out, err = line.split("\t")
        assert label.split()[1:3] == ["1", "info"] and rc == "0"
        assert len(out) == len(err) == 64


# Every float literal in (0, 1e-6) in the package, by module.  A check's
# rounding slack comes from graph.at_most, so none of these is one: they are
# algorithm parameters, outside input's tolerance, or slacks that exact
# decisions are to replace.
SMALL_LITERALS = [
    ("bounds", 1e-09, "TOL: a bound is sound up to lambda + TOL |lambda|"),
    ("bounds", 1e-09, "bobkov_bound: the applicability test a_e/l_e = V(u) + V(v)"),
    ("bounds", 1e-12, "nodal_region_reduction: the positive sign threshold"),
    ("bounds", 1e-12, "nodal_region_reduction: the negative sign threshold"),
    ("functions", 1e-15, "_edge_abs_power_integrals: the flat-edge test"),
    ("functions", 1e-12, "balance_point: the bracket's tolerance"),
    ("graph", 1e-09, "from_markov_chain: tol, which validates outside input"),
    ("graph", 1e-300, "subdivide_edge: the default mass of a new vertex"),
    ("heat", 1e-12, "DecayProfile.F: quad's epsrel"),
    ("heat", 1e-300, "DecayProfile.F_inverse: the range floor"),
    ("isoperimetry", 1e-12, "BAND: the iso witnesses' band"),
    ("isoperimetry", 1e-300, "characteristic_approx: the subdivision mass"),
    ("operators", 1e-12, "_sparse_lowest: the eigenvalue gap of the certificate"),
    ("operators", 1e-12, "_decompose: the eigenvector sign threshold"),
    ("sobolev", 1e-14, "iteration_constant: the series cutoff"),
]


def test_small_float_literals_are_the_allowlisted_ones():
    # a new hand-picked slack fails here: decide the check with graph.at_most
    found = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            value = node.value if isinstance(node, ast.Constant) else None
            if type(value) is float and 0 < value < 1e-6:
                found.append((path.stem, value))
    assert sorted(found) == sorted((module, value) for module, value, _ in SMALL_LITERALS)
