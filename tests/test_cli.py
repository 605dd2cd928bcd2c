import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import graphcalc
from graphcalc.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def _run_err(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _write_c4(tmp_path):
    target = tmp_path / "c4.json"
    code = main(["gen", "cycle", "4", "-o", str(target)])
    assert code == 0
    return str(target)


def test_gen_and_info(tmp_path, capsys):
    g = _write_c4(tmp_path)
    capsys.readouterr()
    code, out = _run(capsys, "info", g)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "graphcalc/1"
    assert doc["vertices"] == 4 and doc["edges"] == 4
    assert doc["closed"] and doc["connected"]
    assert len(doc["input_sha256"]) == 64


def test_output_is_byte_identical(tmp_path, capsys):
    g = _write_c4(tmp_path)
    capsys.readouterr()
    _, a = _run(capsys, "bounds", g)
    _, b = _run(capsys, "bounds", g)
    assert a == b
    _, c = _run(capsys, "verify", g, "--suite", "green", "--seed", "3")
    _, d = _run(capsys, "verify", g, "--suite", "green", "--seed", "3")
    assert c == d


GREEN_DOC = """{"vertices": [{"id": "a", "measure": 1.5}, {"id": "b", "measure": 0.25}, \
{"id": "c", "measure": 2}, {"id": "d", "measure": 0.75}, {"id": "e", "measure": 1, "boundary": true}, \
{"id": "f", "measure": 3}], "edges": [{"u": "a", "v": "b", "a": 2.5, "length": 0.5}, \
{"u": "b", "v": "c", "a": 0.5, "length": 2}, {"u": "c", "v": "d", "a": 1.25, "length": 1}, \
{"u": "d", "v": "a", "a": 3, "length": 0.25}, {"u": "a", "v": "c", "a": 0.75, "length": 1.5}, \
{"u": "a", "v": "c", "a": 2, "length": 1}, {"u": "d", "v": "e", "a": 1, "length": 1}, \
{"u": "e", "v": "f", "a": 0.5, "length": 2}, {"u": "f", "v": "c", "a": 1.75, "length": 0.5}, \
{"u": "b", "v": "b", "a": 4, "length": 1}]}
"""


@pytest.mark.parametrize("seed, residual", [(0, "1.0052641238952244e-16"),
                                            (3, "1.0736458374188047e-16")])
def test_verify_green_stdout_golden(tmp_path, capsys, seed, residual):
    # a boundary vertex, parallel edges and a loop; the draws are those of
    # one trial at a time (f, then X, then h)
    doc = tmp_path / "green.json"
    doc.write_text(GREEN_DOC)
    code, out = _run(capsys, "verify", str(doc), "--suite", "green", "--seed", str(seed),
                     "--trials", "40")
    assert code == 0
    assert out == (
        '{"schema": "graphcalc/1", "command": "verify", "input_sha256": '
        '"e5a16003d5769b9420ec8390d465f7b3b38c249cd7c36726fd47589cf13793d6", '
        f'"max_residual": {residual}, "failures": 0, "suite": "green", "trials": 40, '
        f'"seed": {seed}}}\n')


def test_bounds_c4(tmp_path, capsys):
    g = _write_c4(tmp_path)
    capsys.readouterr()
    code, out = _run(capsys, "bounds", g)
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == pytest.approx(2.0)
    assert doc["dodziuk"]["value"] == pytest.approx(0.25)
    assert doc["mohar"]["value"] == pytest.approx(0.2679491924311228)
    assert doc["sound"] is True


def test_spectrum_csv(tmp_path, capsys):
    g = _write_c4(tmp_path)
    capsys.readouterr()
    code, out = _run(capsys, "spectrum", g, "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 5
    assert float(lines[1].split(",")[1]) == pytest.approx(0.0)


def test_spectrum_rejects_k_below_one(tmp_path, capsys):
    g = _write_c4(tmp_path)
    capsys.readouterr()
    for k in ("0", "-2"):
        _assert_usage_error(*_run_err(capsys, "spectrum", g, "-k", k))
        _assert_usage_error(*_run_err(capsys, "spectrum", g, "-k", k, "--out", "csv"))


def test_spectrum_k_is_prefix_and_bounds_lambda_matches(tmp_path, capsys):
    target = tmp_path / "r20.json"
    assert main(["gen", "random", "20", "--seed", "4", "-o", str(target)]) == 0
    capsys.readouterr()
    code, out = _run(capsys, "spectrum", str(target))
    assert code == 0
    full = json.loads(out)
    assert full["mode"] == "closed" and full["k"] == 20
    code, out = _run(capsys, "spectrum", str(target), "-k", "2")
    assert code == 0
    assert json.loads(out)["eigenvalues"] == full["eigenvalues"][:2]
    code, out = _run(capsys, "bounds", str(target))
    assert code == 0
    assert json.loads(out)["lambda"] == full["eigenvalues"][1]


def test_spectrum_k_is_sparse_past_the_dense_cap(tmp_path, capsys):
    # 2,500 vertices: past MAX_DENSE, so only the certified sparse solve answers
    target = str(tmp_path / "p2500.json")
    assert main(["gen", "path", "2500", "-o", target]) == 0
    capsys.readouterr()
    code, out = _run(capsys, "spectrum", target, "-k", "2")
    assert code == 0
    lams = json.loads(out)["eigenvalues"]
    exact = [2.0 - 2.0 * math.cos(j * math.pi / 2500) for j in (0, 1)]
    assert lams == pytest.approx(exact, rel=0, abs=4e-12)  # 1e-12 lambda_max
    assert _run(capsys, "spectrum", target, "-k", "2") == (0, out)  # byte-stable
    _assert_usage_error(*_run_err(capsys, "spectrum", target))


def test_small_commands_import_no_scipy_solvers(tmp_path):
    # below SPARSE_ROWS every solve is numpy's, so no scipy import costs time or memory
    target = str(tmp_path / "r12.json")
    assert main(["gen", "random", "12", "--seed", "3", "-o", target]) == 0
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        import graphcalc.cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert graphcalc.cli.main(["spectrum", {target!r}, "-k", "2"]) == 0
            assert graphcalc.cli.main(["heat", {target!r}]) in (0, 1)
        print(sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.sparse"))))
    """)
    src = os.path.dirname(os.path.dirname(graphcalc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_iso_command(tmp_path, capsys):
    g = _write_c4(tmp_path)
    capsys.readouterr()
    code, out = _run(capsys, "iso", g, "--nu", "2", "--magnification")
    assert code == 0
    doc = json.loads(out)
    assert doc["variant"] == "tilde"
    assert doc["value"] == pytest.approx(2.0**0.5)
    assert doc["magnification"] == pytest.approx(0.0)


def test_verify_exit_codes(tmp_path, capsys):
    g = _write_c4(tmp_path)
    capsys.readouterr()
    code, out = _run(capsys, "verify", g, "--suite", "identities",
                     "--trials", "20", "--seed", "7")
    assert code == 0
    assert json.loads(out)["failures"] == 0
    code, _ = _run(capsys, "verify", g, "--suite", "nonsense")
    assert code == 2


def test_heat_command(tmp_path, capsys):
    g = _write_c4(tmp_path)
    capsys.readouterr()
    code, out = _run(capsys, "heat", g, "--t", "0.5", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["grid"]) == 2
    assert list(doc) == ["schema", "command", "input_sha256", "mode", "passed", "grid"]
    for row in doc["grid"]:
        assert list(row) == ["t", "min_entry", "min_diagonal", "max_mass", "semigroup_residual"]
    code, out = _run(capsys, "heat", g, "--t", "0.5", "--out", "csv")
    assert code == 0
    assert out.splitlines()[0] == "t,min_entry,min_diagonal,max_mass,semigroup_residual"


def test_heat_rejects_negative_or_nonfinite_t(tmp_path, capsys):
    g = _write_c4(tmp_path)
    capsys.readouterr()
    _assert_usage_error(*_run_err(capsys, "heat", g, "--t", "-1"))
    _assert_usage_error(*_run_err(capsys, "heat", g, "--t", "0.5", "-0.25"))
    for t in ("nan", "inf"):
        _assert_usage_error(*_run_err(capsys, "heat", g, "--t", t))


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": [{"measure": 1}], "edges": []},
        {"vertices": [1, 2], "edges": [{"u": 1}]},
        {"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": "x"}]},
        {"vertices": [[1], 2], "edges": []},
        {"vertices": [1, 2], "edges": [{"u": [1], "v": 2}]},
        # json writes these as Infinity and NaN, which it reads back as floats
        {"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": math.inf}]},
        {"vertices": [{"id": 1, "measure": math.nan}, 2], "edges": []},
        {"vertices": [{"id": 1, "measure": math.inf}, 2], "edges": []},
        {"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": 1e308, "length": 1e308}]},
        # integer literals too large for a float
        {"vertices": [{"id": 1, "measure": 10**400}], "edges": []},
        {"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": 10**400}]},
        # a bad weight on edge 1 and an unknown endpoint on edge 2
        {"vertices": [1, 2, 3], "edges": [{"u": 1, "v": 2, "a": -1}, {"u": 1, "v": 9}]},
        # misspelt keys and a top-level boundary list: read as a closed unit graph
        {"vertices": [{"id": 1, "mesure": 5}, {"id": 2}], "edges": [{"u": 1, "v": 2, "weight": 3}],
         "boundary": [2]},
        # a string flag: "false" read as true made a boundary vertex
        {"vertices": [{"id": 1, "boundary": "false"}, 2], "edges": [{"u": 1, "v": 2}]},
        # JSON booleans: float(true) is 1.0, so they loaded as numbers
        {"vertices": [{"id": 1, "measure": True}, 2], "edges": []},
        {"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": True}]},
        {"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "length": False}]},
        # a string, an object or a string number where JSON arrays and numbers belong
        {"vertices": "abc"},
        {"vertices": {"a": 1, "b": 2}, "edges": []},
        {"vertices": [1, 2], "edges": ""},
        {"vertices": [1, 2], "edges": {}},
        {"vertices": [{"id": 1, "measure": "2"}], "edges": []},
        {"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": "2"}]},
        {"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "length": " 3 "}]},
        {"vertices": [{"id": 1, "measure": "Infinity"}, 2], "edges": []},
    ],
)
def test_malformed_document_is_usage_error(tmp_path, capsys, doc):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc))
    _assert_usage_error(*_run_err(capsys, "info", str(target)))


def test_too_deeply_nested_json_is_usage_error(tmp_path, capsys):
    # json.loads recurses once per bracket and raised RecursionError
    target = tmp_path / "deep.json"
    target.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = _run_err(capsys, "info", str(target))
    _assert_usage_error(code, out, err)
    assert "not valid JSON" in err


def test_nonfinite_weight_is_usage_error_for_spectrum(tmp_path, capsys):
    # an infinite conductance used to print NaN eigenvalues with exit 0
    target = tmp_path / "inf.json"
    target.write_text(json.dumps({"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": math.inf}]}))
    _assert_usage_error(*_run_err(capsys, "spectrum", str(target)))


def test_verify_rejects_negative_trials(tmp_path, capsys):
    g = _write_c4(tmp_path)
    capsys.readouterr()
    _assert_usage_error(*_run_err(capsys, "verify", g, "--suite", "ff", "--trials", "-1"))


def test_negative_seeds_are_usage_errors(tmp_path, capsys):
    # numpy refused them with a traceback and exit 1
    g = _write_c4(tmp_path)
    capsys.readouterr()
    for argv in (["gen", "random", "10", "--seed", "-1"], ["gen", "random", "10", "--seed", "x"],
                 ["verify", g, "--suite", "coarea", "--seed", "-3"]):
        _assert_usage_error(*_run_err(capsys, *argv))
    assert _run(capsys, "gen", "random", "3", "--seed", "0")[0] == 0


def test_an_allocation_that_fails_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # verify --trials 100000000000 printed numpy's _ArrayMemoryError traceback
    # ("Unable to allocate 2.91 TiB") with exit 1; the stand-in allocates nothing
    from graphcalc import cli

    g = _write_c4(tmp_path)
    capsys.readouterr()
    for exc, text in ((MemoryError("Unable to allocate 2.91 TiB"), "Unable to allocate 2.91 TiB"),
                      (MemoryError(), "out of memory")):
        def run_suite(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "run_suite", run_suite)
        code, out, err = _run_err(capsys, "verify", g, "--suite", "coarea",
                                  "--trials", "100000000000")
        _assert_usage_error(code, out, err)
        assert err == f"error: {text}\n"


def test_flow_command(tmp_path, capsys):
    target = tmp_path / "k4.json"
    assert main(["gen", "complete", "4", "-o", str(target)]) == 0
    capsys.readouterr()
    code, out = _run(capsys, "flow", str(target), "--set", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["c"] == pytest.approx(1.0)


def test_cycles_past_22_vertices_are_within_the_subset_budget(tmp_path, capsys):
    # iso and bounds refused both when 22 free vertices were the cap.  A
    # 25-cycle has 601 connected subsets, and its magnification scan visits
    # the 601 connected sets of "Gamma(a) meets Gamma(b)", another 25-cycle.
    for n in (25, 24):
        target = tmp_path / f"c{n}.json"
        assert main(["gen", "cycle", str(n), "-o", str(target)]) == 0
        capsys.readouterr()
        code, out = _run(capsys, "iso", str(target))
        assert code == 0 and json.loads(out)["value"] == pytest.approx(2.0 / 12.0)  # 12-arcs
    for n in (24, 25):
        code, out = _run(capsys, "bounds", str(tmp_path / f"c{n}.json"))
        assert code == 0 and json.loads(out)["sound"] is True


def test_past_the_subset_budget_every_scanning_command_exits_2(tmp_path, capsys, monkeypatch):
    from graphcalc import isoperimetry

    target = tmp_path / "k8.json"
    assert main(["gen", "complete", "8", "-o", str(target)]) == 0
    capsys.readouterr()
    # complete(8) has 255 subsets; its I~ scans visit the 127 that avoid one vertex
    iso_scans = (["verify", "--suite", "ff"], ["iso"],
                 ["iso", "--nu", "2", "--variant", "tilde_prime"])
    monkeypatch.setattr(isoperimetry, "SUBSET_CAP", 127)
    for argv in iso_scans:
        assert _run_err(capsys, argv[0], str(target), *argv[1:])[0] == 0
    monkeypatch.setattr(isoperimetry, "SUBSET_CAP", 126)
    for argv in (["flow", "--set", "1,2,3,4,5,6,7,8"], *iso_scans, ["bounds"]):
        _assert_usage_error(*_run_err(capsys, argv[0], str(target), *argv[1:]))


def test_flow_with_an_empty_set_exits_2(tmp_path, capsys):
    # an empty --set used to print "A": [], "c": 0, "passed": true with exit 0
    target = tmp_path / "k4.json"
    assert main(["gen", "complete", "4", "-o", str(target)]) == 0
    capsys.readouterr()
    for A in (",", "", ",,"):
        for extra in ([], ["-c", "1/3"]):
            _assert_usage_error(*_run_err(capsys, "flow", str(target), "--set", A, *extra))


def test_contract_gaps_exit_2(tmp_path, capsys):
    # ids equal as strings made witnesses ambiguous; an empty document ended
    # in a traceback from heat and verify; a NaN nu printed a value
    cases = {"collide": {"vertices": [1, "1"], "edges": [{"u": 1, "v": "1"}]},
             "empty": {"vertices": [], "edges": []},
             "c4": {"vertices": [1, 2, 3, 4], "edges": [{"u": i, "v": i % 4 + 1} for i in range(1, 5)]}}
    path = {}
    for name, doc in cases.items():
        path[name] = tmp_path / f"{name}.json"
        path[name].write_text(json.dumps(doc))
    for argv in (["iso", path["collide"], "--variant", "tilde"], ["heat", path["empty"], "--t", "1"],
                 ["verify", path["empty"], "--suite", "ff"], ["iso", path["c4"], "--nu", "nan"]):
        _assert_usage_error(*_run_err(capsys, *map(str, argv)))


@pytest.mark.filterwarnings("error")  # a numpy overflow warning would be a second stderr line
def test_overflowing_conductances_exit_2(tmp_path, capsys):
    # each weight is finite, their sum is not: spectrum printed NaN
    # eigenvalues and heat NaN rows with "passed": true, both with exit 0
    huge = {"a": 1e308}
    docs = [{"vertices": [1, 2], "edges": [{"u": 1, "v": 2, **huge}, {"u": 1, "v": 2, **huge}]},
            {"vertices": [1, 2], "edges": [{"u": 1, "v": 2, **huge}]},  # lambda_max = 2e308
            {"vertices": [1, 2, 3, 4], "edges": [{"u": 1, "v": 2, **huge}, {"u": 3, "v": 4, **huge}]}]
    for k, doc in enumerate(docs):
        target = tmp_path / f"overflow{k}.json"
        target.write_text(json.dumps(doc))
        for argv in (["spectrum"], ["bounds"], ["heat", "--t", "1"]):
            _assert_usage_error(*_run_err(capsys, argv[0], str(target), *argv[1:]))


@pytest.mark.filterwarnings("error")
def test_overflowing_sums_exit_2_for_every_loading_command(tmp_path, capsys):
    # info printed Infinity sums and iso a value of Infinity, both with exit 0
    docs = [{"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": 1e308}] * 2},  # total edge measure
            {"vertices": [{"id": 1, "measure": 1e308}, {"id": 2, "measure": 1e308}],
             "edges": [{"u": 1, "v": 2}]},  # total vertex measure
            {"vertices": [{"id": 1, "measure": 1e-310}, 2],
             "edges": [{"u": 1, "v": 2, "a": 1e10}]}]  # rho and L
    for k, doc in enumerate(docs):
        target = tmp_path / f"sums{k}.json"
        target.write_text(json.dumps(doc))
        for argv in (["info"], ["iso"], ["iso", "--magnification"], ["bounds"]):
            _assert_usage_error(*_run_err(capsys, argv[0], str(target), *argv[1:]))


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
@pytest.mark.parametrize("doc", [
    {"vertices": [1], "edges": []},
    {"vertices": [1], "edges": [{"u": 1, "v": 1}]},
    {"vertices": [1, 2], "edges": []},
], ids=["lone-vertex", "lone-vertex-with-loop", "two-isolated-vertices"])
def test_degenerate_graphs_end_without_a_traceback(tmp_path, capsys, doc):
    # I~ is infinite on a lone closed vertex and rho_sup is 0 without an
    # edge: bounds and the Sobolev ladder divided by them or floored infinity
    from graphcalc.verify import SUITES

    target = tmp_path / "degenerate.json"
    target.write_text(json.dumps(doc))
    runs = [["info"], ["spectrum"], ["spectrum", "-k", "1"], ["iso"], ["iso", "--magnification"],
            ["bounds"], ["heat"], ["flow", "--set", "1"]]
    runs += [["verify", "--suite", suite, "--trials", "5"] for suite in SUITES]
    for argv in runs:
        code, _, err = _run_err(capsys, argv[0], str(target), *argv[1:])
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err and err.count("\n") <= 1, argv


@pytest.mark.filterwarnings("error")
def test_magnification_past_the_float_range_prints_no_warning(tmp_path, capsys):
    # the ratio of the 1e-300 vertex, 2e302 / 1e-300, overflows to inf in the
    # scan: a numpy warning on stderr, or exit 2 under this filter
    doc = {"vertices": [{"id": v, "measure": x} for v, x in zip("abcde", [1e302] * 4 + [1e-300])],
           "edges": [{"u": u, "v": v} for u, v in ("ab", "bc", "cd", "de", "ea")]}
    target = tmp_path / "wide.json"
    target.write_text(json.dumps(doc))
    code, out, err = _run_err(capsys, "iso", str(target), "--magnification")
    assert code == 0 and err == ""
    assert json.loads(out)["magnification_witness"] == ["a", "c"]


def test_flow_target_is_an_exact_fraction(tmp_path, capsys):
    target = tmp_path / "k4.json"
    assert main(["gen", "complete", "4", "-o", str(target)]) == 0
    capsys.readouterr()
    for c, want in (("0.5", 0.5), ("1/3", 1 / 3)):
        code, out = _run(capsys, "flow", str(target), "--set", "1", "-c", c)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["c"] == want
    for c in ("nan", "1/0"):
        code, out, err = _run_err(capsys, "flow", str(target), "--set", "1", "-c", c)
        assert code == 2 and out == "" and "Traceback" not in err


def test_flow_stdout_is_byte_stable_on_q4(tmp_path, capsys):
    # the field of this Edmonds-Karp and its tie order, byte for byte
    target = tmp_path / "q4.json"
    assert main(["gen", "hypercube", "4", "-o", str(target)]) == 0
    capsys.readouterr()
    code, out = _run(capsys, "flow", str(target), "--set", "0000,0001,0011,0111,0010")
    assert code == 0
    assert out == (
        '{"schema": "graphcalc/1", "command": "flow", "input_sha256": '
        '"b2fa26c59e78b3086e091a08af0e20e2eefc2a3759ec3c9753b9c2156ffad821", '
        '"A": ["0000", "0001", "0010", "0011", "0111"], "c": 1.3333333333333333, "passed": true, '
        '"checks": {"divergence_off_A": true, "divergence_on_A": true, "magnitude": true, '
        '"rho_sq_bound": true, "unit_inflow": true}, "rho_sq": 1.1111111111111112, '
        '"rho_sq_cap": 1.5555555555555556, "field": [-0.33333333333333331, -0.33333333333333331, '
        '-0.66666666666666663, 0, 0.33333333333333331, -1, -1, 0, -0.66666666666666663, -1, 0, '
        '-1, 0, 0, 0, 0, 0, 0.33333333333333331, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}\n'
    )


@st.composite
def _documents(draw):
    """A small graph document, valid or with one defect: colliding ids, a bad
    weight, a missing key or empty lists."""
    ids = draw(st.lists(st.sampled_from([0, 1, 2, 3, "a", None, 1.5]), min_size=1, max_size=5,
                        unique=True))
    weight = st.floats(0.25, 4.0)
    vertices = [{"id": i, "measure": draw(weight), "boundary": draw(st.booleans())} for i in ids]
    edges = [{"u": draw(st.sampled_from(ids)), "v": draw(st.sampled_from(ids)), "a": draw(weight)}
             for _ in range(draw(st.integers(0, 6)))]
    doc = {"vertices": vertices, "edges": edges}
    defect = draw(st.sampled_from(["none", "none", "collide", "weight", "missing", "empty"]))
    if defect == "collide":
        vertices.append(str(ids[0]))
    elif defect == "weight":
        item = draw(st.sampled_from(vertices + edges))
        item["measure" if "id" in item else "a"] = draw(
            st.sampled_from([0, -1, "x", None, "inf", float("nan"), 1e308, [1]]))
    elif defect == "missing":
        item = draw(st.sampled_from(vertices + edges))
        del item[draw(st.sampled_from(sorted(item)))]
    elif defect == "empty":
        doc = draw(st.sampled_from([{"vertices": [], "edges": []}, {"vertices": []}, {}, []]))
    return doc


@settings(derandomize=True, max_examples=40, deadline=None)
@given(doc=_documents(), ids=st.lists(st.sampled_from(["0", "1", "a", "None", "1.5", "x"]), max_size=3),
       c=st.sampled_from([None, "0", "0.5", "1/3", "-1", "3", "nan", "x"]))
def test_fuzzed_documents_keep_the_exit_contract(tmp_path_factory, doc, ids, c):
    target = tmp_path_factory.getbasetemp() / "fuzz.json"
    target.write_text(json.dumps(doc))
    g = str(target)
    flow = ["flow", g, "--set", ",".join(ids)] + ([] if c is None else ["-c", c])
    for argv in (["info", g], ["iso", g], ["spectrum", g], ["bounds", g],
                 ["heat", g, "--t", "0.5"], flow):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2), argv


def test_iso_refuses_an_infinite_constant(tmp_path, capsys):
    # a lone closed vertex has no admissible set: I~ and the magnification are inf
    target = tmp_path / "lone.json"
    target.write_text(json.dumps({"vertices": [1], "edges": []}))
    for extra in ([], ["--magnification"], ["--variant", "open", "--magnification"]):
        _assert_usage_error(*_run_err(capsys, "iso", str(target), *extra))


def test_a_light_complement_keeps_its_digits(tmp_path, capsys):
    # V(G) - V({b}) cancelled: iso printed 999992.38556461001 and the Dodziuk
    # row 249996.19279679994, for Ĩ_∞ = 1e6 and I²/(4 rho_sup) = 250000
    target = tmp_path / "light.json"
    target.write_text(json.dumps({
        "vertices": [{"id": "a", "measure": 1e-6}, {"id": "b", "measure": 1e6},
                     {"id": "c", "measure": 1e-6}],
        "edges": [{"u": "a", "v": "b"}, {"u": "b", "v": "c"}, {"u": "c", "v": "a"}]}))
    code, out = _run(capsys, "iso", str(target))
    assert code == 0 and (json.loads(out)["value"], json.loads(out)["witness"]) == (1e6, ["b"])
    code, out = _run(capsys, "bounds", str(target))
    assert code == 0 and json.loads(out)["dodziuk"]["value"] == 250000


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    import shlex

    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    lines = [argv for argv in lines if argv and argv[0] == "graphcalc"]
    assert len(lines) >= 9
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


def test_missing_file_is_usage_error(capsys):
    code, _ = _run(capsys, "iso", "does-not-exist.json")
    assert code == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_argparse_errors_are_one_line(tmp_path, capsys):
    # argparse printed a usage line before its "graphcalc: error:" line
    g = _write_c4(tmp_path)
    capsys.readouterr()
    for argv in (["spectrum", g, "--mode", "dirichlet"], ["spectrum", g, "--bogus"],
                 ["iso", g, "--variant", "bogus"], [], ["frobnicate"], ["gen", "cycle"]):
        _assert_usage_error(*_run_err(capsys, *argv))
    code, out, err = _run_err(capsys, "spectrum", "--help")
    assert code == 0 and out.startswith("usage: graphcalc spectrum") and err == ""


def test_repeated_calls_share_one_parser(tmp_path, capsys):
    g = _write_c4(tmp_path)
    capsys.readouterr()
    _assert_usage_error(*_run_err(capsys, "iso", g, "--variant", "bogus"))
    assert main(["iso", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: graphcalc iso")
    runs = [_run(capsys, "iso", g, "--nu", "2") for _ in range(2)]
    assert runs[0] == runs[1] and runs[0][0] == 0


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("dirichlet", [False, True])
def test_every_subcommand_prints_strict_json(tmp_path, capsys, dirichlet):
    # iso with the default nu = inf printed the bare token Infinity, which a
    # strict JSON parser refuses; non-finite floats print as --nu spells them
    from graphcalc.verify import SUITES

    target = str(tmp_path / "g.json")
    gen = ["gen", "path", "5", "--dirichlet"] if dirichlet else ["gen", "cycle", "5"]
    assert main(gen + ["-o", target]) == 0
    runs = [gen, ["info", target], ["spectrum", target], ["spectrum", target, "-k", "2"],
            ["iso", target], ["iso", target, "--nu", "2", "--magnification"],
            ["bounds", target], ["heat", target], ["flow", target, "--set", "1,2"]]
    runs += [["verify", target, "--suite", suite, "--trials", "3"] for suite in SUITES
             if dirichlet or suite != "gennash"]  # gennash needs a boundary
    capsys.readouterr()
    for argv in runs:
        code, out = _run(capsys, *argv)
        assert code in (0, 1), argv
        doc = _strict_json(out)
        if argv[0] == "iso":
            assert doc["nu"] == ("inf" if len(argv) == 2 else 2.0)
    code, out = _run(capsys, "iso", target, "--out", "csv")
    assert code == 0 and "\nnu,inf\n" in out


def test_gen_stdout_roundtrip(capsys):
    code = main(["gen", "path", "5", "--dirichlet"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 5
    assert any(v["boundary"] for v in doc["vertices"])
