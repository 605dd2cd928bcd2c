import json

import pytest

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
        {"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": "inf"}]},
        {"vertices": [{"id": 1, "measure": "nan"}, 2], "edges": []},
        {"vertices": [{"id": 1, "measure": "Infinity"}, 2], "edges": []},
        {"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": 1e308, "length": 1e308}]},
    ],
)
def test_malformed_document_is_usage_error(tmp_path, capsys, doc):
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(doc))
    _assert_usage_error(*_run_err(capsys, "info", str(target)))


def test_nonfinite_weight_is_usage_error_for_spectrum(tmp_path, capsys):
    # an infinite conductance used to print NaN eigenvalues with exit 0
    target = tmp_path / "inf.json"
    target.write_text(json.dumps({"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": "inf"}]}))
    _assert_usage_error(*_run_err(capsys, "spectrum", str(target)))


def test_verify_rejects_negative_trials(tmp_path, capsys):
    g = _write_c4(tmp_path)
    capsys.readouterr()
    _assert_usage_error(*_run_err(capsys, "verify", g, "--suite", "ff", "--trials", "-1"))


def test_flow_command(tmp_path, capsys):
    target = tmp_path / "k4.json"
    assert main(["gen", "complete", "4", "-o", str(target)]) == 0
    capsys.readouterr()
    code, out = _run(capsys, "flow", str(target), "--set", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["c"] == pytest.approx(1.0)


def test_missing_file_is_usage_error(capsys):
    code, _ = _run(capsys, "iso", "does-not-exist.json")
    assert code == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_gen_stdout_roundtrip(capsys):
    code = main(["gen", "path", "5", "--dirichlet"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert len(doc["vertices"]) == 5
    assert any(v["boundary"] for v in doc["vertices"])
