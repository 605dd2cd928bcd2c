"""The benchmark's reference computations against closed forms.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import os
import sys

import numpy as np
import pytest
import scipy.linalg as sla

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402


def _doc(topology, seed=0, **kw):
    return wl.document(topology, np.random.default_rng(seed), weighted=False, **kw)


def _complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


@pytest.mark.parametrize("n", [4, 6, 10, 16])
def test_tilde_infinity_of_even_cycle(n):
    t = ref.DocGraph(_doc(wl.cycle_chords(n, 0))).tables()
    assert t.iso(math.inf, "tilde") == pytest.approx(4.0 / n, rel=1e-12)
    assert t.iso(math.inf, "tilde_prime") == pytest.approx(4.0 / n, rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tilde_infinity_of_hypercube(d):
    t = ref.DocGraph(_doc(wl.hypercube(d), seed=d)).tables()
    assert t.iso(math.inf, "tilde") == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n", [2, 5, 12])
def test_open_infinity_of_path_with_boundary_end(n):
    path = (n, [(i, i + 1) for i in range(n - 1)])
    g = ref.DocGraph(_doc(path, boundary=(n - 1,)))
    assert g.tables().iso(math.inf, "open") == pytest.approx(1.0 / (n - 1), rel=1e-12)


@pytest.mark.parametrize("k", [2, 3, 4])  # K_2 has magnification 0
def test_magnification_of_even_complete_graph(k):
    g = ref.DocGraph(_doc(_complete(2 * k), seed=k))
    assert g.tables().magnification() == pytest.approx(1.0, rel=1e-12)


def test_set_magnification_is_exact():
    g = ref.DocGraph(_doc(_complete(4)))
    # Gamma of any set of at least two vertices of K4 is everything
    assert ref.set_magnification(g, g.ids[:2]) == 1
    assert ref.set_magnification(g, g.ids[:3]) == ref.set_ratio(g, g.ids[:3])


@pytest.mark.parametrize("n", [3, 7, 12])
def test_closed_eigenvalues_of_cycle(n):
    g = ref.DocGraph(_doc(wl.cycle_chords(n, 0), seed=n))
    want = sorted(2.0 - 2.0 * math.cos(2.0 * math.pi * j / n) for j in range(n))
    assert np.allclose(g.eigenvalues("closed"), want, atol=1e-12)


def test_heat_rows_match_direct_expm():
    g = ref.DocGraph(wl.document(wl.cycle_chords(9, 2), np.random.default_rng(3),
                                 weighted=True, boundary=(4,)))
    rows = ref.heat_rows(g, [0.5, 2.0, 8.0])
    r = g.rows("dirichlet")
    M = g.conductance_matrix("dirichlet") / g.V[r][:, None]
    for row in rows:
        E = sla.expm(-row["t"] * M)
        assert row["max_mass"] == pytest.approx(E.sum(axis=1).max(), rel=1e-10)
        assert row["min_entry"] == 0.0  # boundary rows of the kernel vanish
        assert row["scale"] == pytest.approx(np.abs(E / g.V[r][None, :]).max(), rel=1e-10)


def test_gauss_edge_norm_against_closed_form():
    g = ref.DocGraph(_doc((2, [(0, 1)])))
    b, c = 1.5, -0.5
    f = np.array([b, c])  # both formulas are symmetric in the two end values
    # int_0^1 (b + (c - b) s)^2 ds = (b^2 + b c + c^2) / 3
    assert ref.gauss_edge_norm(g, f, 2) == pytest.approx(
        math.sqrt((b * b + b * c + c * c) / 3.0), rel=1e-12)
    # |f| over the sign change: int |b + (c - b) s| ds = (b^2 + c^2) / (2 (b - c))
    assert ref.gauss_edge_norm(g, f, 1) == pytest.approx((b * b + c * c) / (2 * abs(b - c)),
                                                        rel=1e-12)


def _c6_bounds(**change):
    # C6, unit measures and lengths: lambda_2 = 1, I~_inf = 2/3, rho_sup = 1
    out = {"mode": "closed", "lambda": 1.0, "dodziuk": {"value": 1.0 / 9.0, "applicable": True},
           "mohar": {"value": 0.1, "applicable": True}, "alon": {"value": 0, "applicable": True},
           "bobkov": {"value": 0, "applicable": False}}
    for key, value in change.items():
        if isinstance(out[key], dict):
            out[key] = dict(out[key], value=value)
        else:
            out[key] = value
    return json.dumps(out)


def test_known_fault_of_bounds_is_only_a_zero_dodziuk():
    g = ref.DocGraph(_doc(wl.cycle_chords(6, 0)))
    argv = ["bounds", "c6"]
    assert ref.check_output(g, "bounds", argv, 0, _c6_bounds()) == []
    assert ref.is_known_fault(g, "bounds", argv, 0, _c6_bounds(dodziuk=0.0))
    assert not ref.is_known_fault(g, "bounds", argv, 0, _c6_bounds(dodziuk=0.05))
    assert not ref.is_known_fault(g, "bounds", argv, 0, _c6_bounds(dodziuk=0.0, **{"lambda": 0.5}))
    assert not ref.is_known_fault(g, "bounds", argv, 0, _c6_bounds(dodziuk=0.0, mohar=2.0))
    assert not ref.is_known_fault(g, "bounds", argv, 1, _c6_bounds(dodziuk=0.0))


def test_known_fault_of_iso_is_only_zero_on_the_whole_vertex_set():
    g = ref.DocGraph(_doc(wl.cycle_chords(6, 0)))

    def fault(variant, value, witness):
        argv = ["iso", "c6", "--nu", "inf", "--variant", variant]
        out = json.dumps({"value": value, "witness": witness})
        return ref.is_known_fault(g, "iso", argv, 0, out)

    assert fault("tilde", 0.0, g.ids) and fault("tilde_prime", 0.0, g.ids[::-1])
    assert not fault("tilde", 0.0, g.ids[1:])
    assert not fault("tilde", 0.5, g.ids)
    path = ref.DocGraph(_doc((3, [(0, 1), (1, 2)]), boundary=(2,)))
    argv = ["iso", "p3", "--nu", "inf"]
    assert not ref.is_known_fault(path, "iso", argv, 0, json.dumps(
        {"value": 0.0, "witness": path.ids}))
