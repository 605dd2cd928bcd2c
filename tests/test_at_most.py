"""The one rounding-slack rule, graph.at_most: no verdict moves when the
weights, the measures and the functions are rescaled, and a side inflated
by 1 + 1e-6 fails at every scale."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from graphcalc import (GraphError, VertexFunction, WeightedGraph, eigenvalue_lower_bounds,
                       half_degrees, heat_grid, heat_kernel, nash_check, nash_diagonal_bound,
                       operator_norm_report, run_suite, sobolev_check, trudinger_check, SUITES)
from graphcalc.generators import random_graph

SCALES = (1e-12, 1.0, 1e12)


def _scaled(g, s, a=None):
    """g with V scaled by s and a_e by a (by s unless given)."""
    return WeightedGraph.from_columns(g.vertices, g.vmeasure * s, *g.endpoint_ids(),
                                      g.ea * (s if a is None else a), g.elen, g.boundary)


def test_at_most_is_relative_to_the_scale_and_fails_nan():
    from graphcalc.graph import at_most

    assert at_most(1.0 + 2.0**-50, 1.0, 4, 1.0) and not at_most(1.0 + 2.0**-50, 1.0, 3, 1.0)
    for s in (2.0**-600, 2.0**600):
        assert at_most(s * (1 + 2.0**-50), s, 4, s) and not at_most(s * (1 + 2.0**-50), s, 3, s)
    assert list(at_most(np.array([0.0, np.nan, 1.0]), np.array([0.0, 1.0, np.nan]), 1, 1.0)) == [
        True, False, False]
    assert at_most(np.finfo(float).tiny, 0.0, 0, 0.0) and not at_most(1e-300, 0.0, 0, 0.0)


def _verdicts(g, f):
    out = {}
    for suite in SUITES:
        try:
            out[suite] = run_suite(g, suite, trials=6, seed=3)["failures"]
        except GraphError as e:
            out[suite] = str(e)
    out["grid"] = heat_grid(heat_kernel(g), [0.25, 1.0, 4.0])[1]
    out["nash_diagonal"] = nash_diagonal_bound(g, 3.0).get("passed")
    if g.is_closed:
        out["eigenvalues"] = eigenvalue_lower_bounds(g, 3.0)["sound"]
    out["sandwich"] = operator_norm_report(g).sandwich_holds
    out["irregular"] = half_degrees(g).regularity is None
    out["checks"] = [c.failures for c in (sobolev_check(f, 2.0, 3.0), nash_check(f, 3.0),
                                          trudinger_check(f, 0.5, 3.0))]
    return out


@settings(max_examples=12, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(3, 9), boundary=st.sampled_from([0.0, 0.3]),
       loops=st.booleans(), unit=st.booleans())
def test_no_verdict_moves_when_weights_measures_and_functions_scale(seed, n, boundary, loops, unit):
    # a_e and V scaled together leave the Laplacian and rho as they are
    rng = np.random.default_rng(seed)
    g = random_graph(n, rng, boundary_fraction=boundary, allow_loops=loops, unit_lengths=unit)
    if not g.interior_mask.any():
        return
    rows = rng.standard_normal((5, n)) * g.interior_mask
    rows = rows[rows.any(axis=1)]
    if not len(rows):
        return
    seen = [_verdicts(_scaled(g, s), VertexFunction(_scaled(g, s), s * rows.T)) for s in SCALES]
    assert seen[0] == seen[1] == seen[2]


def _graph():
    return random_graph(10, np.random.default_rng(2), unit_lengths=True)  # loop-free


def test_identities_fail_an_inflated_edge_integral_at_every_scale(monkeypatch):
    from graphcalc import verify

    for s in SCALES:
        assert run_suite(_scaled(_graph(), s), "identities", trials=20)["failures"] == 0
    true_integral = verify.edge_integral
    monkeypatch.setattr(verify, "edge_integral", lambda f: true_integral(f) * (1 + 1e-6))
    for s in SCALES:  # an absolute slack passed it at 1e-12
        assert run_suite(_scaled(_graph(), s), "identities", trials=20)["failures"] == 1, s


def test_an_inequality_check_fails_an_inflated_side_at_every_scale():
    for s in SCALES:
        g = _scaled(_graph(), s)
        f = VertexFunction(g, s * np.random.default_rng(4).standard_normal((g.n, 8)))
        chk = sobolev_check(f, 2.0, 3.0)
        assert chk.passed and replace(chk, lhs=chk.rhs).passed
        assert replace(chk, lhs=chk.rhs, rhs=chk.rhs * (1 + 1e-6)).failures == 8, s


def test_heat_grid_fails_an_inflated_semigroup_product_at_every_scale(monkeypatch):
    from graphcalc import heat

    ts = [0.25, 1.0, 4.0]
    true_block = heat._kernel_block
    for s in SCALES:
        kern = heat_kernel(_scaled(_graph(), s))
        assert heat_grid(kern, ts)[1]
        # the blocks at t/2 form C, so C^T C, one side of the semigroup law, grows by 1e-6
        monkeypatch.setattr(heat, "_kernel_block", lambda phi, lam, t, rows=None: true_block(
            phi, lam, t, rows) * (math.sqrt(1 + 1e-6) if t not in ts else 1.0))
        rows, passed = heat_grid(kern, ts)
        monkeypatch.setattr(heat, "_kernel_block", true_block)
        assert not passed and all(abs(r["max_mass"] - 1.0) < 1e-12 for r in rows), s


def test_a_graph_whose_rho_spans_three_orders_is_not_regular():
    # with a_e * 1e-14, rho_sup - rho_inf is 1.3e-13: an absolute slack called it regular
    g = random_graph(12, np.random.default_rng(1))
    tiny = _scaled(g, 1.0, 1e-14)
    assert half_degrees(tiny).rho_sup > 100 * half_degrees(tiny).rho_inf
    assert half_degrees(tiny).regularity is None
