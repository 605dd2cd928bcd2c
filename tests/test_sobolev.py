import math

import numpy as np
import pytest

from graphcalc import (
    GraphError,
    VertexFunction,
    general_F_check,
    gennash_check,
    grad_lp_norm,
    iso_constant,
    iteration_constant,
    nash_check,
    sharpness_experiment,
    sobolev_check,
    sup_embedding_check,
    trudinger_check,
)
from graphcalc.graph import Edge, WeightedGraph
from graphcalc.generators import cycle, path, radial_graph, random_graph


def _dirichlet_fn(g, rng):
    return VertexFunction(g, rng.standard_normal(g.n) * g.interior_mask)


def test_sobolev_check_passes_open_and_closed():
    rng = np.random.default_rng(1)
    gopen = path(7, boundary=[7])
    gclosed = cycle(7)
    for _ in range(50):
        fo = _dirichlet_fn(gopen, rng)
        fc = VertexFunction(gclosed, rng.standard_normal(7))
        for p, nu in ((1.0, 2.0), (2.0, 3.0), (1.5, 4.0)):
            assert sobolev_check(fo, p, nu).passed
            assert sobolev_check(fc, p, nu).passed


def test_sobolev_check_validates_exponents():
    g = path(4, boundary=[4])
    f = VertexFunction(g, np.array([1.0, 2.0, 1.0, 0.0]))
    with pytest.raises(GraphError):
        sobolev_check(f, 3.0, 2.0)  # needs nu > p


def test_general_F_check():
    rng = np.random.default_rng(2)
    g = path(6, boundary=[6])
    for _ in range(30):
        f = _dirichlet_fn(g, rng)
        for r in (1.0, 1.5, 2.0, 3.0):
            assert general_F_check(f, r, 2.0, 4.0).passed
    with pytest.raises(GraphError):
        general_F_check(f, 0.5, 2.0, 4.0)


def test_nash_check_both_modes():
    rng = np.random.default_rng(3)
    gopen = path(6, boundary=[6])
    gclosed = cycle(6)
    for _ in range(50):
        assert nash_check(_dirichlet_fn(gopen, rng), 3.0).passed
        f = VertexFunction(gclosed, rng.standard_normal(6))
        assert nash_check(f, 2.5).passed
    with pytest.raises(GraphError):
        nash_check(_dirichlet_fn(gopen, rng), 2.0)  # nu must exceed 2


def test_trudinger_gamma_zero_is_equality():
    rng = np.random.default_rng(4)
    g = path(6, boundary=[6])
    f = _dirichlet_fn(g, rng)
    chk = trudinger_check(f, 0.0, 3.0)
    # at gamma = 0 both sides are V(G) exactly
    assert chk.lhs == chk.rhs == pytest.approx(g.total_measure())


def test_trudinger_vertex_and_edge_measures():
    rng = np.random.default_rng(5)
    g = cycle(8)
    for _ in range(30):
        f = VertexFunction(g, rng.standard_normal(8))
        for gamma in (0.2, 0.5, 0.9):
            assert trudinger_check(f, gamma, 3.0).passed
    assert trudinger_check(f, 0.5, 3.0, measure="edge").inputs["measure"] == "edge"
    with pytest.raises(GraphError):
        trudinger_check(f, 1.0, 3.0)
    with pytest.raises(GraphError):
        trudinger_check(f, 0.5, 3.0, measure="bogus")


def test_trudinger_edge_form_holds_with_the_edge_constant():
    # the graphs and draws of test_block_checks_equal_columns, with the true
    # I_nu: E(G) is 3-4 times V(G) on some of them, so the bound needs kappa
    rng = np.random.default_rng(9)
    graphs = [cycle(7), path(7, boundary=[7])]
    graphs += [random_graph(int(rng.integers(4, 10)), rng, weighted=True,
                            boundary_fraction=0.3 * (k % 2)) for k in range(6)]
    draws = 0
    for g in graphs:
        rows = rng.standard_normal((12, g.n)) * g.interior_mask
        f = VertexFunction(g, rows[rows.any(axis=1)].T)
        for gamma in (0.2, 0.5, 0.9):
            chk = trudinger_check(f, gamma, 3.0, measure="edge")
            assert chk.passed and chk.inputs["kappa"] >= chk.inputs["rho_sup"]
            draws += f.values.shape[1]
    assert draws == 288
    # a loop's two ends both sit at its vertex: kappa = (E(loop) + 1/2) / V(v)
    g = WeightedGraph([1, 2], [1.0, 1.0], [Edge(1, 1, 3.0), Edge(1, 2)], boundary=[2])
    chk = trudinger_check(VertexFunction(g, np.array([1.0, 0.0])), 0.5, 3.0, measure="edge")
    assert (chk.inputs["rho_sup"], chk.inputs["kappa"]) == (2.0, 3.5)


def test_iteration_constant_oracle():
    c1, c2 = iteration_constant(4.0, 2.0)
    # p' = 4/3, nu' = 2, delta = 3/2, c2 = p'(nu'-p')/nu'^2 = 2/9
    assert c2 == pytest.approx(2.0 / 9.0, abs=1e-14)
    # c1 = prod gamma_i^(1/delta^i), gamma_i = (delta^(i+2)-1)/(delta-1)
    delta = 1.5
    logc1 = sum(
        math.log((delta ** (i + 2) - 1.0) / (delta - 1.0)) / delta**i for i in range(200)
    )
    assert c1 == pytest.approx(math.exp(logc1), rel=1e-12)
    with pytest.raises(GraphError):
        iteration_constant(2.0, 3.0)


def test_sup_embedding_check():
    rng = np.random.default_rng(6)
    for g in (path(6, boundary=[6]), cycle(6)):
        for _ in range(30):
            f = VertexFunction(g, rng.standard_normal(6))
            if np.all(f.values == f.values[0]):
                continue
            assert sup_embedding_check(f, 3.0, 2.0).passed
            assert sup_embedding_check(f, 4.0, 1.5).passed


def test_gennash_check():
    rng = np.random.default_rng(7)
    g = path(6, boundary=[6])
    I = iso_constant(g, 3.0, "open").value
    scaled = WeightedGraph(
        g.vertices,
        g.vmeasure,
        [type(e)(e.u, e.v, e.a / I, e.length) for e in g.edges],
        g.boundary,
    )
    assert iso_constant(scaled, 3.0, "open").value == pytest.approx(1.0)
    for _ in range(30):
        f = _dirichlet_fn(scaled, rng)
        if not np.any(f.values):
            continue
        assert gennash_check(f, 3.0).passed
    # the hypothesis I_nu >= 1 is enforced
    weak = WeightedGraph(
        g.vertices,
        g.vmeasure,
        [type(e)(e.u, e.v, e.a * 1e-3, e.length) for e in g.edges],
        g.boundary,
    )
    with pytest.raises(GraphError):
        gennash_check(_dirichlet_fn(weak, rng), 3.0)


def test_sharpness_quotients_above_p():
    out = sharpness_experiment(2.2, 2.0, [8, 16, 32], n=256)
    assert out["best_normalized"] > 0
    # normalized quotients upper-bound the optimal constant and stay O(1)
    for row in out["rows"]:
        assert row["normalized"] <= 10.0


def test_sharpness_endpoint_log_decay():
    out = sharpness_experiment(2.0, 2.0, [16, 64, 256], n=512)
    for row in out["rows"]:
        x = row["ratio"] * row["log_m"]
        assert 0.5 <= x <= 2.0


def test_random_instances_never_fail():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = random_graph(int(rng.integers(4, 9)), rng, weighted=True,
                         boundary_fraction=float(rng.uniform(0, 0.4)))
        for _ in range(5):
            f = VertexFunction(g, rng.standard_normal(g.n) * g.interior_mask)
            if not np.any(f.values):
                continue
            assert sobolev_check(f, 2.0, 3.0).passed
            assert nash_check(f, 3.0).passed
            assert trudinger_check(f, 0.4, 3.0).passed


def test_inequality_check_counts_failing_draws():
    from graphcalc.sobolev import InequalityCheck

    chk = InequalityCheck("x", np.array([1.0, 0.0, 2.0, 5.0]), np.array([0.5, 1.0, 3.0, 5.0]))
    assert chk.failures == 2 and not chk.passed
    assert InequalityCheck("x", 1.0, 2.0).failures == 1
    assert InequalityCheck("x", 2.0, 1.0).failures == 0
    assert InequalityCheck("x", 2.0, 1.0).passed
    # one side may be shared by every draw (trudinger's bound)
    assert InequalityCheck("x", 3.0, np.array([1.0, 4.0, 2.0])).failures == 1


def _check_pairs(g, f):
    """(block check, per-column checks) for every inequality that applies to g."""
    calls = [
        lambda h: sobolev_check(h, 1.0, 2.0),
        lambda h: sobolev_check(h, 1.5, 4.0),
        lambda h: general_F_check(h, 2.0, 2.0, 4.0),
        lambda h: general_F_check(h, 1.0, 2.0, 3.0),
        lambda h: nash_check(h, 3.0),
        lambda h: trudinger_check(h, 0.4, 3.0),
        lambda h: trudinger_check(h, 0.4, 3.0, measure="edge"),
        lambda h: sup_embedding_check(h, 3.0, 2.0),
    ]
    if g.boundary and iso_constant(g, 3.0, "open").value >= 1.0:
        calls.append(lambda h: gennash_check(h, 3.0))
    columns = [VertexFunction(g, f.values[:, k]) for k in range(f.values.shape[1])]
    return [(call(f), [call(c) for c in columns]) for call in calls]


@pytest.mark.parametrize("inflate", [1.0, 3.0])
def test_block_checks_equal_columns(monkeypatch, inflate):
    # an inflated isoperimetric constant makes some draws fail their checks
    from dataclasses import replace
    from graphcalc import sobolev

    true_iso = sobolev.iso_constant
    monkeypatch.setattr(sobolev, "iso_constant", lambda g, nu, variant="open", **kw: replace(
        true_iso(g, nu, variant, **kw), value=inflate * true_iso(g, nu, variant, **kw).value))
    rng = np.random.default_rng(9)
    graphs = [cycle(7), path(7, boundary=[7])]
    graphs += [random_graph(int(rng.integers(4, 10)), rng, weighted=True,
                            boundary_fraction=0.3 * (k % 2)) for k in range(6)]
    failures = 0
    for g in graphs:
        rows = rng.standard_normal((12, g.n)) * g.interior_mask
        rows = rows[rows.any(axis=1)]
        for block, cols in _check_pairs(g, VertexFunction(g, rows.T)):
            for side in ("lhs", "rhs"):
                want = [getattr(c, side) for c in cols]
                np.testing.assert_allclose(
                    np.broadcast_to(getattr(block, side), len(cols)), want, rtol=1e-12, atol=0
                )
            assert block.failures == sum(c.failures for c in cols)
            assert block.passed == all(c.passed for c in cols)
            failures += block.failures
    assert inflate == 1.0 or failures > 0


def test_checks_fail_an_inflated_bound_at_every_scale():
    # each check is homogeneous in f; at f -> 1e-9 f an absolute slack of
    # 1e-9 (1 + |rhs|) was as large as rhs, so a bound inflated by 1e-6 passed
    from graphcalc.sobolev import InequalityCheck

    rng = np.random.default_rng(11)
    p7 = path(7, boundary=[7])
    strong = WeightedGraph(p7.vertices, p7.vmeasure, [Edge(e.u, e.v, 4.0) for e in p7.edges],
                           p7.boundary)  # I_3 >= 1, so gennash applies
    for g in (cycle(7), p7, strong):
        rows = rng.standard_normal((6, g.n)) * g.interior_mask
        for scale in (1.0, 1e-9):
            checks = [block for block, _ in _check_pairs(g, VertexFunction(g, scale * rows.T))]
            assert len(checks) == 8 + (g is strong)
            for chk in checks:
                assert chk.passed, (chk.name, scale)  # the true bound holds at every scale
                tight = InequalityCheck(chk.name, chk.rhs, chk.rhs * (1 + 1e-6))
                assert tight.failures == len(rows), (chk.name, scale)
