import math

import numpy as np
import pytest

from graphcalc import (
    Edge,
    GraphError,
    VertexFunction,
    balance_interval,
    balance_point,
    build_graph,
    coarea,
    edge_integral,
    grad_lp_norm,
    half_degrees,
    is_split,
    lp_norm_edge,
    lp_norm_vertex,
    midpoint_l2_sq,
    sobolev_quotient,
    split_interval,
    split_shift,
    vertex_integral,
)
from graphcalc.generators import path, random_graph


def _single_edge_fn(fu, fv, a=1.0, length=1.0):
    g = build_graph(["u", "v"], [Edge("u", "v", a, length)])
    return VertexFunction.from_map(g, {"u": fu, "v": fv})


def test_edge_l2_of_linear_ramp():
    # int_0^1 s^2 ds = 1/3
    f = _single_edge_fn(0.0, 1.0)
    assert lp_norm_edge(f, 2) == pytest.approx((1 / 3) ** 0.5, abs=1e-14)


def test_edge_l1_across_sign_change():
    # int_0^1 |2s - 1| ds = 1/2, and the measure scales it
    f = _single_edge_fn(-1.0, 1.0, a=3.0, length=2.0)
    assert lp_norm_edge(f, 1) == pytest.approx(6.0 * 0.5, abs=1e-13)


def test_edge_lp_matches_quadrature():
    from scipy.integrate import quad

    rng = np.random.default_rng(3)
    for _ in range(20):
        b, c = rng.standard_normal(2)
        a, ell = rng.uniform(0.5, 2.0, 2)
        p = rng.uniform(1.0, 5.0)
        f = _single_edge_fn(b, c, a, ell)
        pts = [b / (b - c)] if b * c < 0 else None
        exact, _ = quad(lambda s: abs(b + (c - b) * s) ** p, 0.0, 1.0, limit=200, points=pts)
        assert lp_norm_edge(f, p) ** p == pytest.approx(a * ell * exact, rel=1e-9)


def test_edge_norm_flat_edge():
    f = _single_edge_fn(2.0, 2.0, a=1.5, length=1.0)
    assert lp_norm_edge(f, 3) == pytest.approx(1.5 ** (1 / 3) * 2.0, abs=1e-13)
    assert lp_norm_edge(f, math.inf) == 2.0


def test_edge_sup_norm():
    f = _single_edge_fn(-3.0, 1.0)
    assert lp_norm_edge(f, math.inf) == 3.0


def test_edge_integral_is_trapezoid():
    f = _single_edge_fn(1.0, 3.0, a=2.0, length=1.0)
    assert edge_integral(f) == pytest.approx(2.0 * 2.0)  # E * midpoint value
    # loop: E * f(v)
    g = build_graph(["a"], [Edge("a", "a", a=3.0)])
    fl = VertexFunction(g, np.array([5.0]))
    assert edge_integral(fl) == pytest.approx(15.0)


def test_grad_norms_on_path():
    g = path(3)
    f = VertexFunction(g, np.array([0.0, 1.0, 3.0]))
    assert grad_lp_norm(f, 1) == pytest.approx(3.0)
    assert grad_lp_norm(f, 2) == pytest.approx(math.sqrt(5.0))
    assert grad_lp_norm(f, math.inf) == pytest.approx(2.0)


def test_grad_norm_ignores_loops():
    g = build_graph(["a", "b"], [Edge("a", "b"), Edge("a", "a", a=4.0)])
    f = VertexFunction(g, np.array([0.0, 2.0]))
    assert grad_lp_norm(f, 1) == pytest.approx(2.0)


def test_vertex_norms():
    g = build_graph([("a", 2.0), ("b", 0.5)], [])
    f = VertexFunction(g, np.array([-1.0, 4.0]))
    assert lp_norm_vertex(f, 1) == pytest.approx(2.0 + 2.0)
    assert lp_norm_vertex(f, 2) == pytest.approx(math.sqrt(2.0 + 8.0))
    assert lp_norm_vertex(f, math.inf) == 4.0


def test_balance_point_p2_is_weighted_mean():
    g = build_graph([("a", 1.0), ("b", 3.0)], [])
    f = VertexFunction(g, np.array([0.0, 4.0]))
    assert balance_point(f, 2) == pytest.approx(3.0, abs=1e-10)


def test_balance_point_pinf_is_midrange():
    g = build_graph(["a", "b", "c"], [])
    f = VertexFunction(g, np.array([-1.0, 0.0, 5.0]))
    assert balance_point(f, math.inf) == 2.0


def test_balance_point_minimizes_norm():
    rng = np.random.default_rng(7)
    g = random_graph(8, rng, weighted=True)
    f = VertexFunction(g, rng.standard_normal(8))
    for p in (1.5, 2.0, 4.0):
        a = balance_point(f, p)
        base = lp_norm_vertex(f.shifted(a), p)
        for da in (-1e-3, 1e-3):
            assert base <= lp_norm_vertex(f.shifted(a + da), p) + 1e-12


def test_balance_interval_weighted_median():
    # masses 1, 1, 3 at values 0, 1, 2: median is 2 (mass above 0, below 2)
    g = build_graph([("a", 1.0), ("b", 1.0), ("c", 3.0)], [])
    f = VertexFunction(g, np.array([0.0, 1.0, 2.0]))
    assert balance_interval(f) == (2.0, 2.0)


def test_balance_interval_with_ties():
    g = build_graph([("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 1.0)], [])
    f = VertexFunction(g, np.array([0.0, 1.0, 1.0, 5.0]))
    assert balance_interval(f) == (1.0, 1.0)
    f2 = VertexFunction(g, np.array([0.0, 0.0, 1.0, 1.0]))
    assert balance_interval(f2) == (0.0, 1.0)


def test_split_shift_makes_split():
    rng = np.random.default_rng(11)
    g = random_graph(9, rng, weighted=True)
    for _ in range(25):
        f = VertexFunction(g, rng.standard_normal(9))
        assert is_split(split_shift(f))


def test_coarea_integral_equals_grad_l1():
    rng = np.random.default_rng(13)
    for _ in range(25):
        g = random_graph(int(rng.integers(3, 12)), rng, weighted=True)
        f = VertexFunction(g, rng.standard_normal(g.n))
        sweep = coarea(f)
        assert sweep.integral() == pytest.approx(grad_lp_norm(f, 1), abs=1e-12)


def test_coarea_area_at_level():
    g = path(3)
    f = VertexFunction(g, np.array([0.0, 1.0, 2.0]))
    sweep = coarea(f)
    # {f > t} for t in (0,1) cuts one edge; for t in (1,2) also one edge
    assert sweep.area_at(0.5) == pytest.approx(1.0)
    assert sweep.area_at(1.5) == pytest.approx(1.0)
    assert sweep.area_at(2.5) == 0.0


def test_rho_identity_loop_free():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_graph(int(rng.integers(2, 15)), rng, weighted=True)
        rho = half_degrees(g).rho
        f = VertexFunction(g, rng.standard_normal(g.n))
        lhs = edge_integral(f)
        rhs = float(np.sum(rho * f.values * g.vmeasure))
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))


def test_unit_length_norm_identities():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = random_graph(int(rng.integers(2, 15)), rng, weighted=True, unit_lengths=True)
        rho = half_degrees(g).rho
        f = VertexFunction(g, rng.standard_normal(g.n))
        rhs = float(np.sum(rho * f.values**2 * g.vmeasure))
        assert lp_norm_edge(f, 2) ** 2 + grad_lp_norm(f, 2) ** 2 / 6.0 == pytest.approx(
            rhs, abs=1e-12 * (1 + abs(rhs))
        )
        assert midpoint_l2_sq(f) + grad_lp_norm(f, 2) ** 2 / 4.0 == pytest.approx(
            rhs, abs=1e-12 * (1 + abs(rhs))
        )


def test_vertex_function_validation():
    g = path(3)
    with pytest.raises(GraphError):
        VertexFunction(g, np.zeros(2))
    with pytest.raises(GraphError):
        VertexFunction(g, np.zeros((3, 2, 2)))
    assert VertexFunction(g, np.zeros((3, 4))).values.shape == (3, 4)
    f = VertexFunction.from_map(g, {1: 1.0, 2: 2.0, 3: 3.0})
    assert f(2) == 2.0
    gb = path(3, boundary=[3])
    fb = VertexFunction.from_map(gb, {1: 1.0, 2: 2.0, 3: 0.0})
    assert fb.is_dirichlet
    fnb = VertexFunction.from_map(gb, {1: 1.0, 2: 2.0, 3: 3.0})
    assert not fnb.is_dirichlet
    assert VertexFunction(gb, np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])).is_dirichlet
    assert not VertexFunction(gb, np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 1.0]])).is_dirichlet


def _block_cases():
    """(graph, (B, n) draws) pairs: closed and Dirichlet, with loops and ties."""
    rng = np.random.default_rng(23)
    cases = []
    for k in range(12):
        g = random_graph(int(rng.integers(2, 15)), rng, weighted=True,
                         boundary_fraction=0.3 if k % 2 else 0.0)
        rows = rng.standard_normal((9, g.n))
        if k % 3 == 0:
            rows = np.round(rows)  # ties between draws' values
        cases.append((g, rows * g.interior_mask))
    loop = build_graph(["a", "b", "c"],
                       [Edge("a", "b"), Edge("b", "c", 2.0, 0.5), Edge("c", "c", 3.0)])
    cases.append((loop, rng.standard_normal((5, 3))))
    return cases


BLOCK_FUNCTIONS = [
    (lp_norm_vertex, p) for p in (1, 2, 3.5, math.inf)
] + [(lp_norm_edge, p) for p in (1, 2.5, math.inf)] + [
    (grad_lp_norm, p) for p in (1, 3, math.inf)
] + [(balance_point, p) for p in (1.5, 2, 3, math.inf)] + [
    (edge_integral, None), (midpoint_l2_sq, None), (vertex_integral, None),
]


def test_block_equals_columns():
    for g, rows in _block_cases():
        block = VertexFunction(g, rows.T)
        columns = [VertexFunction(g, r) for r in rows]
        for fn, p in BLOCK_FUNCTIONS:
            args = () if p is None else (p,)
            got = fn(block, *args)
            want = [fn(f, *args) for f in columns]
            assert isinstance(got, np.ndarray) and got.shape == (len(rows),)
            assert all(type(w) is float for w in want)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=fn.__name__)
        nonzero = rows[rows.any(axis=1)]
        quot = sobolev_quotient(VertexFunction(g, nonzero.T), 3.0)
        want = [sobolev_quotient(VertexFunction(g, r), 3.0) for r in nonzero]
        np.testing.assert_allclose(quot, want, rtol=1e-12, atol=0)
        shifted = split_shift(block)
        for k, f in enumerate(columns):
            np.testing.assert_allclose(shifted.values[:, k], split_shift(f).values,
                                       rtol=1e-12, atol=0)
        assert is_split(shifted).all()


def test_coarea_block_rows_equal_single_calls_bit_for_bit():
    # _block_cases has loops, rounded draws (flat edges, tied levels) and
    # Dirichlet draws (tied zeros); this graph adds parallel edges
    rng = np.random.default_rng(31)
    multi = build_graph(["a", "b", "c", "d"],
                        [Edge("a", "b", 2.0), Edge("a", "b", 0.5, 3.0), Edge("b", "c", 1.5),
                         Edge("c", "a"), Edge("c", "d", 0.25), Edge("d", "d", 4.0)],
                        boundary=["d"])
    draws = rng.standard_normal((12, 4))
    cases = _block_cases() + [(multi, draws), (multi, draws * multi.interior_mask),
                              (multi, np.round(draws))]
    for g, rows in cases:
        sweep = coarea(VertexFunction(g, rows.T))
        got = sweep.integral()
        assert isinstance(got, np.ndarray) and got.shape == (len(rows),)
        for k, r in enumerate(rows):
            single = coarea(VertexFunction(g, r))
            want = single.integral()
            assert type(want) is float and got[k] == want
            assert np.array_equal(sweep.levels[k], single.levels)
            assert np.array_equal(sweep.area[k], single.area)
            assert want == pytest.approx(grad_lp_norm(VertexFunction(g, r), 1), rel=1e-12, abs=0)


def test_coarea_flat_edges_and_loops_add_nothing():
    # c and d carry only a loop and an edge that the draws keep flat, so
    # their levels must not split the steps of the edge a-b
    rng = np.random.default_rng(41)
    rows = rng.standard_normal((50, 4))
    rows[:, 3] = rows[:, 2]
    bare = build_graph(["a", "b", "c", "d"], [Edge("a", "b", 3.3)])
    flat = build_graph(["a", "b", "c", "d"],
                       [Edge("a", "b", 3.3), Edge("c", "c", 2.0), Edge("c", "d", 1.5)])
    want = coarea(VertexFunction(bare, rows.T)).integral()
    assert np.array_equal(coarea(VertexFunction(flat, rows.T)).integral(), want)


def test_coarea_area_at_counts_crossing_edges():
    rng = np.random.default_rng(37)
    for k in range(15):
        g = random_graph(int(rng.integers(2, 12)), rng, weighted=True, allow_loops=True,
                         boundary_fraction=0.3 if k % 2 else 0.0)
        rows = rng.standard_normal((6, g.n)) * g.interior_mask
        if k % 3 == 0:
            rows = np.round(rows)
        sweep = coarea(VertexFunction(g, rows.T))
        for j, r in enumerate(rows):
            lo = np.minimum(r[g.eu], r[g.ev])
            hi = np.maximum(r[g.eu], r[g.ev])
            levels = np.unique(r)
            probes = np.concatenate([[levels[0] - 1.0], (levels[1:] + levels[:-1]) / 2.0,
                                     [levels[-1] + 1.0]])
            single = coarea(VertexFunction(g, r))
            for t in probes:
                want = float(np.sum(g.ea[(lo < t) & (t < hi)]))
                assert single.area_at(t) == pytest.approx(want, rel=1e-12, abs=1e-12)
                assert sweep.area_at(t)[j] == single.area_at(t)
            assert single.area_at(probes[-1]) == 0.0 and single.area_at(probes[0]) == 0.0


def test_split_interval_block_is_exact_with_tied_zeros():
    # Dirichlet draws: every boundary vertex is a tied zero
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = random_graph(int(rng.integers(3, 13)), rng, weighted=True, boundary_fraction=0.5)
        rows = rng.standard_normal((15, g.n)) * g.interior_mask
        rows[::4] = np.round(rows[::4])
        lo, hi = split_interval(VertexFunction(g, rows.T))
        for k, r in enumerate(rows):
            assert (lo[k], hi[k]) == split_interval(VertexFunction(g, r))


def test_split_interval_matches_definition():
    # integer measures keep every mass sum exact
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        g = build_graph([(i, float(rng.integers(1, 5))) for i in range(n)], [])
        vals = rng.integers(-2, 3, n).astype(float)
        total = g.vmeasure.sum()
        ok = [x for x in vals if g.vmeasure[vals < x].sum() <= total / 2
              and g.vmeasure[vals > x].sum() <= total / 2]
        assert split_interval(VertexFunction(g, vals)) == (min(ok), max(ok))
        assert balance_interval(VertexFunction(g, vals)) == (min(ok), max(ok))


def _balance_h(vals, meas, p, t):
    """The first-order function of ||f - t||_p: decreasing, zero at the balance point."""
    if p == math.inf:
        return (vals.max() - t) - (t - vals.min())
    d = vals - t
    return float(np.sum(np.sign(d) * np.abs(d) ** (p - 1.0) * meas))


def test_balance_point_first_order_bracket():
    rng = np.random.default_rng(37)
    for k in range(30):
        g = random_graph(int(rng.integers(2, 15)), rng, weighted=True,
                         boundary_fraction=0.3 if k % 2 else 0.0)
        rows = rng.standard_normal((8, g.n)) * g.interior_mask
        rows[1] *= 1e-6
        rows[2] = np.round(rows[2])
        rows[3] = 1.5  # constant
        for p in (1.5, 2, 3, math.inf):
            block = balance_point(VertexFunction(g, rows.T), p)
            for r, a_block in zip(rows, block):
                a = balance_point(VertexFunction(g, r), p)
                eps = 1e-9 * (1.0 + r.max() - r.min())
                for t in (a, a_block):
                    assert _balance_h(r, g.vmeasure, p, t - eps) >= 0.0
                    assert _balance_h(r, g.vmeasure, p, t + eps) <= 0.0
