import math
from fractions import Fraction

import numpy as np
import pytest

from graphcalc import (
    DecayProfile,
    Edge,
    GraphError,
    VertexFunction,
    build_graph,
    default_t_grid,
    eigenvalue_lower_bounds,
    exhaustion_check,
    finite_uniqueness_check,
    general_decay_bound,
    HeatKernel,
    WeightedGraph,
    heat_grid,
    heat_kernel,
    heat_residual,
    heat_solve,
    hypothesis_audit,
    iso_constant,
    laplacian_apply,
    nash_diagonal_bound,
    nonuniqueness_tree,
    power_profile,
    with_boundary,
)
from graphcalc.operators import SpectralDecomposition
from graphcalc.generators import (
    complete,
    cycle,
    doubled_radial,
    hypercube,
    path,
    radial_graph,
    random_graph,
)
from neighbours import neighbour_sets


def test_k2_closed_diagonal():
    ker = heat_kernel(complete(2))
    for t in default_t_grid(1e-2, 1e1, 8):
        exact = (1.0 + math.exp(-2.0 * t)) / 2.0
        assert ker.evaluate(1, 1, t) == pytest.approx(exact, abs=1e-12)
        assert ker.evaluate(1, 2, t) == pytest.approx(1.0 - exact, abs=1e-12)


def test_semigroup_and_symmetry():
    rng = np.random.default_rng(3)
    g = random_graph(9, rng, weighted=True, boundary_fraction=0.2)
    ker = heat_kernel(g)
    for t in (0.3, 1.7):
        K = ker.matrix(t)
        assert np.array_equal(K, K.T)
        half = ker.matrix(t / 2.0)
        semi = (half * g.vmeasure[None, :]) @ half
        assert np.abs(semi - K).max() <= 1e-10


def test_mass_conservation_closed():
    g = cycle(7)
    ker = heat_kernel(g)
    for t in (0.1, 1.0, 10.0):
        mass = ker.matrix(t) @ g.vmeasure
        assert np.allclose(mass, 1.0, atol=1e-10)


def test_mass_dirichlet_submarkov():
    g = path(6, boundary=[6])
    ker = heat_kernel(g)
    for t in (0.1, 1.0, 10.0):
        mass = ker.matrix(t) @ g.vmeasure
        assert np.all(mass <= 1.0 + 1e-10)
        # genuinely sub-unit because heat leaks out the absorbed end
        assert mass[g.interior_mask].max() < 1.0


def test_positivity():
    for g in (cycle(6), hypercube(3), path(7, boundary=[1, 7])):
        ker = heat_kernel(g)
        for t in (0.05, 0.5, 5.0):
            assert ker.matrix(t).min() >= -1e-12


def test_heat_solve_solves_the_equation():
    rng = np.random.default_rng(5)
    g = random_graph(8, rng, weighted=True, boundary_fraction=0.25)
    f0 = VertexFunction(g, rng.standard_normal(8))
    assert heat_residual(g, f0, t=0.7) <= 1e-6
    # t = 0 reproduces the (masked) data
    u0 = heat_solve(g, f0, 0.0)
    assert np.allclose(u0.values, f0.values * g.interior_mask, atol=1e-9)


def test_heat_solve_dirichlet_values_stay_zero():
    g = path(5, boundary=[5])
    f0 = VertexFunction(g, np.ones(5))
    u = heat_solve(g, f0, 1.0)
    assert abs(u(5)) <= 1e-12


def test_exhaustion_monotone_path_of_nine():
    g = path(9)
    chain = [{4, 5, 6}, {3, 4, 5, 6, 7}, {2, 3, 4, 5, 6, 7, 8}]
    probes = [(5, 5, 1.0), (4, 6, 0.5), (5, 5, 3.0)]
    out = exhaustion_check(g, chain, probes)
    assert out["monotone"] and out["bounded"]
    lim = np.array(out["limit"])
    assert np.all(out["table"][-1] <= lim + 1e-12)


def test_exhaustion_validation():
    g = path(9)
    with pytest.raises(GraphError):
        exhaustion_check(g, [{4, 5}, {4}], [(4, 4, 1.0)])  # not nested
    with pytest.raises(GraphError):
        exhaustion_check(g, [{4}], [(5, 5, 1.0)])  # probe outside first set


def test_nash_decay_radial_and_double():
    for nu in (2.5, 3.0, 4.0):
        g = radial_graph(10, nu)
        out = nash_diagonal_bound(g, nu)
        assert out["applicable"] and out["passed"]
        d = doubled_radial(10, nu).graph
        out2 = nash_diagonal_bound(d, nu)
        assert out2["applicable"] and out2["passed"]


def test_eigenvalue_corollary():
    for g in (cycle(8), hypercube(3)):
        out = eigenvalue_lower_bounds(g, 3.0)
        assert out["sound"]
    with pytest.raises(GraphError):
        eigenvalue_lower_bounds(path(4, boundary=[4]), 3.0)


@pytest.mark.parametrize("scale", [1e-6, 1e3, 1e6])
def test_heat_bounds_pass_rescaled_weights(scale):
    # both sides of each check scale with the weights (the diagonal bound as
    # scale^{-nu/2}), and so do the slacks
    def rescaled(g):
        return WeightedGraph(g.vertices, g.vmeasure,
                             [Edge(e.u, e.v, e.a * scale, e.length) for e in g.edges], g.boundary)

    for nu in (2.5, 3.0, 4.0):
        for g in (radial_graph(10, nu), doubled_radial(10, nu).graph):
            out = nash_diagonal_bound(rescaled(g), nu)
            assert out["applicable"] and out["passed"]
    for g in (cycle(8), hypercube(3), doubled_radial(8, 3.0).graph):
        assert eigenvalue_lower_bounds(rescaled(g), 3.0)["sound"]
    g = rescaled(build_graph([1, 2, 3, 4], [Edge(1, 2, a=3.0), Edge(2, 3, a=3.0), Edge(3, 4, a=3.0)],
                             boundary=[4]))
    out = general_decay_bound(g, power_profile(g, 3.0), [(x, t) for x in (1, 2, 3) for t in (0.1, 1.0, 10.0)])
    # A >= V / phi(V) does not scale with the weights: at 1e-6 it fails
    assert out["hypothesis"]["ok"] == (scale > 1.0) and out["passed"] == (scale > 1.0)


def test_decay_profile_power_closed_form():
    g = radial_graph(8, 3.0)
    prof = power_profile(g, 3.0)
    generic = DecayProfile(prof.phi, prof.C)  # quadrature path
    for x in (0.1, 1.0, 7.3):
        assert generic.F(x) == pytest.approx(prof.F(x), rel=1e-9)
        assert prof.F(prof.F_inverse(prof.F(x))) == pytest.approx(prof.F(x), rel=1e-9)


def test_hypothesis_audit():
    g = path(4, boundary=[4])
    phi = lambda x: x ** (1.0 / 3.0)
    out = hypothesis_audit(g, phi)
    assert not out["ok"]  # unit path: interval of mass 3 has area 1 < 3^(2/3)
    S = out["witness"]
    area = sum(e.a for e in g.edges if (e.u in S) != (e.v in S))
    mass = sum(g.vmeasure[g.index(v)] for v in S)
    assert out["area"] == pytest.approx(area, rel=1e-12)
    assert out["vmass"] == pytest.approx(mass, rel=1e-12)
    strong = build_graph(
        [1, 2, 3, 4],
        [Edge(1, 2, a=3.0), Edge(2, 3, a=3.0), Edge(3, 4, a=3.0)],
        boundary=[4],
    )
    assert hypothesis_audit(strong, phi)["ok"]


def test_hypothesis_audit_slack_is_relative():
    # a - b with boundary b: A = 0.5 s**(2/3) lies below V/phi(V) = s**(2/3)
    # at every scale s; an absolute slack of 1e-12 passed it at s = 1e-21.
    # x**4 underflows to 0 at s = 1e-100, so V/phi(V) is inf: no area meets it
    cube_root, fourth = (lambda x: x ** (1.0 / 3.0)), (lambda x: x ** 4)
    for phi, s in ((cube_root, 1.0), (cube_root, 1e-21), (fourth, 1e-100)):
        g = build_graph([("a", s), ("b", 1.0)], [Edge("a", "b", a=0.5 * s ** (2.0 / 3.0))],
                        boundary=["b"])
        with np.errstate(divide="ignore"):
            out = hypothesis_audit(g, phi)
        assert not out["ok"] and out["witness"] == {"a"}, s


def test_hypothesis_audit_reads_the_shared_table(monkeypatch):
    from graphcalc import isoperimetry

    builds = []
    real = isoperimetry.enumerate_connected_subsets
    monkeypatch.setattr(isoperimetry, "enumerate_connected_subsets",
                        lambda g, mask: builds.append(mask) or real(g, mask))
    rng = np.random.default_rng(73)
    graphs = [random_graph(9, rng, boundary_fraction=0.25) for _ in range(6)]
    # {0, 1} and {2} fail, {0} and {1} pass: the least mask is not a smallest set
    graphs.append(build_graph(range(4), [Edge(0, 1, a=2.0), Edge(1, 3, a=0.1), Edge(2, 3, a=0.5)],
                              boundary=[3]))
    for g in graphs:
        iso_constant(g, 2.0, "open")
        phi = lambda x: 0.9 * x ** 0.5
        out = hypothesis_audit(g, phi)
        assert len(builds) == 1
        builds.clear()
        pool, near = [i for i in range(g.n) if g.interior_mask[i]], neighbour_sets(g)
        failing = []  # every connected failing set, by brute force
        for sub in range(1, 1 << len(pool)):
            S = {g.vertices[v] for j, v in enumerate(pool) if (sub >> j) & 1}
            idx = {g.index(v) for v in S}
            seen, stack = {min(idx)}, [min(idx)]
            while stack:
                for j in near[stack.pop()] & idx - seen:
                    seen.add(j)
                    stack.append(j)
            area = sum(e.a for e in g.edges if (e.u in S) != (e.v in S))
            mass = sum(g.vmeasure[i] for i in idx)
            if seen == idx and area + 1e-12 < mass / phi(mass):
                failing.append((sum(1 << i for i in idx), S))
        assert out["ok"] == (not failing)
        if failing:  # the table runs by mask: the failing set with the least mask
            assert out["witness"] == min(failing, key=lambda f: f[0])[1]


def test_general_decay_bound():
    g = build_graph(
        [1, 2, 3, 4],
        [Edge(1, 2, a=3.0), Edge(2, 3, a=3.0), Edge(3, 4, a=3.0)],
        boundary=[4],
    )
    prof = power_profile(g, 3.0)
    probes = [(x, t) for x in (1, 2, 3) for t in (0.1, 1.0, 10.0)]
    out = general_decay_bound(g, prof, probes)
    assert out["hypothesis"]["ok"] and out["passed"]


def test_nonuniqueness_tree_alpha_one():
    f, rep = nonuniqueness_tree(1.0, 8)
    assert f[0] == 1 and f[1] == 2 and f[2] == Fraction(11, 4)  # 2.75
    assert rep["residual"] <= 1e-12
    assert rep["increasing"] and rep["bounded"]


def test_nonuniqueness_tree_depth_100():
    f, rep = nonuniqueness_tree(1.0, 100)
    assert rep["residual"] <= 1e-12
    assert rep["bounded"]
    assert float(f[-1]) <= rep["product_bound"] + 1e-12


def test_finite_uniqueness():
    rng = np.random.default_rng(9)
    g = random_graph(8, rng, weighted=True, boundary_fraction=0.2)
    out = finite_uniqueness_check(g, trials=3, seed=1)
    assert out["energy_residual"] <= 1e-5
    assert out["zero_stays_zero"] and out["positivity"]
    # the interior {1, 2, 3} | {5, 6, 7}: K vanishes across the two parts
    out = finite_uniqueness_check(path(7, boundary=[4]), trials=1)
    assert out["zero_stays_zero"] and out["positivity"]


# -- heat_grid ---------------------------------------------------------------


def _full_rows(kern, ts):
    """heat_grid's rows from general products over all n vertices."""
    d = kern.decomposition
    phi, lam, vm = d.eigenfunctions, d.eigenvalues, d.graph.vmeasure
    rows = []
    for t in ts:
        K = (phi * np.exp(-t * lam)) @ phi.T
        half = (phi * np.exp(-t / 2.0 * lam)) @ phi.T
        semi = (half * vm[None, :]) @ half
        rows.append({"t": t, "min_entry": K.min(), "min_diagonal": np.diag(K).min(),
                     "max_mass": (K @ vm).max(), "semigroup_residual": np.abs(semi - K).max(),
                     "scale": np.abs(K).max()})
    return rows


def _loops_and_parallels():
    return build_graph(
        [(1, 0.5), (2, 2.0), (3, 1.0), (4, 0.25)],
        [Edge(1, 1, a=2.0), Edge(1, 2, a=1.5), Edge(1, 2, a=0.5, length=2.0),
         Edge(2, 3), Edge(3, 4, a=3.0), Edge(4, 4, a=0.25), Edge(3, 4, a=0.5)],
    )


@pytest.mark.parametrize("g", [
    cycle(7),
    hypercube(3),
    random_graph(12, np.random.default_rng(11), weighted=True),
    random_graph(12, np.random.default_rng(12), weighted=True, boundary_fraction=0.25),
    path(7, boundary=[4]),  # interior {1, 2, 3} | {5, 6, 7}
    _loops_and_parallels(),
    with_boundary(_loops_and_parallels(), [3]),
], ids=["cycle", "cube", "closed", "dirichlet", "split-interior", "loops", "loops-dirichlet"])
def test_heat_grid_matches_full_products(g):
    kern = heat_kernel(g)
    ts = [0.05, 0.5, 3.0, 40.0]
    rows, passed = heat_grid(kern, ts)
    assert passed
    for got, want in zip(rows, _full_rows(kern, ts)):
        assert list(got) == ["t", "min_entry", "min_diagonal", "max_mass", "semigroup_residual"]
        assert got["t"] == want["t"]
        for key in list(got)[1:]:
            assert abs(got[key] - want[key]) <= 1e-12 * want["scale"], key


def test_heat_grid_boundary_zeros_set_the_minima():
    g = path(5, boundary=[5])
    kern = heat_kernel(g)
    rows, passed = heat_grid(kern, [0.5, 2.0])
    assert passed
    inner = g.interior_indices()
    for row in rows:
        assert kern.matrix(row["t"])[np.ix_(inner, inner)].min() > 0
        assert row["min_entry"] == 0.0 and row["min_diagonal"] == 0.0
        assert 0.0 < row["max_mass"] < 1.0


def _scaled(g, c):
    return WeightedGraph(g.vertices, g.vmeasure * c, g.edges, g.boundary)


def _perturbed(kern):
    """The kernel of a decomposition whose eigenfunction 3 is off by 1e-6."""
    d = kern.decomposition
    phi = np.array(d.eigenfunctions)
    phi[:, 3] *= 1.0 + 1e-6
    return HeatKernel(SpectralDecomposition(d.graph, d.eigenvalues, phi))


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_heat_grid_tolerances_follow_the_scale_of_k(c):
    # scaling V by c scales K by 1/c and time by c: the verdicts must not move
    g = _scaled(random_graph(12, np.random.default_rng(4), weighted=True), c)
    ts = [c * t for t in (0.25, 1.0, 4.0)]
    kern = heat_kernel(g)
    rows, passed = heat_grid(kern, ts)
    assert passed
    rows, passed = heat_grid(_perturbed(kern), ts)
    assert not passed
    for row, t in zip(rows, ts):
        # the masses stay exact (eigenfunction 3 is orthogonal to constants),
        # so the semigroup residual alone must catch the perturbation
        assert abs(row["max_mass"] - 1.0) <= 1e-10
        assert row["semigroup_residual"] > 1e-10 * np.abs(kern.matrix(t)).max()


def test_heat_grid_nan_fails():
    g = cycle(5)
    d = heat_kernel(g).decomposition
    lam = np.array(d.eigenvalues)
    lam[2] = np.nan
    rows, passed = heat_grid(HeatKernel(SpectralDecomposition(g, lam, d.eigenfunctions)),
                             [1.0])
    assert math.isnan(rows[0]["min_entry"]) and not passed


def test_exhaustion_check_is_relative_to_the_kernel_scale():
    # with V and t scaled by 1e-9, K is about 1e8 and its rounding about 1e-8,
    # which an absolute 1e-12 slack failed on 3 of these 20 graphs
    for seed in range(20):
        base = random_graph(10, np.random.default_rng(seed), boundary_fraction=0.2)
        for scale in (1.0, 1e-9):
            g = WeightedGraph.from_columns(base.vertices, base.vmeasure * scale,
                                           *base.endpoint_ids(), base.ea, base.elen, base.boundary)
            interior = [g.vertices[i] for i in g.interior_indices().tolist()]
            x, y = interior[:2]
            probes = [(x, x, scale), (x, y, 0.5 * scale), (x, x, 3.0 * scale)]
            out = exhaustion_check(g, [interior[:4], interior[:6], interior], probes)
            assert out["monotone"] and out["bounded"], (seed, scale)
