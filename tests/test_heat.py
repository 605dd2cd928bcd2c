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
    heat_kernel,
    heat_residual,
    heat_solve,
    hypothesis_audit,
    laplacian_apply,
    nash_diagonal_bound,
    nonuniqueness_tree,
    power_profile,
)
from graphcalc.generators import (
    complete,
    cycle,
    doubled_radial,
    hypercube,
    path,
    radial_graph,
    random_graph,
)


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
        assert np.allclose(K, K.T, atol=1e-10)
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
        out2 = nash_diagonal_bound(d, nu, force=True)
        assert out2["applicable"] and out2["passed"]


def test_eigenvalue_corollary():
    for g in (cycle(8), hypercube(3)):
        out = eigenvalue_lower_bounds(g, 3.0)
        assert out["sound"]
    with pytest.raises(GraphError):
        eigenvalue_lower_bounds(path(4, boundary=[4]), 3.0)


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
