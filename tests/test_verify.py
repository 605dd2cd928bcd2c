import math

import numpy as np
import pytest

from graphcalc import Edge, GraphError, WeightedGraph, run_suite, SUITES
from graphcalc.generators import cycle, path, random_graph


def test_all_suites_listed():
    assert set(SUITES) == {
        "coarea", "green", "ff", "sobolev", "nash", "trudinger",
        "gennash", "identities",
    }


@pytest.mark.parametrize("suite", sorted(set(SUITES) - {"gennash"}))
def test_suites_pass_on_closed_graph(suite):
    out = run_suite(cycle(6), suite, trials=25, seed=0)
    assert out["failures"] == 0


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suites_pass_with_boundary(suite):
    g = path(7, boundary=[7])
    out = run_suite(g, suite, trials=25, seed=0)
    assert out["failures"] == 0


def test_suites_pass_on_random_graphs():
    rng = np.random.default_rng(0)
    for seed in range(5):
        g = random_graph(int(rng.integers(4, 10)), rng, weighted=True,
                         boundary_fraction=0.25)
        for suite in ("identities", "green", "ff"):
            assert run_suite(g, suite, trials=10, seed=seed)["failures"] == 0


def test_suite_determinism():
    g = cycle(5)
    a = run_suite(g, "coarea", trials=10, seed=42)
    b = run_suite(g, "coarea", trials=10, seed=42)
    assert a == b


def _rescaled(g, s):
    """g with every conductance a_e multiplied by s."""
    return WeightedGraph(g.vertices, g.vmeasure,
                         [Edge(e.u, e.v, e.a * s, e.length) for e in g.edges], g.boundary)


@pytest.mark.parametrize("scale", [1e-6, 1e3, 1e6])
@pytest.mark.parametrize("suite", ["coarea", "green"])
def test_residual_suites_pass_rescaled_weights(suite, scale):
    # exact identities: only rounding is left, and it scales with the weights
    for seed in range(6):
        g = _rescaled(random_graph(10, np.random.default_rng(seed), weighted=True), scale)
        assert run_suite(g, suite, trials=40, seed=seed)["failures"] == 0


@pytest.mark.parametrize("scale", [1e-6, 1e3, 1e6])
def test_ff_suite_passes_rescaled_weights(scale):
    # s_nu(f) and I_nu both scale with the weights, and so does the slack
    for seed in range(6):
        for bnd in (0.0, 0.3):
            g = random_graph(10, np.random.default_rng(seed), boundary_fraction=bnd, allow_loops=True)
            assert run_suite(_rescaled(g, scale), "ff", trials=40, seed=seed)["failures"] == 0


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e6])
def test_coarea_suite_catches_a_dropped_jump(monkeypatch, scale):
    from graphcalc import verify
    from graphcalc.functions import LevelSetSweep

    true_coarea = verify.coarea

    def dropped(f):  # the last draw's sweep misses its first nonzero jump
        sweep = true_coarea(f)
        area = sweep.area.copy()
        k = np.flatnonzero(np.diff(area[-1]))[0]
        area[-1, k + 1:] -= area[-1, k + 1] - area[-1, k]
        return LevelSetSweep(sweep.levels, area)

    monkeypatch.setattr(verify, "coarea", dropped)
    for seed in range(6):
        g = _rescaled(random_graph(10, np.random.default_rng(seed), weighted=True), scale)
        assert run_suite(g, "coarea", trials=40, seed=seed)["failures"] == 1


def test_unknown_suite():
    with pytest.raises(GraphError):
        run_suite(cycle(4), "bogus")


def test_gennash_needs_boundary():
    with pytest.raises(GraphError):
        run_suite(cycle(4), "gennash", trials=2)


def _per_trial(g, suite, trials, seed):
    """The counted suites as one 1-D draw at a time, in the suites' draw order."""
    from graphcalc import sobolev as sb
    from graphcalc import verify
    from graphcalc.functions import (VertexFunction, balance_interval, balance_point,
                                     grad_lp_norm, lp_norm_vertex, split_shift)
    from graphcalc.isoperimetry import sobolev_quotient

    rng = np.random.default_rng(seed)

    def draw(h, dirichlet):
        vals = rng.standard_normal(h.n)
        return VertexFunction(h, vals * h.interior_mask if dirichlet else vals)

    out = {"failures": 0}
    fails = 0

    def below(lhs, rhs):  # the suites' relative slack, as in verify._below
        return lhs < rhs - verify.REL_TOL * abs(rhs)

    if suite == "ff":
        nus = (1.5, 2.0, 3.0, math.inf)
        if g.boundary:
            const = {nu: verify.iso_constant(g, nu, "open").value for nu in nus}
            for _ in range(trials):
                f = draw(g, True)
                if np.any(f.values):
                    fails += sum(below(sobolev_quotient(f, nu), const[nu]) for nu in nus)
        else:
            tilde = {nu: verify.iso_constant(g, nu, "tilde").value for nu in nus}
            prime = {nu: verify.iso_constant(g, nu, "tilde_prime").value for nu in nus}
            for _ in range(trials):
                f = draw(g, False)
                fs = split_shift(f)
                for nu in nus:
                    nup = 1.0 if nu == math.inf else nu / (nu - 1.0)
                    fails += below(grad_lp_norm(fs, 1), tilde[nu] * lp_norm_vertex(fs, nup))
                    a = balance_interval(f)[0] if nup == 1.0 else balance_point(f, nup)
                    best = lp_norm_vertex(f.shifted(a), nup)
                    fails += below(grad_lp_norm(f, 1), prime[nu] * best)
    elif suite == "sobolev":
        for _ in range(trials):
            f = draw(g, bool(g.boundary))
            checks = [sb.sobolev_check(f, p, nu)
                      for p, nu in ((1.0, 2.0), (2.0, 3.0), (1.5, 4.0))]
            checks.append(sb.general_F_check(f, r=2.0, p=2.0, nu=4.0))
            checks.append(sb.sup_embedding_check(f, p=3.0, nu=2.0))
            fails += sum(not c.passed for c in checks)
    elif suite == "nash":
        for _ in range(trials):
            f = draw(g, bool(g.boundary))
            if np.any(f.values):
                fails += sum(not sb.nash_check(f, nu).passed for nu in (2.5, 3.0, 4.0))
    elif suite == "trudinger":
        out["gamma0_gap"] = None
        for _ in range(trials):
            f = draw(g, bool(g.boundary))
            if grad_lp_norm(f, 3.0) == 0:
                continue
            for gamma in (0.0, 0.3, 0.7):
                c = sb.trudinger_check(f, gamma, 3.0)
                fails += not c.passed
                if gamma == 0.0:
                    out["gamma0_gap"] = abs(c.lhs - c.rhs)
    elif suite == "gennash":
        for nu in (2.5, 3.0):
            I = verify.iso_constant(g, nu, "open").value
            scaled = WeightedGraph(g.vertices, g.vmeasure,
                                   [Edge(e.u, e.v, e.a / I, e.length) for e in g.edges],
                                   g.boundary)
            for _ in range(trials):
                f = draw(scaled, True)
                if np.any(f.values):
                    fails += not sb.gennash_check(f, nu).passed
    out["failures"] = int(fails)
    return out


@pytest.mark.parametrize("inflate", [1.0, 10.0, 100.0])
@pytest.mark.parametrize("suite", ["ff", "sobolev", "nash", "trudinger", "gennash"])
def test_block_suites_match_per_trial_reference(monkeypatch, suite, inflate):
    # an inflated isoperimetric constant makes a share of the trials fail
    # (gennash divides it out of the weights, so only 100x leaves a mark)
    from dataclasses import replace
    from graphcalc import sobolev, verify

    true_iso = verify.iso_constant

    def iso(g, nu, variant="open", **kw):
        rep = true_iso(g, nu, variant, **kw)
        return replace(rep, value=inflate * rep.value)

    monkeypatch.setattr(verify, "iso_constant", iso)
    monkeypatch.setattr(sobolev, "iso_constant", iso)
    rng = np.random.default_rng(4)
    graphs = [cycle(6), path(7, boundary=[7])]
    graphs += [random_graph(int(rng.integers(4, 10)), rng, weighted=True,
                            boundary_fraction=0.3 * (k % 2)) for k in range(4)]
    failures = 0
    for g in graphs:
        if suite == "gennash" and not g.boundary:
            continue
        for seed in (0, 5):
            got = run_suite(g, suite, trials=30, seed=seed)
            want = _per_trial(g, suite, 30, seed)
            assert {k: got[k] for k in want} == pytest.approx(want, rel=1e-12, abs=0)
            failures += got["failures"]
    assert inflate < 100.0 or failures > 0


def test_residual_suites_match_per_trial_reference():
    from graphcalc.functions import (VertexFunction, edge_integral, grad_lp_norm,
                                     lp_norm_edge, lp_norm_vertex, midpoint_l2_sq)
    from graphcalc.graph import half_degrees
    from graphcalc.operators import EdgeField, divergence, laplacian_apply

    rng = np.random.default_rng(6)
    graphs = [cycle(6), path(7, boundary=[7])]
    graphs += [random_graph(int(rng.integers(2, 10)), rng, weighted=True, unit_lengths=k < 2,
                            boundary_fraction=0.3 * (k % 2)) for k in range(4)]
    for g in graphs:
        rho, rho_sup = half_degrees(g).rho, half_degrees(g).rho_sup
        loopfree = not g.loop_mask.any()
        unit = bool(np.all(g.elen == 1.0))
        mask = ~g.loop_mask
        for seed in (0, 3):
            rng = np.random.default_rng(seed)
            green = 0.0
            for _ in range(20):
                f = VertexFunction(g, rng.standard_normal(g.n) * g.interior_mask)
                X = EdgeField(g, rng.standard_normal(len(g.edges)))
                h = VertexFunction(g, rng.standard_normal(g.n) * g.interior_mask)
                pair = np.sum(divergence(g, X).values * f.values * g.vmeasure)
                jump = f.values[g.ev[mask]] - f.values[g.eu[mask]]
                green = max(green, abs(pair + np.sum(g.ea[mask] * X.values[mask] * jump)))
                s1 = np.sum(laplacian_apply(g, f).values * h.values * g.vmeasure)
                s2 = np.sum(f.values * laplacian_apply(g, h).values * g.vmeasure)
                green = max(green, abs(s1 - s2) / (1.0 + abs(s1)))
            got = run_suite(g, "green", trials=20, seed=seed)["max_residual"]
            assert got == pytest.approx(green, rel=1e-9, abs=1e-15)

            rng = np.random.default_rng(seed)
            ident = 0.0
            for _ in range(20):
                f = VertexFunction(g, rng.standard_normal(g.n))
                rel = []
                g2 = grad_lp_norm(f, 2) ** 2
                if loopfree:
                    rhs = np.sum(rho * f.values * g.vmeasure)
                    rel.append((edge_integral(f), rhs))
                    rhs = np.sum(rho * f.values**2 * g.vmeasure)
                    if unit:
                        rel += [(lp_norm_edge(f, 2) ** 2 + g2 / 6.0, rhs),
                                (midpoint_l2_sq(f) + g2 / 4.0, rhs)]
                    for p in (1.0, 2.0, 3.0):
                        lhsn = lp_norm_edge(f, p)
                        rhsn = rho_sup ** (1.0 / p) * lp_norm_vertex(f, p)
                        if lhsn > rhsn + 1e-9 * (1 + rhsn):
                            ident = max(ident, lhsn - rhsn)
                ident = max([ident] + [abs(a - b) / (1.0 + abs(b)) for a, b in rel])
                quad = np.sum(laplacian_apply(g, f).values * f.values * g.vmeasure)
                ident = max(ident, abs(quad - g2) / (1.0 + quad))
            got = run_suite(g, "identities", trials=20, seed=seed)["max_residual"]
            assert got == pytest.approx(ident, rel=1e-9, abs=1e-15)


def test_negative_trials_rejected():
    with pytest.raises(GraphError):
        run_suite(cycle(4), "ff", trials=-1)
