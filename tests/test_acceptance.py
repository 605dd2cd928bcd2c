"""Acceptance harness: twelve end-to-end criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines as
they print).  Every criterion is deterministic: all randomness is seeded.
"""

import math
from fractions import Fraction

import numpy as np

from graphcalc import (
    DecayProfile,
    Edge,
    EdgeField,
    VertexFunction,
    alon_field,
    alon_field_checks,
    balance_interval,
    balance_point,
    bound_report,
    build_graph,
    characteristic_approx,
    coarea,
    default_t_grid,
    divergence,
    edge_integral,
    eigenvalue_lower_bounds,
    enumerate_connected_subsets,
    exhaustion_check,
    general_decay_bound,
    gennash_check,
    grad_lp_norm,
    half_degrees,
    heat_kernel,
    hypothesis_audit,
    iso_constant,
    laplacian_apply,
    lp_norm_edge,
    lp_norm_vertex,
    midpoint_l2_sq,
    nash_check,
    nash_diagonal_bound,
    nonuniqueness_tree,
    power_profile,
    sharpness_experiment,
    sobolev_check,
    sobolev_quotient,
    split_shift,
    sup_embedding_check,
    trudinger_check,
)
from graphcalc.graph import WeightedGraph
from graphcalc.generators import (
    complete,
    cycle,
    doubled_radial,
    hypercube,
    path,
    radial_graph,
    random_graph,
)

NUS = (1.5, 2.0, 3.0, math.inf)


def _conclude(number, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number:2d} [{name}]: {tag}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


# ------------------------------------------------------------------ 1 ----


def test_criterion_01_exact_identities():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(2, 31))
        unit = i % 2 == 0
        g = random_graph(
            n,
            rng,
            weighted=True,
            boundary_fraction=float(rng.uniform(0.0, 0.3)),
            unit_lengths=unit,
        )
        f = VertexFunction(g, rng.standard_normal(g.n))
        rho = half_degrees(g).rho

        # integral of f against the edge measure equals the rho-weighted
        # vertex integral (loop-free graphs)
        rhs = float(np.sum(rho * f.values * g.vmeasure))
        worst = max(worst, abs(edge_integral(f) - rhs) / (1.0 + abs(rhs)))

        # edge-norm identities (unit lengths)
        if unit:
            rhs2 = float(np.sum(rho * f.values**2 * g.vmeasure))
            g2 = grad_lp_norm(f, 2) ** 2
            worst = max(
                worst, abs(lp_norm_edge(f, 2) ** 2 + g2 / 6.0 - rhs2) / (1.0 + abs(rhs2))
            )
            worst = max(worst, abs(midpoint_l2_sq(f) + g2 / 4.0 - rhs2) / (1.0 + abs(rhs2)))

        # Green identity and Laplacian symmetry on Dirichlet draws
        fd = VertexFunction(g, rng.standard_normal(g.n) * g.interior_mask)
        hd = VertexFunction(g, rng.standard_normal(g.n) * g.interior_mask)
        X = EdgeField(g, rng.standard_normal(len(g.edges)))
        div = divergence(g, X)
        pair = float(np.sum(div.values * fd.values * g.vmeasure))
        edge_sum = float(
            np.sum(g.ea * X.values * (fd.values[g.ev] - fd.values[g.eu]))
        )
        worst = max(worst, abs(pair + edge_sum) / (1.0 + abs(pair)))
        s1 = float(np.sum(laplacian_apply(g, fd).values * hd.values * g.vmeasure))
        s2 = float(np.sum(fd.values * laplacian_apply(g, hd).values * g.vmeasure))
        worst = max(worst, abs(s1 - s2) / (1.0 + abs(s1)))

        # co-area: the swept boundary areas integrate to the gradient 1-norm
        worst = max(worst, abs(coarea(f).integral() - grad_lp_norm(f, 1)))

    _conclude(1, "exact identities", worst <= 1e-12, f"max residual {worst:.3e}")


# ------------------------------------------------------------------ 2 ----


def _open_family(rng):
    graphs = [path(n, boundary=[n]) for n in (3, 5, 8)]
    graphs += [path(9, boundary=[1, 9])]
    graphs += [radial_graph(n, nu) for n in (6, 9, 12) for nu in (2.0, 3.0)]
    while len(graphs) < 15:
        g = random_graph(
            int(rng.integers(4, 12)), rng, weighted=True, boundary_fraction=0.3
        )
        if g.boundary and len(g.interior_indices()) <= 12:
            graphs.append(g)
    return graphs


def _closed_family(rng):
    graphs = [cycle(n) for n in range(3, 11)]
    graphs += [complete(n) for n in (3, 4, 5, 6)]
    graphs += [hypercube(3)]
    while len(graphs) < 16:
        graphs.append(random_graph(int(rng.integers(4, 12)), rng, weighted=True))
    return graphs


def test_criterion_02_federer_fleming():
    rng = np.random.default_rng(2)
    ok = True
    approx_worst = 0.0

    open_graphs = _open_family(rng)
    trials = -(-10000 // len(open_graphs))
    for g in open_graphs:
        consts = {nu: iso_constant(g, nu, "open") for nu in NUS}
        for nu, rep in consts.items():
            sub, fchi = characteristic_approx(g, rep.witness.vertices, eps=1e-6)
            gap = abs(sobolev_quotient(fchi, nu) - rep.value)
            approx_worst = max(approx_worst, gap)
            ok = ok and gap <= 1e-6
        for _ in range(trials):
            f = VertexFunction(g, rng.standard_normal(g.n) * g.interior_mask)
            if not np.any(f.values):
                continue
            for nu in NUS:
                ok = ok and sobolev_quotient(f, nu) >= consts[nu].value - 1e-9

    closed_graphs = _closed_family(rng)
    trials = -(-10000 // len(closed_graphs))
    for g in closed_graphs:
        tilde = {nu: iso_constant(g, nu, "tilde").value for nu in NUS}
        prime = {nu: iso_constant(g, nu, "tilde_prime").value for nu in NUS}
        for _ in range(trials):
            f = VertexFunction(g, rng.standard_normal(g.n))
            fs = split_shift(f)
            for nu in NUS:
                nup = 1.0 if nu == math.inf else nu / (nu - 1.0)
                ok = ok and grad_lp_norm(fs, 1) >= tilde[nu] * lp_norm_vertex(fs, nup) - 1e-9
                a = balance_interval(f)[0] if nup == 1.0 else balance_point(f, nup)
                best = lp_norm_vertex(f.shifted(a), nup)
                ok = ok and grad_lp_norm(f, 1) >= prime[nu] * best - 1e-9

    _conclude(
        2,
        "Federer-Fleming equality",
        ok,
        f"worst approximant gap {approx_worst:.3e}",
    )


# ------------------------------------------------------------------ 3 ----


def test_criterion_03_sandwich():
    rng = np.random.default_rng(3)
    graphs = [cycle(n) for n in range(3, 9)] + [complete(3), complete(4), hypercube(3)]
    graphs += [random_graph(int(rng.integers(3, 10)), rng, weighted=True) for _ in range(20)]
    ok = True
    for g in graphs:
        for nu in (1.0, 1.5, 2.0, 3.0, math.inf):
            t = iso_constant(g, nu, "tilde").value
            p = iso_constant(g, nu, "tilde_prime").value
            cap = 2.0 ** (1.0 / nu) if nu != math.inf else 1.0
            tol = 1e-12 * (1.0 + abs(p))
            ok = ok and (t <= p + tol) and (p <= cap * t + tol)
    _conclude(3, "sandwich I~ <= I~' <= 2^(1/nu) I~", ok)


# ------------------------------------------------------------------ 4 ----


def test_criterion_04_bound_soundness():
    graphs = [cycle(n) for n in range(3, 13)]
    graphs += [path(n) for n in (3, 5, 8)] + [path(n, boundary=[n]) for n in (4, 7)]
    graphs += [complete(n) for n in (3, 4, 5, 6)]
    graphs += [hypercube(3), hypercube(4)]
    graphs += [radial_graph(n, nu) for n in (5, 8, 12) for nu in (2.0, 3.0, 4.0)]
    rng = np.random.default_rng(404)
    graphs += [
        random_graph(
            int(rng.integers(3, 10)),
            rng,
            weighted=True,
            boundary_fraction=float(rng.uniform(0.0, 0.4)),
        )
        for _ in range(200)
    ]
    ok = True
    for g in graphs:
        rep = bound_report(g)
        ok = ok and rep.sound
        vals = {b.name: b for b in rep.bounds}
        if vals["mohar"].applicable and vals["dodziuk"].applicable:
            ok = ok and vals["mohar"].value >= vals["dodziuk"].value - 1e-12

    rep = bound_report(cycle(4))
    vals = {b.name: b for b in rep.bounds}
    ok = ok and abs(rep.lam - 2.0) <= 1e-12
    ok = ok and abs(vals["dodziuk"].value - 0.25) <= 1e-12
    ok = ok and abs(vals["mohar"].value - (2.0 - math.sqrt(3.0))) <= 1e-12
    _conclude(4, "eigenvalue-bound soundness", ok, f"{len(graphs)} graphs")


# ------------------------------------------------------------------ 5 ----


def test_criterion_05_alon_field_certification():
    ok = True
    tested = 0
    for g in (complete(4), hypercube(3)):
        pool = (1 << g.n) - 1
        half = g.total_measure() / 2.0
        for mask, _, mass in enumerate_connected_subsets(g, pool):
            if mass > half:
                continue
            idx = [i for i in range(g.n) if (mask >> i) & 1]
            A = [g.vertices[i] for i in idx]
            af = alon_field(g, A)
            checks = alon_field_checks(g, af)
            flags = {k: v for k, v in checks.items() if isinstance(v, bool)}
            ok = ok and all(flags.values())
            # rational certificate: rho_sup of the squared-field graph obeys
            # the (2 + floor(c) + frac(c)^2)/2 cap exactly
            ok = ok and checks["rho_sq"] <= checks["rho_sq_cap"]
            tested += 1
    _conclude(5, "max-flow field certification", ok, f"{tested} sets")


# ------------------------------------------------------------------ 6 ----


def test_criterion_06_heat_kernel_axioms():
    ok = True

    ker = heat_kernel(complete(2))
    for t in default_t_grid(1e-2, 1e2, 16):
        exact = (1.0 + math.exp(-2.0 * t)) / 2.0
        ok = ok and abs(ker.evaluate(1, 1, t) - exact) <= 1e-12

    rng = np.random.default_rng(6)
    probes = [cycle(7), hypercube(3), path(6, boundary=[6])]
    probes += [random_graph(8, rng, weighted=True, boundary_fraction=0.25)]
    for g in probes:
        k = heat_kernel(g)
        for t in (0.1, 1.0, 10.0):
            K = k.matrix(t)
            half = k.matrix(t / 2.0)
            semi = (half * g.vmeasure[None, :]) @ half
            ok = ok and np.abs(semi - K).max() <= 1e-10
            mass = K @ g.vmeasure
            if g.boundary:
                ok = ok and np.all(mass <= 1.0 + 1e-10)
            else:
                ok = ok and np.abs(mass - 1.0).max() <= 1e-10
            ok = ok and K.min() >= -1e-12

    chain = [{4, 5, 6}, {3, 4, 5, 6, 7}, {2, 3, 4, 5, 6, 7, 8}]
    out = exhaustion_check(path(9), chain, [(5, 5, 1.0), (4, 6, 0.5), (5, 5, 3.0)])
    ok = ok and out["monotone"] and out["bounded"]
    _conclude(6, "heat kernel axioms", ok)


# ------------------------------------------------------------------ 7 ----


def test_criterion_07_nash_decay():
    ok = True
    for nu in (2.5, 3.0, 4.0):
        out = nash_diagonal_bound(radial_graph(10, nu), nu)
        ok = ok and out["applicable"] and out["passed"]
        out2 = nash_diagonal_bound(doubled_radial(10, nu).graph, nu)
        ok = ok and out2["applicable"] and out2["passed"]
    _conclude(7, "Nash diagonal decay", ok)


# ------------------------------------------------------------------ 8 ----


def test_criterion_08_eigenvalue_corollary():
    ok = True
    graphs = [cycle(8), hypercube(3), doubled_radial(8, 3.0).graph]
    for g in graphs:
        out = eigenvalue_lower_bounds(g, 3.0)
        ok = ok and out["sound"]
    _conclude(8, "eigenvalue growth corollary", ok)


# ------------------------------------------------------------------ 9 ----


def test_criterion_09_generalized_decay():
    ok = True
    strong = build_graph(
        [1, 2, 3, 4, 5],
        [Edge(i, i + 1, a=4.0) for i in range(1, 5)],
        boundary=[5],
    )
    for nu in (2.5, 3.0, 4.0):
        prof = power_profile(strong, nu)
        generic = DecayProfile(prof.phi, prof.C)
        for x in (0.1, 1.0, 7.3, 40.0):
            ok = ok and abs(generic.F(x) - prof.F(x)) <= 1e-9 * abs(prof.F(x))

    for g in (
        strong,
        build_graph([1, 2, 3, 4], [Edge(i, i + 1, a=3.0) for i in range(1, 4)], boundary=[4]),
    ):
        nu = 3.0
        audit = hypothesis_audit(g, lambda x: x ** (1.0 / nu))
        ok = ok and audit["ok"]
        probes = [(v, t) for v in g.vertices if v not in g.boundary for t in (0.1, 1.0, 10.0)]
        out = general_decay_bound(g, power_profile(g, nu), probes)
        ok = ok and out["passed"]
    _conclude(9, "generalized decay profile", ok)


# ----------------------------------------------------------------- 10 ----


def test_criterion_10_inequality_fuzz():
    rng = np.random.default_rng(10)
    open_pool, closed_pool, gennash_pool = [], [], []
    while len(open_pool) < 12:
        g = random_graph(int(rng.integers(4, 10)), rng, weighted=True, boundary_fraction=0.3)
        if g.boundary:
            open_pool.append(g)
            I = iso_constant(g, 3.0, "open").value
            if I > 0:
                gennash_pool.append(
                    WeightedGraph(
                        g.vertices,
                        g.vmeasure,
                        [Edge(e.u, e.v, e.a / I, e.length) for e in g.edges],
                        g.boundary,
                    )
                )
    while len(closed_pool) < 12:
        closed_pool.append(random_graph(int(rng.integers(4, 10)), rng, weighted=True))

    failures = 0
    count = 0
    while count < 10000:
        go = open_pool[count % len(open_pool)]
        gc = closed_pool[count % len(closed_pool)]
        gn = gennash_pool[count % len(gennash_pool)]
        fo = VertexFunction(go, rng.standard_normal(go.n) * go.interior_mask)
        fc = VertexFunction(gc, rng.standard_normal(gc.n))
        fn = VertexFunction(gn, rng.standard_normal(gn.n) * gn.interior_mask)
        if not np.any(fo.values) or not np.any(fn.values):
            continue
        batch = [
            sobolev_check(fo, 2.0, 3.0),
            sobolev_check(fc, 1.5, 4.0),
            nash_check(fo, 3.0),
            nash_check(fc, 2.5),
            trudinger_check(fc, 0.4, 3.0),
            gennash_check(fn, 3.0),
            sup_embedding_check(fo, 3.0, 2.0),
        ]
        failures += sum(not c.passed for c in batch)
        count += len(batch)

    f0 = VertexFunction(open_pool[0], rng.standard_normal(open_pool[0].n) * open_pool[0].interior_mask)
    chk = trudinger_check(f0, 0.0, 3.0)
    exact = chk.lhs == chk.rhs == open_pool[0].total_measure()

    _conclude(
        10,
        "inequality fuzz suite",
        failures == 0 and exact,
        f"{count} instances, {failures} failures",
    )


# ----------------------------------------------------------------- 11 ----


def test_criterion_11_sharpness():
    ok = True
    m_grid = [2**k for k in range(4, 10)]
    p = 2.0
    fitted = 0.0
    for nu in (2.05, 2.1, 2.2, 2.4):
        out = sharpness_experiment(nu, p, m_grid, n=1024)
        scale = (nu - p) ** (1.0 / p - 1.0)
        for row in out["rows"]:
            fitted = max(fitted, row["normalized"] / scale)
    ok = ok and fitted <= 10.0

    end = sharpness_experiment(p, p, m_grid, n=1024)
    for row in end["rows"]:
        x = row["ratio"] * row["log_m"]
        ok = ok and 0.5 <= x <= 2.0
    _conclude(11, "sharpness as nu -> p", ok, f"fitted C {fitted:.3f}")


# ----------------------------------------------------------------- 12 ----


def test_criterion_12_tree_recursion():
    f, rep = nonuniqueness_tree(1.0, 100)
    ok = f[0] == 1 and f[1] == 2 and f[2] == Fraction(11, 4)
    ok = ok and rep["residual"] <= 1e-12
    ok = ok and rep["increasing"] and rep["bounded"]
    ok = ok and float(f[-1]) <= rep["product_bound"] + 1e-12
    _conclude(12, "tree recursion nonuniqueness", ok)
