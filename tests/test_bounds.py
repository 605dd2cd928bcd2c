import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from graphcalc import (
    Edge,
    WeightedGraph,
    EdgeField,
    GraphError,
    VertexFunction,
    alon_field,
    alon_field_checks,
    bobkov_bound,
    bound_report,
    build_graph,
    certified_magnification,
    half_degrees,
    neighborhood,
    nodal_region_reduction,
    q1_quotient,
    q2_quotient,
    rayleigh_quotient,
    true_lambda,
)
from graphcalc import bounds
from graphcalc.graph import integer_column
from graphcalc.bounds import AlonField, BoundReport, BoundValue, _max_flow, _traditional
from graphcalc.isoperimetry import enumerate_connected_subsets
from graphcalc.generators import complete, cycle, hypercube, path, radial_graph, random_graph


def test_bounds_take_their_mode_from_the_graph():
    # with boundary {a, c} lambda is the Dirichlet one at b, 2, and Mohar's
    # bound meets it; the closed lambda, 1, was paired with it before
    g = build_graph(list("abc"), [("a", "b"), ("b", "c")], boundary=["a", "c"])
    rep = bound_report(g)
    assert rep.mode == "dirichlet" and rep.lam == pytest.approx(2.0, abs=1e-12)
    assert next(b for b in rep.bounds if b.name == "mohar").value == pytest.approx(2.0)
    assert rep.sound


def test_c4_exact_values():
    rep = bound_report(cycle(4))
    assert rep.lam == pytest.approx(2.0, abs=1e-12)
    vals = {b.name: b for b in rep.bounds}
    assert vals["dodziuk"].value == pytest.approx(0.25, abs=1e-12)
    assert vals["mohar"].value == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-12)
    assert rep.sound


def test_bounds_without_edges():
    # rho_sup and I are both 0 there; the Dodziuk quotient used to divide by 0
    rep = bound_report(build_graph([1, 2], []))
    assert rep.lam == 0.0 and rep.sound
    assert [b.value for b in rep.bounds] == [0.0, 0.0, 0.0, 0.0]


def test_bound_report_refuses_at_the_pool_before_the_eigensolve(monkeypatch):
    g = random_graph(800, np.random.default_rng(1), boundary_fraction=0.1)

    def no_eigensolve(g):
        raise AssertionError("lambda solved before the pool refusal")

    monkeypatch.setattr(bounds, "true_lambda", no_eigensolve)
    with pytest.raises(GraphError, match="720 free vertices exceed the 63"):
        bound_report(g)


def test_mohar_at_least_dodziuk_unit_lengths():
    rng = np.random.default_rng(3)
    graphs = [cycle(n) for n in range(3, 9)] + [complete(4), hypercube(3)]
    graphs += [random_graph(8, rng, weighted=True, unit_lengths=True) for _ in range(10)]
    for g in graphs:
        rep = bound_report(g)
        vals = {b.name: b for b in rep.bounds}
        assert vals["mohar"].applicable
        assert vals["mohar"].value >= vals["dodziuk"].value - 1e-12
        assert rep.sound


def test_mohar_skipped_for_nonunit_lengths():
    g = build_graph(["a", "b"], [Edge("a", "b", length=2.0)])
    assert not next(b for b in bound_report(g).bounds if b.name == "mohar").applicable


def test_soundness_on_families():
    graphs = [path(n) for n in (3, 5, 8)]
    graphs += [path(n, boundary=[n]) for n in (3, 6)]
    graphs += [cycle(n) for n in range(3, 13)]
    graphs += [complete(n) for n in (3, 4, 5, 6)]
    graphs += [hypercube(3), hypercube(4)]
    graphs += [radial_graph(n, nu) for n in (5, 9, 12) for nu in (2.0, 3.0, 4.0)]
    for g in graphs:
        assert bound_report(g).sound


def test_soundness_on_random_graphs():
    rng = np.random.default_rng(101)
    for _ in range(40):
        g = random_graph(int(rng.integers(3, 10)), rng, weighted=True,
                         boundary_fraction=float(rng.uniform(0, 0.4)))
        assert bound_report(g).sound


def _scaled(g, s):
    return WeightedGraph(g.vertices, g.vmeasure,
                         [Edge(e.u, e.v, e.a * s, e.length) for e in g.edges], g.boundary)


def test_soundness_is_relative_to_lambda():
    rng = np.random.default_rng(71)
    graphs = [cycle(6), complete(5), hypercube(3), path(6, boundary=[6]), radial_graph(9, 3.0)]
    graphs += [random_graph(int(rng.integers(3, 10)), rng,
                            boundary_fraction=float(rng.uniform(0, 0.4))) for _ in range(12)]
    for g in graphs:
        for s in (1e-10, 1.0, 1e10):
            rep = bound_report(_scaled(g, s))
            assert rep.sound, (g.vertices, s)
            # a bound of twice lambda is unsound at every scale; at 1e-10 the
            # old absolute 1e-9 tolerance called it sound
            inflated = BoundValue("inflated", 2.0 * rep.lam, True, {})
            assert not BoundReport(rep.mode, rep.lam, [inflated]).sound


def test_bobkov_applicability():
    # K3 with a_e = 2 = V(u) + V(v): applicable, c = 1 -> 3/14... check value
    g = build_graph(["a", "b", "c"],
                    [Edge("a", "b", 2.0), Edge("b", "c", 2.0), Edge("a", "c", 2.0)])
    b = bobkov_bound(g)
    assert b.applicable
    assert b.value == pytest.approx(1.0 * 3.0 / 14.0)
    assert b.value <= true_lambda(g) + 1e-9
    assert not bobkov_bound(cycle(4)).applicable  # a = 1 != 2


def test_certified_magnification_k4():
    g = complete(4)
    assert certified_magnification(g, [1, 2]) == Fraction(1)
    assert certified_magnification(g, [1]) == Fraction(2)
    # every connected A of at most 4 vertices on Q3, against the definition
    q3 = hypercube(3)
    for mask, _, _ in enumerate_connected_subsets(q3, (1 << q3.n) - 1):
        A = [q3.vertices[i] for i in range(q3.n) if (mask >> i) & 1]
        if len(A) > 4:
            continue
        brute = min(
            Fraction(len(neighborhood(q3, B)), len(B)) - 1
            for k in range(1, len(A) + 1)
            for B in itertools.combinations(A, k)
        )
        assert certified_magnification(q3, A) == brute, A
    # a repeated id is one vertex: on path(4), Γ({2}) = {1, 3} and Γ({2, 3}) is every vertex
    p4 = path(4)
    for A in ([2], [2, 2], [2, 3], [2, 3, 3], [3, 2, 2, 3]):
        assert certified_magnification(p4, A) == Fraction(1), A


def test_certified_magnification_with_integers_past_int64():
    # 1e10 over the common denominator 2**55 of 0.1 is about 3.6e26 > 2**63
    rng = np.random.default_rng(67)
    for n, size in ((9, 5), (15, 13)):  # 2**13 - 1 subsets span two chunks
        g = random_graph(n, rng, extra_edges=n)
        meas = rng.uniform(0.2, 3.0, size=n)
        meas[:3] = (1e10, 0.1, 1.0 / 3.0)
        g = build_graph(g.vertices, g.edges, measures=meas)
        exact = [Fraction(float(x)) for x in g.vmeasure]
        den = math.lcm(*(x.denominator for x in exact))
        assert sum(x * den for x in exact) > 2**63
        A = sorted(rng.choice(g.vertices, size=size, replace=False).tolist(), key=str)
        brute = min(
            sum(exact[g.index(v)] for v in neighborhood(g, B)) / sum(exact[g.index(v)] for v in B)
            for k in range(1, len(A) + 1)
            for B in itertools.combinations(A, k)
        ) - 1
        got = certified_magnification(g, A)
        assert isinstance(got, Fraction) and got == brute


def test_certified_magnification_when_the_float_total_overflows():
    # the second graph's total is finite, but a scale that keeps n max V(v)
    # below 2**1000 must not flush 1e-300 to zero
    for measures, A in (([1e308, 1e308, 1.0, 3.0, 0.1], ["a", "b", "c", "d"]),
                        ([1e302, 1e302, 1e302, 1e302, 1e-300], ["a", "b", "c", "e"])):
        g = build_graph(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
                        measures=measures)
        exact = [Fraction(float(x)) for x in g.vmeasure]
        brute = min(
            sum(exact[g.index(v)] for v in neighborhood(g, B)) / sum(exact[g.index(v)] for v in B)
            for k in range(1, len(A) + 1)
            for B in itertools.combinations(A, k)
        ) - 1
        assert certified_magnification(g, A) == brute, measures
    # no power of two brings 2e308 below 2**1000 and keeps 5e-324 exact
    g = build_graph(list("abc"), [("a", "b"), ("b", "c")], measures=[1e308, 1e308, 5e-324])
    with pytest.raises(GraphError, match="too wide a range"):
        certified_magnification(g, ["a", "c"])


def test_certified_magnification_when_gamma_spans_two_words():
    # a ring of 10 hubs, each with 7 private leaves: Gamma of the hubs is all
    # 80 vertices, so Gamma(B) takes two int64 words
    rng = np.random.default_rng(101)
    hubs = list(range(10))
    edges = ([(h, (h + 1) % 10) for h in hubs]
             + [(h, 10 + 7 * h + k) for h in hubs for k in range(7)])
    g = build_graph(range(80), edges, measures=rng.uniform(0.5, 2.0, 80))
    assert len(neighborhood(g, hubs)) == 80
    exact = [Fraction(x) for x in g.vmeasure.tolist()]
    brute = min(
        sum(exact[g.index(v)] for v in neighborhood(g, B)) / sum(exact[g.index(v)] for v in B)
        for k in range(1, len(hubs) + 1)
        for B in itertools.combinations(hubs, k)
    ) - 1
    assert certified_magnification(g, hubs) == brute


def test_certified_magnification_is_below_what_alon_field_certifies():
    # B = {a, c} reaches only b; the identity slot lets a and c keep their own
    # measure, so the transport of (1 + 1/2) V into A's closed neighbourhood is feasible
    g = path(3)
    assert certified_magnification(g, [1, 3]) == Fraction(-1, 2)
    checks = alon_field_checks(g, alon_field(g, [1, 3], c=Fraction(1, 2)))
    assert all(checks[k] for k in ("magnitude", "divergence_on_A", "divergence_off_A",
                                   "unit_inflow", "rho_sq_bound"))


def test_alon_field_k4():
    g = complete(4)
    af = alon_field(g, [1, 2])
    assert af.c == Fraction(1)
    checks = alon_field_checks(g, af)
    assert checks["magnitude"] and checks["unit_inflow"]
    assert checks["divergence_on_A"] and checks["divergence_off_A"]
    assert checks["rho_sq_bound"]


def test_alon_field_every_small_set_q3():
    g = hypercube(3)
    pool = (1 << g.n) - 1
    for mask, _, _ in enumerate_connected_subsets(g, pool):
        size = bin(mask).count("1")
        if size > g.n // 2:
            continue
        A = [g.vertices[i] for i in range(g.n) if (mask >> i) & 1]
        af = alon_field(g, A)
        checks = alon_field_checks(g, af)
        flags = {k: v for k, v in checks.items() if isinstance(v, bool)}
        assert all(flags.values()), (A, flags)


def test_alon_field_infeasible_c_raises():
    g = cycle(6)
    with pytest.raises(GraphError):
        alon_field(g, [1, 2], c=Fraction(5))


def test_alon_field_requires_traditional():
    g = build_graph([("a", 2.0), ("b", 1.0)], [Edge("a", "b")])
    with pytest.raises(GraphError):
        alon_field(g, ["b"])
    af = alon_field(g, ["b"], generalized=True)
    assert alon_field_checks(g, af)["divergence_on_A"]


def test_max_flow_equals_the_least_cut():
    # random integer networks with zero capacities, repeated and antiparallel
    # arcs, and a node (n - 1) that only receives, so it cannot reach the
    # sink; every s-t cut is enumerated
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(3, 8))
        s, t = 0, n - 2
        arcs = [(int(rng.integers(n - 1)), int(rng.integers(n - 1)), int(rng.integers(0, 6)))
                for _ in range(int(rng.integers(0, 3 * n)))]
        arcs = [a for a in arcs if a[0] != a[1]] + [(s, n - 1, 3), (t, n - 1, 2)]
        flow = _max_flow(n, arcs, s, t)
        assert all(0 <= f <= cap for f, (_, _, cap) in zip(flow, arcs))
        net = [0] * n
        for f, (u, v, _) in zip(flow, arcs):
            net[u] -= f
            net[v] += f
        assert all(net[x] == 0 for x in range(n) if x not in (s, t))
        cut = min(
            sum(cap for u, v, cap in arcs if (side >> u) & 1 and not (side >> v) & 1)
            for side in range(1 << n)
            if (side >> s) & 1 and not (side >> t) & 1
        )
        assert net[t] == -net[s] == cut
        # one common scale leaves the augmenting paths, so the flow scales
        assert _max_flow(n, [(u, v, 7 * cap) for u, v, cap in arcs], s, t) == [7 * f for f in flow]


def test_alon_field_golden_fractions():
    # the exact fields of this Edmonds-Karp and its tie order (another maximum
    # flow would differ): generalized, dyadic non-unit measures, parallel
    # edges in both orientations and loops
    g = build_graph(
        [("a", 0.5), ("b", 0.25), ("c", 3.0), ("d", 1.0), ("e", 0.75)],
        [Edge("a", "b"), Edge("b", "a", 2.0), Edge("a", "b"), Edge("b", "c"), Edge("c", "c"),
         Edge("c", "d"), Edge("d", "a"), Edge("d", "e"), Edge("e", "e"), Edge("e", "b", 0.5)],
    )
    cases = [
        (["a", "b"], None, "3/2", "-1/4 0 0 -5/8 0 0 1/2 0 0 0"),
        (["b"], None, "16", "1/2 0 0 -3 0 0 0 0 0 1/2"),
        (["a", "d"], Fraction(1, 3), "1/3", "-1/6 0 0 0 0 4/3 0 0 0 0"),
        (["b", "e"], None, "5/3", "1/2 0 0 -1/6 0 0 0 1 0 -1/4"),
    ]
    for A, c, want_c, want in cases:
        af = alon_field(g, A, c=c, generalized=True)
        assert af.c == Fraction(want_c) and af.exact == [Fraction(x) for x in want.split()], A
        assert all(isinstance(x, Fraction) for x in af.exact)
        assert list(af.field.values) == [float(x) for x in af.exact]
    with pytest.raises(GraphError, match=r"^flow saturates only 11/4 of 3: A is not"):
        alon_field(g, ["a", "b"], c=Fraction(3), generalized=True)
    q3 = hypercube(3)
    af = alon_field(q3, ["000", "001", "011"])
    assert af.c == 1
    assert af.exact == [Fraction(x) for x in "-1 0 0 -1 -1 1 0 -1 0 0 0 0".split()]
    assert alon_field(q3, ["000"]).exact == [-1, -1] + [0] * 10


def _reference_checks(g, af):
    """The per-edge Fraction arithmetic that alon_field_checks replaced."""
    meas = [Fraction(float(x)) for x in g.vmeasure]
    inflow = [Fraction(0)] * g.n
    arriving = [Fraction(0)] * g.n
    sq = [Fraction(0)] * g.n
    sup_len = Fraction(0)
    for k, e in enumerate(g.edges):
        if e.u == e.v:
            continue
        x = af.exact[k]
        iu, iv = g.index(e.u), g.index(e.v)
        inflow[iv] += x
        inflow[iu] -= x
        if x > 0:
            arriving[iu] += x
        elif x < 0:
            arriving[iv] += -x
        le = Fraction(float(e.length))
        sup_len = max(sup_len, le)
        sq[iu] += le * x * x
        sq[iv] += le * x * x
    c = af.c
    in_A = [v in af.A for v in g.vertices]
    fl = c.numerator // c.denominator
    fr = c - fl
    rho_bound = (2 + fl + fr * fr) * sup_len / 2
    rho_x = max((sq[i] / (2 * meas[i]) for i in range(g.n)), default=Fraction(0))
    return {
        "magnitude": all(abs(x) <= 1 for x in af.exact),
        "divergence_on_A": all(inflow[i] >= c * meas[i] for i in range(g.n) if in_A[i]),
        "divergence_off_A": all(inflow[i] <= 0 for i in range(g.n) if not in_A[i]),
        "unit_inflow": all(arriving[i] <= meas[i] for i in range(g.n)),
        "rho_sq_bound": rho_x <= rho_bound,
        "rho_sq": rho_x,
        "rho_sq_cap": rho_bound,
    }


def _equivalence_graph(rng):
    """A small random graph: weighted or traditional, with boundary, loops,
    parallel edges and (dyadic or not) non-unit lengths."""
    n = int(rng.integers(2, 8))
    weighted = bool(rng.integers(2))
    g = random_graph(n, rng, weighted=weighted, allow_loops=True,
                     boundary_fraction=float(rng.choice([0.0, 0.0, 0.3])))
    edges = list(g.edges)
    edges += [edges[int(i)] for i in rng.integers(len(edges), size=int(rng.integers(0, 3)))]
    lengths = rng.choice([1.0, 0.5, 2.0, 0.1, 1.0 / 3.0, 2.75], size=len(edges))
    if rng.integers(2):
        edges = [Edge(e.v, e.u, e.a, float(le)) for e, le in zip(edges, lengths)]
    return WeightedGraph(g.vertices, g.vmeasure, edges, g.boundary)


def test_integer_checks_equal_the_fraction_reference():
    rng = np.random.default_rng(2024)
    cases, seen = 0, {}
    while cases < 1200:
        g = _equivalence_graph(rng)
        interior = [v for v in g.vertices if v not in g.boundary]
        if not interior:
            continue
        size = int(rng.integers(1, len(interior) + 1))
        A = rng.choice(np.array(interior, dtype=object), size=size, replace=False).tolist()
        generalized = not _traditional(g) or bool(rng.integers(2))
        for c in (None, Fraction(1, 3), Fraction(0)):
            try:
                af = alon_field(g, A, c=c, generalized=generalized)
            except GraphError:  # c < 0 certified, or 1/3 not reached
                continue
            fields = [af.exact]
            k = int(rng.integers(len(g.edges)))
            for delta in (Fraction(1, 7), Fraction(-1, 7), Fraction(-5, 2), Fraction(3)):
                fields.append(af.exact[:k] + [af.exact[k] + delta] + af.exact[k + 1:])
            for exact in fields:
                case = AlonField(af.field, af.A, af.c, exact)
                got, want = alon_field_checks(g, case), _reference_checks(g, case)
                assert got == want, (g.to_dict(), A, c, exact)
                assert isinstance(got["rho_sq"], Fraction) and isinstance(got["rho_sq_cap"], Fraction)
                for name, flag in got.items():
                    if isinstance(flag, bool):
                        seen.setdefault(name, set()).add(flag)
                cases += 1
    assert len(seen) == 5 and all(flags == {True, False} for flags in seen.values()), seen


def test_checks_with_a_loop_finer_than_every_edge_length():
    # the loop's length 2**-40 sets the denominator of the length column,
    # though the checks skip loops; every value and flag must stay exact
    g = build_graph([("a", 0.5), ("b", 0.25), ("c", 3.0), ("d", 1.0)],
                    [Edge("a", "b", 1.0, 0.5), Edge("b", "b", 2.0, 3 * 2.0**-40),
                     Edge("b", "c", 1.0, 0.25), Edge("c", "d", 0.5, 1.5), Edge("d", "a")])
    assert integer_column(g, "elen")[0] == 2**40
    seen = set()
    for A in (["a"], ["b"], ["a", "b"], ["b", "d"]):
        af = alon_field(g, A, generalized=True)
        deltas = (Fraction(0), Fraction(1, 7), Fraction(-5, 2))
        for k, delta in itertools.product(range(g.m), deltas):
            exact = af.exact[:k] + [af.exact[k] + delta] + af.exact[k + 1:]
            case = AlonField(af.field, af.A, af.c, exact)
            got = alon_field_checks(g, case)
            assert got == _reference_checks(g, case), (A, k, delta)
            seen.add(got["rho_sq_bound"])
    assert seen == {True, False}


def test_q1_q2_inequality():
    # Cauchy-Schwarz: Q1(f, X) <= 2 Q2(f, X) sqrt(R(f))
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(8, rng, weighted=True, unit_lengths=True)
        f = VertexFunction(g, rng.standard_normal(8))
        X = EdgeField(g, rng.uniform(-1, 1, len(g.edges)))
        q1 = q1_quotient(f, X)
        q2 = q2_quotient(f, X)
        assert q1 <= 2.0 * q2 * math.sqrt(rayleigh_quotient(f)) + 1e-9


def test_rayleigh_quotient_bounds_lambda():
    g = cycle(6)
    lam = true_lambda(g)
    rng = np.random.default_rng(15)
    for _ in range(20):
        vals = rng.standard_normal(6)
        vals -= np.mean(vals)  # V is uniform here
        f = VertexFunction(g, vals)
        assert rayleigh_quotient(f) >= lam - 1e-9


def test_nodal_region_reduction():
    g = cycle(8)
    sub, bound, lam2 = nodal_region_reduction(g)
    assert bound.value <= lam2 + 1e-9
    assert sub.boundary
    with pytest.raises(GraphError):
        nodal_region_reduction(path(3, boundary=[3]))
