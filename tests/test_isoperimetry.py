import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from graphcalc import (
    Edge,
    GraphError,
    VertexFunction,
    build_graph,
    characteristic_approx,
    enumerate_connected_subsets,
    iso_constant,
    magnification,
    neighborhood,
    sobolev_quotient,
    with_boundary,
)
from graphcalc import isoperimetry
from graphcalc.bounds import certified_magnification
from graphcalc.isoperimetry import _iso_open_path
from graphcalc.verify import run_suite
from graphcalc.generators import complete, cycle, hypercube, path, random_graph


def _all_mask(g):
    return (1 << g.n) - 1


def test_connected_subset_count_path():
    g = path(4)
    masks = [m for m, _, _ in enumerate_connected_subsets(g, _all_mask(g))]
    assert len(set(masks)) == len(masks)
    assert len(masks) == 10  # intervals of a 4-path: 4+3+2+1


def test_connected_subset_count_cycle():
    g = cycle(5)
    masks = [m for m, _, _ in enumerate_connected_subsets(g, _all_mask(g))]
    # proper arcs (5 starts x 4 lengths) plus the whole cycle
    assert len(set(masks)) == len(masks) == 21


def test_connected_subsets_match_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_graph(int(rng.integers(2, 9)), rng)
        nbrs = [g.neighbors(i) for i in range(g.n)]

        def connected(mask):
            verts = [i for i in range(g.n) if (mask >> i) & 1]
            seen, stack = {verts[0]}, [verts[0]]
            while stack:
                for j in nbrs[stack.pop()]:
                    if (mask >> j) & 1 and j not in seen:
                        seen.add(j)
                        stack.append(j)
            return len(seen) == len(verts)

        brute = {m for m in range(1, 1 << g.n) if connected(m)}
        got = enumerate_connected_subsets(g, _all_mask(g)).tolist()
        masks = [m for m, _, _ in got]
        assert len(masks) == len(set(masks))
        assert set(masks) == brute
        for mask, a, mass in got:
            assert (a, mass) == (_ordered_area(g, mask), _ordered_mass(g, mask))


def _connected_within(g, mask):
    verts = [i for i in range(g.n) if (mask >> i) & 1]
    seen, stack = {verts[0]}, [verts[0]]
    while stack:
        for j in g.neighbors(stack.pop()):
            if (mask >> j) & 1 and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(verts)


def _ordered_sum(terms):
    total = 0.0  # one term after another, whatever Python's sum() does
    for x in terms:
        total += x
    return total


def _ordered_area(g, mask):
    """a_e over the edges with exactly one endpoint in the mask, in edge order."""
    return _ordered_sum(a for u, v, a in zip(g.eu.tolist(), g.ev.tolist(), g.ea.tolist())
                        if ((mask >> u) & 1) != ((mask >> v) & 1))


def _ordered_mass(g, mask):
    """V(v) over the vertices of the mask, in ascending vertex order."""
    return _ordered_sum(x for i, x in enumerate(g.vmeasure.tolist()) if (mask >> i) & 1)


def _check_table_against_brute_force(g):
    """The table over g's free vertices holds every connected subset once,
    with its ordered sums, exactly; bit j of a pool-local brute-force subset
    selects the j-th free vertex, the table holds vertex masks."""
    pool = g.interior_indices().tolist()
    brute = set()
    for sub in range(1, 1 << len(pool)):
        mask = sum(1 << v for j, v in enumerate(pool) if (sub >> j) & 1)
        if _connected_within(g, mask):
            brute.add(mask)
    table = enumerate_connected_subsets(g, sum(1 << v for v in pool))
    _check_table(g, table, brute)


def _check_table(g, table, sets):
    """One row per set of ``sets``, by (size, mask), with the ordered sums."""
    masks = table["mask"].tolist()
    assert len(masks) == len(set(masks)) and set(masks) == sets
    keys = [(m.bit_count(), m) for m in masks]
    assert keys == sorted(keys)
    for mask, area, mass in table.tolist():
        assert (area, mass) == (_ordered_area(g, mask), _ordered_mass(g, mask))


def test_subset_table_matches_brute_force_over_the_pool():
    # loops, parallel edges and boundaries
    rng = np.random.default_rng(53)
    graphs = [random_graph(int(rng.integers(2, 12)), rng, extra_edges=int(rng.integers(0, 12)),
                           allow_loops=True, boundary_fraction=float(rng.choice([0.0, 0.3])))
              for _ in range(24)]
    graphs.append(build_graph([1, 2, 3], [Edge(1, 2, 0.5), Edge(1, 2, 1.5), Edge(2, 2, 4.0),
                                          Edge(2, 3, 0.25)], boundary=[3]))
    for g in graphs:
        if g.interior_indices().size:
            _check_table_against_brute_force(g)


def test_subset_table_on_a_dense_multigraph_and_a_lone_free_vertex():
    # 320 edges take several edge blocks, each carrying the running area in;
    # a lone free vertex makes a one-row table, whose sums still run in order:
    # after its strong edge every weak one rounds away, added pairwise they would not
    rng = np.random.default_rng(61)
    ends = rng.integers(0, 12, size=(320, 2)).tolist()
    dense = build_graph(list(range(12)), [Edge(u, v, float(rng.uniform(0.1, 7.0)))
                                          for u, v in ends],
                        measures=rng.uniform(0.1, 5.0, 12).tolist(), boundary=[10, 11])
    assert len(dense.edges) >= 300 and bool(dense.loop_mask.any())
    star = build_graph(list(range(41)), [Edge(0, k, 1.0 if k == 1 else 1e-16)
                                         for k in range(1, 41)], boundary=range(1, 41))
    for g in (dense, star):
        _check_table_against_brute_force(g)
    rep = iso_constant(dense, 2.0, "open")
    assert rep.value == pytest.approx(min(
        _ordered_area(dense, m) * _ordered_mass(dense, m) ** -0.5
        for m, _, _ in enumerate_connected_subsets(dense, 1023).tolist()), rel=1e-12, abs=0.0)
    assert iso_constant(star, 1.0).witness.area == _ordered_area(star, 1) == 1.0


def test_witnesses_are_table_rows():
    from graphcalc.heat import hypothesis_audit

    rng = np.random.default_rng(67)
    for _ in range(12):
        g = random_graph(int(rng.integers(3, 11)), rng, extra_edges=int(rng.integers(0, 8)),
                         allow_loops=True, boundary_fraction=float(rng.choice([0.0, 0.3])))
        pool = sum(1 << int(i) for i in g.interior_indices())
        rows = {m: (area, mass)
                for m, area, mass in isoperimetry._subset_table(g, pool).tolist()}
        witnesses = [iso_constant(g, nu, variant).witness
                     for nu in (1.0, 2.0, math.inf)
                     for variant in (["open"] + ["tilde", "tilde_prime"] * g.is_closed)]
        audit = hypothesis_audit(g, lambda x: 0.5 * x ** 0.5)
        if not audit["ok"]:
            witnesses.append(isoperimetry.AdmissibleSet(audit["witness"], audit["area"],
                                                        audit["vmass"]))
        for w in filter(None, witnesses):
            mask = sum(1 << g.index(v) for v in w.vertices)
            assert (w.area, w.vmass) == rows[mask]


def test_components_of_a_disconnected_graph_have_area_exactly_zero():
    rng = np.random.default_rng(59)
    for _ in range(5):
        a, b = random_graph(5, rng, allow_loops=True), random_graph(6, rng)
        edges = list(a.edges) + [Edge(e.u + 5, e.v + 5, e.a, e.length) for e in b.edges]
        g = build_graph(list(range(11)), edges,
                        measures=np.concatenate([a.vmeasure, b.vmeasure]))
        rows = {m: area for m, area, _ in enumerate_connected_subsets(g, _all_mask(g)).tolist()}
        assert rows[0b11111] == 0.0 and rows[0b11111100000] == 0.0
        assert iso_constant(g, 2.0, "tilde").value == 0.0


def test_free_vertex_pool_of_64_is_refused():
    # 64 free vertices of a cycle make few subsets, but no int64 mask holds them
    for g in (cycle(64), with_boundary(cycle(70), list(range(1, 7)))):
        with pytest.raises(GraphError, match="63"):
            iso_constant(g, 2.0, "tilde" if g.is_closed else "open")
        with pytest.raises(GraphError, match="63"):
            magnification(g)


def test_subset_table_of_a_63_cycle():
    # bit 62 is the last below the int64 sign bit: every proper arc, and the whole cycle
    g = build_graph(range(63), [Edge(i, (i + 1) % 63, a=1.0 + i / 7) for i in range(63)],
                    measures=1.0 + np.arange(63) / 11)
    arcs = {sum(1 << (start + k) % 63 for k in range(size))
            for start in range(63) for size in range(1, 63)}
    _check_table(g, enumerate_connected_subsets(g, _all_mask(g)), arcs | {_all_mask(g)})


def _first_least_ratio(g, pool, half):
    """(sub, ratio) of the first sub in ascending order (bit j for pool[j])
    with the least V(Gamma(B))/V(B), exactly, over the B with 2 m(B) <= m(G)
    if ``half``; m are the measures' ``as_integer_ratio`` over one denominator."""
    ratios = [x.as_integer_ratio() for x in g.vmeasure.tolist()]
    den = math.lcm(*(d for _, d in ratios))
    m = [p * (den // d) for p, d in ratios]
    whole = sum(m)
    # byte tables of m, so that m(Gamma) is a few lookups per subset
    tables = [[sum(m[8 * k + j] for j in range(8) if b >> j & 1 and 8 * k + j < g.n)
               for b in range(256)] for k in range(-(-g.n // 8))]
    nbr = [sum(1 << w for w in g.neighbors(v)) for v in pool]
    mass, gamma = [0] * (1 << len(pool)), [0] * (1 << len(pool))
    best = None
    for sub in range(1, 1 << len(pool)):
        j, rest = (sub & -sub).bit_length() - 1, sub & (sub - 1)
        mass[sub], gamma[sub] = mass[rest] + m[pool[j]], gamma[rest] | nbr[j]
        if half and 2 * mass[sub] > whole:
            continue
        gm = sum(t[gamma[sub] >> 8 * k & 255] for k, t in enumerate(tables))
        if best is None or gm * best[2] < best[1] * mass[sub]:
            best = sub, gm, mass[sub]
    return best[0], Fraction(best[1], best[2])


def test_magnification_matches_brute_force_across_chunks():
    # 13 and more free vertices: 2**13 - 1 subsets span two chunks of 4096
    assert (1 << 13) - 1 > isoperimetry.CHUNK
    rng = np.random.default_rng(61)
    graphs = [random_graph(13, rng), random_graph(14, rng, weighted=False),
              random_graph(16, rng, boundary_fraction=0.125), random_graph(13, rng, allow_loops=True)]
    # a heavy leaf on a light vertex as the 13th vertex: the least ratio
    # lies in the last chunk
    base = random_graph(12, rng)
    graphs.append(build_graph(list(range(13)), list(base.edges) + [Edge(12, 0)],
                              measures=np.r_[0.05, base.vmeasure[1:], 3.0]))
    # the relation "Gamma(a) meets Gamma(b)" splits into classes on these
    ladder = build_graph(range(14), [Edge(i, i + 1) for i in range(13) if i != 6]
                         + [Edge(i, i + 7) for i in range(7)], measures=rng.uniform(0.5, 2.0, 14))
    chords = build_graph(range(14), [Edge(i, (i + 1) % 14) for i in range(14)]
                         + [Edge(i, i + 3) for i in range(0, 11, 2)])  # odd chords: bipartite
    loops = build_graph(range(12), [Edge(i, i + 1) for i in range(11) if i != 5]
                        + [Edge(6, 11), Edge(0, 0), Edge(9, 9, 2.0)],
                        measures=rng.choice([0.1, 0.3], 12))  # a path and a cycle
    # two equal copies on shuffled ids: exact ties across the classes, where
    # the class scanned later may hold the lesser mask
    part, ids = random_graph(7, rng, weighted=False), rng.permutation(14).tolist()
    twins = build_graph(range(14), [Edge(ids[e.u + k], ids[e.v + k]) for k in (0, 7)
                                    for e in part.edges],
                        measures=np.tile(rng.choice([0.1, 0.2, 0.3], 7), 2)[np.argsort(ids)])
    graphs += [ladder, with_boundary(ladder, [0, 13]), chords, hypercube(4), loops, twins]
    for g in graphs:
        pool = [g.vertices[i] for i in g.interior_indices().tolist()]
        sub, least = _first_least_ratio(g, g.interior_indices().tolist(), g.is_closed)
        c, witness = magnification(g)
        assert witness == frozenset(v for j, v in enumerate(pool) if sub >> j & 1)
        # c is the witness's float ratio minus 1.0
        assert abs(Fraction(c) + 1 - least) <= 8 * g.n * Fraction(2.0**-52) * least
        everywhere = _first_least_ratio(g, g.interior_indices().tolist(), False)[1]
        assert certified_magnification(g, pool) == everywhere - 1


def test_magnification_admits_exactly_the_sets_of_at_most_half_the_measure():
    # V(a) = 3 + 2**-40 lies above V(G)/2 = 3 + 2**-41, so {a} never competes
    g = build_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
                    measures=[3.0 + 2.0**-40, 1.0, 1.0, 1.0])
    c, witness = magnification(g)
    assert c == 1.0
    exact = {v: Fraction(float(g.vmeasure[g.index(v)])) for v in g.vertices}
    assert 2 * sum(exact[v] for v in witness) <= sum(exact.values())
    # as dyadic rationals, 0.1 + 0.2 lies above half of 0.1 + 0.3 + 0.2 and 0.3
    # below it: {y} is admissible and {x, z} is not
    p = build_graph(["x", "y", "z"], [("x", "y"), ("y", "z")], measures=[0.1, 0.3, 0.2])
    c, witness = magnification(p)
    assert witness == {"y"} and c == (0.1 + 0.2) / 0.3 - 1.0 > 0.0


def test_magnification_decides_ties_of_non_dyadic_measures_exactly():
    # every 8-set of complete(16) has ratio exactly 2, but with measures 0.1
    # their float sums differ; the witness is the first 8-set in scan order
    k = complete(16)
    g = build_graph(k.vertices, k.edges, measures=np.full(16, 0.1))
    c, witness = magnification(g)
    assert witness == frozenset(range(1, 9)) and c == pytest.approx(1.0, rel=1e-15)


def test_iso_open_path_oracle():
    g = path(3, boundary=[3])
    rep = iso_constant(g, math.inf, "open")
    assert rep.value == pytest.approx(0.5)  # S = {1, 2}: area 1, mass 2
    assert rep.witness.vertices == frozenset({1, 2})


def test_iso_tilde_c4():
    g = cycle(4)
    assert iso_constant(g, math.inf, "tilde").value == pytest.approx(1.0)
    assert iso_constant(g, 2.0, "tilde").value == pytest.approx(math.sqrt(2.0))
    assert iso_constant(g, 2.0, "tilde_prime").value == pytest.approx(2.0)
    # at nu = 1 the mass drops out: I~ = min area = 2, I~' doubles it
    assert iso_constant(g, 1.0, "tilde").value == pytest.approx(2.0)
    assert iso_constant(g, 1.0, "tilde_prime").value == pytest.approx(4.0)


def test_iso_nu_one():
    g = path(4, boundary=[4])
    # open variant at nu=1 is the least cut area
    assert iso_constant(g, 1.0, "open").value == pytest.approx(1.0)


def test_sandwich_on_small_closed_graphs():
    for g in (cycle(3), cycle(6), complete(4), hypercube(3)):
        for nu in (1.0, 1.7, 2.0, 3.0, math.inf):
            ti = iso_constant(g, nu, "tilde").value
            tp = iso_constant(g, nu, "tilde_prime").value
            hi = ti if nu == math.inf else 2.0 ** (1.0 / nu) * ti
            assert ti - 1e-12 <= tp <= hi + 1e-12


def test_tilde_excludes_whole_vertex_set():
    # on weighted closed graphs the mass of the whole vertex set, summed one
    # vertex at a time, can differ from the total measure by a rounding step;
    # the whole set must still never compete
    for seed in range(300):
        g = random_graph(8, np.random.default_rng(seed))
        for nu in (2.0, math.inf):
            for variant in ("tilde", "tilde_prime"):
                rep = iso_constant(g, nu, variant)
                assert rep.value > 0, (seed, nu, variant)
                assert rep.witness.vertices < frozenset(g.vertices), (seed, nu, variant)
    single = iso_constant(build_graph([1], []), math.inf, "tilde")
    assert single.value == math.inf and single.witness is None


def test_tilde_variants_need_closed_graph():
    g = path(3, boundary=[3])
    with pytest.raises(GraphError):
        iso_constant(g, 2.0, "tilde")
    for nu in (0.5, math.nan, -math.inf):
        with pytest.raises(GraphError):
            iso_constant(cycle(3), nu, "open")
    with pytest.raises(GraphError):
        iso_constant(cycle(3), 2.0, "bogus")


def test_every_constant_of_a_graph_shares_one_enumeration(monkeypatch):
    real = isoperimetry.enumerate_connected_subsets
    calls = []

    def counting(g, allowed_mask):
        calls.append(allowed_mask)
        return real(g, allowed_mask)

    monkeypatch.setattr(isoperimetry, "enumerate_connected_subsets", counting)
    g = random_graph(9, np.random.default_rng(4), weighted=True)
    run_suite(g, "ff", trials=3)  # Ĩ and Ĩ' at four nu each
    assert len(calls) == 1
    iso_constant(g, 1.0, "open")  # the open pool of a closed graph is every vertex too
    assert len(calls) == 1
    run_suite(with_boundary(g, [g.vertices[0]]), "ff", trials=3)  # I at four nu
    assert len(calls) == 2


def test_free_vertices_past_bit_63():
    # the subset table keeps masks of 64 or more vertices as Python ints
    g = cycle(70)
    first = iso_constant(with_boundary(g, g.vertices[5:]), 2.0, "open")
    last = iso_constant(with_boundary(g, g.vertices[:65]), 2.0, "open")
    assert first.value == last.value == pytest.approx(2.0 / math.sqrt(5.0))
    assert last.witness.vertices == frozenset(g.vertices[65:])


def test_subset_budget_counts_the_subsets_each_scan_visits(monkeypatch):
    # complete(8) has 255 connected subsets and one class of 8 vertices
    from graphcalc.heat import hypothesis_audit

    monkeypatch.setattr(isoperimetry, "SUBSET_CAP", 255)
    assert iso_constant(complete(8), math.inf, "tilde").value == pytest.approx(4.0)
    assert magnification(complete(8))[0] == pytest.approx(1.0)
    monkeypatch.setattr(isoperimetry, "SUBSET_CAP", 254)
    g = complete(8)
    dirichlet = with_boundary(complete(9), [9])
    refusals = [lambda: iso_constant(g, math.inf, "tilde"), lambda: magnification(g),
                lambda: hypothesis_audit(dirichlet, lambda x: x),
                lambda: certified_magnification(g, g.vertices)]
    for refuse in refusals * 2:  # a refusal does not depend on what ran before it
        with pytest.raises(GraphError, match="254 subsets"):
            refuse()


def test_subset_budget_is_per_class_and_counts_connected_sets():
    # a 25-cycle has 601 connected subsets, past the old cap of 22 free vertices
    g = cycle(25)
    assert iso_constant(g, 2.0, "tilde").value == pytest.approx(2.0 / math.sqrt(12.0))
    assert iso_constant(g, math.inf, "tilde").value == pytest.approx(2.0 / 12.0)
    # one class of 23 vertices: 2**23 - 1 subsets, refused before any scan,
    # whatever was called before
    k = complete(23)
    for _ in range(2):
        with pytest.raises(GraphError, match="subsets"):
            magnification(k)
        with pytest.raises(GraphError, match="subsets"):
            certified_magnification(k, k.vertices)


def test_a_vertex_with_22_pool_neighbours_is_refused_before_the_table_build():
    # it and any subset of its neighbours are 2**22 connected sets, past the
    # cap; the ESU rounds used to form about 4M rows (393 MB) before refusing
    k = complete(23)
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match=f"more than {isoperimetry.SUBSET_CAP} subsets"):
            iso_constant(k, math.inf, "tilde")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_magnification_of_a_24_cycle_matches_brute_force_within_each_class():
    # "Gamma(a) meets Gamma(b)" splits an even cycle into its even and odd
    # vertices: two classes of 12, so the scan visits 2 (2**12 - 1) subsets
    rng = np.random.default_rng(71)
    plain = cycle(24)
    weighted = build_graph(plain.vertices, plain.edges, measures=rng.choice([0.1, 0.3, 0.7], 24))
    for g in (plain, weighted):
        c, witness = magnification(g)
        best = []
        for parity in (0, 1):
            pool = list(range(parity, 24, 2))  # vertex indices of one class
            sub, least = _first_least_ratio(g, pool, True)
            mask = sum(1 << pool[j] for j in range(12) if sub >> j & 1)
            best.append((least, mask))
        least, mask = min(best)  # ties go to the least mask over all 24 vertices
        assert witness == frozenset(g.vertices[i] for i in range(24) if mask >> i & 1)
        assert abs(Fraction(c) + 1 - least) <= 8 * g.n * Fraction(2.0**-52) * least


def test_path_fast_lane_matches_enumeration():
    rng = np.random.default_rng(37)
    for _ in range(5):
        n = 12
        edges = [Edge(i, i + 1, a=float(rng.uniform(0.3, 2.0))) for i in range(1, n)]
        g = build_graph(
            [(i, float(rng.uniform(0.3, 2.0))) for i in range(1, n + 1)],
            edges,
            boundary=[n],
        )
        for nu in (1.0, 2.0, 3.0, math.inf):
            slow = iso_constant(g, nu, "open")
            fast = _iso_open_path(g, nu)
            assert fast.value == pytest.approx(slow.value, rel=1e-12)


def test_magnification_complete_graph():
    c, witness = magnification(complete(4))
    assert c == pytest.approx(1.0)
    assert len(witness) == 2


def test_magnification_c4_opposite_pair():
    # Gamma of two opposite vertices is the other two: no growth at all
    c, witness = magnification(cycle(4))
    assert c == pytest.approx(0.0)
    assert witness in ({1, 3}, {2, 4})


def test_magnification_open_graph():
    g = path(3, boundary=[3])
    c, witness = magnification(g)
    # A = {1}: Gamma = {2}, no growth (the degree-one end kills expansion)
    assert c == pytest.approx(0.0)
    assert witness == {1}


def test_neighborhood():
    g = cycle(5)
    assert neighborhood(g, [1]) == frozenset({2, 5})
    assert neighborhood(g, [1, 2]) == frozenset({1, 2, 3, 5})


def test_sobolev_quotient_of_indicator_is_open_value():
    g = path(5, boundary=[5])
    rep = iso_constant(g, 2.0, "open")
    S = rep.witness.vertices
    f = VertexFunction(g, np.array([1.0 if v in S else 0.0 for v in g.vertices]))
    assert sobolev_quotient(f, 2.0) == pytest.approx(rep.value, rel=1e-12)


def test_characteristic_approx_achieves_iso():
    rng = np.random.default_rng(41)
    for _ in range(5):
        g = random_graph(8, rng, weighted=True, boundary_fraction=0.25)
        if not g.boundary:
            continue
        for nu in (2.0, 3.0, math.inf):
            rep = iso_constant(g, nu, "open")
            sub, f = characteristic_approx(g, rep.witness.vertices, eps=1e-6)
            assert sobolev_quotient(f, nu) == pytest.approx(rep.value, abs=1e-6)


def test_characteristic_approx_on_a_strong_cut_edge():
    # the subdivision vertex has measure 1e-300, so its Laplacian row
    # a_e/(eps * 1e-300) overflows; the norms never touch the Laplacian
    g = build_graph([1, 2, 3], [Edge(1, 2, a=200.0), Edge(2, 3)])
    sub, f = characteristic_approx(g, {1}, eps=1e-6)
    assert sub.n == 4
    assert sobolev_quotient(f, math.inf) == pytest.approx(200.0, rel=1e-9)


def test_characteristic_approx_validation():
    g = path(3, boundary=[3])
    with pytest.raises(GraphError):
        characteristic_approx(g, {3}, 1e-6)  # touches the boundary
    with pytest.raises(GraphError):
        characteristic_approx(g, set(), 1e-6)
    with pytest.raises(GraphError):
        characteristic_approx(g, {1}, 2.0)  # eps longer than the edges


def test_ff_lower_bound_random_functions():
    rng = np.random.default_rng(43)
    g = path(6, boundary=[6])
    I = {nu: iso_constant(g, nu, "open").value for nu in (1.5, 2.0, math.inf)}
    for _ in range(200):
        vals = rng.standard_normal(6) * g.interior_mask
        f = VertexFunction(g, vals)
        if not np.any(vals):
            continue
        for nu, c in I.items():
            assert sobolev_quotient(f, nu) >= c - 1e-9
