import math

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

        def area(mask):
            return sum(
                e.a for e in g.edges
                if ((mask >> g.index(e.u)) & 1) != ((mask >> g.index(e.v)) & 1)
            )

        brute = {m for m in range(1, 1 << g.n) if connected(m)}
        got = list(enumerate_connected_subsets(g, _all_mask(g)))
        masks = [m for m, _, _ in got]
        assert len(masks) == len(set(masks))
        assert set(masks) == brute
        for mask, a, mass in got:
            assert a == pytest.approx(area(mask), rel=1e-12, abs=0.0)
            fresh = sum(g.vmeasure[i] for i in range(g.n) if (mask >> i) & 1)
            assert mass == pytest.approx(fresh, rel=1e-12, abs=0.0)


def _connected_within(g, mask):
    verts = [i for i in range(g.n) if (mask >> i) & 1]
    seen, stack = {verts[0]}, [verts[0]]
    while stack:
        for j in g.neighbors(stack.pop()):
            if (mask >> j) & 1 and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(verts)


def _fresh_area(g, mask):
    return sum(a for u, v, a in zip(g.eu.tolist(), g.ev.tolist(), g.ea.tolist())
               if ((mask >> u) & 1) != ((mask >> v) & 1))


def test_subset_table_matches_brute_force_over_the_pool():
    # loops, parallel edges and boundaries; bit j of a pool-local brute-force
    # subset selects the j-th free vertex, the table holds vertex masks
    rng = np.random.default_rng(53)
    graphs = [random_graph(int(rng.integers(2, 12)), rng, extra_edges=int(rng.integers(0, 12)),
                           allow_loops=True, boundary_fraction=float(rng.choice([0.0, 0.3])))
              for _ in range(24)]
    graphs.append(build_graph([1, 2, 3], [Edge(1, 2, 0.5), Edge(1, 2, 1.5), Edge(2, 2, 4.0),
                                          Edge(2, 3, 0.25)], boundary=[3]))
    for g in graphs:
        pool = g.interior_indices().tolist()
        if not pool:
            continue
        brute = set()
        for sub in range(1, 1 << len(pool)):
            mask = sum(1 << v for j, v in enumerate(pool) if (sub >> j) & 1)
            if _connected_within(g, mask):
                brute.add(mask)
        table = enumerate_connected_subsets(g, sum(1 << v for v in pool))
        masks = table["mask"].tolist()
        assert len(masks) == len(set(masks)) and set(masks) == brute
        for mask, area, mass in table.tolist():
            assert area == pytest.approx(_fresh_area(g, mask), rel=1e-12, abs=0.0)
            fresh = sum(g.vmeasure[i] for i in range(g.n) if (mask >> i) & 1)
            assert mass == pytest.approx(fresh, rel=1e-12, abs=0.0)


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


def test_free_vertex_pool_of_64_is_refused_even_under_force():
    for g in (cycle(64), with_boundary(cycle(70), list(range(1, 7)))):
        with pytest.raises(GraphError, match="63"):
            iso_constant(g, 2.0, "tilde" if g.is_closed else "open", force=True)
        with pytest.raises(GraphError, match="63"):
            magnification(g, force=True)
    assert len(enumerate_connected_subsets(cycle(63), _all_mask(cycle(63)))) == 63 * 62 + 1


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
    for g in graphs:
        pool = g.interior_indices().tolist()
        meas = g.vmeasure.tolist()
        limit = (0.5 + 1e-12) * g.total_measure() if g.is_closed else math.inf
        brute = math.inf
        for sub in range(1, 1 << len(pool)):
            inside = [v for j, v in enumerate(pool) if (sub >> j) & 1]
            mass = sum(meas[v] for v in inside)
            if mass > limit:
                continue
            gamma = set().union(*(g.neighbors(v) for v in inside))
            brute = min(brute, sum(meas[v] for v in gamma) / mass - 1.0)
        c, witness = magnification(g)
        assert c == pytest.approx(brute, rel=1e-12, abs=1e-15)
        wmass = sum(meas[g.index(v)] for v in witness)
        wgamma = sum(meas[i] for i in set().union(*(g.neighbors(g.index(v)) for v in witness)))
        assert wmass <= limit and wgamma / wmass - 1.0 == pytest.approx(c, rel=1e-12, abs=1e-15)


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


def test_enumeration_cap():
    g = cycle(25)
    with pytest.raises(GraphError):
        iso_constant(g, 2.0, "tilde")
    # force overrides (cycle subsets are just arcs, so this stays fast)
    assert iso_constant(g, math.inf, "tilde", force=True).value > 0


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
