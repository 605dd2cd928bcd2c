import functools
import itertools
import math
import operator
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from graphcalc import (
    Edge,
    GraphError,
    VertexFunction,
    WeightedGraph,
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
from neighbours import neighbour_sets


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
        nbrs = neighbour_sets(g)

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
            assert (a, mass) == (_table_area(g, _all_mask(g), mask),
                                 _table_mass(g, _all_mask(g), mask))


def _connected_within(near, mask):
    """Whether the vertices of ``mask`` are connected under the neighbour sets ``near``."""
    verts = [i for i in range(len(near)) if (mask >> i) & 1]
    seen, stack = {verts[0]}, [verts[0]]
    while stack:
        for j in near[stack.pop()]:
            if (mask >> j) & 1 and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(verts)


def _ordered_sum(terms):
    total = 0.0  # one term after another, whatever Python's sum() does
    for x in terms:
        total += x
    return total


def _run_sum(terms):
    """Each run of 8 terms added in order from 0.0, then the runs in order;
    a term outside the set is 0.0, which leaves every sum as it is."""
    return _ordered_sum(_ordered_sum(terms[k:k + 8]) for k in range(0, len(terms), 8))


def _table_area(g, pool, mask):
    """A(boundary) of the mask over the table of ``pool``: its terms are the
    non-loop edges with an end in the pool, in edge order."""
    return _run_sum([a if (mask >> u & 1) != (mask >> v & 1) else 0.0
                     for u, v, a in zip(g.eu.tolist(), g.ev.tolist(), g.ea.tolist())
                     if u != v and (pool >> u & 1 or pool >> v & 1)])


def _table_mass(g, pool, mask):
    """V of the mask over the table of ``pool``: its terms are the pool's
    measures, ascending."""
    return _run_sum([x if mask >> i & 1 else 0.0
                     for i, x in enumerate(g.vmeasure.tolist()) if pool >> i & 1])


def _check_table_against_brute_force(g):
    """The table over g's free vertices holds every connected subset once,
    with its ordered sums, exactly; bit j of a pool-local brute-force subset
    selects the j-th free vertex, the table holds vertex masks."""
    pool, near = g.interior_indices().tolist(), neighbour_sets(g)
    brute = set()
    for sub in range(1, 1 << len(pool)):
        mask = sum(1 << v for j, v in enumerate(pool) if (sub >> j) & 1)
        if _connected_within(near, mask):
            brute.add(mask)
    allowed = sum(1 << v for v in pool)
    _check_table(g, allowed, enumerate_connected_subsets(g, allowed), brute)


def _check_table(g, pool, table, sets):
    """One row per set of ``sets``, by mask, with the reference sums."""
    masks = table["mask"].tolist()
    assert len(masks) == len(set(masks)) and set(masks) == sets
    assert masks == sorted(masks)
    for mask, area, mass in table.tolist():
        assert (area, mass) == (_table_area(g, pool, mask), _table_mass(g, pool, mask))


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
    # 320 edges take several code words and byte runs; a lone free vertex
    # makes a one-row table whose 40 terms are five runs: within the first
    # run every weak term rounds away after the strong one, and the other
    # runs add their weak terms first.  A free vertex whose only edge is a
    # loop has no cut edge, and area 0.0
    rng = np.random.default_rng(61)
    ends = rng.integers(0, 12, size=(320, 2)).tolist()
    dense = build_graph(list(range(12)), [Edge(u, v, float(rng.uniform(0.1, 7.0)))
                                          for u, v in ends],
                        measures=rng.uniform(0.1, 5.0, 12).tolist(), boundary=[10, 11])
    assert len(dense.edges) >= 300 and bool(dense.loop_mask.any())
    star = build_graph(list(range(41)), [Edge(0, k, 1.0 if k == 1 else 1e-16)
                                         for k in range(1, 41)], boundary=range(1, 41))
    looped = build_graph([1, 2], [Edge(1, 1, 3.0)], boundary=[2])
    for g in (dense, star, looped):
        _check_table_against_brute_force(g)
    rep = iso_constant(dense, 2.0, "open")
    assert rep.value == pytest.approx(min(
        _table_area(dense, 1023, m) * _table_mass(dense, 1023, m) ** -0.5
        for m, _, _ in enumerate_connected_subsets(dense, 1023).tolist()), rel=1e-12, abs=0.0)
    area = iso_constant(star, 1.0).witness.area
    assert area == _table_area(star, 1, 1) == 1.0000000000000036
    assert enumerate_connected_subsets(looped, 1).tolist() == [(1, 0.0, 1.0)]


def _wide_weights(rng, size):
    """Weights over 16 orders of magnitude, so that the order of the adds shows."""
    return (10.0 ** rng.uniform(-8, 8, size)).tolist()


def test_sums_of_many_byte_runs_on_a_pool_of_17_to_20_free_vertices():
    # three or more byte runs of measures and of cut edges, over weights
    # that span 16 orders of magnitude
    rng = np.random.default_rng(71)
    for free in (17, 18, 20):
        ids = list(range(free + 3))
        ring = [(i, (i + 1) % free) for i in range(free)]
        spokes = [(free + b, int(j)) for b in range(3) for j in rng.choice(free, 4, replace=False)]
        ends = ring + spokes + [(0, 1), (5, 5)]  # a parallel edge and a loop
        g = build_graph(ids, [Edge(u, v, a) for (u, v), a in
                              zip(ends, _wide_weights(rng, len(ends)))],
                        measures=_wide_weights(rng, len(ids)), boundary=ids[free:])
        table = enumerate_connected_subsets(g, (1 << free) - 1)
        # the free vertices span a ring: its connected sets are the arcs
        arcs = {sum(1 << (start + k) % free for k in range(size))
                for start in range(free) for size in range(1, free)}
        _check_table(g, (1 << free) - 1, table, arcs | {(1 << free) - 1})


def test_more_than_64_cut_edges_take_a_second_code_word():
    rng = np.random.default_rng(73)
    ends = rng.integers(0, 9, size=(150, 2)).tolist() + [[8, 9], [0, 9]]
    g = build_graph(list(range(10)), [Edge(u, v, a) for (u, v), a in
                                      zip(ends, _wide_weights(rng, len(ends)))],
                    measures=_wide_weights(rng, 10), boundary=[9])
    cut = sum(u != v for u, v in ends)
    assert 128 < cut < 192  # three code words per vertex
    _check_table_against_brute_force(g)


def test_subset_table_spanning_several_chunks():
    rng = np.random.default_rng(79)
    g = random_graph(13, rng, extra_edges=40, allow_loops=True)
    g = build_graph(list(range(13)), [Edge(e.u, e.v, a) for e, a in
                                      zip(g.edges, _wide_weights(rng, g.m))],
                    measures=_wide_weights(rng, 13))
    table = enumerate_connected_subsets(g, _all_mask(g))
    assert len(table) > isoperimetry.CHUNK
    _check_table_against_brute_force(g)


def test_lookup_over_rows_of_several_words_and_an_empty_chunk():
    rng = np.random.default_rng(73)
    words = rng.integers(-2**63, 2**63, size=(40, 3), dtype=np.int64)
    sums = rng.uniform(0.0, 1.0, (20, 256))
    ors = rng.integers(-2**63, 2**63, size=(20, 256, 2), dtype=np.int64)
    for subs in (words, words[:, 0], words[:0], words[:0, 0]):
        width = subs.shape[1] if subs.ndim == 2 else 1
        rows = subs.reshape(len(subs), width).tolist()
        count = min(20, 8 * width)  # bytes past the tables are unread
        # byte k of a row is byte k % 8 of its word k // 8
        byts = [[row[k // 8] >> 8 * (k % 8) & 255 for k in range(count)] for row in rows]
        got = isoperimetry._lookup(sums[:count], subs, np.add)
        assert got.shape == (len(subs),)
        assert got.tolist() == [_ordered_sum(sums[k, b] for k, b in enumerate(row)) for row in byts]
        got = isoperimetry._lookup(ors[:count], subs, np.bitwise_or)
        assert got.shape == (len(subs), 2)
        assert got.tolist() == [[int(np.bitwise_or.reduce([ors[k, b, i] for k, b in enumerate(row)]))
                                 for i in range(2)] for row in byts]


def test_exact_decision_of_one_row_and_of_many():
    rng = np.random.default_rng(89)
    value = [2**53 + 1, 3, 7 * 2**60]
    for n in (1, 1, 2, 9, 60, 0):  # no row: a lone closed vertex keeps none
        counts = rng.integers(0, 3, size=(n, 6)).astype(float)
        counts[:, 0] += 1  # every B is nonempty
        masks = rng.permutation(1000)[:n].astype(np.int64)
        for cap in (0, 2**62, 10**30):
            want = min(((Fraction(sum(int(c) * v for c, v in zip(row[3:], value)),
                                  sum(int(c) * v for c, v in zip(row[:3], value))), int(m), j)
                        for j, (row, m) in enumerate(zip(counts.tolist(), masks.tolist()))
                        if 2 * sum(int(c) * v for c, v in zip(row[:3], value)) <= cap),
                       default=None)
            got = isoperimetry._least_exact(counts, masks, value, cap)
            assert (got is None) == (want is None)
            if got is not None:  # the same Fraction and mask; the row may be any of a group
                assert got[:2] == want[:2] and masks[got[2]] == got[1]


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
    # 64 free vertices of a cycle make few subsets, but no int64 mask holds
    # them; the closed I~ pool of cycle(65) leaves one vertex out, 64 remain
    for g in (cycle(65), with_boundary(cycle(70), list(range(1, 7)))):
        with pytest.raises(GraphError, match="63"):
            iso_constant(g, 2.0, "tilde" if g.is_closed else "open")
        with pytest.raises(GraphError, match="63"):
            magnification(g)


def test_both_scans_refuse_a_pool_of_64_with_one_message():
    g = cycle(64)
    messages = set()
    for scan in (lambda: enumerate_connected_subsets(g, _all_mask(g)), lambda: magnification(g)):
        with pytest.raises(GraphError) as info:
            scan()
        messages.add(str(info.value))
    assert messages == {"64 free vertices exceed the 63 that int64 subset masks hold"}


def test_a_pool_past_the_limit_is_refused_before_the_pool_matrix_is_built():
    # 4,000 vertices and about 20,000 edges: a dense pool x columns matrix
    # (80 MB for the I~ scan, 31 MB for magnification) was built before the refusal
    g = random_graph(4000, np.random.default_rng(1), extra_edges=16000)
    refusals = [lambda: iso_constant(g, 2.0, "tilde"), lambda: magnification(g)]
    for refuse in refusals:
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="exceed the 63 that int64 subset masks hold"):
                refuse()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


def test_the_scan_vertex_r_has_the_most_distinct_neighbours_on_multigraphs():
    # parallel edges and loops add degree but no distinct neighbour; r is the
    # least index among the vertices with the most, and the I~ table holds
    # every vertex but r as a singleton
    rng = np.random.default_rng(83)
    for _ in range(80):
        n = int(rng.integers(2, 12))
        ends = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)).tolist()
        ends += [ends[0]] * int(rng.integers(0, 4)) if ends else []  # parallel edges
        ends += [[v, v] for v in rng.integers(0, n, size=int(rng.integers(0, 3))).tolist()]
        g = build_graph(range(n), [Edge(u, v) for u, v in ends])
        near = neighbour_sets(g)
        r = max(range(n), key=lambda i: (len(near[i] - {i}), -i))
        table, _ = isoperimetry._tilde_table(g)
        seen = functools.reduce(operator.or_, table["mask"].tolist(), 0)
        assert seen == _all_mask(g) ^ (1 << r)


@pytest.mark.filterwarnings("error")
def test_subset_sums_that_overflow_are_refused():
    # every measure 1e308: V({b, c}) overflowed to inf, and I~_inf read 0.0
    # with witness {b, c} and a RuntimeWarning; the true value is 1e-308
    g = build_graph(list("abcd"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")],
                    measures=[1e308] * 4)
    # on the closed path a-b-c the scan avoids b: no set of its table weighs
    # 2e308, but the complement measures V({b, c}) and V({a, b}) do
    p = build_graph(list("abc"), [("a", "b"), ("b", "c")], measures=[1e308] * 3)
    for h, nu, variant in ((g, math.inf, "tilde"), (g, 2.0, "tilde"), (g, 2.0, "tilde_prime"),
                           (with_boundary(g, ["d"]), math.inf, "open"), (p, math.inf, "tilde")):
        with pytest.raises(GraphError, match="^a subset's area or measure overflows the float"):
            iso_constant(h, nu, variant)


def test_subset_table_of_a_63_cycle():
    # bit 62 is the last below the int64 sign bit: every proper arc, and the whole cycle
    g = build_graph(range(63), [Edge(i, (i + 1) % 63, a=1.0 + i / 7) for i in range(63)],
                    measures=1.0 + np.arange(63) / 11)
    arcs = {sum(1 << (start + k) % 63 for k in range(size))
            for start in range(63) for size in range(1, 63)}
    _check_table(g, _all_mask(g), enumerate_connected_subsets(g, _all_mask(g)),
                 arcs | {_all_mask(g)})


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
    near = neighbour_sets(g)
    nbr = [sum(1 << w for w in near[v]) for v in pool]
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
    # the graph "Gamma(a) meets Gamma(b)" is disconnected on these
    ladder = build_graph(range(14), [Edge(i, i + 1) for i in range(13) if i != 6]
                         + [Edge(i, i + 7) for i in range(7)], measures=rng.uniform(0.5, 2.0, 14))
    chords = build_graph(range(14), [Edge(i, (i + 1) % 14) for i in range(14)]
                         + [Edge(i, i + 3) for i in range(0, 11, 2)])  # odd chords: bipartite
    loops = build_graph(range(12), [Edge(i, i + 1) for i in range(11) if i != 5]
                        + [Edge(6, 11), Edge(0, 0), Edge(9, 9, 2.0)],
                        measures=rng.choice([0.1, 0.3], 12))  # a path and a cycle
    # two equal copies on shuffled ids: exact ties across the components of
    # that graph, where the set the scan forms later may hold the lesser mask
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


def test_only_sets_at_most_half_under_any_rounding_set_the_scan_limit():
    # measures 1 and 2 moved by 2**-48 keep every sum exact and put some sets
    # over half by less than the band; where one of those has the least float
    # ratio of all, by more than the band, a limit it set would drop the
    # exact minimiser
    rng = np.random.default_rng(71)
    over_half_least = 0
    for _ in range(120):
        n = int(rng.integers(3, 11))
        base = random_graph(n, rng, weighted=False, extra_edges=int(rng.integers(0, n)))
        g = build_graph(base.vertices, base.edges,
                        measures=rng.choice([1.0, 1.0, 2.0], n) + rng.integers(-1, 2, n) * 2.0**-48)
        sub, least = _first_least_ratio(g, list(range(n)), True)
        assert isoperimetry._least_ratio(g, g.vertices, True)[:2] == (sub, least)
        m = [int(x * 2**48) for x in g.vmeasure.tolist()]
        nbr = [sum(1 << w for w in near) for near in neighbour_sets(g)]
        band = 4 * n * 2.0**-52  # 2(n + |ids|) eps, as the scan takes it
        over = math.inf
        for b in range(1, 1 << n):
            mb = sum(m[j] for j in range(n) if b >> j & 1)
            if sum(m) < 2 * mb <= sum(m) * (1.0 + band):
                gamma = functools.reduce(operator.or_, (nbr[j] for j in range(n) if b >> j & 1))
                over = min(over, sum(m[w] for w in range(n) if gamma >> w & 1) / mb)
        over_half_least += over * (1.0 + band) + isoperimetry.TINY < float(least)
    assert over_half_least >= 2, over_half_least


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


def _brute_tilde(g, nu, variant):
    """The least I~ or I~' quotient over every proper nonempty subset,
    connected or not, with each complement's measure summed over its own
    vertices (all terms positive, so no cancellation)."""
    subs = np.arange(1, (1 << g.n) - 1)
    inside = (subs[:, None] >> np.arange(g.n)) & 1 == 1
    area = (inside[:, g.eu] != inside[:, g.ev]) @ g.ea
    mass, comass = inside @ g.vmeasure, ~inside @ g.vmeasure
    small = np.minimum(mass, comass)
    if nu == math.inf:
        vals = area / small
    elif variant == "tilde":
        vals = area / small ** (1.0 - 1.0 / nu)
    else:
        vals = area * (mass ** (1.0 - nu) + comass ** (1.0 - nu)) ** (1.0 / nu)
    return float(vals.min(initial=math.inf))


def _random_closed_graph(rng):
    """1-9 vertices with measures over 10^+-6 and random edge ends: loops,
    parallel edges and several components come up often."""
    n = int(rng.integers(1, 10))
    ends = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2)).tolist()
    return build_graph(rng.permutation(n).tolist(),
                       [Edge(u, v, float(10.0 ** rng.uniform(-3, 3))) for u, v in ends],
                       measures=(10.0 ** rng.uniform(-6, 6, n)).tolist())


def test_tilde_scans_skip_one_vertex_and_match_a_brute_force_over_all_subsets():
    # Ĩ and Ĩ' scan the connected sets that avoid a vertex r with the most
    # distinct neighbours (least index on ties); every complement is summed
    rng = np.random.default_rng(71)
    kinds = {"disconnected": 0, "loop": 0, "parallel": 0}
    for _ in range(240):
        g = _random_closed_graph(rng)
        pairs = list(zip(g.eu.tolist(), g.ev.tolist()))
        kinds["loop"] += any(u == v for u, v in pairs)
        kinds["parallel"] += len({frozenset(p) for p in pairs}) < len(pairs)
        near = neighbour_sets(g)
        kinds["disconnected"] += not _connected_within(near, _all_mask(g))
        r = max(range(g.n), key=lambda i: (len(near[i] - {i}), -i))
        table, comass = isoperimetry._tilde_table(g)
        rows = {m: j for j, m in enumerate(table["mask"].tolist())}
        assert not any(m >> r & 1 for m in rows)
        for j, m in enumerate(rows):  # each complement, added over its vertices
            direct = math.fsum(x for i, x in enumerate(g.vmeasure.tolist()) if not m >> i & 1)
            assert abs(comass[j] - direct) <= 16 * 2.0**-52 * direct
        for nu in (1.0, 1.5, 2.0, 3.0, 7.0, math.inf):
            for variant in ("tilde", "tilde_prime"):
                rep, want = iso_constant(g, nu, variant), _brute_tilde(g, nu, variant)
                if want == math.inf:  # a lone vertex has no proper subset
                    assert g.n == 1 and rep.value == math.inf and rep.witness is None
                    continue
                assert abs(rep.value - want) <= 1e-12 * want, (nu, variant)
                mask = sum(1 << g.index(v) for v in rep.witness.vertices)
                row = table[rows[mask]]
                assert (rep.witness.area, rep.witness.vmass) == (row["area"], row["mass"])
                assert rep.value == isoperimetry._quotient(row["area"], row["mass"],
                                                           comass[rows[mask]], nu, variant)
    assert min(kinds.values()) >= 20, kinds


def _unit_quotients(g, nu, variant):
    """{mask: quotient} over the sets a scan reads on a unit-weight graph:
    the connected sets of the free vertices (open), or those that avoid r
    (tilde variants); areas and masses are small integers, so exact."""
    near = neighbour_sets(g)
    r = max(range(g.n), key=lambda i: (len(near[i] - {i}), -i))
    pool = sum(1 << i for i in g.interior_indices().tolist())
    if variant != "open":
        pool ^= 1 << r
    pairs = list(zip(g.eu.tolist(), g.ev.tolist()))
    vals = {}
    for mask in range(1, 1 << g.n):
        if mask & ~pool or not _connected_within(near, mask):
            continue
        area = sum((mask >> u & 1) != (mask >> v & 1) for u, v in pairs)
        mass, co = mask.bit_count(), g.n - mask.bit_count()
        if variant == "tilde_prime" and nu != math.inf:
            vals[mask] = area * (mass ** (1.0 - nu) + co ** (1.0 - nu)) ** (1.0 / nu)
        else:
            small = mass if variant == "open" else min(mass, co)
            vals[mask] = area / small ** (1.0 - 1.0 / nu)
    return vals


def test_witness_is_the_least_mask_within_the_band_on_unit_weight_graphs():
    # unit weights make many sets tie exactly, and shuffled ids make the
    # order of their ids differ from the order of their masks
    rng = np.random.default_rng(97)
    ties = 0
    for _ in range(60):
        n = int(rng.integers(2, 10))
        base = random_graph(n, rng, weighted=False, extra_edges=int(rng.integers(0, 2 * n)))
        ids = rng.permutation(n).tolist()
        g = build_graph(ids, [Edge(ids[e.u], ids[e.v]) for e in base.edges],
                        boundary=ids[:int(rng.integers(0, 3))] if n > 2 else ())
        variants = ["open"] + ["tilde", "tilde_prime"] * g.is_closed
        for nu, variant in itertools.product((1.0, 2.0, math.inf), variants):
            vals = _unit_quotients(g, nu, variant)
            best = min(vals.values())
            band = [m for m, v in vals.items() if v <= best + 1e-12 * best]
            ties += len(band) > 1
            rep = iso_constant(g, nu, variant)
            assert rep.value == pytest.approx(best, rel=1e-12, abs=0.0)
            assert rep.witness.vertices == {g.vertices[i] for i in range(n) if min(band) >> i & 1}
    assert ties >= 60, ties


def test_closed_complete_16_of_measures_one_tenth_ties_every_half():
    # every 8-set has quotient 64 / 0.8 and the scan avoids vertex 0 (the
    # least index among equals), so the witness is the least mask: indices 1-8
    k = complete(16)
    g = build_graph(k.vertices, k.edges, measures=np.full(16, 0.1))
    rep = iso_constant(g, math.inf, "tilde")
    assert rep.witness.vertices == frozenset(g.vertices[1:9])
    assert rep.value == pytest.approx(80.0, rel=1e-15)


def test_light_complements_are_summed_not_subtracted():
    # V(G) - V({b}) cancelled: Ĩ_∞ read 999992.38556461001 and Ĩ_2 was off by 3.8e-6
    g = build_graph(["a", "b", "c"], [Edge("a", "b"), Edge("b", "c"), Edge("c", "a")],
                    measures=[1e-6, 1e6, 1e-6])
    light = 1e-6 + 1e-6  # V({a, c}), exact
    wants = {(math.inf, "tilde"): 2.0 / light, (math.inf, "tilde_prime"): 2.0 / light,
             (2.0, "tilde"): 2.0 / light ** 0.5,
             (2.0, "tilde_prime"): 2.0 * (1e6 ** -1.0 + light ** -1.0) ** 0.5}
    for (nu, variant), want in wants.items():
        rep = iso_constant(g, nu, variant)
        assert rep.value == pytest.approx(want, rel=1e-15, abs=0.0)
        assert rep.witness.vertices == {"b"}


def test_closed_cycle_of_64_is_a_pool_of_63():
    # the Ĩ pool leaves out vertex 0, so 63 bits remain; the open scan keeps all 64
    g = cycle(64)
    for nu, want in ((math.inf, 2.0 / 32), (2.0, 2.0 * 32 ** -0.5)):
        rep = iso_constant(g, nu, "tilde")
        assert rep.value == want and len(rep.witness.vertices) == 32
        assert g.vertices[0] not in rep.witness.vertices
    with pytest.raises(GraphError, match="63"):
        iso_constant(g, 2.0, "open")
    with pytest.raises(GraphError, match="63"):
        iso_constant(cycle(65), 2.0, "tilde")


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
    # the open pool of a closed graph is every vertex, the Ĩ pool all but one
    iso_constant(g, 1.0, "open")
    assert len(calls) == 2 and calls[1] == (1 << g.n) - 1 and (calls[1] ^ calls[0]).bit_count() == 1
    iso_constant(g, 7.0, "tilde_prime")
    assert len(calls) == 2
    run_suite(with_boundary(g, [g.vertices[0]]), "ff", trials=3)  # I at four nu
    assert len(calls) == 3


def test_free_vertices_past_bit_63():
    # the subset table keeps masks of 64 or more vertices as Python ints
    g = cycle(70)
    first = iso_constant(with_boundary(g, g.vertices[5:]), 2.0, "open")
    last = iso_constant(with_boundary(g, g.vertices[:65]), 2.0, "open")
    assert first.value == last.value == pytest.approx(2.0 / math.sqrt(5.0))
    assert last.witness.vertices == frozenset(g.vertices[65:])


def test_subset_budget_counts_the_subsets_each_scan_visits(monkeypatch):
    # complete(8) has 255 connected subsets, and so has its "Gamma(a) meets
    # Gamma(b)" graph, which is complete(8) too; its I~ scan leaves one vertex
    # out and visits the 127 of complete(7)
    from graphcalc.heat import hypothesis_audit

    monkeypatch.setattr(isoperimetry, "SUBSET_CAP", 127)
    assert iso_constant(complete(8), math.inf, "tilde").value == pytest.approx(4.0)
    monkeypatch.setattr(isoperimetry, "SUBSET_CAP", 255)
    assert magnification(complete(8))[0] == pytest.approx(1.0)
    g = complete(8)
    dirichlet = with_boundary(complete(9), [9])
    refusals = {126: [lambda: iso_constant(g, math.inf, "tilde")],
                254: [lambda: magnification(g), lambda: hypothesis_audit(dirichlet, lambda x: x),
                      lambda: certified_magnification(g, g.vertices)]}
    for cap, scans in refusals.items():
        monkeypatch.setattr(isoperimetry, "SUBSET_CAP", cap)
        for refuse in scans * 2:  # a refusal does not depend on what ran before it
            with pytest.raises(GraphError, match=f"{cap} subsets"):
                refuse()


def test_subset_budget_is_per_class_and_counts_connected_sets():
    # a 25-cycle has 601 connected subsets, past the old cap of 22 free vertices
    g = cycle(25)
    assert iso_constant(g, 2.0, "tilde").value == pytest.approx(2.0 / math.sqrt(12.0))
    assert iso_constant(g, math.inf, "tilde").value == pytest.approx(2.0 / 12.0)
    # every vertex of complete(23) meets the other 22: refused before any
    # scan, whatever was called before
    k = complete(23)
    for _ in range(2):
        with pytest.raises(GraphError, match="subsets"):
            magnification(k)
        with pytest.raises(GraphError, match="subsets"):
            certified_magnification(k, k.vertices)


def test_a_vertex_with_22_pool_neighbours_is_refused_before_the_table_build():
    # it and any subset of its neighbours are 2**22 connected sets, past the
    # cap; the ESU rounds used to form about 4M rows (393 MB) before refusing.
    # The I~ pool of complete(24) is complete(23).
    k = complete(24)
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match=f"more than {isoperimetry.SUBSET_CAP} subsets"):
            iso_constant(k, math.inf, "tilde")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_a_vertex_meeting_22_others_is_refused_before_the_magnification_scan():
    # under "Gamma(a) meets Gamma(b)" a vertex of complete(23) and any subset
    # of the other 22 are 2**22 connected sets, so the star bound refuses
    # before the ESU rounds form any of them
    k = complete(23)
    refusals = [lambda: magnification(k), lambda: certified_magnification(k, k.vertices)]
    tracemalloc.start()
    try:
        for refuse in refusals:
            with pytest.raises(GraphError, match=f"more than {isoperimetry.SUBSET_CAP} subsets"):
                refuse()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_magnification_of_a_25_cycle_is_within_the_subset_budget():
    # "Gamma(a) meets Gamma(b)" joins the vertices two steps apart, another
    # 25-cycle: 601 connected sets, where all 25 vertices have 2**25 - 1
    # subsets.  Every other vertex of an arc of 23 is a least set.
    g = cycle(25)
    c, witness = magnification(g)
    assert c == 13.0 / 12.0 - 1.0
    assert len(witness) == 12 and len(neighborhood(g, witness)) == 13


def test_magnification_of_a_24_cycle_matches_brute_force_within_each_class():
    # "Gamma(a) meets Gamma(b)" splits an even cycle into two 12-cycles, of
    # its even and of its odd vertices, so the scan visits 2 (12 * 11 + 1)
    # connected sets
    rng = np.random.default_rng(71)
    plain = cycle(24)
    weighted = build_graph(plain.vertices, plain.edges, measures=rng.choice([0.1, 0.3, 0.7], 24))
    for g in (plain, weighted):
        c, witness = magnification(g)
        best = []
        for parity in (0, 1):
            pool = list(range(parity, 24, 2))  # vertex indices of one component
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


def test_long_path_lane_on_a_shuffled_weighted_path():
    # 70 vertices take the path lane; vertex and edge order are shuffled and
    # about half the edges flipped.  Weights are distinct powers of two and
    # measures small integers, so every sum is exact and no two intervals
    # share an area
    rng = np.random.default_rng(70)
    n = 70
    w = 2.0 ** rng.permutation(n - 1)  # w[p] joins path positions p and p + 1
    meas = rng.integers(1, 17, size=n).astype(float)
    ends = [(f"v{p}", f"v{p + 1}")[::1 - 2 * int(rng.integers(2))] for p in range(n - 1)]
    edges = [Edge(*ends[p], w[p]) for p in rng.permutation(n - 1)]
    g = build_graph([(f"v{p}", meas[p]) for p in rng.permutation(n)], edges,
                    boundary=["v0", f"v{n - 1}"])
    spans = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]
    area = np.array([w[i - 1] + w[j] for i, j in spans])
    mass = np.array([meas[i:j + 1].sum() for i, j in spans])
    for nu, vals in ((1.0, area), (2.0, area / mass ** 0.5), (math.inf, area / mass)):
        best = int(np.argmin(vals))
        assert np.count_nonzero(vals == vals[best]) == 1
        rep = iso_constant(g, nu, "open")
        i, j = spans[best]
        assert rep.value == vals[best], nu
        assert rep.witness == isoperimetry.AdmissibleSet(
            frozenset(f"v{p}" for p in range(i, j + 1)), area[best], mass[best]), nu
    # 100 vertices: boundary vertices of measure 1e12 at both ends (the
    # sweep may start at either) must not enter any mass, and boundary
    # vertices may sit anywhere on the path
    rng = np.random.default_rng(100)
    n = 100
    for boundary in ([0, n - 1], list(range(41)) + [60, n - 1]):
        w = rng.uniform(0.5, 2.0, n - 1)
        meas = rng.uniform(0.5, 2.0, n)
        meas[[0, n - 1]] = 1e12
        g = build_graph([(p, meas[p]) for p in rng.permutation(n)],
                        [Edge(p, p + 1, w[p]) for p in rng.permutation(n - 1)], boundary=boundary)
        spans = [(i, j) for i in range(n) for j in range(i, n)
                 if not set(range(i, j + 1)) & set(boundary)]
        area = [math.fsum(w[p] for p in (i - 1, j) if 0 <= p < n - 1) for i, j in spans]
        mass = [math.fsum(meas[i:j + 1]) for i, j in spans]
        for nu in (1.0, 2.0, math.inf):
            vals = [a * m ** (1.0 / nu - 1.0) for a, m in zip(area, mass)]
            best = int(np.argmin(vals))
            assert sorted(vals)[1] > vals[best] * (1 + 1e-9)  # one clear minimiser
            rep = iso_constant(g, nu, "open")
            i, j = spans[best]
            assert rep.witness.vertices == frozenset(range(i, j + 1)), nu
            assert rep.value == pytest.approx(vals[best], rel=1e-14, abs=0.0), nu


@pytest.mark.parametrize("chunk", [isoperimetry.CHUNK, 33])  # 33: one left end per block
def test_long_path_lane_takes_the_least_mask_of_tied_runs(monkeypatch, chunk):
    # a 71-vertex unit path with boundary positions 0, 35 and 70 has two
    # mirror runs of 34 vertices at I_inf = 1/17; whatever the vertex order,
    # the witness is the one of least mask, as in every subset scan (the
    # walk from the end of least index took the first in 8 of these 20)
    monkeypatch.setattr(isoperimetry, "CHUNK", chunk)
    rng = np.random.default_rng(0)
    n = 71
    for _ in range(20):
        g = WeightedGraph(rng.permutation(n).tolist(), np.ones(n),
                          [Edge(p, p + 1) for p in range(n - 1)], boundary=[0, 35, n - 1])
        runs = [frozenset(range(1, 35)), frozenset(range(36, n - 1))]
        rep = iso_constant(g, math.inf, "open")
        assert rep.value == 1 / 17
        assert rep.witness.vertices == min(runs, key=lambda r: sum(1 << g.index(p) for p in r))
        # at nu = 1 every run inside has area 2: the least mask is the free vertex of least index
        least = min((p for p in range(n) if p not in (0, 35, n - 1)), key=g.index)
        assert iso_constant(g, 1.0, "open").witness.vertices == {least}


def _random_lane_path(rng, n, closed=False):
    """A weighted path of n vertices on shuffled ids and edges, about half the
    edges flipped, with about one vertex in six on the boundary, anywhere,
    unless it is closed; and its weights w[p] (positions p, p + 1), measures
    and boundary flags by position."""
    w = rng.uniform(0.5, 2.0, n - 1)
    meas = rng.uniform(0.5, 2.0, n)
    bnd = rng.random(n) < 1 / 6
    bnd[int(rng.integers(n))] = False
    if closed:
        bnd[:] = False
    ends = [(p, p + 1)[::1 - 2 * int(rng.integers(2))] for p in range(n - 1)]
    g = build_graph([(p, meas[p]) for p in rng.permutation(n)],
                    [Edge(*ends[p], w[p]) for p in rng.permutation(n - 1)],
                    boundary=np.flatnonzero(bnd).tolist())
    return g, w, meas, bnd


def test_long_path_lane_in_small_blocks_matches_a_brute_force_over_intervals(monkeypatch):
    # CHUNK set so that each block of left ends holds 1-7 rows; the brute
    # force scores every run of free vertices in (left, right) order along
    # the lane's walk with the lane's sums: the weights beside the run, left
    # then right, and the measures in walk order from 0.0.  The last two
    # paths have 64 vertices, the fewest the lane takes, closed and with
    # boundary: no path is left to the subset table's 63-vertex pool limit
    rng = np.random.default_rng(65)
    blocks = set()
    for k in range(23):
        n = int(rng.integers(65, 121)) if k < 21 else 64
        g, w, meas, bnd = _random_lane_path(rng, n, closed=k == 21)
        free = int(np.count_nonzero(~bnd))
        chunk = math.isqrt(16 * (1 + k % 7) * free - 1) + 1  # the least with 1 + k % 7 rows
        blocks.add(chunk * chunk // 16 // free)
        monkeypatch.setattr(isoperimetry, "CHUNK", chunk)
        ids = np.arange(n)
        if g.index(n - 1) < g.index(0):  # the lane walks from the end of least index
            ids, w, meas, bnd = ids[::-1], w[::-1], meas[::-1], bnd[::-1]
        spans, area, mass = [], [], []
        for i in range(n):
            total = 0.0
            for j in range(i, n):
                if bnd[j]:
                    break
                total += meas[j]
                spans.append((i, j))
                area.append((w[i - 1] if i > 0 else 0.0) + (w[j] if j < n - 1 else 0.0))
                mass.append(total)
        area, mass = np.array(area), np.array(mass)
        for nu in (1.0, 1.5, 2.0, math.inf):
            vals = area / mass if nu == math.inf else area * mass ** (1.0 / nu - 1.0)
            best = int(np.argmin(vals))
            rep = iso_constant(g, nu, "open")
            i, j = spans[best]
            assert rep.witness == isoperimetry.AdmissibleSet(
                frozenset(ids[i:j + 1].tolist()), area[best], mass[best]), nu
            if nu in (1.0, math.inf):
                assert rep.value == vals[best], nu
            else:
                assert rep.value == pytest.approx(vals[best], rel=4 * 2.0**-52, abs=0.0), nu
    assert blocks == set(range(1, 8))


def test_long_path_lane_memory_is_linear_in_the_path():
    # the lane used to build n x n grids: 559 MB at 3,000 vertices, 9x its
    # peak at 1,000; its blocks of left ends hold at most CHUNK**2 / 16 cells
    peaks = {}
    for n in (1000, 3000):
        g = path(n, boundary=[n])
        tracemalloc.start()
        try:
            rep = iso_constant(g, 2.0, "open")
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.witness.vertices == frozenset(range(1, n))  # every free vertex
    assert peaks[3000] < 100 * 2**20 and peaks[3000] < 2 * peaks[1000], peaks


def test_simple_path_check_refuses_near_paths():
    # a path plus a disjoint cycle has n - 1 edges, two ends and no vertex of
    # degree 3: the walk from one end stops at the other before every vertex
    near_paths = {
        "path and cycle": build_graph(range(7), [Edge(0, 1), Edge(1, 2), Edge(3, 4), Edge(4, 5),
                                                 Edge(5, 6), Edge(6, 3)]),
        "path and double edge": build_graph(range(5), [Edge(0, 1), Edge(1, 2), Edge(3, 4),
                                                       Edge(4, 3)]),
        "doubled path edge": build_graph(range(4), [Edge(0, 1), Edge(1, 2), Edge(1, 2),
                                                    Edge(2, 3)]),
        "star": build_graph(range(5), [Edge(0, k) for k in range(1, 5)]),
    }
    for name, g in near_paths.items():
        assert isoperimetry._is_simple_path(g) is None, name
    g = build_graph([3, 0, 2, 1], [Edge(2, 1), Edge(0, 3), Edge(1, 3)])  # 0-3-1-2 on shuffled ids
    assert [g.vertices[i] for i in isoperimetry._is_simple_path(g)] == [0, 3, 1, 2]


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
    # a loop puts its vertex in its own neighbourhood; a parallel edge adds nothing
    g = build_graph(list("abc"), [Edge("a", "b"), Edge("b", "a"), Edge("c", "c"), Edge("b", "c")])
    assert neighborhood(g, ["a"]) == frozenset("b")
    assert neighborhood(g, ["c"]) == frozenset("bc")
    assert neighborhood(g, []) == frozenset()


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


def test_characteristic_approx_bounds_eps_by_the_edges_it_cuts():
    # a loop of length 1e-9 at the boundary vertex c is not cut by S = {a}
    g = build_graph(list("abc"), [Edge("a", "b"), Edge("b", "c"), Edge("c", "c", length=1e-9)],
                    boundary=["c"])
    sub, f = characteristic_approx(g, {"a"}, 1e-6)
    assert sub.n == g.n + 1 and sub.m == g.m + 1
    assert f.values.tolist() == [1.0 if v == "a" else 0.0 for v in sub.vertices]
    with pytest.raises(GraphError, match="eps must lie in"):
        characteristic_approx(g, {"a"}, 1.0)  # as long as the cut edge


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
