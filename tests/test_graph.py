import math

import numpy as np
import pytest

from graphcalc import (
    Edge,
    GraphError,
    WeightedGraph,
    build_graph,
    double,
    from_markov_chain,
    half_degrees,
    is_connected,
    L_stats,
    natural_measure,
    subdivide_edge,
    with_boundary,
)
from graphcalc.generators import cycle, path, random_graph
from graphcalc.isoperimetry import iso_constant, magnification
from graphcalc.operators import eigenvalues


def test_edge_measure_and_loop():
    e = Edge("a", "b", a=2.0, length=3.0)
    assert e.measure == 6.0
    assert not e.is_loop
    assert Edge("a", "a").is_loop


def test_construction_errors():
    with pytest.raises(GraphError):
        WeightedGraph(["a", "a"], [1, 1], [])
    with pytest.raises(GraphError):
        WeightedGraph([1, "1"], [1, 1], [])  # equal as strings, so witnesses would be ambiguous
    with pytest.raises(GraphError):
        WeightedGraph(["a"], [0.0], [])
    with pytest.raises(GraphError):
        WeightedGraph(["a"], [1.0], [], boundary=["z"])
    with pytest.raises(GraphError):
        WeightedGraph(["a", "b"], [1, 1], [Edge("a", "c")])
    with pytest.raises(GraphError):
        WeightedGraph(["a", "b"], [1, 1], [Edge("a", "b", a=-1)])


def test_half_degrees_hand_example():
    # triangle, E = {6, 1, 2}; rho(a) = (6+2)/2, rho(b) = (6+1)/2, rho(c) = 3/2
    g = build_graph(
        ["a", "b", "c"],
        [Edge("a", "b", a=2.0, length=3.0), Edge("b", "c"), Edge("a", "c", 4.0, 0.5)],
    )
    hd = half_degrees(g)
    assert np.allclose(hd.rho, [4.0, 3.5, 1.5])
    assert hd.rho_sup == 4.0 and hd.rho_inf == 1.5
    assert hd.regularity is None


def test_degree_statistics_are_built_once_and_read_only():
    g = random_graph(9, np.random.default_rng(3), weighted=True)
    for stats, array in ((half_degrees, "rho"), (L_stats, "values")):
        first = stats(g)
        assert stats(g) is first
        with pytest.raises(ValueError):
            getattr(first, array)[0] = 0.0
        with pytest.raises(AttributeError):
            setattr(first, array, None)


def test_self_loop_counts_once():
    g = build_graph(["a"], [Edge("a", "a", a=2.0, length=1.0)])
    hd = half_degrees(g)
    assert hd.rho[0] == 1.0  # E(e)/2 = 1, not 2


def test_natural_measure_is_one_regular():
    g = random_graph(12, np.random.default_rng(0), weighted=True)
    nat = natural_measure(g)
    hd = half_degrees(nat)
    assert hd.is_regular(2.0)
    assert hd.regularity == pytest.approx(2.0)


def test_markov_chain_two_state():
    pi = [1 / 3, 2 / 3]
    K = [[0.5, 0.5], [0.25, 0.75]]
    g = from_markov_chain(pi, K)
    assert half_degrees(g).is_regular(1.0)  # reversible chains are 1-regular
    # edge weights: loop at 0 with flux 1/6, loop at 1 with 1/2, cross edge 1/6
    by_pair = {frozenset((e.u, e.v)): e.a for e in g.edges}
    assert by_pair[frozenset({0})] == pytest.approx(1 / 6)
    assert by_pair[frozenset({1})] == pytest.approx(0.5)
    assert by_pair[frozenset({0, 1})] == pytest.approx(1 / 6)


def test_markov_chain_rejects_irreversible():
    pi = [0.5, 0.5]
    K = [[0.2, 0.8], [0.5, 0.5]]
    with pytest.raises(GraphError):
        from_markov_chain(pi, K)
    with pytest.raises(GraphError):
        from_markov_chain([0.5, 0.5], [[0.5, 0.6], [0.6, 0.5]])


def test_double_glues_boundary():
    g = path(3, boundary=[3])
    d = double(g)
    h = d.graph
    assert h.n == 5 and h.is_closed
    assert h.total_measure() == pytest.approx(2 * g.total_measure())
    i3 = h.index("3")
    assert h.vmeasure[i3] == pytest.approx(2.0)  # glued vertex, doubled mass
    # the involution is a measure-preserving bijection of order two
    for vid in h.vertices:
        w = d.involution[vid]
        assert d.involution[w] == vid
        assert h.vmeasure[h.index(w)] == pytest.approx(h.vmeasure[h.index(vid)])


def test_double_of_closed_graph_is_disjoint_copies():
    g = cycle(4)
    h = double(g).graph
    assert h.n == 8
    assert not is_connected(h)


def test_subdivide_edge():
    g = path(2)
    h = subdivide_edge(g, 0, 0.25, "mid", measure=0.1)
    assert h.n == 3
    lengths = sorted(e.length for e in h.edges)
    assert lengths == pytest.approx([0.25, 0.75])
    assert sum(e.measure for e in h.edges) == pytest.approx(
        sum(e.measure for e in g.edges)
    )
    with pytest.raises(GraphError):
        subdivide_edge(g, 0, 1.5, "bad")


def test_L_stats():
    g = build_graph(["a", "b"], [Edge("a", "b", a=3.0, length=0.5)])
    st = L_stats(g)
    assert st.sup == pytest.approx(6.0)
    # loops are excluded from L
    gl = build_graph(["a"], [Edge("a", "a", a=5.0)])
    assert L_stats(gl).sup == 0.0


def test_dict_roundtrip():
    g = build_graph(
        [("a", 2.0), ("b", 1.0)],
        [Edge("a", "b", 1.5, 0.5)],
        boundary=["b"],
    )
    h = WeightedGraph.from_dict(g.to_dict())
    assert h.vertices == g.vertices
    assert np.allclose(h.vmeasure, g.vmeasure)
    assert h.boundary == g.boundary
    assert [(e.u, e.v, e.a, e.length) for e in h.edges] == [
        (e.u, e.v, e.a, e.length) for e in g.edges
    ]


def test_from_dict_defaults():
    g = WeightedGraph.from_dict(
        {"vertices": ["x", {"id": "y", "boundary": True}], "edges": [{"u": "x", "v": "y"}]}
    )
    assert np.allclose(g.vmeasure, [1.0, 1.0])
    assert g.boundary == {"y"}
    assert g.edges[0].a == 1.0 and g.edges[0].length == 1.0


def test_with_boundary_and_connectivity():
    g = cycle(5)
    h = with_boundary(g, [1, 2])
    assert h.boundary == {1, 2}
    assert is_connected(g)
    two = build_graph(["a", "b"], [])
    assert not is_connected(two)


def test_graph_is_immutable():
    # the graph copies the measures it is given and exposes nothing writable,
    # so what its memo holds stays true of it
    measures = np.array([1.0, 2.0, 3.0, 4.0])
    edges = [Edge(1, 2), Edge(2, 3, 0.5), Edge(3, 4), Edge(4, 1, 2.0)]
    g = WeightedGraph([1, 2, 3, 4], measures, edges)
    before = iso_constant(g, 2.0, "tilde").value
    measures[0] = 50.0
    fresh = WeightedGraph([1, 2, 3, 4], [1.0, 2.0, 3.0, 4.0], edges)
    assert iso_constant(g, 2.0, "tilde").value == before == iso_constant(fresh, 2.0, "tilde").value
    assert magnification(g) == magnification(fresh)  # first computed after the write
    assert np.array_equal(eigenvalues(g), eigenvalues(fresh))
    for arr in (g.vmeasure, g.eu, g.ev, g.ea, g.elen, g.emeasure, g.loop_mask, g.interior_mask):
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    with pytest.raises(AttributeError):
        g.edges.append(Edge(1, 3))
    with pytest.raises(AttributeError):
        g.vertices.append(5)
    with pytest.raises(AttributeError):
        g.vmeasure = np.ones(4)


def test_adjacency_matches_the_edge_arrays():
    # loops, parallel edges and an isolated vertex
    rng = np.random.default_rng(29)
    g = random_graph(9, rng, extra_edges=14, allow_loops=True)
    g = build_graph(list(g.vertices) + [9], list(g.edges) + [g.edges[0], Edge(3, 3)])
    assert len(g.adjacency) == g.n and bool(g.loop_mask.any())
    for i in range(g.n):
        near = {int(v) for u, v in zip(g.eu, g.ev) if u == i} | {
            int(u) for u, v in zip(g.eu, g.ev) if v == i}
        assert g.neighbors(i) is g.adjacency[i] == frozenset(near)
    assert g.adjacency[9] == frozenset() and 3 in g.adjacency[3]
