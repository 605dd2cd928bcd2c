import math
from fractions import Fraction

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
from graphcalc.graph import component_labels, integer_column
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


def test_unknown_keys_are_refused_in_every_list():
    doc = {"vertices": [{"id": "x", "measure": 2.0, "boundary": False}, "y"],
           "edges": [{"u": "x", "v": "y", "a": 1.0, "length": 1.0}]}
    WeightedGraph.from_dict(doc)  # every known key
    for where, bad in (("document", {**doc, "name": "g"}),
                       ("vertex", {**doc, "vertices": [{"id": "x", "mesure": 2.0}, "y"]}),
                       ("edge", {**doc, "edges": [{"u": "x", "v": "y", "weight": 3.0}]})):
        with pytest.raises(GraphError, match=rf"^malformed graph document: unknown {where} keys"):
            WeightedGraph.from_dict(bad)


def test_integer_column_is_exact_and_kept():
    values = [5e-324, 2.0**-1074 * 3, 2.0**-1000, 2.0**1000, 3.0, 1.0, 0.1, 7.0 * 2.0**-30]
    g = build_graph([(k, x) for k, x in enumerate(values)],
                    [Edge(k, k, 1.0, x) for k, x in enumerate(values)])
    for name, column in (("vmeasure", g.vmeasure), ("elen", g.elen)):
        den, nums = integer_column(g, name)
        assert den == 2**1074 and len(nums) == len(values)
        assert all(Fraction(p, den) == Fraction(x) for p, x in zip(nums, column.tolist()))
        assert integer_column(g, name) is integer_column(g, name)
    assert integer_column(build_graph([1, 2], [(1, 2)]), "elen") == (1, (1,))
    assert integer_column(build_graph([1], []), "elen") == (1, ())


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


def _dfs_labels(g, keep):
    """Component labels by depth-first search over the adjacency sets, in
    order of the least vertex, -1 off keep."""
    label = [-1] * g.n
    count = 0
    for start in range(g.n):
        if not keep[start] or label[start] >= 0:
            continue
        label[start] = count
        stack = [start]
        while stack:
            for j in g.adjacency[stack.pop()]:
                if keep[j] and label[j] < 0:
                    label[j] = count
                    stack.append(j)
        count += 1
    return label


def test_component_labels_match_a_depth_first_search():
    rng = np.random.default_rng(71)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 2 * n))
        # few edges leave isolated vertices; repeated pairs are parallel edges
        # and equal endpoints loops
        tails, heads = rng.integers(0, n, m), rng.integers(0, n, m)
        g = WeightedGraph.from_columns(range(n), np.ones(n), tails, heads,
                                       np.ones(m), np.ones(m))
        assert is_connected(g) == (max(_dfs_labels(g, [True] * n)) == 0)
        for mask in (None, rng.random(n) < rng.uniform(0.2, 0.9), np.zeros(n, dtype=bool)):
            keep = [True] * n if mask is None else mask.tolist()
            assert component_labels(g, mask).tolist() == _dfs_labels(g, keep)
    # a path numbered against its order needs several rounds of hooking
    order = rng.permutation(200)
    g = WeightedGraph.from_columns(range(200), np.ones(200), order[:-1], order[1:],
                                   np.ones(199), np.ones(199))
    assert component_labels(g).tolist() == [0] * 200
    cut = np.ones(200, dtype=bool)
    cut[order[100]] = False
    assert component_labels(g, cut).tolist() == _dfs_labels(g, cut.tolist())


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


def _random_document(rng):
    """A graph document with int and str ids, bare and full vertex entries,
    a boundary, loops, parallel edges and omitted a / length."""
    n = int(rng.integers(1, 12))
    ids = [i if rng.random() < 0.5 else f"v{i}" for i in range(n)]
    vertices = []
    for vid in ids:
        if rng.random() < 0.3:
            vertices.append(vid)
        else:
            spec = {"id": vid, "measure": float(rng.uniform(0.2, 3.0))}
            if rng.random() < 0.3:
                spec["boundary"] = True
            vertices.append(spec)
    edges = []
    for _ in range(int(rng.integers(0, 3 * n))):
        u, v = (ids[int(rng.integers(n))] for _ in range(2))
        spec = {"u": u, "v": v}
        if rng.random() < 0.6:
            spec["a"] = float(rng.uniform(0.2, 3.0))
        if rng.random() < 0.6:
            spec["length"] = float(rng.uniform(0.2, 3.0))
        edges.append(spec)
        if rng.random() < 0.2:
            edges.append(dict(spec))  # a parallel edge
    return {"vertices": vertices, "edges": edges}


def test_from_dict_matches_the_graph_built_from_edge_objects():
    rng = np.random.default_rng(41)
    for _ in range(60):
        doc = _random_document(rng)
        full = [s if isinstance(s, dict) else {"id": s} for s in doc["vertices"]]
        ref = WeightedGraph(
            [s["id"] for s in full],
            [s.get("measure", 1.0) for s in full],
            [Edge(s["u"], s["v"], s.get("a", 1.0), s.get("length", 1.0)) for s in doc["edges"]],
            [s["id"] for s in full if s.get("boundary")],
        )
        g = WeightedGraph.from_dict(doc)
        assert (g.n, g.m, g.vertices, g.boundary) == (ref.n, ref.m, ref.vertices, ref.boundary)
        assert g.m == len(doc["edges"])
        for name in ("vmeasure", "eu", "ev", "ea", "elen", "emeasure", "loop_mask",
                     "interior_mask"):
            assert np.array_equal(getattr(g, name), getattr(ref, name)), name
            assert getattr(g, name).dtype == getattr(ref, name).dtype, name
        assert g.edges == ref.edges
        assert g.adjacency == ref.adjacency
        assert g.edges == tuple(
            Edge(s["u"], s["v"], s.get("a", 1.0), s.get("length", 1.0)) for s in doc["edges"])


def test_the_sparse_solve_builds_neither_edges_nor_adjacency():
    # the views are built on first read; a solve reads only the columns
    g = WeightedGraph.from_dict(random_graph(400, np.random.default_rng(5)).to_dict())
    assert g.is_closed and g.n > 300  # past SPARSE_ROWS
    eigenvalues(g, 2)
    assert g.memoized(("edges",)) is None and g.memoized(("adjacency",)) is None
    views = g.edges, g.adjacency
    assert (g.memoized(("edges",)), g.memoized(("adjacency",))) == views


@pytest.mark.filterwarnings("error")
def test_every_bad_weight_is_refused_without_a_warning():
    # NaN, a zero length times an infinite conductance, and an overflowing product
    for a, length in ((math.nan, 1.0), (math.inf, 0.0), (1e200, 1e200), (1.0, -0.5)):
        with pytest.raises(GraphError, match="edge weights and lengths must be positive"):
            WeightedGraph([1, 2], [1.0, 1.0], [Edge(1, 2, a, length)])


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertices": [{"measure": 1}], "edges": []}, "malformed graph document: missing key 'id'"),
        ({"vertices": [1, 2], "edges": [{"u": 1}]}, "malformed graph document: missing key 'v'"),
        ({"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": "x"}]},
         "malformed graph document: 'a' must be a number, not 'x'"),
        ({"vertices": [[1], 2], "edges": []}, "vertex ids must be hashable: unhashable type: 'list'"),
        ({"vertices": [1, 2], "edges": [{"u": [1], "v": 2}]}, "edge endpoint not in graph: [1]-2"),
        ({"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": math.inf}]},
         "edge weights and lengths must be positive, their product finite"),
        ({"vertices": [{"id": 1, "measure": math.nan}, 2], "edges": []},
         "vertex measures must be positive and finite"),
        ({"vertices": [{"id": 1, "measure": math.inf}, 2], "edges": []},
         "vertex measures must be positive and finite"),
        ({"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": 1e308, "length": 1e308}]},
         "edge weights and lengths must be positive, their product finite"),
        ({"vertices": [{"id": 1, "measure": 10**400}], "edges": []},
         "malformed graph document: int too large to convert to float"),
        ({"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": 10**400}]},
         "malformed graph document: int too large to convert to float"),
        # every endpoint is checked before any weight
        ({"vertices": [1, 2, 3], "edges": [{"u": 1, "v": 2, "a": -1}, {"u": 1, "v": 9}]},
         "edge endpoint not in graph: 1-9"),
        ({"vertices": [{"id": 1, "mesure": 5}, {"id": 2}],
          "edges": [{"u": 1, "v": 2, "weight": 3}], "boundary": [2]},
         "malformed graph document: unknown document keys ['boundary']"),
        ({"vertices": [{"id": 1, "boundary": "false"}, 2], "edges": [{"u": 1, "v": 2}]},
         "malformed graph document: a boundary flag must be true or false, not 'false'"),
        ({"vertices": [{"id": 1, "measure": True}, 2], "edges": []},
         "malformed graph document: 'measure' must be a number, not true or false"),
        ({"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": True}]},
         "malformed graph document: 'a' must be a number, not true or false"),
        ({"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "length": False}]},
         "malformed graph document: 'length' must be a number, not true or false"),
        ({"vertices": "abc"}, "malformed graph document: 'vertices' must be an array"),
        ({"vertices": {"a": 1, "b": 2}, "edges": []},
         "malformed graph document: 'vertices' must be an array"),
        ({"vertices": [1, 2], "edges": ""}, "malformed graph document: 'edges' must be an array"),
        ({"vertices": [1, 2], "edges": {}}, "malformed graph document: 'edges' must be an array"),
        ({"vertices": [{"id": 1, "measure": "2"}], "edges": []},
         "malformed graph document: 'measure' must be a number, not '2'"),
        ({"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "a": "2"}]},
         "malformed graph document: 'a' must be a number, not '2'"),
        ({"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "length": " 3 "}]},
         "malformed graph document: 'length' must be a number, not ' 3 '"),
        ({"vertices": [{"id": 1, "measure": "Infinity"}, 2], "edges": []},
         "malformed graph document: 'measure' must be a number, not 'Infinity'"),
    ],
)
def test_malformed_documents_keep_their_messages(doc, message):
    # the documents of test_cli's test_malformed_document_is_usage_error
    with pytest.raises(GraphError) as info:
        WeightedGraph.from_dict(doc)
    assert str(info.value) == message
