"""A reference neighbour structure for the tests, built from ``WeightedGraph.edges``."""


def neighbour_sets(g):
    """Per vertex index, the set of the indices it shares an edge with
    (itself too when it carries a loop)."""
    near = [set() for _ in range(g.n)]
    for e in g.edges:
        u, v = g.index(e.u), g.index(e.v)
        near[u].add(v)
        near[v].add(u)
    return near
