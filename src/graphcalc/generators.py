"""Graph families used throughout the tests: classical families, the radial
graphs sharp for the Sobolev constants, their doubles, and the classical
(all-measures-one) realization of a radial graph."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import (
    DoubledGraph,
    Edge,
    GraphError,
    WeightedGraph,
    double,
    natural_measure,
)
from .functions import VertexFunction

__all__ = [
    "path",
    "cycle",
    "complete",
    "hypercube",
    "radial_graph",
    "doubled_radial",
    "log_test_function",
    "classical_radial",
    "ClassicalRadial",
    "random_graph",
]

MAX_MULTIPLIER = 10**4  # the largest vertex degree ell that classical_radial builds


def path(n: int, boundary=()) -> WeightedGraph:
    """Path on vertices 1..n, traditional measures (V=1, a=l=1)."""
    if n < 1:
        raise GraphError("need n >= 1")
    vertices = list(range(1, n + 1))
    edges = [Edge(i, i + 1) for i in range(1, n)]
    return WeightedGraph(vertices, np.ones(n), edges, boundary)


def cycle(n: int) -> WeightedGraph:
    if n < 1:
        raise GraphError("need n >= 1")
    if n == 1:
        return WeightedGraph([1], [1.0], [Edge(1, 1)])
    if n == 2:
        # a doubled edge
        return WeightedGraph([1, 2], [1.0, 1.0], [Edge(1, 2), Edge(2, 1)])
    edges = [Edge(i, i % n + 1) for i in range(1, n + 1)]
    return WeightedGraph(list(range(1, n + 1)), np.ones(n), edges)


def complete(n: int) -> WeightedGraph:
    if n < 1:
        raise GraphError("need n >= 1")
    vertices = list(range(1, n + 1))
    edges = [Edge(i, j) for i in vertices for j in vertices if i < j]
    return WeightedGraph(vertices, np.ones(n), edges)


def hypercube(d: int) -> WeightedGraph:
    if d < 1:
        raise GraphError("need d >= 1")
    vertices = [format(x, f"0{d}b") for x in range(2**d)]
    edges = []
    for x in range(2**d):
        for b in range(d):
            y = x ^ (1 << b)
            if x < y:
                edges.append(Edge(vertices[x], vertices[y]))
    return WeightedGraph(vertices, np.ones(2**d), edges)


def radial_graph(n: int, nu: float) -> WeightedGraph:
    """Path 1..n with E({i, i+1}) = i^(nu-1), natural vertex measure, vertex n
    boundary.  2-regular (rho == 1) by construction."""
    if n < 2:
        raise GraphError("need n >= 2")
    if nu < 1:
        raise GraphError("need nu >= 1")
    vertices = list(range(1, n + 1))
    edges = [Edge(i, i + 1, a=float(i) ** (nu - 1.0)) for i in range(1, n)]
    g = WeightedGraph(vertices, np.ones(n), edges, boundary=[n])
    return natural_measure(g)


def doubled_radial(n: int, nu: float) -> DoubledGraph:
    return double(radial_graph(n, nu))


def log_test_function(g: WeightedGraph, m: int) -> VertexFunction:
    """f_m(i) = log(m/i) for i <= m, 0 beyond; odd extension on a double.

    On a doubled radial graph the mirror vertices carry -f_m, which makes the
    extension split and p-balanced.
    """
    values = np.zeros(g.n)
    maxlevel = 0
    for k, vid in enumerate(g.vertices):
        s = str(vid)
        sign = 1.0
        if s.endswith("'"):
            sign, s = -1.0, s.rstrip("'")
        i = int(s)
        maxlevel = max(maxlevel, i)
        if i <= m:
            values[k] = sign * math.log(m / i)
    if m > maxlevel:
        raise GraphError("m exceeds the radial size")
    return VertexFunction(g, values)


# -- classical realization of a radial graph ---------------------------------


@dataclass
class ClassicalRadial:
    classical: WeightedGraph  # all measures 1, ell-regular, closed
    quotient: WeightedGraph  # doubled weighted path carrying the same norms
    populations: list  # V(i) per level, i = 1..n
    ell: int

    def lift(self, f: VertexFunction) -> VertexFunction:
        """Transport a function on the quotient to the classical graph
        (constant on levels); preserves every ||f||_q and ||grad f||_p."""
        if f.graph is not self.quotient:
            raise GraphError("function must live on the quotient graph")
        idx = {vid: f.values[i] for i, vid in enumerate(self.quotient.vertices)}
        values = [idx[_level_of(vid)] for vid in self.classical.vertices]
        return VertexFunction(self.classical, np.array(values))


def _level_of(classical_vid: str) -> str:
    # classical ids look like "3:17" or "3':17"
    return classical_vid.split(":")[0]


def classical_radial(n: int, nu: float, m: int = 1) -> ClassicalRadial:
    """All-measures-one realization of the doubled radial graph.

    Level populations V(i) = floor(m i^(nu-1)) for i < n and V(n) =
    2 [V(n-1) - V(n-2) + ...]; levels i and i+1 are joined by E(i) copies of
    the complete bipartite graph, E(i) = ell D(i) / (V(i) V(i+1)) with D(i)
    the alternating sum, which makes every vertex degree exactly ell after
    doubling.  The smallest ell <= MAX_MULTIPLIER with all multiplicities
    integral is chosen.
    """
    if n < 3:
        raise GraphError("need n >= 3")
    V = [math.floor(m * i ** (nu - 1.0)) for i in range(1, n)]
    if any(v <= 0 for v in V):
        raise GraphError("population multiplier m too small")
    D = [V[0]]
    for i in range(1, n - 1):
        D.append(V[i] - D[i - 1])
    if any(d <= 0 for d in D):
        raise GraphError("alternating sums not positive; adjust m")
    V.append(2 * D[-1])  # V(n), which makes the glued level ell-regular
    if any(V[i] > V[i + 1] for i in range(n - 1)):
        raise GraphError("populations not nondecreasing; adjust m")
    # E(i) = ell * D(i) / (V(i) V(i+1)) for i = 1..n-1 must be integers,
    # i.e. ell must be a multiple of V(i)V(i+1)/gcd(D(i), V(i)V(i+1))
    ell = 1
    for i in range(n - 1):
        prod = V[i] * V[i + 1]
        ell = math.lcm(ell, prod // math.gcd(D[i], prod))
    if ell > MAX_MULTIPLIER:
        raise GraphError(f"no valid multiplier ell <= {MAX_MULTIPLIER}")
    if n * max(V) > 10**5:
        raise GraphError("classical graph larger than the size budget")

    # quotient: doubled weighted path, V(i) mass per level (2 V(n) at the glue)
    qids = [str(i) for i in range(1, n + 1)] + [f"{i}'" for i in range(1, n)]
    w = [ell * D[i] for i in range(n - 1)]
    # V(n) = 2 D(n-1) already accounts for the gluing, so the glued level
    # carries V(n) vertices once (no extra doubling)
    qmeas = [float(V[i]) for i in range(n)] + [float(V[i]) for i in range(n - 1)]
    qedges = [Edge(str(i + 1), str(i + 2), a=float(w[i])) for i in range(n - 1)]
    qedges += [
        Edge(f"{i + 1}'", f"{i + 2}'" if i + 2 < n else str(n), a=float(w[i]))
        for i in range(n - 1)
    ]
    quotient = WeightedGraph(qids, qmeas, qedges)

    # classical graph: populations per level on both sheets, glued at level n
    cids, levels = [], {}
    for lvl in [str(i) for i in range(1, n + 1)] + [f"{i}'" for i in range(1, n)]:
        base = int(lvl.rstrip("'"))
        levels[lvl] = [f"{lvl}:{j}" for j in range(V[base - 1])]
        cids += levels[lvl]
    cedges = []
    for i in range(n - 1):
        mult = ell * D[i] // (V[i] * V[i + 1])
        for sheet in ("", "'"):
            lo = levels[f"{i + 1}{sheet}"]
            hi = levels[f"{i + 2}{sheet}" if i + 2 < n else str(n)]
            for x in lo:
                for y in hi:
                    for _ in range(mult):
                        cedges.append(Edge(x, y))
    classical = WeightedGraph(cids, np.ones(len(cids)), cedges)
    return ClassicalRadial(classical, quotient, V, ell)


# -- randomized test graphs ---------------------------------------------------


def random_graph(
    n: int,
    rng: np.random.Generator,
    weighted: bool = True,
    boundary_fraction: float = 0.0,
    extra_edges: int | None = None,
    allow_loops: bool = False,
    unit_lengths: bool = False,
) -> WeightedGraph:
    """Connected random graph: a random spanning tree plus extra edges."""
    if n < 1:
        raise GraphError("need n >= 1")
    vertices = list(range(n))
    edges = []
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.append((i, j))
    if extra_edges is None:
        extra_edges = int(rng.integers(0, n))
    for _ in range(extra_edges):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i == j and not allow_loops:
            continue
        edges.append((i, j))
    def wgt():
        return float(rng.uniform(0.2, 3.0)) if weighted else 1.0
    es = [
        Edge(u, v, a=wgt(), length=1.0 if unit_lengths else wgt())
        for u, v in edges
    ]
    meas = rng.uniform(0.2, 3.0, size=n) if weighted else np.ones(n)
    nb = int(round(boundary_fraction * n))
    bnd = list(rng.choice(n, size=nb, replace=False)) if nb else []
    return WeightedGraph(vertices, meas, es, [int(b) for b in bnd])
