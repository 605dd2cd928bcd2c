"""Weighted graphs carrying two volume measures.

A graph here is a finite multigraph (self-loops allowed) together with

* a vertex measure ``V`` (one positive weight per vertex),
* an edge measure ``E`` determined by a conductance ``a_e > 0`` and a
  length ``l_e > 0`` per edge, ``E(e) = a_e * l_e``,
* a distinguished (possibly empty) set of boundary vertices.

A ``WeightedGraph`` is its columns: the read-only arrays ``vmeasure`` (one
entry per vertex) and ``eu``, ``ev`` (tail and head vertex indices), ``ea``
and ``elen`` (one entry per edge); ``n`` and ``m`` count the vertices and
the edges.  Edges are stored with an orientation (tail ``u`` -> head ``v``)
purely as a bookkeeping convention for vector fields; nothing downstream
depends on the choice.  Two views are built on their first read and kept in
the graph's memo: ``edges``, a tuple of ``Edge`` objects, and
``adjacency``, the one neighbour structure: per vertex index, the frozenset
of the indices it shares an edge with (itself too when it carries a loop);
every module reads it through ``neighbors``.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GraphError",
    "Edge",
    "WeightedGraph",
    "HalfDegreeStats",
    "LStats",
    "build_graph",
    "half_degrees",
    "natural_measure",
    "from_markov_chain",
    "double",
    "DoubledGraph",
    "L_stats",
    "integer_column",
    "subdivide_edge",
    "with_boundary",
    "is_connected",
    "component_labels",
]

VertexId = Hashable


class GraphError(ValueError):
    """Raised for ill-formed graph data (bad weights, unknown vertices, ...)."""


@dataclass(frozen=True)
class Edge:
    u: VertexId
    v: VertexId
    a: float = 1.0
    length: float = 1.0

    @property
    def measure(self) -> float:
        return self.a * self.length

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


class WeightedGraph:
    """Immutable: the graph is its columns, every array read-only (the
    columns passed in are copied), and attributes cannot be rebound.  The
    views ``edges`` and ``adjacency`` are tuples, built on first read.  Data
    derived from the graph is computed once and kept in one memo, with the
    views."""

    def __init__(
        self,
        vertices: Sequence[VertexId],
        measures: Sequence[float],
        edges: Sequence[Edge],
        boundary: Iterable[VertexId] = (),
    ):
        edges = tuple(edges)
        self._build(vertices, measures, [e.u for e in edges], [e.v for e in edges],
                    [e.a for e in edges], [e.length for e in edges], boundary)

    @classmethod
    def from_columns(cls, vertices, measures, tails, heads, a, length,
                     boundary: Iterable[VertexId] = ()) -> "WeightedGraph":
        """The graph whose edge k runs from tails[k] to heads[k] (vertex ids)
        with conductance a[k] and length length[k]."""
        g = cls.__new__(cls)
        g._build(vertices, measures, tails, heads, a, length, boundary)
        return g

    def _build(self, vertices, measures, tails, heads, a, length, boundary) -> None:
        """Validate the columns and set every attribute; the one constructor."""
        self.vertices = tuple(vertices)
        try:
            self._index = {vid: i for i, vid in enumerate(self.vertices)}
        except TypeError as exc:
            raise GraphError(f"vertex ids must be hashable: {exc}") from None
        index = self._index
        if len(set(map(str, index))) != len(self.vertices):
            raise GraphError("vertex ids must be distinct, also as strings")
        self.vmeasure = np.array(measures, dtype=float)
        if self.vmeasure.shape != (len(self.vertices),):
            raise GraphError("vertex measure length mismatch")
        if not np.all((self.vmeasure > 0) & np.isfinite(self.vmeasure)):
            raise GraphError("vertex measures must be positive and finite")
        self.boundary = frozenset(boundary)
        unknown = self.boundary.difference(index)
        if unknown:
            raise GraphError(f"boundary vertices not in graph: {sorted(map(str, unknown))}")
        try:
            self.eu = np.array([index[x] for x in tails], dtype=int)
            self.ev = np.array([index[x] for x in heads], dtype=int)
        except (KeyError, TypeError):  # name the first edge with an unknown or unhashable end
            for u, v in zip(tails, heads):
                try:
                    known = u in index and v in index
                except TypeError:
                    known = False
                if not known:
                    raise GraphError(f"edge endpoint not in graph: {u!r}-{v!r}") from None
        self.ea = np.array(a, dtype=float)
        self.elen = np.array(length, dtype=float)
        if not self.eu.shape == self.ev.shape == self.ea.shape == self.elen.shape:
            raise GraphError("edge column length mismatch")
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            self.emeasure = self.ea * self.elen
        if not np.all((self.ea > 0) & (self.elen > 0) & np.isfinite(self.emeasure)):
            raise GraphError("edge weights and lengths must be positive, their product finite")
        self.loop_mask = self.eu == self.ev
        self.interior_mask = np.ones(len(self.vertices), dtype=bool)
        self.interior_mask[[index[b] for b in self.boundary]] = False
        for arr in (self.vmeasure, self.eu, self.ev, self.ea, self.elen, self.emeasure,
                    self.loop_mask, self.interior_mask):
            arr.setflags(write=False)
        self._memo = {}  # set last: from here on no attribute may be rebound

    def __setattr__(self, name, value):
        if hasattr(self, "_memo"):
            raise AttributeError("WeightedGraph is immutable")
        super().__setattr__(name, value)

    def memo(self, key, build):
        """``build()``, computed on the first call with ``key`` and kept for
        the graph's lifetime; the key names the result and its arguments."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def memoized(self, key):
        """The result kept under ``key``, or None when none was built yet."""
        return self._memo.get(key)

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.eu)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ``Edge`` objects, in edge order, with the vertices' own ids."""
        return self.memo(("edges",), lambda: tuple(map(
            Edge, *self.endpoint_ids(), self.ea.tolist(), self.elen.tolist())))

    @property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Per vertex index, the frozenset of the indices it shares an edge
        with (itself too when it carries a loop)."""
        def build():
            near = [set() for _ in self.vertices]
            for iu, iv in zip(self.eu.tolist(), self.ev.tolist()):
                near[iu].add(iv)
                near[iv].add(iu)
            return tuple(map(frozenset, near))
        return self.memo(("adjacency",), build)

    def endpoint_ids(self) -> tuple[list, list]:
        """The tail ids and the head ids of the edges, in edge order."""
        ids = self.vertices
        return [ids[i] for i in self.eu.tolist()], [ids[i] for i in self.ev.tolist()]

    @property
    def is_closed(self) -> bool:
        return not self.boundary

    def index(self, vid: VertexId) -> int:
        try:
            return self._index[vid]
        except KeyError:
            raise GraphError(f"unknown vertex {vid!r}") from None

    def total_measure(self) -> float:
        return float(self.vmeasure.sum())

    def interior_indices(self) -> np.ndarray:
        return np.nonzero(self.interior_mask)[0]

    def neighbors(self, i: int) -> frozenset[int]:
        """Vertex indices joined to ``i`` by some edge (a loop makes i its own)."""
        return self.adjacency[i]

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "vertices": [
                {
                    "id": vid,
                    "measure": float(self.vmeasure[i]),
                    "boundary": vid in self.boundary,
                }
                for i, vid in enumerate(self.vertices)
            ],
            "edges": [
                {"u": u, "v": v, "a": a, "length": length}
                for u, v, a, length in zip(*self.endpoint_ids(), self.ea.tolist(),
                                           self.elen.tolist())
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "WeightedGraph":
        try:
            vspecs = data["vertices"]
            especs = data.get("edges", [])
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph document: {exc}") from exc
        for key, specs in (("vertices", vspecs), ("edges", especs)):
            if not isinstance(specs, list):
                raise GraphError(f"malformed graph document: {key!r} must be an array")
        try:
            vspecs = [s if isinstance(s, Mapping) else {"id": s} for s in vspecs]
            vertices = [s["id"] for s in vspecs]
            measures = [s.get("measure", 1.0) for s in vspecs]
            flags = [s.get("boundary", False) for s in vspecs]
            tails = [s["u"] for s in especs]
            heads = [s["v"] for s in especs]
            a = [s.get("a", 1.0) for s in especs]
            length = [s.get("length", 1.0) for s in especs]
            for key, column in (("measure", measures), ("a", a), ("length", length)):
                if bad := set(map(type, column)) - {int, float}:  # float(True) is 1.0
                    x = next(x for x in column if type(x) in bad)
                    raise TypeError(f"{key!r} must be a number, not "
                                    + ("true or false" if type(x) is bool else repr(x)))
            measures, a, length = (list(map(float, c)) for c in (measures, a, length))
        except KeyError as exc:
            raise GraphError(f"malformed graph document: missing key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphError(f"malformed graph document: {exc}") from exc
        if not vertices:
            raise GraphError("malformed graph document: no vertices")
        for where, specs, known in (("document", [data], {"vertices", "edges"}),
                                    ("vertex", vspecs, {"id", "measure", "boundary"}),
                                    ("edge", especs, {"u", "v", "a", "length"})):
            if unknown := set().union(*specs).difference(known):
                raise GraphError(f"malformed graph document: unknown {where} keys "
                                 f"{sorted(map(str, unknown))}")
        if bad := [f for f in flags if not isinstance(f, bool)]:
            raise GraphError(f"malformed graph document: a boundary flag must be true or false, "
                             f"not {bad[0]!r}")
        boundary = [v for v, f in zip(vertices, flags) if f]
        return cls.from_columns(vertices, measures, tails, heads, a, length, boundary)


def build_graph(
    vertices,
    edges,
    measures=None,
    boundary=(),
) -> WeightedGraph:
    """Convenience constructor.

    ``vertices`` may be ids or (id, measure) pairs; ``edges`` may be Edge
    objects, (u, v) pairs, or (u, v, a[, length]) tuples.  Unspecified vertex
    measures default to 1 (the traditional normalization).
    """
    vids, vmeas = [], []
    for spec in vertices:
        if isinstance(spec, tuple) and len(spec) == 2 and not isinstance(spec[0], tuple):
            vids.append(spec[0])
            vmeas.append(float(spec[1]))
        else:
            vids.append(spec)
            vmeas.append(1.0)
    if measures is not None:
        if isinstance(measures, Mapping):
            vmeas = [float(measures.get(v, 1.0)) for v in vids]
        else:
            vmeas = [float(x) for x in measures]
    es = []
    for spec in edges:
        if isinstance(spec, Edge):
            es.append(spec)
        else:
            es.append(Edge(*spec))
    return WeightedGraph(vids, vmeas, es, boundary)


# -- half degrees ----------------------------------------------------------


@dataclass(frozen=True)
class HalfDegreeStats:
    rho: np.ndarray  # read-only
    rho_sup: float
    rho_inf: float
    regularity: float | None  # r such that rho == r/2, or None

    def is_regular(self, r: float, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self.rho - r / 2.0) <= tol * (1.0 + abs(r))))


def half_degrees(g: WeightedGraph) -> HalfDegreeStats:
    """rho(v) = V(v)^-1 * sum over incident edges of E(e)/2, kept in the
    graph's memo.

    A self-loop counts once (a single incidence contributing E(e)/2), which
    is what makes a reversible chain with holding probabilities exactly
    1-regular.
    """
    def build():
        acc = np.zeros(g.n)
        np.add.at(acc, g.eu, g.emeasure / 2.0)
        mask = ~g.loop_mask
        np.add.at(acc, g.ev[mask], g.emeasure[mask] / 2.0)
        rho = acc / g.vmeasure
        rho.setflags(write=False)
        sup = float(rho.max()) if g.n else 0.0
        inf = float(rho.min()) if g.n else 0.0
        reg = None
        if g.n and sup - inf <= 1e-12 * (1.0 + sup):
            reg = 2.0 * float(rho.mean())
        return HalfDegreeStats(rho, sup, inf, reg)
    return g.memo(("half_degrees",), build)


def natural_measure(g: WeightedGraph) -> WeightedGraph:
    """Replace V by the measure induced by E; the result is 1-regular."""
    stats = half_degrees(g)
    nat = stats.rho * g.vmeasure
    if not np.all(nat > 0):
        raise GraphError("isolated vertex: natural measure would vanish")
    return WeightedGraph.from_columns(g.vertices, nat, *g.endpoint_ids(), g.ea, g.elen,
                                      g.boundary)


# -- reversible Markov chains ----------------------------------------------


def from_markov_chain(pi, K, labels=None, tol: float = 1e-9) -> WeightedGraph:
    """Graph of a reversible chain: V = pi, unit lengths, E(e) = pi(u)K(u,v).

    ``pi`` and ``K`` are arrays (or mappings keyed by label).  Reversibility
    |pi(u)K(u,v) - pi(v)K(v,u)| <= tol * max scale is required; rows of K must
    sum to 1 within tol.  The result is 1-regular (rho == 1/2).
    """
    if isinstance(pi, Mapping):
        labels = list(pi.keys()) if labels is None else list(labels)
        pvec = np.array([float(pi[l]) for l in labels])
        Kmat = np.array([[float(K.get((a, b), 0.0)) for b in labels] for a in labels])
    else:
        pvec = np.asarray(pi, dtype=float)
        Kmat = np.asarray(K, dtype=float)
        if labels is None:
            labels = list(range(len(pvec)))
    n = len(pvec)
    if Kmat.shape != (n, n):
        raise GraphError("kernel shape mismatch")
    if np.any(pvec <= 0):
        raise GraphError("stationary measure must be positive")
    if np.any(Kmat < 0):
        raise GraphError("kernel must be nonnegative")
    rows = Kmat.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > tol):
        raise GraphError("kernel rows must sum to 1")
    flux = pvec[:, None] * Kmat
    scale = max(flux.max(), 1.0)
    if np.max(np.abs(flux - flux.T)) > tol * scale:
        raise GraphError("chain is not reversible (detailed balance fails)")
    edges = []
    for i in range(n):
        if Kmat[i, i] > 0:
            edges.append(Edge(labels[i], labels[i], a=float(flux[i, i]), length=1.0))
        for j in range(i + 1, n):
            w = (flux[i, j] + flux[j, i]) / 2.0
            if w > 0:
                edges.append(Edge(labels[i], labels[j], a=float(w), length=1.0))
    return WeightedGraph(labels, pvec, edges)


# -- doubling ----------------------------------------------------------------


@dataclass
class DoubledGraph:
    graph: WeightedGraph
    involution: dict  # vertex id of the double -> its mirror image


def double(g: WeightedGraph) -> DoubledGraph:
    """Two copies of g glued along the boundary.

    Interior vertex ``x`` becomes ``x`` and ``x'`` (ids are stringified to
    attach the prime); a boundary vertex keeps one copy with doubled measure
    and stops being boundary.  Every edge is copied into both sheets, so an
    edge between two boundary vertices becomes a doubled (parallel) edge.
    The closed result carries the sheet-swapping involution.
    """
    plus = {vid: str(vid) for vid in g.vertices}
    minus = {
        vid: str(vid) if vid in g.boundary else str(vid) + "'" for vid in g.vertices
    }
    taken = set(plus.values())
    for vid in g.vertices:
        if vid not in g.boundary and minus[vid] in taken:
            base = minus[vid]
            while base in taken:
                base += "'"
            minus[vid] = base
        taken.add(minus[vid])
    vertices, measures = [], []
    for i, vid in enumerate(g.vertices):
        vertices.append(plus[vid])
        measures.append(g.vmeasure[i] * (2.0 if vid in g.boundary else 1.0))
    for i, vid in enumerate(g.vertices):
        if vid not in g.boundary:
            vertices.append(minus[vid])
            measures.append(float(g.vmeasure[i]))
    edges = [Edge(plus[e.u], plus[e.v], e.a, e.length) for e in g.edges]
    edges += [Edge(minus[e.u], minus[e.v], e.a, e.length) for e in g.edges]
    involution = {plus[vid]: minus[vid] for vid in g.vertices}
    involution.update({minus[vid]: plus[vid] for vid in g.vertices})
    return DoubledGraph(WeightedGraph(vertices, measures, edges), involution)


# -- the Laplacian scale function L ------------------------------------------


@dataclass(frozen=True)
class LStats:
    values: np.ndarray  # L(v) = V(v)^-1 sum_{e at v, not a loop} a_e / l_e; read-only
    sup: float


def L_stats(g: WeightedGraph) -> LStats:
    """L(v) and its supremum, kept in the graph's memo."""
    def build():
        acc = np.zeros(g.n)
        mask = ~g.loop_mask
        w = g.ea[mask] / g.elen[mask]
        np.add.at(acc, g.eu[mask], w)
        np.add.at(acc, g.ev[mask], w)
        vals = acc / g.vmeasure
        vals.setflags(write=False)
        return LStats(vals, float(vals.max(initial=0.0)))
    return g.memo(("L_stats",), build)


# -- small structural helpers -------------------------------------------------


def integer_column(g: WeightedGraph, name: str) -> tuple[int, tuple[int, ...]]:
    """(den, nums) with column[k] = nums[k] / den exactly, for the column
    ``vmeasure`` or ``elen``, kept in the graph's memo.  Every float is a
    dyadic rational, so den is the largest denominator of the column."""
    def build():
        column = {"vmeasure": g.vmeasure, "elen": g.elen}[name].tolist()
        ratios = [x.as_integer_ratio() for x in column]
        den = max((d for _, d in ratios), default=1)
        return den, tuple(p * (den // d) for p, d in ratios)
    return g.memo(("integer_column", name), build)


def subdivide_edge(
    g: WeightedGraph,
    edge_index: int,
    frac: float,
    new_id: VertexId,
    measure: float = 1e-300,
) -> WeightedGraph:
    """Split edge k at parameter ``frac`` of its length (measured from u).

    The conductance is inherited by both halves so the edge measure splits
    proportionally; the new vertex gets a (tiny, by default) mass.
    """
    e = g.edges[edge_index]
    if e.is_loop:
        raise GraphError("cannot subdivide a self-loop")
    if not 0.0 < frac < 1.0:
        raise GraphError("subdivision point must be interior to the edge")
    if new_id in g._index:
        raise GraphError(f"vertex id {new_id!r} already used")
    edges = list(g.edges)
    edges[edge_index] = Edge(e.u, new_id, e.a, e.length * frac)
    edges.append(Edge(new_id, e.v, e.a, e.length * (1.0 - frac)))
    return WeightedGraph(
        list(g.vertices) + [new_id],
        np.concatenate([g.vmeasure, [measure]]),
        edges,
        g.boundary,
    )


def with_boundary(g: WeightedGraph, boundary: Iterable[VertexId]) -> WeightedGraph:
    return WeightedGraph.from_columns(g.vertices, g.vmeasure, *g.endpoint_ids(), g.ea, g.elen,
                                      boundary)


def component_labels(g: WeightedGraph, mask=None) -> np.ndarray:
    """Label 0, 1, ... of the connected component of each vertex, in order of
    their least vertex; with a boolean ``mask`` the components of the induced
    subgraph, and -1 off the mask.

    Every vertex points at a vertex no larger than itself.  Each round hooks
    the larger root of every edge that joins two trees under the smaller, then
    jumps pointers until each vertex points at its root, the least vertex of
    its tree; it stops when no edge joins two trees."""
    keep = np.ones(g.n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    on = keep[g.eu] & keep[g.ev]
    u, v = g.eu[on], g.ev[on]
    root = np.arange(g.n)
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(ru, rv)[apart], np.minimum(ru, rv)[apart])
        while not np.array_equal(jump := root[root], root):
            root = jump
    least = keep & (root == np.arange(g.n))  # the least vertex of each component
    return np.where(keep, (np.cumsum(least) - 1)[root], -1)


def is_connected(g: WeightedGraph) -> bool:
    return not np.any(component_labels(g) > 0)
