"""Exact isoperimetric constants by enumeration.

The admissible sets can be restricted to connected, vertex-determined subsets
disjoint from the boundary without changing any of the constants (Yau's
observation: the quotient of a disjoint union is at least the smaller of the
quotients, and partial edge segments only add area).  Connected subsets are
enumerated canonically (each exactly once) over bitmasks, with their area and
mass, into one (mask, area, mass) table per graph and pool of free vertices,
kept in the graph's memo with the reports.  Every (nu, variant) is one
vectorized quotient over that table: the whole vertex set gets inf in the
tilde variants, and the sorted-id tie rule sees only the masks within 1e-12
of the minimum.  A vectorized interval sweep handles long paths instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, WeightedGraph
from .functions import VertexFunction, grad_lp_norm, lp_norm_vertex

__all__ = [
    "AdmissibleSet",
    "IsoReport",
    "iso_constant",
    "magnification",
    "sobolev_quotient",
    "characteristic_approx",
    "enumerate_connected_subsets",
    "neighborhood",
    "neighborhood_measures",
]

DEFAULT_CAP = 22
MAGNIFICATION_CAP = 20


@dataclass(frozen=True)
class AdmissibleSet:
    vertices: frozenset
    area: float  # A(boundary) = sum of a_e over edges leaving the set
    vmass: float

    @classmethod
    def of_mask(cls, g: WeightedGraph, mask: int) -> "AdmissibleSet":
        """The vertices of a bitmask, with area and mass summed afresh."""
        inside = [(mask >> i) & 1 for i in range(g.n)]
        edges = zip(g.eu.tolist(), g.ev.tolist(), g.ea.tolist())
        area = sum(a for i, j, a in edges if inside[i] != inside[j])
        mass = sum(x for x, b in zip(g.vmeasure.tolist(), inside) if b)
        return cls(_mask_set(g, mask), float(area), float(mass))


@dataclass
class IsoReport:
    nu: float
    variant: str  # "open" | "tilde" | "tilde_prime"
    value: float
    witness: AdmissibleSet | None


def _neighbor_masks(g: WeightedGraph) -> tuple[int, ...]:
    return g.memo(("neighbor_masks",), lambda: tuple(
        sum(1 << j for j in g.neighbors(i)) for i in range(g.n)))


def enumerate_connected_subsets(g: WeightedGraph, allowed_mask: int):
    """Yield ``(mask, A(boundary S), V(S))`` once for every nonempty connected
    subset S of ``allowed_mask``.  Adding v to S costs O(deg v): area +=
    w(v) - 2 w(v, S), mass += V(v), so both may drift by a few rounding steps;
    the area of a whole component (no neighbour outside S) is exactly 0.

    Canonical scheme: a subset is generated from its minimum vertex; the
    search only ever extends by neighbors above that minimum, and a vertex
    declined at some branch is forbidden in all its siblings.
    """
    nbr = _neighbor_masks(g)
    eu, ev, ea = g.eu.tolist(), g.ev.tolist(), g.ea.tolist()
    adj = [[(1 << (eu[k] + ev[k] - i), ea[k]) for k, sign in inc if sign]
           for i, inc in enumerate(g.incidence)]  # (neighbour bit, a_e), no loops
    wdeg = [sum(a for _, a in row) for row in adj]
    meas = g.vmeasure.tolist()

    def rec(S: int, area: float, mass: float, cand: int, forb: int, reach: int):
        yield S, (area if reach & ~S else 0.0), mass
        c = cand & ~forb
        while c:
            v = c & (-c)
            c ^= v
            vi = v.bit_length() - 1
            delta = wdeg[vi]  # w(v) - 2 w(v, S)
            for b, a in adj[vi]:
                if S & b:
                    delta -= 2.0 * a
            newcand = (cand | (nbr[vi] & gt)) & ~(S | v | forb)
            yield from rec(S | v, area + delta, mass + meas[vi], newcand, forb, reach | nbr[vi])
            forb |= v

    rest = allowed_mask
    while rest:
        s = rest & (-rest)
        rest ^= s
        si = s.bit_length() - 1
        gt = allowed_mask & ~((1 << (si + 1)) - 1)
        yield from rec(s, wdeg[si], meas[si], nbr[si] & gt, 0, nbr[si])


def _mask_set(g: WeightedGraph, mask: int) -> frozenset:
    return frozenset(g.vertices[i] for i in range(g.n) if (mask >> i) & 1)


def _sort_key(g: WeightedGraph, mask: int) -> tuple:
    return tuple(sorted(map(str, _mask_set(g, mask))))


def _quotient(area, mass, comass, nu: float, variant: str):
    """I_nu quotient of a set (elementwise on arrays); the tilde variants also
    weigh its complement."""
    if variant == "tilde_prime" and nu != math.inf:
        return area * (mass ** (1.0 - nu) + comass ** (1.0 - nu)) ** (1.0 / nu)
    small = mass if variant == "open" else np.minimum(mass, comass)
    return area / small if nu == math.inf else area * small ** (1.0 / nu - 1.0)


def _subset_table(g: WeightedGraph, allowed_mask: int) -> np.ndarray:
    """The (mask, area, mass) records of every connected subset of
    ``allowed_mask``, enumerated once per graph and mask."""
    dtype = [("mask", "i8" if g.n < 64 else object), ("area", "f8"), ("mass", "f8")]
    return g.memo(("subsets", allowed_mask), lambda: np.fromiter(
        enumerate_connected_subsets(g, allowed_mask), dtype=dtype))


def _check_cap(free: int, cap: int, force: bool) -> None:
    if free > cap and not force:
        raise GraphError(
            f"{free} free vertices exceeds the enumeration cap {cap}; pass force=True to proceed")


def _is_simple_path(g: WeightedGraph) -> list[int] | None:
    """Vertex order along the path if g is a simple path graph, else None."""
    if g.n < 2 or len(g.edges) != g.n - 1 or bool(g.loop_mask.any()):
        return None
    deg = np.zeros(g.n, dtype=int)
    np.add.at(deg, g.eu, 1)
    np.add.at(deg, g.ev, 1)
    if deg.max() > 2 or np.sum(deg == 1) != 2:
        return None
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for k in range(len(g.edges)):
        adj[int(g.eu[k])].append(int(g.ev[k]))
        adj[int(g.ev[k])].append(int(g.eu[k]))
    start = int(np.nonzero(deg == 1)[0].min())
    order, prev, cur = [start], -1, start
    while len(order) < g.n:
        nxt = [x for x in adj[cur] if x != prev]
        if not nxt:
            return None
        prev, cur = cur, nxt[0]
        order.append(cur)
    return order


def _iso_open_path(g: WeightedGraph, nu: float) -> IsoReport:
    """O(n^2) vectorized interval sweep for open-variant constants on paths."""
    order = _is_simple_path(g)
    assert order is not None
    pos_interior = [p for p, vi in enumerate(order) if g.interior_mask[vi]]
    lo, hi = pos_interior[0], pos_interior[-1]
    if hi - lo + 1 != len(pos_interior):
        raise GraphError("interior not contiguous on the path")
    # edge weight between consecutive positions
    w = np.empty(g.n - 1)
    edge_at = {}
    for k in range(len(g.edges)):
        edge_at[frozenset((int(g.eu[k]), int(g.ev[k])))] = g.ea[k]
    for p in range(g.n - 1):
        w[p] = edge_at[frozenset((order[p], order[p + 1]))]
    meas = g.vmeasure[np.array(order)]
    cmass = np.concatenate([[0.0], np.cumsum(meas)])
    i = np.arange(lo, hi + 1)
    I, J = np.meshgrid(i, i, indexing="ij")
    valid = J >= I
    left = np.where(I > 0, w[np.maximum(I - 1, 0)], 0.0)
    right = np.where(J < g.n - 1, w[np.minimum(J, g.n - 2)], 0.0)
    area = left + right
    mass = cmass[J + 1] - cmass[I]
    with np.errstate(divide="ignore", invalid="ignore"):
        if nu == math.inf:
            vals = area / mass
        elif nu == 1:
            vals = area.astype(float)
        else:
            vals = area / mass ** (1.0 - 1.0 / nu)
    vals = np.where(valid, vals, np.inf)
    kmin = np.unravel_index(np.argmin(vals), vals.shape)
    besti, bestj = int(I[kmin]), int(J[kmin])
    ids = frozenset(g.vertices[order[p]] for p in range(besti, bestj + 1))
    witness = AdmissibleSet(ids, float(area[kmin]), float(mass[kmin]))
    return IsoReport(nu, "open", float(vals[kmin]), witness)


def iso_constant(
    g: WeightedGraph, nu: float, variant: str = "open", force: bool = False
) -> IsoReport:
    if variant not in ("open", "tilde", "tilde_prime"):
        raise GraphError(f"unknown variant {variant!r}")
    if not nu >= 1:
        raise GraphError("nu must be in [1, inf]")
    return g.memo(("iso", nu, variant), lambda: _iso_constant(g, nu, variant, force))


def _iso_constant(g: WeightedGraph, nu: float, variant: str, force: bool) -> IsoReport:
    if variant != "open" and not g.is_closed:
        raise GraphError("tilde variants require a closed graph")
    allowed = sum(1 << i for i in g.interior_indices().tolist())  # every vertex if closed
    if not allowed:
        raise GraphError("no interior vertices")
    if variant == "open" and g.n > 64 and _is_simple_path(g) is not None:
        return _iso_open_path(g, nu)
    _check_cap(allowed.bit_count(), DEFAULT_CAP, force)
    table = _subset_table(g, allowed)
    total = g.total_measure()
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = _quotient(table["area"], table["mass"], total - table["mass"], nu, variant)
    if variant != "open":
        vals[table["mask"] == allowed] = math.inf  # the whole vertex set has no complement
    best = np.nanmin(vals)
    if best == math.inf:
        return IsoReport(nu, variant, math.inf, None)  # a lone vertex: no proper subset
    # the band absorbs the rounding drift of the incremental sums, so exact
    # ties (e.g. complement pairs) go to the least sorted-id key
    near = table["mask"][vals <= best + 1e-12 * abs(best)].tolist()
    wit = AdmissibleSet.of_mask(g, min(near, key=lambda mask: _sort_key(g, mask)))
    value = float(_quotient(wit.area, wit.vmass, total - wit.vmass, nu, variant))
    return IsoReport(nu, variant, value, wit)


# -- magnification -------------------------------------------------------------


def neighborhood(g: WeightedGraph, vertex_ids) -> frozenset:
    """Gamma(A): vertices (possibly inside A) having an edge to A."""
    nbr = _neighbor_masks(g)
    mask = 0
    for vid in vertex_ids:
        mask |= nbr[g.index(vid)]
    return _mask_set(g, mask)


def _byte_tables(values: list, combine) -> list[list]:
    """Entry [k][b] combines values[8k + j] over the set bits j of b."""
    tables = []
    for lo in range(0, len(values), 8):
        t = [0]
        for x in values[lo:lo + 8]:
            t += [combine(y, x) for y in t]
        tables.append(t)
    return tables


def _lookup(tables: list[list], mask: int, combine):
    acc = 0
    for t in tables:
        acc = combine(acc, t[mask & 255])
        mask >>= 8
    return acc


def neighborhood_measures(g: WeightedGraph, vertex_ids, measures: list):
    """Yield ``(sub, V(B), V(Gamma(B)))`` for every nonempty subset B of
    ``vertex_ids`` (bit j of ``sub`` selects ``vertex_ids[j]``), V given per
    vertex by ``measures``; integer measures give exact sums."""
    idx = [g.index(v) for v in vertex_ids]
    nbr = _neighbor_masks(g)
    mass_t = _byte_tables([measures[i] for i in idx], operator.add)
    gamma_t = _byte_tables([nbr[i] for i in idx], operator.or_)
    vol_t = _byte_tables(measures, operator.add)
    for sub in range(1, 1 << len(idx)):
        gamma = _lookup(gamma_t, sub, operator.or_)
        yield sub, _lookup(mass_t, sub, operator.add), _lookup(vol_t, gamma, operator.add)


def magnification(g: WeightedGraph, force: bool = False):
    """c = min over admissible A of V(Gamma(A))/V(A) - 1, with witness.

    A ranges over ALL nonempty subsets of the interior (connectedness cannot
    be assumed here: neighborhoods of separate components may overlap); on a
    closed graph only V(A) <= V(G)/2 competes.
    """
    return g.memo(("magnification",), lambda: _magnification(g, force))


def _magnification(g: WeightedGraph, force: bool):
    pool = [g.vertices[i] for i in range(g.n) if g.interior_mask[i]]
    if not pool:
        raise GraphError("no interior vertices")
    _check_cap(len(pool), MAGNIFICATION_CAP, force)
    limit = (0.5 + 1e-12) * g.total_measure() if g.is_closed else math.inf
    c, best = math.inf, 0
    for sub, mass, gmass in neighborhood_measures(g, pool, g.vmeasure.tolist()):
        ratio = gmass / mass - 1.0
        if mass <= limit and ratio < c - 1e-15:
            c, best = ratio, sub
    return c, frozenset(v for b, v in enumerate(pool) if (best >> b) & 1)


# -- quotients and characteristic approximants --------------------------------


def sobolev_quotient(f: VertexFunction, nu: float):
    """s_nu(f) = ||grad f||_1 / ||f||_{nu'} (gradient against E, f against V);
    a (B,) array for a block."""
    nup = 1.0 if nu == math.inf else (math.inf if nu == 1 else nu / (nu - 1.0))
    denom = lp_norm_vertex(f, nup)
    if np.count_nonzero(denom == 0.0):
        raise GraphError("quotient undefined for f identically zero")
    return grad_lp_norm(f, 1) / denom


def characteristic_approx(
    g: WeightedGraph, S, eps: float
) -> tuple[WeightedGraph, VertexFunction]:
    """Smoothed characteristic function of a vertex set S.

    Every edge leaving S is subdivided at distance eps from its S-side
    endpoint; the function is 1 on S, 0 from the new vertex outward.  Its
    gradient 1-norm is exactly A(boundary S) for every eps, and the vertex
    norms converge to those of the (discontinuous) characteristic function as
    the subdivision masses are negligible (1e-300).
    """
    from .graph import subdivide_edge

    sids = set(S)
    if not sids or not sids.issubset(set(g.vertices)):
        raise GraphError("S must be a nonempty subset of the vertices")
    if any(v in g.boundary for v in sids):
        raise GraphError("S must avoid the boundary")
    if eps <= 0 or eps >= min((e.length for e in g.edges), default=1.0):
        raise GraphError("eps must lie in (0, min edge length)")
    cur = g
    count = 0
    for k, e in enumerate(list(g.edges)):
        inu, inv = e.u in sids, e.v in sids
        if inu == inv:
            continue
        frac = eps / e.length if inu else 1.0 - eps / e.length
        cur = subdivide_edge(cur, k, frac, f"__cut{count}", measure=1e-300)
        count += 1
    values = np.array([1.0 if v in sids else 0.0 for v in cur.vertices])
    return cur, VertexFunction(cur, values)
