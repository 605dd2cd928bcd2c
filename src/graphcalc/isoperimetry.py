"""Exact isoperimetric constants by enumeration.

The admissible sets can be restricted to connected, vertex-determined subsets
disjoint from the boundary without changing any of the constants (Yau's
observation: the quotient of a disjoint union is at least the smaller of the
quotients, and partial edge segments only add area).

One numpy kernel does every subset scan.  A subset is an int64 mask over the
pool of free vertices (bit j = j-th free vertex), so a pool holds at most 63
vertices, also under ``force``; sums over a mask add per-byte table entries.

- ``enumerate_connected_subsets`` builds the (mask, area, mass) table of the
  connected subsets one size level at a time: byte tables of the neighbour
  masks give every set's frontier, one step forms all children of a level,
  and sorting removes the duplicates.  The table is kept in the graph's memo,
  one per pool, with the reports.  Every (nu, variant) is one vectorized
  quotient over it: the whole vertex set gets inf in the tilde variants, and
  the sorted-id tie rule sees only the masks within 1e-12 of the minimum.
- ``neighborhood_measures`` scans all 2^k subsets of a vertex set in chunks
  of CHUNK, with byte tables for V(B), Gamma(B) and V(Gamma(B)).
  ``magnification`` and ``bounds.certified_magnification`` read it;
  ``magnification`` keeps the first minimiser of a chunk, and a later chunk
  replaces it only when at least 1e-15 lower.

A vectorized interval sweep handles long paths instead.
"""

from __future__ import annotations

import math
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
POOL_LIMIT = 63  # pool-local subset masks are int64
CHUNK = 1 << 12  # subsets or table rows per numpy step; 2**16 raised peak RSS by a tenth
_BITS = (np.arange(256) >> np.arange(8)[:, None]) & 1 == 1  # [j, b]: bit j of byte b


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


def _byte_tables(values: np.ndarray, combine) -> np.ndarray:
    """Entry [k, b] folds ``combine`` over values[8k + j] for the set bits j of
    b, in ascending j (a reduction along the slow axis runs in order);
    trailing axes of ``values`` are kept."""
    rest = values.shape[1:]
    groups = np.zeros((-(-len(values) // 8), 8) + rest, values.dtype)
    groups.reshape((8 * len(groups),) + rest)[:len(values)] = values
    groups = groups.swapaxes(0, 1)[:, :, None]  # [j, k, 1, ...]
    return combine.reduce(np.where(_BITS.reshape((8, 1, 256) + (1,) * len(rest)), groups, 0),
                          axis=0)


def _lookup(tables: np.ndarray, subs: np.ndarray, combine) -> np.ndarray:
    """Per int64 mask in ``subs``: ``combine`` of tables[k, byte k], ascending k."""
    byts = subs.astype("<i8", copy=False).view(np.uint8).reshape(len(subs), 8)
    acc = tables[0][byts[:, 0]]
    for k in range(1, len(tables)):
        combine(acc, tables[k][byts[:, k]], out=acc)
    return acc


def _unpack(masks: np.ndarray, width: int) -> np.ndarray:
    """Bits 0..width-1 of int64 masks, as a (len(masks), 8 ceil(width/8)) 0/1 array."""
    byts = masks.astype("<i8", copy=False).view(np.uint8).reshape(len(masks), 8)
    return np.unpackbits(byts[:, :-(-width // 8)], axis=1, bitorder="little")


def _children(layer: np.ndarray, near_t: np.ndarray, width: int) -> np.ndarray:
    """Every set of ``layer`` plus one vertex of its frontier (with repeats)."""
    front = _lookup(near_t, layer, np.bitwise_or) & ~layer
    rows, children = _unpack(front, width).nonzero()
    np.left_shift(1, children, out=children)
    children |= layer[rows]
    return children


def _unique(masks: np.ndarray) -> np.ndarray:
    """The distinct masks, sorted (sorts ``masks`` in place)."""
    masks.sort()
    fresh = np.ones(len(masks), dtype=bool)
    np.not_equal(masks[1:], masks[:-1], out=fresh[1:])
    return masks[fresh]


def _check_pool(size: int) -> None:
    if size > POOL_LIMIT:
        raise GraphError(
            f"{size} free vertices exceed the {POOL_LIMIT} that int64 subset masks hold")


def enumerate_connected_subsets(g: WeightedGraph, allowed_mask: int) -> np.ndarray:
    """The (mask, area, mass) table of every nonempty connected subset S of
    ``allowed_mask``, each once: ``area`` = A(boundary S), ``mass`` = V(S).

    Built one size at a time on pool-local bits (bit j = j-th allowed vertex):
    the next level is every set of this one plus one vertex of its frontier,
    deduplicated by sorting.  ``area`` sums a_e over the edges with exactly
    one endpoint in S in edge order, as ``AdmissibleSet.of_mask`` does, so a
    whole component has area exactly 0; ``mass`` is summed by byte tables and
    can differ from a fresh sum by a rounding step.
    """
    pool = [i for i in range(g.n) if (allowed_mask >> i) & 1]
    _check_pool(len(pool))
    dtype = [("mask", "i8" if g.n < 64 else object), ("area", "f8"), ("mass", "f8")]
    if not pool:
        return np.empty(0, dtype)
    local = [-1] * g.n
    for j, v in enumerate(pool):
        local[v] = j
    near = np.array([sum(1 << local[w] for w in g.neighbors(v) if local[w] >= 0) for v in pool],
                    dtype=np.int64)
    near_t = _byte_tables(near, np.bitwise_or)
    mass_t = _byte_tables(g.vmeasure[pool], np.add)
    cut = [(local[u], local[v], a) for u, v, a in zip(g.eu.tolist(), g.ev.tolist(), g.ea.tolist())
           if u != v and max(local[u], local[v]) >= 0]  # local -1: off the pool
    levels = []
    layer = np.left_shift(1, np.arange(len(pool), dtype=np.int64))
    while layer.size:
        levels.append(layer)
        if len(levels) == len(pool):  # the whole pool: no larger set
            break
        parts = [_unique(_children(layer[lo:lo + CHUNK], near_t, len(pool)))
                 for lo in range(0, len(layer), CHUNK)]
        layer = parts[0] if len(parts) == 1 else _unique(np.concatenate(parts))
    masks = np.concatenate(levels)
    table = np.empty(len(masks), dtype)
    for lo in range(0, len(masks), CHUNK):
        part = masks[lo:lo + CHUNK]
        bits = np.zeros((len(pool) + 1, len(part)), np.uint8)  # row -1 (off the pool) stays 0
        bits[:-1] = _unpack(part, len(pool))[:, :len(pool)].T
        area, crossing = np.zeros(len(part)), np.empty(len(part), bool)
        for ju, jv, a in cut:  # edge by edge, in order
            np.not_equal(bits[ju], bits[jv], out=crossing)  # exactly one endpoint in S
            np.add(area, a, out=area, where=crossing)
        table["area"][lo:lo + CHUNK] = area
        table["mass"][lo:lo + CHUNK] = _lookup(mass_t, part, np.add)
    if pool == list(range(len(pool))):
        table["mask"] = masks
    else:
        vbits = np.array([1 << v for v in pool], dtype=table.dtype["mask"])
        table["mask"] = _lookup(_byte_tables(vbits, np.bitwise_or), masks, np.bitwise_or)
    return table


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
    """The (mask, area, mass) table of every connected subset of
    ``allowed_mask``, built once per graph and mask."""
    return g.memo(("subsets", allowed_mask), lambda: enumerate_connected_subsets(g, allowed_mask))


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
    return frozenset(g.vertices[w] for v in vertex_ids for w in g.neighbors(g.index(v)))


def neighborhood_measures(g: WeightedGraph, vertex_ids, measures: np.ndarray):
    """Yield ``(sub, V(B), V(Gamma(B)))`` arrays over every nonempty subset B of
    ``vertex_ids`` (bit j of ``sub`` selects ``vertex_ids[j]``), in chunks of
    at most CHUNK consecutive ``sub``; V is given per vertex by ``measures``
    (integer measures give exact sums).

    Both sums go through byte tables: entry b of table k holds the sum over
    the set bits of byte k of a mask, and a mask's sum adds its bytes'
    entries in ascending order.  Gamma(B) is the OR of the members' neighbour
    bytes, restricted to the vertex bytes that Gamma can touch.
    """
    idx = [g.index(v) for v in vertex_ids]
    _check_pool(len(idx))
    near = np.zeros((len(idx), g.n), dtype=bool)
    for j, i in enumerate(idx):
        near[j, list(g.neighbors(i))] = True
    near = np.packbits(near, axis=1, bitorder="little")
    used = np.flatnonzero(near.any(axis=0))  # the vertex bytes Gamma can touch
    words = np.zeros((len(idx), 8 * -(-len(used) // 8)), np.uint8)
    words[:, :len(used)] = near[:, used]
    gamma_t = _byte_tables(words.view(np.uint64), np.bitwise_or)
    padded = np.zeros(8 * near.shape[1], measures.dtype)
    padded[:g.n] = measures
    vol_t = _byte_tables(padded.reshape(-1, 8)[used].ravel(), np.add)
    mass_t = _byte_tables(measures[idx], np.add)
    for lo in range(1, 1 << len(idx), CHUNK):
        sub = np.arange(lo, min(lo + CHUNK, 1 << len(idx)), dtype=np.int64)
        gamma = _lookup(gamma_t, sub, np.bitwise_or).view(np.uint8)
        gmass = np.zeros(len(sub), measures.dtype)
        for k, t in enumerate(vol_t):
            gmass += t[gamma[:, k]]
        yield sub, _lookup(mass_t, sub, np.add), gmass


def magnification(g: WeightedGraph, force: bool = False):
    """c = min over admissible A of V(Gamma(A))/V(A) - 1, with witness.

    A ranges over ALL nonempty subsets of the interior (connectedness cannot
    be assumed here: neighborhoods of separate components may overlap); on a
    closed graph only V(A) <= V(G)/2 competes.  The scan keeps the first
    minimiser of each chunk, and a later chunk replaces it only when at least
    1e-15 lower.
    """
    return g.memo(("magnification",), lambda: _magnification(g, force))


def _magnification(g: WeightedGraph, force: bool):
    pool = [g.vertices[i] for i in g.interior_indices().tolist()]
    if not pool:
        raise GraphError("no interior vertices")
    _check_cap(len(pool), MAGNIFICATION_CAP, force)
    limit = (0.5 + 1e-12) * g.total_measure() if g.is_closed else math.inf
    c, best = math.inf, 0
    for sub, mass, gmass in neighborhood_measures(g, pool, g.vmeasure):
        ratio = gmass / mass - 1.0
        ratio[mass > limit] = math.inf
        j = int(np.argmin(ratio))
        if ratio[j] < c - 1e-15:
            c, best = float(ratio[j]), int(sub[j])
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
