"""Exact isoperimetric constants by enumeration.

The admissible sets can be restricted to connected, vertex-determined subsets
disjoint from the boundary without changing any of the constants (Yau's
observation: the quotient of a disjoint union is at least the smaller of the
quotients, and partial edge segments only add area).

One enumeration serves every subset scan: ``_connected_masks`` forms the
connected sets of a graph on at most 63 bits by ESU (Wernicke 2006), all
depths at once, so each set is formed once and nothing is deduplicated.  A
subset is an int64 mask over a pool of vertices (bit j = j-th pool vertex);
one kernel, ``_lookup``, combines per-byte table entries over the bytes of a
mask or of a row of int64 words.  One builder, ``_row_tables``, gives both
scans their ESU graph and byte tables from one boolean row per pool vertex.
A scan that would visit more than SUBSET_CAP subsets raises ``GraphError``:
ESU counts its rows as it forms them.

- ``enumerate_connected_subsets`` builds the (mask, area, mass) table of the
  connected subsets of the free vertices; the rows run by mask.  A set's
  cut edges are the XOR of its members' code words (their rows of cut
  edges), and area and mass are ``_lookup`` sums over those bits and over
  the mask.  A float sum of k positive terms errs by at most (k-1)u
  relatively in any order (u = eps/2), far inside the 1e-12 band below, and
  terms whose sum could overflow are refused.  The table is kept in the
  graph's memo, one per pool, with the reports.  Every (nu, variant) is one
  vectorized quotient over it, and the first row within 1e-12 of the
  minimum, the least mask, is the witness, with the row's sums.
- A set of a closed graph and its complement have the same I~ and I~'
  quotient, so those scans read one table over every vertex but one, r (a
  vertex with the most distinct neighbours), with each complement's measure
  added over its own vertices; ``_iso_constant`` proves that the sets
  through r may go.  The open variant keeps its own table over every free
  vertex.
- ``_least_ratio`` scans the sets of a vertex set that are connected under
  "Gamma(a) meets Gamma(b)", in chunks of CHUNK, with byte tables for V(B),
  Gamma(B) and V(Gamma(B)) over the vertices of some Gamma(b), in one pass.
  For ``magnification`` and ``bounds.certified_magnification`` its float
  ratios pick the sets near the least: only sets at most half under any
  rounding set the limit, and every set not over half under any rounding
  within it is kept.  Integer measures decide those exactly, once per group
  of sets with the same count of each distinct measure.

A vectorized interval sweep handles long paths instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import GraphError, WeightedGraph, integer_column
from .functions import VertexFunction, conjugate, grad_lp_norm, lp_norm_vertex

__all__ = [
    "AdmissibleSet",
    "IsoReport",
    "default_variant",
    "iso_constant",
    "magnification",
    "sobolev_quotient",
    "characteristic_approx",
    "enumerate_connected_subsets",
    "neighborhood",
]

SUBSET_CAP = 2**22 - 1  # subsets one scan may visit: the nonempty subsets of 22 vertices
POOL_LIMIT = 63  # pool-local subset masks are int64
CHUNK = 1 << 12  # subsets or table rows per numpy step; 2**16 raised peak RSS by a tenth
TINY = 2.0**-1073  # twice the absolute error of a quotient below the normal range
_BITS = (np.arange(256) >> np.arange(8)[:, None]) & 1 == 1  # [j, b]: bit j of byte b


@dataclass(frozen=True)
class AdmissibleSet:
    vertices: frozenset
    area: float  # A(boundary) = sum of a_e over edges leaving the set
    vmass: float


@dataclass
class IsoReport:
    nu: float
    variant: str  # "open" | "tilde" | "tilde_prime"
    value: float
    witness: AdmissibleSet | None


def _byte_tables(values: np.ndarray, combine) -> np.ndarray:
    """Entry [k, b] folds ``combine`` over values[8k + j] for the set bits j of
    b, in ascending j (a reduction along the slow axis runs in order);
    trailing axes of ``values`` are kept.  No values still make one table, of
    the identity, as ``_lookup`` reads at least one."""
    rest = values.shape[1:]
    groups = np.zeros((max(1, -(-len(values) // 8)), 8) + rest, values.dtype)
    groups.reshape((8 * len(groups),) + rest)[:len(values)] = values
    groups = groups.swapaxes(0, 1)[:, :, None]  # [j, k, 1, ...]
    return combine.reduce(np.where(_BITS.reshape((8, 1, 256) + (1,) * len(rest)), groups, 0),
                          axis=0)


def _lookup(tables: np.ndarray, subs: np.ndarray, combine) -> np.ndarray:
    """Per row of ``subs``, an int64 mask or a row of int64 words (byte k of
    word i is byte 8i + k): ``combine`` of tables[k, byte k], ascending k."""
    byts = np.ascontiguousarray(subs, "<i8").view(np.uint8)
    byts = byts.reshape(len(subs), 8 * math.prod(subs.shape[1:]))
    # numpy converts uint8 indices before each gather; intp ones it reads as they are
    byts = np.ascontiguousarray(byts[:, :len(tables)].T, dtype=np.intp)
    acc = tables[0][byts[0]]
    for k in range(1, len(tables)):
        combine(acc, tables[k][byts[k]], out=acc)
    return acc


def _unpack(subs: np.ndarray, width: int) -> np.ndarray:
    """Bits 0..width-1 of each row of ``subs``, read as ``_lookup`` reads it, in 0/1 columns."""
    byts = np.ascontiguousarray(subs, "<i8").view(np.uint8)
    byts = byts.reshape(len(subs), 8 * math.prod(subs.shape[1:]))
    return np.unpackbits(byts, axis=1, count=width, bitorder="little")


def _row_tables(rows: np.ndarray, combine) -> tuple:
    """(near, tables) of a boolean matrix with one row per pool vertex, at
    most POOL_LIMIT: bit k of near[j] is set when rows j and k share a
    column; ``tables`` are the ``_byte_tables`` for ``combine`` of the rows
    packed into int64 words."""
    if len(rows) > POOL_LIMIT:
        raise GraphError(
            f"{len(rows)} free vertices exceed the {POOL_LIMIT} that int64 subset masks hold")
    near = (rows @ rows.T) @ np.left_shift(1, np.arange(len(rows), dtype=np.int64))
    words = np.zeros((len(rows), 64 * max(1, -(-rows.shape[1] // 64))), bool)
    words[:, :rows.shape[1]] = rows
    return near, _byte_tables(np.packbits(words, axis=1, bitorder="little").view("<i8"), combine)


def _check_sums(*terms: np.ndarray) -> None:
    """Refuse terms whose sum, with room for rounding, passes the float range;
    a sum of k positive terms errs by at most (k-1)u in any order, so below
    it no subset sum of them overflows."""
    if not all(math.isfinite(sum(t.tolist()) * (1.0 + len(t) * 2.0**-51)) for t in terms):
        raise GraphError("a subset's area or measure overflows the float range")


def _check_subsets(count: int) -> None:
    if count > SUBSET_CAP:
        raise GraphError(f"the enumeration would visit more than {SUBSET_CAP} subsets")


def _connected_masks(near: np.ndarray) -> np.ndarray:
    """The mask of every nonempty connected set of the graph on bits
    0..len(near)-1 in which bit k of near[j] joins j and k, each set once.

    ESU (Wernicke 2006), all depths at once: each round moves the lowest
    vertex w of every nonempty extension X of a set S into a child S + w,
    whose extension is the rest of X plus the neighbours of w outside T = S,
    N(S) and the vertices below min S.  Rows past SUBSET_CAP raise before the
    round that would form them, and before the first round when a vertex with
    d neighbours already makes 2**d of them.
    """
    bit = np.left_shift(1, np.arange(len(near), dtype=np.int64))
    # a vertex with d neighbours and any subset of them are 2**d connected sets
    _check_subsets(2 ** max(int(x).bit_count() for x in (near & ~bit).tolist()))
    below = (bit << 1) - 1
    near_of = np.zeros(67, np.int64)  # by w % 67: 2 is a primitive root mod 67
    near_of[bit % 67] = near
    s, x, t = bit, near & ~below, near | below
    masks, rows = [bit], len(near)
    while len(s):
        keep = x != 0
        s, x, t = s[keep], x[keep], t[keep]
        rows += len(s)  # one child per set with a nonempty extension
        _check_subsets(rows)
        w = x & -x
        x ^= w  # the parent keeps the rest of its extension
        nw = near_of[w % 67]
        masks.append(s | w)
        s, x, t = (np.concatenate(p) for p in ((s, masks[-1]), (x, x | (nw & ~t)), (t, t | nw)))
    return np.concatenate(masks)


def enumerate_connected_subsets(g: WeightedGraph, allowed_mask: int) -> np.ndarray:
    """The (mask, area, mass) table of every nonempty connected subset S of
    ``allowed_mask``, each once: ``area`` = A(boundary S), ``mass`` = V(S).

    The sets are ``_connected_masks`` of the pool-local adjacency (bit j =
    j-th allowed vertex); rows run by mask.  ``area`` adds a_e over the edges
    with exactly one endpoint in S, marked by the XOR of the members' code
    words, and ``mass`` adds V(v) over S; both are ``_lookup`` sums of byte
    tables, so a whole component has area exactly 0.
    """
    pool = [i for i in range(g.n) if (allowed_mask >> i) & 1]
    dtype = [("mask", "i8" if g.n < 64 else object), ("area", "f8"), ("mass", "f8")]
    if not pool:
        return np.empty(0, dtype)
    local = np.full(g.n, -1)
    local[pool] = np.arange(len(pool))
    ju, jv = local[g.eu], local[g.ev]
    cut = np.flatnonzero((ju != jv) & (np.maximum(ju, jv) >= 0))  # local -1: off the pool
    _check_sums(g.ea[cut], g.vmeasure[pool])
    # inc[j, k]: cut edge k has an end at pool vertex j (row -1: off the pool)
    inc = np.zeros((len(pool) + 1, len(cut)), bool)
    inc[ju[cut], np.arange(len(cut))] = inc[jv[cut], np.arange(len(cut))] = True
    # bit k of near[j]: a cut edge joins pool vertices j and k; the XOR of the
    # members' rows (code words) marks the edges with exactly one end in S
    near, code_t = _row_tables(inc[:-1], np.bitwise_xor)
    masks = np.sort(_connected_masks(near))  # the pool ascends, so the graph masks do too
    table = np.empty(len(masks), dtype)
    area_t, mass_t = _byte_tables(g.ea[cut], np.add), _byte_tables(g.vmeasure[pool], np.add)
    for lo in range(0, len(masks), CHUNK):
        part = masks[lo:lo + CHUNK]
        table["area"][lo:lo + CHUNK] = _lookup(area_t, _lookup(code_t, part, np.bitwise_xor),
                                               np.add)
        table["mass"][lo:lo + CHUNK] = _lookup(mass_t, part, np.add)
    if pool == list(range(len(pool))):
        table["mask"] = masks
    else:
        vbits = np.array([1 << v for v in pool], dtype=table.dtype["mask"])
        table["mask"] = _lookup(_byte_tables(vbits, np.bitwise_or), masks, np.bitwise_or)
    return table


def _set_bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _witness(g: WeightedGraph, row) -> AdmissibleSet:
    """The admissible set of a subset-table row, with the row's sums."""
    mask, area, mass = row.item()
    return AdmissibleSet(frozenset(g.vertices[i] for i in _set_bits(mask)), area, mass)


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


def _is_simple_path(g: WeightedGraph) -> list[int] | None:
    """Vertex order along the path if g is a simple path graph, else None."""
    if g.n < 2 or g.m != g.n - 1 or bool(g.loop_mask.any()):
        return None
    ends = [i for i, near in enumerate(g.adjacency) if len(near) == 1]
    if len(ends) != 2 or max(map(len, g.adjacency)) > 2:
        return None
    order, prev = [ends[0]], -1
    while len(order) < g.n:
        nxt = [x for x in g.adjacency[order[-1]] if x != prev]
        if not nxt:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order


def _iso_open_path(g: WeightedGraph, nu: float) -> IsoReport:
    """O(n^2) vectorized interval sweep for open-variant constants on paths:
    the admissible sets are the runs of free vertices along the path, and
    each mass adds its run's measures in path order."""
    order = _is_simple_path(g)
    assert order is not None
    # w[p]: the weight of the edge between positions p and p + 1
    pos = np.empty(g.n, dtype=int)
    pos[order] = np.arange(g.n)
    w = np.empty(g.n - 1)
    w[np.minimum(pos[g.eu], pos[g.ev])] = g.ea
    meas = g.vmeasure[np.array(order)]
    free = g.interior_mask[order]
    bnd = np.concatenate([[0], np.cumsum(~free)])  # boundary vertices before each position
    I, J = np.meshgrid(*[np.flatnonzero(free)] * 2, indexing="ij")
    valid = (J >= I) & (bnd[J + 1] == bnd[I])
    left = np.where(I > 0, w[np.maximum(I - 1, 0)], 0.0)
    right = np.where(J < g.n - 1, w[np.minimum(J, g.n - 2)], 0.0)
    area = left + right
    mass = np.cumsum(np.where(J >= I, meas[J], 0.0), axis=1)
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


def default_variant(g: WeightedGraph) -> str:
    """I_nu on a graph with boundary, the shifted I~_nu on a closed one."""
    return "open" if g.boundary else "tilde"


def iso_constant(g: WeightedGraph, nu: float, variant: str = "open") -> IsoReport:
    if variant not in ("open", "tilde", "tilde_prime"):
        raise GraphError(f"unknown variant {variant!r}")
    if not nu >= 1:
        raise GraphError("nu must be in [1, inf]")
    return g.memo(("iso", nu, variant), lambda: _iso_constant(g, nu, variant))


def _finite_constant(rep: IsoReport) -> float:
    """The value of an ``iso_constant`` report, refused when infinite: no set
    is admissible."""
    if math.isinf(rep.value):
        raise GraphError(f"the {rep.variant} isoperimetric constant is infinite: "
                         "no set is admissible")
    return rep.value


def _tilde_table(g: WeightedGraph) -> tuple:
    """(table, comass) of a closed graph: the subset table over every vertex
    but r, a vertex with the most distinct neighbours (the least index on
    ties), as a vertex with more neighbours lies in more connected sets; and
    V of each row's complement, added over the complement's vertices, never
    as V(G) - V(S), which cancels when the complement is light.  Kept in the
    graph's memo."""
    def build():
        _check_sums(g.vmeasure)
        r = max(range(g.n), key=lambda i: len(g.neighbors(i) - {i}))
        table = enumerate_connected_subsets(g, ((1 << g.n) - 1) ^ (1 << r))
        # uint64 holds the Python-int masks of 64 vertices; the complement's
        # bits past n select the tables' zero padding
        co = ~table["mask"].astype(np.uint64).view(np.int64)
        return table, _lookup(_byte_tables(g.vmeasure, np.add), co, np.add)
    return g.memo(("tilde",), build)


def _iso_constant(g: WeightedGraph, nu: float, variant: str) -> IsoReport:
    """The least quotient over the connected sets of the pool, witnessed by
    the least mask among the sets within 1e-12 of it: the first such row.

    The tilde variants scan only the sets that avoid the vertex r of
    ``_tilde_table``.  Write their quotient as A(boundary S)/phi(V(S)), with
    phi(m) = min(m, V - m)^(1 - 1/nu) for I~ and (m^(1 - nu) + (V -
    m)^(1 - nu))^(-1/nu) for I~', both min(m, V - m) at nu = inf.  Each phi
    is symmetric about V/2 and concave on [0, V] with phi(0) >= 0, so it is
    subadditive.  (For I~', set s = nu - 1, x = 1/m and y = 1/(V - m):
    phi'' <= 0 reduces to s(s + 2)(y^(s+1) - x^(s+1))^2 <= (s + 1)^2 (x^s +
    y^s)(x^(s+2) + y^(s+2)), which Cauchy-Schwarz gives.)  Take a least
    connected set S that holds r.  Its complement T avoids r and has the same
    quotient, as A(boundary S) = A(boundary T).  The components C_i of T are
    connected and avoid r, their areas add up to A(boundary T), and
    sum phi(V(C_i)) >= phi(V(T)); so some C_i is at least as good as S.  The
    whole vertex set is never a row, and a lone vertex leaves none: its
    constant is inf, with no witness.  An open scan keeps every free vertex.
    """
    if variant != "open" and not g.is_closed:
        raise GraphError("tilde variants require a closed graph")
    allowed = sum(1 << i for i in g.interior_indices().tolist())  # every vertex if closed
    if not allowed:
        raise GraphError("no interior vertices")
    if variant == "open":
        if g.n > 64 and _is_simple_path(g) is not None:
            return _iso_open_path(g, nu)
        table, comass = _subset_table(g, allowed), None
    else:
        table, comass = _tilde_table(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = _quotient(table["area"], table["mass"], comass, nu, variant)
    best = np.nanmin(vals, initial=math.inf)
    if best == math.inf:
        return IsoReport(nu, variant, math.inf, None)  # a lone closed vertex: no row
    # the band absorbs rounding in the sums, so exact ties (e.g. mirror-image
    # sets, whose sums add different terms) go to the least mask
    row = int(np.argmax(vals <= best + 1e-12 * abs(best)))
    wit = _witness(g, table[row])
    co = None if comass is None else float(comass[row])
    return IsoReport(nu, variant, float(_quotient(wit.area, wit.vmass, co, nu, variant)), wit)


# -- magnification -------------------------------------------------------------


def neighborhood(g: WeightedGraph, vertex_ids) -> frozenset:
    """Gamma(A): vertices (possibly inside A) having an edge to A."""
    return frozenset(g.vertices[w] for v in vertex_ids for w in g.neighbors(g.index(v)))


def _scan_measures(g: WeightedGraph) -> np.ndarray:
    """``g.vmeasure`` times the power of two that keeps n max V(v) below
    2**1000, so that no sum overflows.  The scaling is exact unless max V /
    min V reaches about 2**2000, and ratios and the half test do not see it."""
    shift = math.frexp(float(g.vmeasure.max()))[1] + g.n.bit_length() - 1000
    if shift <= 0:
        return g.vmeasure
    scaled = np.ldexp(g.vmeasure, -shift)
    if np.any(np.ldexp(scaled, shift) != g.vmeasure):
        raise GraphError("the vertex measures span too wide a range to scale exactly")
    return scaled


def _least_exact(counts: np.ndarray, masks: np.ndarray, value: list, cap):
    """The least (Fraction(g, m), mask, row) over the rows with 2 m <= cap,
    ties to the least mask, or None.  Row j counts the vertices of B (first
    half) and of Gamma(B) (second half) of each distinct measure, and m and g
    add those counts times its integer numerator (``value``, Python ints).
    Rows with equal counts have equal sums, so each group is decided once,
    by its least mask (its first row once sorted)."""
    order = np.lexsort((masks, *counts.T))  # equal rows together, each group by mask
    rows = counts[order]
    first = np.ones(len(rows), bool)  # the first row of each group, its least mask
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    best, d = None, len(value)
    for j, row in zip(order[first].tolist(), rows[first].astype(np.int64).tolist()):
        mb = sum(map(operator.mul, row[:d], value))
        if 2 * mb <= cap:
            found = Fraction(sum(map(operator.mul, row[d:], value)), mb), int(masks[j]), j
            best = found if best is None or found < best else best
    return best


def _least_ratio(g: WeightedGraph, ids, half: bool):
    """``(sub, exact, ratio)`` of the first B (by mask, bit j for ids[j])
    with the least V(Gamma(B))/V(B) among the nonempty B subset of ``ids``
    with 2 V(B) <= V(G) if ``half``: the Fraction and the float quotient of
    the scanned sums.  None if no B is admissible.

    Only the B connected under "Gamma(a) meets Gamma(b)" are scanned
    (``_connected_masks``): if B splits into parts with disjoint Gammas, its
    ratio is the mediant of theirs and each part is admissible too, so a
    least B has least parts with smaller masks, and the first least B is
    connected.

    The scan adds ``_scan_measures`` over CHUNK masks at a time.  A float sum
    of k positive terms errs by at most (k-1)u relatively, in any order (u =
    eps/2), and a quotient by u more (or 2**-1075 below the normal range).  So
    band = 2(n + |ids|) eps covers every error twice: a set with 2 V(B) >
    V(G)(1 + band) is over half under any rounding and drops out, and if r is
    an admissible set's float ratio, every set whose exact ratio is at most
    that set's lies within r(1 + band) + TINY.  Only the sets with
    2 V(B) <= V(G)(1 - band), at most half under any rounding, set that
    limit, and the scan keeps every set within it that does not drop out;
    each exact minimiser is among them.  ``_least_exact`` decides the kept
    sets on the integer column m of the measures: 2 m(B) <= m(G) and the
    least Fraction.
    """
    m = integer_column(g, "vmeasure")[1]
    idx = [g.index(v) for v in ids]
    measures = _scan_measures(g)
    local = np.full(g.n, -1)
    local[idx] = np.arange(len(idx))
    # adj[j, w]: an edge joins idx[j] and w (row -1: off the pool)
    adj = np.zeros((len(idx) + 1, g.n), dtype=bool)
    adj[local[g.eu], g.ev] = adj[local[g.ev], g.eu] = True
    cols = np.flatnonzero(adj[:-1].any(axis=0))  # the vertices of some Gamma(b)
    # bit k of meet[j]: Gamma(idx[j]) meets Gamma(idx[k])
    meet, gamma_t = _row_tables(adj[:-1, cols], np.bitwise_or)
    mass_t, vol_t = _byte_tables(measures[idx], np.add), _byte_tables(measures[cols], np.add)
    masks = _connected_masks(meet)
    band = 2 * (g.n + len(idx)) * 2.0**-52  # 2(n + |ids|) eps
    mid, cap = (float(measures.sum()) / 2.0, sum(m)) if half else (math.inf, math.inf)
    distinct = dict(zip(g.vmeasure.tolist(), m))  # each distinct measure with its m
    kinds = 1.0 * (g.vmeasure[:, None] == list(distinct))  # [v, c]: V(v) is the c-th of them
    limit, subs, ratios = math.inf, [], []  # nonempty ids make at least one chunk
    for sub in (masks[lo:lo + CHUNK] for lo in range(0, len(masks), CHUNK)):
        mass = _lookup(mass_t, sub, np.add)
        gmass = _lookup(vol_t, _lookup(gamma_t, sub, np.bitwise_or), np.add)
        with np.errstate(over="ignore"):  # inf lies outside any band
            ratio = gmass / mass
        ratio[mass > mid * (1.0 + band)] = math.nan  # over half under any rounding
        least = np.fmin.reduce(ratio[mass <= mid * (1.0 - band)], initial=math.inf)
        limit = min(limit, least * (1.0 + band) + TINY)
        rows = np.flatnonzero(ratio <= limit)
        subs.append(sub[rows])
        ratios.append(ratio[rows])
    sub, ratio = np.concatenate(subs), np.concatenate(ratios)  # may hold sets past the band
    gamma = _unpack(_lookup(gamma_t, sub, np.bitwise_or), len(cols))
    counts = np.concatenate([_unpack(sub, len(idx)) @ kinds[idx], gamma @ kinds[cols]], axis=1)
    found = _least_exact(counts, sub, list(distinct.values()), cap)
    return None if found is None else (found[1], found[0], float(ratio[found[2]]))


def magnification(g: WeightedGraph):
    """c = min over admissible A of V(Gamma(A))/V(A) - 1, with witness.

    A ranges over ALL nonempty subsets of the interior (connectedness cannot
    be assumed here: neighborhoods of separate components may overlap); on a
    closed graph only V(A) <= V(G)/2 competes, decided exactly.  The witness
    is the first exact minimiser (``_least_ratio``); c is its float ratio - 1.0.
    """
    return g.memo(("magnification",), lambda: _magnification(g))


def _finite_magnification(c: float) -> float:
    """A magnification, refused when infinite: no set is admissible."""
    if math.isinf(c):
        raise GraphError("the magnification is infinite: no set is admissible")
    return c


def _magnification(g: WeightedGraph):
    pool = [g.vertices[i] for i in g.interior_indices().tolist()]
    if not pool:
        raise GraphError("no interior vertices")
    found = _least_ratio(g, pool, g.is_closed)
    if found is None:  # a lone vertex of a closed graph: no set is at most half
        return math.inf, frozenset()
    sub, _, ratio = found
    return ratio - 1.0, frozenset(v for b, v in enumerate(pool) if (sub >> b) & 1)


# -- quotients and characteristic approximants --------------------------------


def sobolev_quotient(f: VertexFunction, nu: float):
    """s_nu(f) = ||grad f||_1 / ||f||_{nu'} (gradient against E, f against V);
    a (B,) array for a block."""
    denom = lp_norm_vertex(f, conjugate(nu))
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
