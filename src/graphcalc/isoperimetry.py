"""Exact isoperimetric constants by enumeration.

The admissible sets can be restricted to connected, vertex-determined subsets
disjoint from the boundary without changing any of the constants (Yau's
observation: the quotient of a disjoint union is at least the smaller of the
quotients, and partial edge segments only add area).

One numpy kernel does every subset scan.  A subset is an int64 mask over the
pool of free vertices (bit j = j-th free vertex), so a pool holds at most 63
vertices; ORs over a mask, and the sums of the magnification scans, add
per-byte table entries.  A scan that would visit more than SUBSET_CAP
subsets raises ``GraphError``: the table build counts its rows as it forms
them, the magnification scan sums 2**k - 1 over its classes of k vertices.

- ``enumerate_connected_subsets`` builds the (mask, area, mass) table of the
  connected subsets by ESU (Wernicke 2006), all depths at once, so each set
  is formed once and nothing is deduplicated; the rows run by (size, mask).
  Area and mass are each summed once, in one order: edge by edge and vertex
  by vertex.  The table is kept in the graph's memo, one per pool, with the
  reports.  Every (nu, variant) is one vectorized quotient over it: the whole
  vertex set gets inf in the tilde variants, and the sorted-id tie rule sees
  only the masks within 1e-12 of the minimum.  The winning row is the
  witness, with the row's sums.
- ``_least_ratio`` scans the nonempty subsets of each class of the relation
  "Gamma(a) meets Gamma(b)" on a vertex set, in chunks of CHUNK, with byte
  tables for V(B), Gamma(B) and V(Gamma(B)).  For ``magnification`` and
  ``bounds.certified_magnification`` its float ratios pick the sets near the
  least, and integer measures decide those exactly, once per group of sets
  with the same count of each distinct measure.

A vectorized interval sweep handles long paths instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import GraphError, WeightedGraph
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
SUM_BLOCK = 8  # terms per ordered reduction; 16 and 64 raised iso-enum peak RSS by 2% and 4%
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


def _check_pool(size: int) -> None:
    if size > POOL_LIMIT:
        raise GraphError(
            f"{size} free vertices exceed the {POOL_LIMIT} that int64 subset masks hold")


def _check_subsets(count: int) -> None:
    if count > SUBSET_CAP:
        raise GraphError(f"the enumeration would visit more than {SUBSET_CAP} subsets")


def _ordered_sums(bits: np.ndarray, ju: np.ndarray, jv: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per column of ``bits``: w[k] over the k with bits[ju[k]] != bits[jv[k]],
    added in ascending k from 0.0.  Each reduction adds the rows of a
    (terms, columns) array along the slow axis, which runs in order: SUM_BLOCK
    terms at a time, the running sum carried in as row 0.  ``bits`` needs at
    least two columns; over one, numpy would add pairwise."""
    total = np.zeros(bits.shape[1])
    for k in range(0, len(w), SUM_BLOCK):
        block = slice(k, k + SUM_BLOCK)
        rows = np.empty((len(w[block]) + 1, len(total)))
        rows[0] = total
        np.multiply(bits[ju[block]] != bits[jv[block]], w[block, None], out=rows[1:])
        total = np.add.reduce(rows, axis=0)
    return total


def enumerate_connected_subsets(g: WeightedGraph, allowed_mask: int) -> np.ndarray:
    """The (mask, area, mass) table of every nonempty connected subset S of
    ``allowed_mask``, each once: ``area`` = A(boundary S), ``mass`` = V(S).

    ESU on pool-local bits (bit j = j-th allowed vertex): each round moves
    the lowest vertex w of every nonempty extension X of a set S into a child
    S + w, whose extension is the rest of X plus the neighbours of w outside
    T = S, N(S) and the vertices below min S.  Rows run by (size, mask).
    ``area`` adds a_e over the edges with exactly one endpoint in S in edge
    order, and ``mass`` adds V(v) over S in ascending vertex order, both from
    0.0 (``_ordered_sums``), so a whole component has area exactly 0.
    Rows past SUBSET_CAP raise before the round that would form them, and
    before the first round when a vertex with d pool neighbours already
    makes 2**d of them.
    """
    pool = [i for i in range(g.n) if (allowed_mask >> i) & 1]
    _check_pool(len(pool))
    dtype = [("mask", "i8" if g.n < 64 else object), ("area", "f8"), ("mass", "f8")]
    if not pool:
        return np.empty(0, dtype)
    local = np.full(g.n, -1)
    local[pool] = np.arange(len(pool))
    ju, jv = local[g.eu], local[g.ev]
    inner = np.array([ju, jv])[:, (ju >= 0) & (jv >= 0)]  # the edges within the pool
    near = np.zeros(len(pool), np.int64)  # bit k of near[j]: pool vertices j and k are adjacent
    np.bitwise_or.at(near, inner.ravel(), np.left_shift(1, inner[::-1].ravel()))
    cut = np.flatnonzero((ju != jv) & (np.maximum(ju, jv) >= 0))  # local -1: off the pool
    edges = ju[cut], jv[cut], g.ea[cut]
    # a free vertex is in S when its row differs from row -1 (off the pool)
    members = np.arange(len(pool)), np.full(len(pool), -1), g.vmeasure[pool]
    bit = np.left_shift(1, np.arange(len(pool), dtype=np.int64))
    # a vertex with d pool neighbours and any subset of them are 2**d connected sets
    _check_subsets(2 ** max(int(x).bit_count() for x in (near & ~bit).tolist()))
    below = (bit << 1) - 1
    near_of = np.zeros(67, np.int64)  # by w % 67: 2 is a primitive root mod 67
    near_of[bit % 67] = near
    state = np.array([bit, np.ones_like(bit), near & ~below, near | below])  # S, |S|, X, T
    masks, sizes, rows = [bit], [state[1]], len(pool)
    while state.shape[1]:
        state = state[:, state[2] != 0]
        rows += state.shape[1]  # one child per set with a nonempty extension
        _check_subsets(rows)
        s, size, x, t = state
        w = x & -x
        x ^= w  # the parent keeps the rest of its extension
        nw = near_of[w % 67]
        masks.append(s | w)
        sizes.append(size + 1)
        state = np.concatenate([state, [masks[-1], sizes[-1], x | (nw & ~t), t | nw]], axis=1)
    masks, sizes = np.concatenate(masks), np.concatenate(sizes).astype(np.uint8)
    masks = masks[np.argsort(sizes, kind="stable")]  # the smallest sets first
    ends = np.cumsum(np.bincount(sizes)).tolist()
    for lo, hi in zip([0] + ends, ends):
        masks[lo:hi].sort()
    table = np.empty(len(masks), dtype)
    for lo in range(0, len(masks), CHUNK):
        part = masks[lo:lo + CHUNK]
        # one row per free vertex, then row -1 (off the pool), which stays 0
        bits = np.zeros((len(pool) + 1, max(len(part), 2)), np.uint8)
        bits[:-1, :len(part)] = _unpack(part, len(pool))[:, :len(pool)].T
        table["area"][lo:lo + CHUNK] = _ordered_sums(bits, *edges)[:len(part)]
        table["mass"][lo:lo + CHUNK] = _ordered_sums(bits, *members)[:len(part)]
    if pool == list(range(len(pool))):
        table["mask"] = masks
    else:
        vbits = np.array([1 << v for v in pool], dtype=table.dtype["mask"])
        table["mask"] = _lookup(_byte_tables(vbits, np.bitwise_or), masks, np.bitwise_or)
    return table


def _mask_set(g: WeightedGraph, mask: int) -> frozenset:
    return frozenset(g.vertices[i] for i in range(g.n) if (mask >> i) & 1)


def _witness(g: WeightedGraph, row) -> AdmissibleSet:
    """The admissible set of a subset-table row, with the row's sums."""
    mask, area, mass = row.item()
    return AdmissibleSet(_mask_set(g, mask), area, mass)


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
    for k in range(g.m):
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


def _iso_constant(g: WeightedGraph, nu: float, variant: str) -> IsoReport:
    if variant != "open" and not g.is_closed:
        raise GraphError("tilde variants require a closed graph")
    allowed = sum(1 << i for i in g.interior_indices().tolist())  # every vertex if closed
    if not allowed:
        raise GraphError("no interior vertices")
    if variant == "open" and g.n > 64 and _is_simple_path(g) is not None:
        return _iso_open_path(g, nu)
    table = _subset_table(g, allowed)
    total = g.total_measure()
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = _quotient(table["area"], table["mass"], total - table["mass"], nu, variant)
    if variant != "open":
        vals[table["mask"] == allowed] = math.inf  # the whole vertex set has no complement
    best = np.nanmin(vals)
    if best == math.inf:
        return IsoReport(nu, variant, math.inf, None)  # a lone vertex: no proper subset
    # the band absorbs rounding in the sums, so exact ties (e.g. complement
    # pairs, whose sums add different terms) go to the least sorted-id key
    near = np.flatnonzero(vals <= best + 1e-12 * abs(best)).tolist()
    wit = _witness(g, table[min(near, key=lambda k: _sort_key(g, int(table["mask"][k])))])
    value = float(_quotient(wit.area, wit.vmass, total - wit.vmass, nu, variant))
    return IsoReport(nu, variant, value, wit)


# -- magnification -------------------------------------------------------------


def neighborhood(g: WeightedGraph, vertex_ids) -> frozenset:
    """Gamma(A): vertices (possibly inside A) having an edge to A."""
    return frozenset(g.vertices[w] for v in vertex_ids for w in g.neighbors(g.index(v)))


def _integer_measures(g: WeightedGraph) -> tuple[int, tuple[int, ...]]:
    """(den, m) with V(v) = m[v] / den exactly (every float is a dyadic
    rational), kept in the graph's memo."""
    def build():
        ratios = [x.as_integer_ratio() for x in g.vmeasure.tolist()]
        den = math.lcm(*(d for _, d in ratios))
        return den, tuple(p * (den // d) for p, d in ratios)
    return g.memo(("integer_measures",), build)


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


def _neighborhood_tables(g: WeightedGraph, idx: list[int], measures: np.ndarray):
    """(order, sizes, gamma_t, used, mass_t, vol_t) for masks over the
    vertices ``idx`` (bit j selects idx[j]): ``order`` lists the bits class
    by class of "Gamma(a) meets Gamma(b)" closed transitively, ``sizes`` the
    classes' sizes.  Gamma(B) ORs byte tables of the members' neighbours
    within the vertex bytes ``used``; ``mass_t``, ``vol_t`` sum ``measures``."""
    _check_pool(len(idx))
    near = np.zeros((len(idx), g.n), dtype=bool)
    near[[j for j, i in enumerate(idx) for _ in g.neighbors(i)],
         [w for i in idx for w in g.neighbors(i)]] = True
    reach = near @ near.T  # [a, b]: Gamma(a) meets Gamma(b)
    reach.flat[::len(idx) + 1] = True  # also when Gamma(a) is empty
    while np.count_nonzero(step := reach @ reach) > np.count_nonzero(reach):
        reach = step
    least = reach.argmax(axis=1)  # the least member of each row's class
    sizes = np.bincount(least)
    near = np.packbits(near, axis=1, bitorder="little")
    used = np.logical_or.reduce(near, axis=0).nonzero()[0]
    words = np.zeros((len(idx), 8 * -(-len(used) // 8)), np.uint8)
    words[:, :len(used)] = near[:, used]
    padded = np.zeros(8 * near.shape[1])
    padded[:g.n] = measures
    return (np.argsort(least, kind="stable"), sizes[sizes > 0].tolist(),
            _byte_tables(words.view(np.uint64), np.bitwise_or), used,
            _byte_tables(measures[idx], np.add),
            _byte_tables(padded.reshape(-1, 8)[used].ravel(), np.add))


def _class_subsets(order: np.ndarray, sizes: list[int]):
    """The nonempty subsets of each class (the next sizes[c] bits of ``order``)
    in batches of at most CHUNK masks; one class is np.arange(1, 2**w) in turn."""
    def batch():  # the masks in ``runs`` are over the bits as ``order`` lists them
        sub = np.concatenate(runs)
        return sub if len(sizes) == 1 else _unpack(sub, len(order))[:, :len(order)] @ (1 << order)
    runs, count, off = [], 0, 0
    for k in sizes:
        for lo in range(1, 1 << k, CHUNK):
            hi = min(lo + CHUNK, 1 << k)
            if count + hi - lo > CHUNK:
                yield batch()
                runs, count = [], 0
            runs.append(np.arange(lo << off, hi << off, 1 << off, dtype=np.int64))
            count += hi - lo
        off += k
    yield batch()


def _neighborhood_sums(sub: np.ndarray, gamma_t, mass_t, vol_t):
    """(V(B), V(Gamma(B))) per mask of ``sub``: each sum adds its bytes'
    table entries in ascending order."""
    gamma = _lookup(gamma_t, sub, np.bitwise_or).view(np.uint8)
    gmass = np.zeros(len(sub))
    for k, t in enumerate(vol_t):
        gmass += t[gamma[:, k]]
    return _lookup(mass_t, sub, np.add), gmass


def _first_rows(keys: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """The index of the least ``sub`` of each set of equal rows of ``keys``."""
    order = np.lexsort((sub, *keys.T))
    keys = keys[order]
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = np.logical_or.reduce(keys[1:] != keys[:-1], axis=1)
    return order[fresh]


def _least_ratio(g: WeightedGraph, ids, half: bool):
    """``(sub, exact, ratio)`` of the first B (by mask, bit j for ids[j])
    with the least V(Gamma(B))/V(B) among the nonempty B subset of ``ids``
    with 2 V(B) <= V(G) if ``half``: the Fraction and the float quotient of
    the scanned sums.  None if no B is admissible.

    Only subsets of one class of "Gamma(a) meets Gamma(b)" are scanned: a B
    across classes has the mediant of its parts' ratios, each admissible too.
    More than SUBSET_CAP such subsets raise ``GraphError`` before the scan.

    The scan adds ``_scan_measures`` over CHUNK masks at a time.  A float sum
    of k positive terms errs by at most (k-1)u relatively, in any order (u =
    eps/2), and a quotient by u more (or 2**-1075 below the normal range).  So
    band = 2(n + |ids|) eps covers every error twice: a set with 2 V(B) >
    V(G)(1 + band) is over half under any rounding and drops out, and if r is
    an admissible set's float ratio, every set whose exact ratio is at most
    that set's lies within r(1 + band) + TINY.  The sets within the band of
    the least float ratio are decided on the integer measures m: 2 m(B) <=
    m(G) and the least Fraction.  Sets with the same count of each distinct
    measure in B and in Gamma(B) have the same sums, so each such group is
    decided once.  If the set with the least float ratio is over half, the
    scan runs again, and then only the sets with 2 V(B) <= V(G)(1 - band),
    at most half under any rounding, set the band.
    """
    m = _integer_measures(g)[1]
    idx = [g.index(v) for v in ids]
    measures = _scan_measures(g)
    order, sizes, gamma_t, used, *tables = _neighborhood_tables(g, idx, measures)
    _check_subsets(sum((1 << k) - 1 for k in sizes))
    band = 2 * (g.n + len(idx)) * 2.0**-52  # 2(n + |ids|) eps
    mid, whole = float(measures.sum()) / 2.0 if half else math.inf, sum(m)
    distinct = dict(zip(g.vmeasure.tolist(), m))  # each distinct measure with its m
    kinds = np.zeros((8 * -(-g.n // 8), len(distinct)))  # [v, c]: V(v) is the c-th of them
    kinds[:g.n] = g.vmeasure[:, None] == list(distinct)
    near_kinds = kinds.reshape(-1, 8, len(distinct))[used].reshape(-1, len(distinct))
    value = list(distinct.values())

    def exact(row: list) -> Fraction | None:  # from the counts of a set; None: over half
        mb, gb = (sum(int(k) * x for k, x in zip(part, value))
                  for part in (row[:len(value)], row[len(value):]))
        return None if half and 2 * mb > whole else Fraction(gb, mb)

    for strict in (False, True):
        limit, subs, ratios = math.inf, [np.zeros(0, np.int64)], [np.zeros(0)]
        for sub in _class_subsets(order, sizes):
            mass, gmass = _neighborhood_sums(sub, gamma_t, *tables)
            with np.errstate(over="ignore"):  # inf lies outside any band
                ratio = gmass / mass
            ratio[mass > mid * (1.0 + band)] = math.nan  # over half under any rounding
            if (least := np.fmin.reduce(ratio)) <= limit:
                if strict:
                    least = np.fmin.reduce(np.where(mass <= mid * (1.0 - band), ratio, math.nan))
                limit = min(limit, least * (1.0 + band) + TINY)
                rows = np.flatnonzero(ratio <= limit)
                subs.append(sub[rows])
                ratios.append(ratio[rows])
        sub, ratio = np.concatenate(subs), np.concatenate(ratios)  # may hold sets past the band
        gamma = np.unpackbits(_lookup(gamma_t, sub, np.bitwise_or).view(np.uint8)[:, :len(used)],
                              axis=1, bitorder="little")
        counts = np.concatenate([_unpack(sub, len(idx))[:, :len(idx)] @ kinds[idx],
                                 gamma @ near_kinds], axis=1)
        if (strict or not half or not len(sub)
                or exact(counts[np.argmin(ratio)].tolist()) is not None):  # least is admissible
            break
    decided = [(q, int(sub[j]), j) for j in _first_rows(counts, sub).tolist()
               if (q := exact(counts[j].tolist())) is not None]  # ties go to the least mask
    if not decided:
        return None
    least, mask, j = min(decided)
    return mask, least, float(ratio[j])


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
