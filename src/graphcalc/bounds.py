"""Eigenvalue lower bounds and their certificates.

Each bound routine reports a value together with an applicability flag; an
applicable bound must sit below the true eigenvalue (first Dirichlet
eigenvalue, or the second eigenvalue of a closed graph).  The magnifier bound
comes with an explicit transport field certificate built from an exact
rational max flow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import GraphError, WeightedGraph, with_boundary
from .functions import VertexFunction, lp_norm_vertex, grad_lp_norm
from .operators import EdgeField, divergence, eigenvalues, spectral_decomposition
from .graph import half_degrees
from .isoperimetry import iso_constant, magnification, neighborhood_measures

__all__ = [
    "BoundValue",
    "BoundReport",
    "AlonField",
    "true_lambda",
    "dodziuk_bound",
    "mohar_bound",
    "alon_bound",
    "bobkov_bound",
    "bound_report",
    "alon_field",
    "nodal_region_reduction",
    "rayleigh_quotient",
    "q1_quotient",
    "q2_quotient",
]

TOL = 1e-9


@dataclass
class BoundValue:
    name: str
    value: float
    applicable: bool
    inputs: dict


@dataclass
class BoundReport:
    mode: str
    lam: float
    bounds: list

    @property
    def sound(self) -> bool:
        """Every applicable bound is at most lambda, up to TOL relative to it."""
        return all(
            (not b.applicable) or b.value <= self.lam + TOL * abs(self.lam) for b in self.bounds
        )


def true_lambda(g: WeightedGraph, mode: str) -> float:
    lams = eigenvalues(g, mode)
    if mode == "dirichlet":
        return float(lams[0])
    if len(lams) < 2:
        raise GraphError("closed graph needs at least 2 vertices")
    return float(lams[1])


def _iso_infty(g: WeightedGraph, **kw) -> float:
    variant = "open" if g.boundary else "tilde"
    return iso_constant(g, math.inf, variant, **kw).value


def dodziuk_bound(g: WeightedGraph, i_infty: float | None = None, **kw) -> BoundValue:
    """lambda >= I_inf^2 / (4 rho_sup)  (I~ on closed graphs)."""
    I = _iso_infty(g, **kw) if i_infty is None else i_infty
    rho = half_degrees(g).rho_sup
    value = I * I / (4.0 * rho) if I else 0.0  # without edges both I and rho are 0
    return BoundValue("dodziuk", value, True, {"I_inf": I, "rho_sup": rho})


def mohar_bound(g: WeightedGraph, i_infty: float | None = None, **kw) -> BoundValue:
    """lambda >= 2 rho_sup - sqrt(4 rho_sup^2 - I_inf^2); unit lengths only.

    Always at least the Dodziuk value: 2r - sqrt(4r^2 - I^2) =
    I^2 / (2r + sqrt(4r^2 - I^2)) >= I^2/(4r).
    """
    unit = bool(np.all(g.elen == 1.0))
    I = _iso_infty(g, **kw) if i_infty is None else i_infty
    rho = half_degrees(g).rho_sup
    inputs = {"I_inf": I, "rho_sup": rho}
    if not unit:
        return BoundValue("mohar", 0.0, False, inputs)
    rad = max(4.0 * rho * rho - I * I, 0.0)
    return BoundValue("mohar", 2.0 * rho - math.sqrt(rad), True, inputs)


def _traditional(g: WeightedGraph) -> bool:
    return bool(np.all(g.vmeasure == 1.0) and np.all(g.ea == 1.0))


def alon_bound(g: WeightedGraph, c: float | None = None, **kw) -> BoundValue:
    """Magnifier bound: lambda >= max(c^2/(2c^2+4), c^2/(4+2 floor(c)+2 frac(c)^2)),
    divided by sup l_e when lengths are non-unit.  Traditional measures only."""
    if not _traditional(g):
        return BoundValue("alon", 0.0, False, {"reason": "non-traditional measures"})
    if c is None:
        c, _ = magnification(g, **kw)
    inputs = {"c": c, "sup_len": float(np.max(g.elen, initial=1.0))}
    if c <= 0:
        return BoundValue("alon", 0.0, True, inputs)
    fl, fr = math.floor(c), c - math.floor(c)
    val = max(c * c / (2 * c * c + 4.0), c * c / (4.0 + 2 * fl + 2 * fr * fr))
    return BoundValue("alon", val / inputs["sup_len"], True, inputs)


def bobkov_bound(g: WeightedGraph, c: float | None = None, **kw) -> BoundValue:
    """lambda >= c^2 (2+c) / (6 + 6c + 2c^2) when a_e/l_e = V(u) + V(v)."""
    cond = g.ea / g.elen
    want = g.vmeasure[g.eu] + g.vmeasure[g.ev]
    ok = bool(np.all(np.abs(cond - want) <= 1e-9 * np.abs(want)))
    if not ok:
        return BoundValue(
            "bobkov", 0.0, False, {"reason": "a_e/l_e != V(u)+V(v)"}
        )
    if c is None:
        c, _ = magnification(g, **kw)
    if c <= 0:
        return BoundValue("bobkov", 0.0, True, {"c": c})
    val = c * c * (2.0 + c) / (6.0 + 6.0 * c + 2.0 * c * c)
    return BoundValue("bobkov", val, True, {"c": c})


def bound_report(g: WeightedGraph, mode: str | None = None, **kw) -> BoundReport:
    if mode is None:
        mode = "dirichlet" if g.boundary else "closed"
    lam = true_lambda(g, mode)
    bounds = [
        dodziuk_bound(g, **kw),
        mohar_bound(g, **kw),
        alon_bound(g, **kw),
        bobkov_bound(g, **kw),
    ]
    return BoundReport(mode, lam, bounds)


# -- Rayleigh and transport quotients ------------------------------------------


def rayleigh_quotient(f: VertexFunction) -> float:
    return (grad_lp_norm(f, 2) / lp_norm_vertex(f, 2)) ** 2


def q1_quotient(f: VertexFunction, X: EdgeField) -> float:
    """Q1 = int X . grad(f^2) dE / int f^2 dV  (exact for edgewise-linear f)."""
    g = f.graph
    fu, fv = f.values[g.eu], f.values[g.ev]
    num = float(np.sum(np.where(g.loop_mask, 0.0, g.ea * X.values * (fv * fv - fu * fu))))
    den = float(np.sum(f.values**2 * g.vmeasure))
    return num / den


def q2_quotient(f: VertexFunction, X: EdgeField) -> float:
    """Q2 = ||f X||_{2,E} / ||f||_{2,V}, the edge integral taken exactly."""
    from .functions import _edge_abs_power_integrals

    g = f.graph
    per_edge = _edge_abs_power_integrals(f, 2.0)[0]  # the one row of a single f
    num = math.sqrt(float(np.sum(per_edge * X.values**2)))
    return num / lp_norm_vertex(f, 2)


# -- the Alon transport field ---------------------------------------------------


@dataclass
class AlonField:
    field: EdgeField
    A: frozenset
    c: Fraction
    # exact per-edge rational magnitudes aligned with field.values
    exact: list


class _MaxFlow:
    """Edmonds-Karp over Fractions with lexicographic BFS tie-breaking."""

    def __init__(self, n: int):
        self.n = n
        self.cap: dict[tuple[int, int], Fraction] = {}
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, c: Fraction):
        if (u, v) not in self.cap:
            self.cap[(u, v)] = Fraction(0)
            self.cap[(v, u)] = Fraction(0)
            self.adj[u].append(v)
            self.adj[v].append(u)
        self.cap[(u, v)] += c

    def solve(self, s: int, t: int) -> tuple[Fraction, dict]:
        for a in self.adj:
            a.sort()
        flow: dict[tuple[int, int], Fraction] = {k: Fraction(0) for k in self.cap}
        total = Fraction(0)
        while True:
            parent = {s: s}
            q = deque([s])
            while q and t not in parent:
                u = q.popleft()
                for v in self.adj[u]:
                    if v not in parent and self.cap[(u, v)] - flow[(u, v)] > 0:
                        parent[v] = u
                        q.append(v)
            if t not in parent:
                return total, flow
            aug = None
            v = t
            while v != s:
                u = parent[v]
                slack = self.cap[(u, v)] - flow[(u, v)]
                aug = slack if aug is None else min(aug, slack)
                v = u
            v = t
            while v != s:
                u = parent[v]
                flow[(u, v)] += aug
                flow[(v, u)] -= aug
                v = u
            total += aug


def certified_magnification(g: WeightedGraph, A) -> Fraction:
    """min over nonempty B subset of A of V(Gamma(B))/V(B) - 1, exactly.

    This is the largest c for which the (1+c)-transport into every subset is
    feasible (max-flow/min-cut).  The float ratios of each chunk of subsets
    pick the candidates within 1e-12 of the chunk's least; the exact minimum
    is taken over those.
    """
    ids = sorted(A, key=str)
    if not ids:
        raise GraphError("A must be nonempty")
    # over their common denominator, float measures and their sums are exact integers
    den = math.lcm(*(float(x).as_integer_ratio()[1] for x in g.vmeasure))
    meas = [int(Fraction(float(x)) * den) for x in g.vmeasure]
    meas = np.array(meas, dtype=np.int64 if sum(meas) < 2**63 else object)
    least = []
    for _, mass, gmass in neighborhood_measures(g, ids, meas):
        ratio = _float_ratio(gmass, mass).astype(float) if meas.dtype == object else gmass / mass
        near = np.flatnonzero(ratio <= ratio.min() * (1.0 + 1e-12)).tolist()
        least.append(min(Fraction(int(gmass[j]), int(mass[j])) for j in near))
    return min(least) - 1


def _ratio(num: int, den: int) -> float:
    """num/den correctly rounded (Python integer division), inf past the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf


_float_ratio = np.frompyfunc(_ratio, 2, 1)


def alon_field(
    g: WeightedGraph, A, c: Fraction | float | None = None, generalized: bool = False
) -> AlonField:
    """Transport-field certificate for a magnified set A (c, when given, is
    taken as the exact Fraction of its value).

    Network: source -> one node per A-vertex (capacity (1+c) V(v)), across to
    one node per graph vertex (capacity V(w); 1 in the traditional setting)
    for each graph edge and for the identity slot, then to the sink
    (capacity V(w)).  The restriction of a maximum flow to actual graph
    edges, reversed so that mass is transported INTO A, gives a field X with

        |X_e| <= 1,   -(div X) >= c on A,   -(div X) <= 0 off A,

    and per-vertex unit in-flow (positive part of the arriving transport).
    All arithmetic is exact over rationals; an unsaturated flow means A is
    not (1+c)-magnified and raises.
    """
    ids = sorted(set(A), key=str)
    if not ids:
        return AlonField(EdgeField(g, np.zeros(len(g.edges))), frozenset(), Fraction(0), [Fraction(0)] * len(g.edges))
    if not generalized and not _traditional(g):
        raise GraphError("traditional measures required (or pass generalized=True)")
    for v in ids:
        if v in g.boundary:
            raise GraphError("A must avoid the boundary")
    c = certified_magnification(g, ids) if c is None else Fraction(c)
    if c < 0:
        raise GraphError("A has a neighborhood smaller than itself; no field")
    meas = [Fraction(float(x)) for x in g.vmeasure]
    # nodes: 0 = source, 1 = sink, 2+i = A-copy i, 2+|A|+j = vertex copy j
    aidx = {v: 2 + i for i, v in enumerate(ids)}
    vidx = {v: 2 + len(ids) + j for j, v in enumerate(g.vertices)}
    net = _MaxFlow(2 + len(ids) + g.n)
    demand = Fraction(0)
    for v in ids:
        cap = (1 + c) * meas[g.index(v)]
        net.add(0, aidx[v], cap)
        demand += cap
        net.add(aidx[v], vidx[v], meas[g.index(v)])  # identity slot
    for w in g.vertices:
        net.add(vidx[w], 1, meas[g.index(w)])
    pairs = set()
    for e in g.edges:
        if e.u == e.v:
            continue
        for x, y in ((e.u, e.v), (e.v, e.u)):
            if x in aidx and (x, y) not in pairs:
                pairs.add((x, y))
                net.add(aidx[x], vidx[y], meas[g.index(y)])
    value, flow = net.solve(0, 1)
    if value != demand:
        raise GraphError(
            f"flow saturates only {value} of {demand}: A is not (1+c)-magnified"
        )
    # net transport along each vertex pair, A-side -> other
    transport: dict[tuple, Fraction] = {}
    for (x, y) in pairs:
        transport[(x, y)] = flow[(aidx[x], vidx[y])]
    exact = [Fraction(0)] * len(g.edges)
    seen_pairs = set()
    for k, e in enumerate(g.edges):
        if e.u == e.v:
            continue
        key = (str(e.u), str(e.v))
        rkey = (str(e.v), str(e.u))
        if key in seen_pairs or rkey in seen_pairs:
            continue  # parallel edges: all transport on the first one
        seen_pairs.add(key)
        out_uv = transport.get((e.u, e.v), Fraction(0))
        out_vu = transport.get((e.v, e.u), Fraction(0))
        # reversed orientation: positive along u -> v when the network moved
        # mass v -> u (the field carries it back into A)
        exact[k] = out_vu - out_uv
    X = EdgeField(g, np.array([float(x) for x in exact]))
    return AlonField(X, frozenset(ids), c, exact)


def alon_field_checks(g: WeightedGraph, af: AlonField) -> dict:
    """Exact verification of the four field conditions; returns a report."""
    meas = [Fraction(float(x)) for x in g.vmeasure]
    inflow = [Fraction(0)] * g.n  # net n~.X, scaled by V(v)
    arriving = [Fraction(0)] * g.n  # positive part of the network-sense arrival
    sq = [Fraction(0)] * g.n  # sum of l_e X_e^2 at v
    sup_len = Fraction(0)
    for k, e in enumerate(g.edges):
        if e.u == e.v:
            continue
        x = af.exact[k]
        iu, iv = g.index(e.u), g.index(e.v)
        inflow[iv] += x
        inflow[iu] -= x
        # the field pointing away from a vertex = transport arriving there
        if x > 0:
            arriving[iu] += x
        elif x < 0:
            arriving[iv] += -x
        le = Fraction(float(e.length))
        sup_len = max(sup_len, le)
        sq[iu] += le * x * x
        sq[iv] += le * x * x
    c = af.c
    in_A = [v in af.A for v in g.vertices]
    ok_mag = all(abs(x) <= 1 for x in af.exact)
    ok_div_A = all(
        inflow[i] >= c * meas[i] for i in range(g.n) if in_A[i]
    )
    ok_div_out = all(inflow[i] <= 0 for i in range(g.n) if not in_A[i])
    ok_inflow = all(arriving[i] <= meas[i] for i in range(g.n))
    fl = c.numerator // c.denominator
    fr = c - fl
    rho_bound = (2 + fl + fr * fr) * sup_len / 2
    rho_x = max((sq[i] / (2 * meas[i]) for i in range(g.n)), default=Fraction(0))
    return {
        "magnitude": ok_mag,
        "divergence_on_A": ok_div_A,
        "divergence_off_A": ok_div_out,
        "unit_inflow": ok_inflow,
        "rho_sq_bound": rho_x <= rho_bound,
        "rho_sq": rho_x,
        "rho_sq_cap": rho_bound,
    }


# -- closed-case nodal reduction -----------------------------------------------


def nodal_region_reduction(g: WeightedGraph):
    """Dirichlet bound on the smaller nodal region of the second eigenfunction.

    Vertices where the eigenfunction vanishes act as boundary for both
    regions; the returned bound is a certified lower estimate of lambda_2.
    """
    if not g.is_closed:
        raise GraphError("nodal reduction applies to closed graphs")
    dec = spectral_decomposition(g, "closed")
    phi = dec.eigenfunctions[:, 1]
    scale = np.max(np.abs(phi))
    pos = phi > 1e-12 * scale
    neg = phi < -1e-12 * scale
    mpos = float(np.sum(g.vmeasure[pos]))
    mneg = float(np.sum(g.vmeasure[neg]))
    side = pos if mpos <= mneg else neg
    others = [g.vertices[i] for i in range(g.n) if not side[i]]
    sub = with_boundary(g, others)
    bound = dodziuk_bound(sub, force=True)
    return sub, bound, float(dec.eigenvalues[1])
