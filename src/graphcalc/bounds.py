"""Eigenvalue lower bounds and their certificates.

Each bound routine reports a value together with an applicability flag; an
applicable bound must sit below the true eigenvalue (first Dirichlet
eigenvalue, or the second eigenvalue of a closed graph).  The magnifier bound
comes with an explicit transport field certificate read off an exact max
flow: one Edmonds-Karp on integer capacities over the common denominator of
the measures and c, whose breadth-first search takes neighbours in ascending
order, so the fields are those of earlier releases.  Its checks run on
integers over one common denominator of the field, c and the measures, and
give the same flags and values as exact Fraction arithmetic, so the ``flow``
stdout is unchanged.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import GraphError, WeightedGraph, with_boundary
from .functions import VertexFunction, lp_norm_vertex, grad_lp_norm
from .operators import EdgeField, default_mode, eigenvalues, spectral_decomposition
from .graph import half_degrees
from .isoperimetry import (_finite_constant, _finite_magnification, _integer_measures,
                           _least_ratio, default_variant, iso_constant, magnification)

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


def true_lambda(g: WeightedGraph) -> float:
    """The lowest Dirichlet eigenvalue on a graph with boundary, the second
    lowest on a closed graph (where the lowest is 0)."""
    lams = eigenvalues(g, 2 if g.is_closed else 1)
    if not g.is_closed:
        return float(lams[0])
    if len(lams) < 2:
        raise GraphError("closed graph needs at least 2 vertices")
    return float(lams[1])


def dodziuk_bound(g: WeightedGraph) -> BoundValue:
    """lambda >= I_inf^2 / (4 rho_sup)  (I~ on closed graphs)."""
    I = _finite_constant(iso_constant(g, math.inf, default_variant(g)))
    rho = half_degrees(g).rho_sup
    value = I * I / (4.0 * rho) if I else 0.0  # without edges both I and rho are 0
    return BoundValue("dodziuk", value, True, {"I_inf": I, "rho_sup": rho})


def mohar_bound(g: WeightedGraph) -> BoundValue:
    """lambda >= 2 rho_sup - sqrt(4 rho_sup^2 - I_inf^2); unit lengths only.

    Always at least the Dodziuk value: 2r - sqrt(4r^2 - I^2) =
    I^2 / (2r + sqrt(4r^2 - I^2)) >= I^2/(4r).
    """
    unit = bool(np.all(g.elen == 1.0))
    I = _finite_constant(iso_constant(g, math.inf, default_variant(g)))
    rho = half_degrees(g).rho_sup
    inputs = {"I_inf": I, "rho_sup": rho}
    if not unit:
        return BoundValue("mohar", 0.0, False, inputs)
    rad = max(4.0 * rho * rho - I * I, 0.0)
    return BoundValue("mohar", 2.0 * rho - math.sqrt(rad), True, inputs)


def _traditional(g: WeightedGraph) -> bool:
    return bool(np.all(g.vmeasure == 1.0) and np.all(g.ea == 1.0))


def alon_bound(g: WeightedGraph, c: float | None = None) -> BoundValue:
    """Magnifier bound: lambda >= max(c^2/(2c^2+4), c^2/(4+2 floor(c)+2 frac(c)^2)),
    divided by sup l_e when lengths are non-unit.  Traditional measures only."""
    if not _traditional(g):
        return BoundValue("alon", 0.0, False, {"reason": "non-traditional measures"})
    if c is None:
        c, _ = magnification(g)
    c = _finite_magnification(c)
    inputs = {"c": c, "sup_len": float(np.max(g.elen, initial=1.0))}
    if c <= 0:
        return BoundValue("alon", 0.0, True, inputs)
    fl, fr = math.floor(c), c - math.floor(c)
    val = max(c * c / (2 * c * c + 4.0), c * c / (4.0 + 2 * fl + 2 * fr * fr))
    return BoundValue("alon", val / inputs["sup_len"], True, inputs)


def bobkov_bound(g: WeightedGraph, c: float | None = None) -> BoundValue:
    """lambda >= c^2 (2+c) / (6 + 6c + 2c^2) when a_e/l_e = V(u) + V(v)."""
    cond = g.ea / g.elen
    want = g.vmeasure[g.eu] + g.vmeasure[g.ev]
    ok = bool(np.all(np.abs(cond - want) <= 1e-9 * np.abs(want)))
    if not ok:
        return BoundValue(
            "bobkov", 0.0, False, {"reason": "a_e/l_e != V(u)+V(v)"}
        )
    if c is None:
        c, _ = magnification(g)
    c = _finite_magnification(c)
    if c <= 0:
        return BoundValue("bobkov", 0.0, True, {"c": c})
    val = c * c * (2.0 + c) / (6.0 + 6.0 * c + 2.0 * c * c)
    return BoundValue("bobkov", val, True, {"c": c})


def bound_report(g: WeightedGraph) -> BoundReport:
    """The four bounds against lambda, both under the graph's boundary condition."""
    return BoundReport(default_mode(g), true_lambda(g),
                       [dodziuk_bound(g), mohar_bound(g), alon_bound(g), bobkov_bound(g)])


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


def _max_flow(n: int, arcs, s: int, t: int) -> list[int]:
    """Edmonds-Karp on integer capacities: the flow on each arc (u, v, cap).

    Arc k sits in the residual list at 2k and its reverse at 2k+1.  The
    breadth-first search scans each node's arcs by ascending far end, so
    scaling every capacity by one positive integer scales the flow and
    leaves the augmenting paths as they are.
    """
    res, head, out = [], [], [[] for _ in range(n)]
    for k, (u, v, cap) in enumerate(arcs):
        out[u].append((v, 2 * k))
        out[v].append((u, 2 * k + 1))
        res += (cap, 0)
        head += (v, u)
    for a in out:
        a.sort()
    while True:
        via = [-1] * n  # the residual arc that reached each node
        via[s] = -2
        q = deque([s])
        while q and via[t] == -1:
            for v, a in out[q.popleft()]:
                if via[v] == -1 and res[a] > 0:
                    via[v] = a
                    q.append(v)
        if via[t] == -1:
            return res[1::2]
        path, v = [], t
        while v != s:
            path.append(via[v])
            v = head[via[v] ^ 1]
        aug = min(res[a] for a in path)
        for a in path:
            res[a] -= aug
            res[a ^ 1] += aug


def certified_magnification(g: WeightedGraph, A) -> Fraction:
    """min over nonempty B subset of A of V(Gamma(B))/V(B) - 1, exactly; no
    half-measure limit applies.

    For every c up to this value the (1+c)-transport of ``alon_field`` is
    feasible.  Its network also has the identity slot, so by max-flow/min-cut
    it is feasible exactly when V(B u Gamma(B)) >= (1+c) V(B) for every B,
    which can allow a larger c: on the path a-b-c with A = {a, c} this
    function gives -1/2 and ``alon_field`` certifies c = 1/2.  One float scan
    picks the candidates and the integer measures decide
    (``isoperimetry._least_ratio``).
    """
    ids = sorted(A, key=str)
    if not ids:
        raise GraphError("A must be nonempty")
    return _least_ratio(g, ids, half=False)[1] - 1


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
    Over the common denominator den * c.denominator of the measures and c
    every capacity is an integer, so the flow is exact; an unsaturated flow
    means A is not (1+c)-magnified and raises.
    """
    ids = sorted(set(A), key=str)
    if not ids:
        raise GraphError("A must be nonempty")
    if not generalized and not _traditional(g):
        raise GraphError("traditional measures required (or pass generalized=True)")
    for v in ids:
        if v in g.boundary:
            raise GraphError("A must avoid the boundary")
    c = certified_magnification(g, ids) if c is None else Fraction(c)
    if c < 0:
        raise GraphError("A has a neighborhood smaller than itself; no field")
    # over den * c.denominator every capacity is an integer: V(w) -> q m[w]
    den, m = _integer_measures(g)
    q = c.denominator
    scale = den * q
    # nodes: 0 = source, 1 = sink, 2+i = A-copy i, 2+|A|+j = vertex copy j
    acopy = {g.index(v): 2 + i for i, v in enumerate(ids)}
    base = 2 + len(ids)
    arcs = [(0, a, (q + c.numerator) * m[i]) for i, a in acopy.items()]
    arcs += [(a, base + i, q * m[i]) for i, a in acopy.items()]  # identity slot
    arcs += [(base + j, 1, q * m[j]) for j in range(g.n)]
    # (edge, arc, sign): the first of parallel edges carries the transport
    # between its ends, positive along u -> v when the network moved mass
    # v -> u (the field carries it back into A)
    carried, seen = [], set()
    for k, (i, j) in enumerate(zip(g.eu.tolist(), g.ev.tolist())):
        pair = (min(i, j), max(i, j))
        if i == j or pair in seen:
            continue
        seen.add(pair)
        for x, y, sign in ((i, j, -1), (j, i, 1)):
            if x in acopy:
                carried.append((k, len(arcs), sign))
                arcs.append((acopy[x], base + y, q * m[y]))
    flow = _max_flow(base + g.n, arcs, 0, 1)
    value = Fraction(sum(flow[: len(ids)]), scale)
    demand = Fraction(sum(cap for _, _, cap in arcs[: len(ids)]), scale)
    if value != demand:
        raise GraphError(f"flow saturates only {value} of {demand}: A is not (1+c)-magnified")
    net = [0] * g.m
    for k, a, sign in carried:
        net[k] += sign * flow[a]
    # int / int is correctly rounded: the same floats as float(Fraction(x, scale))
    X = EdgeField(g, np.array([x / scale for x in net]))
    return AlonField(X, frozenset(ids), c, [Fraction(x, scale) for x in net])


def alon_field_checks(g: WeightedGraph, af: AlonField) -> dict:
    """Exact verification of the four field conditions; returns a report.

    Everything is recomputed from ``af.exact``, ``af.c`` and the graph, so any
    AlonField can be checked.  The field, c and the measures are integer
    numerators over one common denominator D (the edge lengths over their own
    L), every condition is an integer comparison, and only rho_sq and its cap
    are built as Fractions.
    """
    c = af.c
    mden, m = _integer_measures(g)
    D = math.lcm(mden, c.denominator, *(x.denominator for x in af.exact))
    m = [v * (D // mden) for v in m]
    x = [v.numerator * (D // v.denominator) for v in af.exact]
    eu, ev = g.eu.tolist(), g.ev.tolist()
    edges = [k for k in range(len(x)) if eu[k] != ev[k]]
    lens = [le.as_integer_ratio() for le in g.elen.tolist()]
    L = math.lcm(*(lens[k][1] for k in edges))
    inflow = [0] * g.n  # net n~.X, scaled by V(v), over D
    arriving = [0] * g.n  # positive part of the network-sense arrival, over D
    sq = [0] * g.n  # sum of l_e X_e^2 at v, over L D^2
    sup_len = 0
    for k in edges:
        xk, iu, iv = x[k], eu[k], ev[k]
        inflow[iv] += xk
        inflow[iu] -= xk
        # the field pointing away from a vertex = transport arriving there
        if xk > 0:
            arriving[iu] += xk
        else:
            arriving[iv] -= xk
        le = lens[k][0] * (L // lens[k][1])
        sup_len = max(sup_len, le)
        sq[iu] += le * xk * xk
        sq[iv] += le * xk * xk
    in_A = [v in af.A for v in g.vertices]
    cn, cd = c.numerator, c.denominator
    ok_div_A = all(cd * inflow[i] >= cn * m[i] for i in range(g.n) if in_A[i])
    ok_div_out = all(inflow[i] <= 0 for i in range(g.n) if not in_A[i])
    # rho_sq = max over v of sq / (2 V(v)) = sq / (2 L D m): the largest sq/m
    best = 0
    for i in range(1, g.n):
        if sq[i] * m[best] > sq[best] * m[i]:
            best = i
    rho_x = Fraction(sq[best], 2 * L * D * m[best]) if g.n else Fraction(0)
    fl, fr = divmod(cn, cd)  # floor(c) and frac(c) * cd
    rho_bound = Fraction(((2 + fl) * cd * cd + fr * fr) * sup_len, 2 * cd * cd * L)
    return {
        "magnitude": all(abs(v) <= D for v in x),
        "divergence_on_A": ok_div_A,
        "divergence_off_A": ok_div_out,
        "unit_inflow": all(a <= v for a, v in zip(arriving, m)),
        "rho_sq_bound": rho_x <= rho_bound,
        "rho_sq": rho_x,
        "rho_sq_cap": rho_bound,
    }


# -- closed-case nodal reduction -----------------------------------------------


def nodal_region_reduction(g: WeightedGraph):
    """Dirichlet bound on the smaller nodal region of the second eigenfunction.

    Vertices where the eigenfunction vanishes act as boundary for both
    regions; the returned bound is a certified lower estimate of lambda_2.
    The eigenfunction is the second column of the eigenbasis LAPACK returns:
    when lambda_2 is degenerate (e.g. on cycles) another build may return
    another vector of its eigenspace, and so another nodal region.
    """
    if not g.is_closed:
        raise GraphError("nodal reduction applies to closed graphs")
    dec = spectral_decomposition(g)
    phi = dec.eigenfunctions[:, 1]
    scale = np.max(np.abs(phi))
    pos = phi > 1e-12 * scale
    neg = phi < -1e-12 * scale
    mpos = float(np.sum(g.vmeasure[pos]))
    mneg = float(np.sum(g.vmeasure[neg]))
    side = pos if mpos <= mneg else neg
    others = [g.vertices[i] for i in range(g.n) if not side[i]]
    sub = with_boundary(g, others)
    bound = dodziuk_bound(sub)
    return sub, bound, float(dec.eigenvalues[1])
