"""Edgewise-linear functions and their exact norms.

A function is stored by its vertex values; the edgewise-linear extension to
the geometric realization is implicit.  That class is exactly the minimizing
class for gradient norms (subdividing an edge and moving the new value off
the chord never helps), so every L^p quantity below has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .graph import GraphError, WeightedGraph

__all__ = [
    "VertexFunction",
    "LevelSetSweep",
    "lp_norm_vertex",
    "lp_norm_edge",
    "grad_lp_norm",
    "edge_integral",
    "vertex_integral",
    "midpoint_l2_sq",
    "balance_point",
    "balance_interval",
    "split_interval",
    "is_split",
    "split_shift",
    "coarea",
    "conjugate",
]


@dataclass
class VertexFunction:
    """Vertex values of one function, shape (n,), or of a block, shape (n, B)."""

    graph: WeightedGraph
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (1, 2) or self.values.shape[0] != self.graph.n:
            raise GraphError("function length does not match vertex count")

    @classmethod
    def from_map(cls, g: WeightedGraph, m: Mapping) -> "VertexFunction":
        return cls(g, np.array([float(m.get(v, 0.0)) for v in g.vertices]))

    def __call__(self, vid) -> float:
        return float(self.values[self.graph.index(vid)])

    @property
    def is_dirichlet(self) -> bool:
        return bool(np.all(self.values[~self.graph.interior_mask] == 0.0))

    def shifted(self, a) -> "VertexFunction":
        """f - a; for a block, ``a`` may hold one shift per draw."""
        return VertexFunction(self.graph, self.values - a)


def _rows(values: np.ndarray) -> np.ndarray:
    """The draws as the C-contiguous rows of a (B, n) array ((1, n) for one)."""
    return np.ascontiguousarray(values.T if values.ndim == 2 else values[None])


def _per_draw(f: VertexFunction, r: np.ndarray):
    """r, one entry per draw: a Python scalar for one function, else the array."""
    return r if f.values.ndim == 2 else r.item()


def _check_p(p) -> float:
    if p != math.inf and p < 1:
        raise GraphError("p must be >= 1 or infinity")
    return p


def conjugate(p: float) -> float:
    """The conjugate exponent p' with 1/p + 1/p' = 1."""
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def lp_norm_vertex(f: VertexFunction, p):
    """(sum_v |f(v)|^p V(v))^(1/p); max |f| for p = infinity."""
    _check_p(p)
    X = _rows(f.values)
    if p == math.inf:
        return _per_draw(f, np.abs(X).max(axis=1, initial=0.0))
    v = f.graph.vmeasure
    return _per_draw(f, (np.abs(X) ** p * v).sum(axis=1) ** (1.0 / p))


def vertex_integral(f: VertexFunction):
    return _per_draw(f, (_rows(f.values) * f.graph.vmeasure).sum(axis=1))


def _spow(x: np.ndarray, r: float) -> np.ndarray:
    """{x}^r = |x|^(r-1) x, the sign-preserving power."""
    return np.sign(x) * np.abs(x) ** r


def _edge_values(f: VertexFunction) -> tuple[np.ndarray, np.ndarray]:
    """The tail and head values of every edge, as (B, m) rows."""
    X = _rows(f.values)
    g = f.graph
    return X.take(g.eu, axis=1), X.take(g.ev, axis=1)


def _edge_abs_power_integrals(f: VertexFunction, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-edge integral of |f|^p against E, as (B, m) rows, and the
    scale of its rounding (``graph.at_most``), the same shape.

    On an edge from value b to value c, f(s) = b + (c-b)s for s in [0,1] and
    d/ds {f}^{p+1} = (p+1)(c-b)|f|^p, valid across a sign change (the
    antiderivative is C^1 for p >= 1), so a single endpoint evaluation works
    whatever the signs.  That difference cancels: it rounds on the scale
    (|b|^(p+1) + |c|^(p+1)) / ((p+1)|c-b|), not on the integral's.
    """
    g = f.graph
    b, c = _edge_values(f)
    m = c - b
    out, scale = np.empty(b.shape), np.empty(b.shape)
    flat = np.abs(m) <= 1e-15 * (np.abs(b) + np.abs(c))
    flat |= m == 0.0
    out[flat] = scale[flat] = np.abs(b[flat]) ** p
    nz = ~flat
    hi, lo, den = _spow(c[nz], p + 1.0), _spow(b[nz], p + 1.0), (p + 1.0) * m[nz]
    out[nz] = (hi - lo) / den
    scale[nz] = (np.abs(hi) + np.abs(lo)) / np.abs(den)
    return out * g.emeasure, scale * g.emeasure


def lp_norm_edge(f: VertexFunction, p):
    """Exact L^p norm of the edgewise-linear extension against E."""
    _check_p(p)
    if p == math.inf:
        b, c = _edge_values(f)
        top = np.maximum(np.abs(b).max(axis=1, initial=0.0), np.abs(c).max(axis=1, initial=0.0))
        return _per_draw(f, top)
    return _per_draw(f, _edge_abs_power_integrals(f, p)[0].sum(axis=1) ** (1.0 / p))


def edge_integral(f: VertexFunction):
    """int f dE; trapezoid is exact for linear data (a loop is constant)."""
    b, c = _edge_values(f)
    avg = (b + c) / 2.0
    # on a loop both endpoint values coincide, so avg is already f(v)
    return _per_draw(f, (avg * f.graph.emeasure).sum(axis=1))


def midpoint_l2_sq(f: VertexFunction):
    """sum_e E(e) * ((f(u)+f(v))/2)^2, the edge-midpoint-averaged square norm."""
    b, c = _edge_values(f)
    avg = (b + c) / 2.0
    return _per_draw(f, (avg * avg * f.graph.emeasure).sum(axis=1))


def grad_lp_norm(f: VertexFunction, p):
    """|grad f| is |f(u)-f(v)|/l_e on edge e; self-loops contribute nothing."""
    _check_p(p)
    g = f.graph
    b, c = _edge_values(f)
    slope = np.abs(b - c) / g.elen  # 0 on a loop, whose two endpoint values coincide
    if p == math.inf:
        return _per_draw(f, slope.max(axis=1, initial=0.0))
    return _per_draw(f, (g.emeasure * slope**p).sum(axis=1) ** (1.0 / p))


# -- balancing ----------------------------------------------------------------


def balance_point(f: VertexFunction, p):
    """The unique a minimizing ||f - a||_p for p > 1 (midpoint rule at p=inf).

    At p = 2 it is the V-weighted mean.  Otherwise a is the root of
    h(t) = sum {f - t}^(p-1) V, strictly decreasing on [min f, max f], and all
    draws of a block are solved together.  Each step evaluates h and
    h'(t) = -(p-1) sum |f - t|^(p-2) V at t, moves that end of the bracket
    [lo, hi] to t, and takes the Newton step if it lands inside the bracket
    and is at most half the previous step, else bisects.  A Newton step
    shorter than tol/2 is lengthened to tol/2 toward the root, so that it
    lands beyond a root it has all but reached.  A draw is done once its
    bracket is at most tol = 1e-12 (1 + max f - min f) wide, and its balance
    point is the bracket's midpoint.
    """
    if p != math.inf and p <= 1:
        raise GraphError("balance_point needs p > 1 (use balance_interval at p=1)")
    X = _rows(f.values)
    lo, hi = X.min(axis=1), X.max(axis=1)
    if p == math.inf:
        return _per_draw(f, (hi + lo) / 2.0)
    meas = f.graph.vmeasure
    t = np.clip((X * meas).sum(axis=1) / meas.sum(), lo, hi)
    if p == 2:
        return _per_draw(f, t)
    tol = 1e-12 * (1.0 + (hi - lo))
    half = tol / 2.0
    out = t.copy()
    todo = hi - lo > tol
    step = hi - lo  # twice the longest Newton step accepted next
    # a draw that is done keeps iterating with the rest, but its result was
    # taken when it finished; |f - t|^(p-2) is inf at a vertex value for
    # p < 2, which only shortens the Newton step
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while todo.any():
            d = X - t[:, None]
            ad = np.abs(d)
            h = (np.copysign(ad ** (p - 1.0), d) * meas).sum(axis=1)
            slope = (ad ** (p - 2.0) * meas).sum(axis=1) * (p - 1.0)
            right = h > 0.0  # the root lies above t
            np.copyto(lo, t, where=right)
            np.copyto(hi, t, where=~right)
            newton = h / slope
            size = np.abs(newton)
            np.copyto(newton, np.where(right, half, -half), where=size < half)
            nt = t + newton
            mid = (lo + hi) * 0.5
            np.copyto(nt, mid, where=~((nt > lo) & (nt < hi) & (size + size <= step)))
            step = np.abs(nt - t)
            t = nt
            done = todo & (hi - lo <= tol)
            np.copyto(out, mid, where=done)
            todo &= ~done
    return _per_draw(f, out)


def split_interval(f: VertexFunction):
    """J = {t : f - t is split}, i.e. V{f > t} <= V/2 and V{f < t} <= V/2.

    V is supported on vertices, so only strict vertex signs matter; for
    atomic measures J coincides with the interval of minimizers of
    ||f - t||_1 (the weighted median), consistent with I being contained in
    J.  Both endpoints are attained at vertex values: if the condition holds
    anywhere strictly between two consecutive distinct values it also holds
    at both of them (the strict level sets only shrink there).  Returns
    (lo, hi), floats or (B,) arrays.

    Sort the values as x_0 <= x_1 <= ... and let c_j be the mass of the
    first j+1.  Then V{f > x_j} <= V - c_j and V{f < x_j} >= c_(j-1), with
    equality at the last and the first copy of a repeated value
    respectively, so the first j with V - c_j <= V/2 gives the least value
    with V{f > x} <= V/2, and the last j with c_(j-1) <= V/2 the greatest
    with V{f < x} <= V/2.  Those are the endpoints of J, since each
    condition holds on a half-line and a weighted median meets both.  Equal
    values (the zeros of Dirichlet data, say) need no grouping.
    """
    X = _rows(f.values)
    order = X.argsort(axis=1, kind="stable")
    cum = f.graph.vmeasure[order].cumsum(axis=1)
    total = cum[:, -1:]
    first = (total - cum > total / 2.0).sum(axis=1)
    last = (cum[:, :-1] <= total / 2.0).sum(axis=1)
    xs = np.sort(X, axis=1)
    rows = np.arange(len(X))
    return _per_draw(f, xs[rows, first]), _per_draw(f, xs[rows, last])


balance_interval = split_interval  # the L^1-balancing interval, the same set


def is_split(f: VertexFunction):
    lo, hi = split_interval(f)
    return (lo <= 0.0) & (hi >= 0.0)


def split_shift(f: VertexFunction) -> VertexFunction:
    """f minus the midpoint of its split interval — always split."""
    lo, hi = split_interval(f)
    return f.shifted((lo + hi) / 2.0)


# -- co-area ------------------------------------------------------------------


def _running_sums(x: np.ndarray) -> np.ndarray:
    """(B, K) -> (B, K+1): 0.0, then the partial sums of each row in column order."""
    out = np.zeros((len(x), x.shape[1] + 1))
    np.cumsum(x, axis=1, out=out[:, 1:])
    return out


@dataclass
class LevelSetSweep:
    """Boundary area of the super-level sets as a step function of the level.

    ``levels`` holds the sorted event levels, shape (K,) for one function or
    (B, K) for a block; ``area`` has one more entry per draw: area[k] is
    A(boundary of {f > t}) for t between levels[k-1] and levels[k], and
    area[0] = area[K] = 0 (below the first event and above the last).
    """

    levels: np.ndarray
    area: np.ndarray

    def _per_draw(self, r: np.ndarray):
        return r if self.levels.ndim == 2 else r.item()

    def area_at(self, t: float):
        """A(boundary of {f > t}): the area after every event below t."""
        area = np.atleast_2d(self.area)
        below = (np.atleast_2d(self.levels) < t).sum(axis=1)
        return self._per_draw(area[np.arange(len(area)), below])

    def integral(self):
        """The sum over k of area[k] (levels[k] - levels[k-1]), added in event
        order from 0.0."""
        levels, area = np.atleast_2d(self.levels), np.atleast_2d(self.area)
        return self._per_draw(_running_sums(area[:, 1:-1] * np.diff(levels, axis=1))[:, -1])


def coarea(f: VertexFunction) -> LevelSetSweep:
    """Sweep of A(boundary Omega_f(t)) over levels t, for one function or a block.

    An edge is crossed by level t exactly when t lies strictly between its
    endpoint values, so the area is a step function: an edge with
    f(u) != f(v) adds the events +a_e at its lower value and -a_e at its
    upper one, and the integral is sum a_e |f(u)-f(v)| = ||grad f||_1.  Each
    draw sorts its events stably (lower ends in edge order, then upper ends)
    and the area is their running sum, closed to exactly 0 after the last.
    A flat edge's (a loop's, say) two zero events sit at the draw's lowest
    level, where they add only exact zeros, so every draw gets the same
    number of events and a column of a block gives exactly what it gives
    alone.
    """
    b, c = _edge_values(f)
    flat = b == c
    lo = np.minimum(b, c)
    bottom = lo.min(axis=1, initial=np.inf, keepdims=True)
    lo, hi = np.where(flat, bottom, lo), np.where(flat, bottom, np.maximum(b, c))
    jump = np.where(flat, 0.0, f.graph.ea)
    levels = np.concatenate([lo, hi], axis=1)
    order = levels.argsort(axis=1, kind="stable")
    area = _running_sums(np.take_along_axis(np.concatenate([jump, -jump], axis=1), order, axis=1))
    area[:, -1] = 0.0
    levels = np.take_along_axis(levels, order, axis=1)
    if f.values.ndim == 1:
        levels, area = levels[0], area[0]
    return LevelSetSweep(levels, area)
