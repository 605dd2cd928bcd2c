"""The gradient-inequality ladder as executable checks.

Every routine evaluates both sides of one inequality from graph data and
returns an InequalityCheck; an in-hypothesis instance must pass (lhs >=
rhs - 1e-9).  Closed-graph variants run on split inputs (pre-shifted by the
midpoint of the L^1 balance interval) with the shifted constant I~_nu.  A
block of functions (values of shape (n, B)) is checked in one call: the
sides are then (B,) arrays and the check counts the failing draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import GraphError, WeightedGraph, half_degrees
from .functions import (
    VertexFunction,
    _spow,
    conjugate,
    grad_lp_norm,
    lp_norm_vertex,
    lp_norm_edge,
    split_shift,
    vertex_integral,
)
from .isoperimetry import default_variant, iso_constant, sobolev_quotient

__all__ = [
    "InequalityCheck",
    "general_F_check",
    "sobolev_check",
    "nash_check",
    "trudinger_check",
    "sup_embedding_check",
    "gennash_check",
    "iteration_constant",
    "sharpness_experiment",
]

TOL = 1e-9


@dataclass
class InequalityCheck:
    """Both sides of one inequality: floats, or (B,) arrays for a block."""

    name: str
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    inputs: dict = field(default_factory=dict)

    @property
    def failures(self) -> int:
        """The number of draws with lhs < rhs - TOL (1 + |rhs|); 0 or 1 for one function."""
        ok = self.lhs >= self.rhs - TOL * (1.0 + np.abs(self.rhs))
        return int(np.count_nonzero(np.logical_not(ok)))

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _finite_constant(g: WeightedGraph, nu: float, variant: str, **kw) -> float:
    """I_nu of the variant, refused when infinite: no set is admissible."""
    I = iso_constant(g, nu, variant, **kw).value
    if math.isinf(I):
        raise GraphError(f"the {variant} isoperimetric constant is infinite: no set is admissible")
    return I


def _iso_for(g: WeightedGraph, nu: float, **kw) -> tuple[float, bool, float]:
    """(constant, closed flag, rho_sup): I_nu with Dirichlet data, or I~_nu when
    closed.  Most checks raise rho_sup to negative powers, so 0 is refused."""
    rho = half_degrees(g).rho_sup
    if rho == 0:
        raise GraphError("rho_sup is 0 (the graph has no edge): the constants are undefined")
    return _finite_constant(g, nu, default_variant(g), **kw), g.is_closed, rho


def general_F_check(
    f: VertexFunction, r: float, p: float, nu: float, **iso_kw
) -> InequalityCheck:
    """I_nu ||F(phi)||_{nu'} <= rho_sup^{1/p'} ||grad phi||_p ||F'(phi)||_{p'}
    for the sign-preserving powers F(x) = {x}^r, r >= 1 (so (F')^{p'} is
    convex).  Closed graphs: split input and I~_nu."""
    if r < 1:
        raise GraphError("need r >= 1")
    g = f.graph
    I, closed, rho = _iso_for(g, nu, **iso_kw)
    phi = split_shift(f) if closed else f
    pp = conjugate(p)
    nup = conjugate(nu)
    Fphi = VertexFunction(g, _spow(phi.values, r))
    dF = VertexFunction(
        g, r * np.abs(phi.values) ** (r - 1.0) if r > 1 else np.ones_like(phi.values)
    )
    lhs = rho ** (1.0 / pp) * grad_lp_norm(phi, p) * lp_norm_vertex(dF, pp)
    rhs = I * lp_norm_vertex(Fphi, nup)
    return InequalityCheck(
        "general_F", lhs, rhs, {"r": r, "p": p, "nu": nu, "I": I, "rho_sup": rho}
    )


def sobolev_check(f: VertexFunction, p: float, nu: float, **iso_kw) -> InequalityCheck:
    """||grad phi||_p >= c_{nu,p} ||phi||_{p nu/(nu-p)},
    c_{nu,p} = I_nu rho_sup^{-(p-1)/p} (nu-p)/(p(nu-1))."""
    if not (nu > p >= 1):
        raise GraphError("need nu > p >= 1")
    g = f.graph
    I, closed, rho = _iso_for(g, nu, **iso_kw)
    phi = split_shift(f) if closed else f
    c = I * rho ** (-(p - 1.0) / p) * (nu - p) / (p * (nu - 1.0))
    q = p * nu / (nu - p)
    lhs = grad_lp_norm(phi, p)
    rhs = c * lp_norm_vertex(phi, q)
    return InequalityCheck(
        "sobolev", lhs, rhs, {"p": p, "nu": nu, "I": I, "rho_sup": rho, "c": c}
    )


def nash_check(f: VertexFunction, nu: float, **iso_kw) -> InequalityCheck:
    """||grad f||_2 >= (I_nu rho_sup^{-1/2}/2) ||f||_2^{1+2/nu} ||f||_1^{-2/nu}.

    Open case: Dirichlet f.  Closed case: the same constant with I~_nu holds
    for V-mean-zero f (shift by the L^1 minimizer, which only helps)."""
    if nu <= 2:
        raise GraphError("need nu > 2")
    g = f.graph
    I, closed, rho = _iso_for(g, nu, **iso_kw)
    phi = f
    if closed:
        mean = vertex_integral(f) / g.total_measure()
        phi = f.shifted(mean)  # enforce the mean-zero hypothesis
    lhs = grad_lp_norm(phi, 2)
    n1, n2 = lp_norm_vertex(phi, 1), lp_norm_vertex(phi, 2)
    if np.count_nonzero(n2 == 0):
        raise GraphError("f must not be (a.e.) constant")
    rhs = (I / (2.0 * math.sqrt(rho))) * n2 ** (1.0 + 2.0 / nu) * n1 ** (-2.0 / nu)
    return InequalityCheck("nash", lhs, rhs, {"nu": nu, "I": I, "rho_sup": rho})


def trudinger_check(
    f: VertexFunction, gamma: float, nu: float, measure: str = "vertex", **iso_kw
) -> InequalityCheck:
    """int (exp(gamma |phi~|))^{nu'} dV <= V(G) (1-gamma)^{-nu'},
    phi~ = phi I_nu rho_sup^{-1/nu'} / ||grad phi||_nu, gamma < 1.

    The paper-facing statement integrates against E; the series proof runs
    through V-norms, so the V-integral is the primary form ("vertex").  With
    measure="edge" the exact edgewise integral of h = exp(gamma |phi~|)^{nu'}
    (the nu'-th power of the edgewise-linear extension, convex along each
    edge, so below its chord) is bounded by kappa V(G) (1-gamma)^{-nu'}:
    int h dE <= sum_e E(e) (h(u) + h(v))/2 <= kappa int h dV, where
    kappa = max_v (rho(v) + sum of E(e)/(2V(v)) over the loops at v), since
    both ends of a loop sit at v.  On a loop-free graph kappa = rho_sup."""
    if not 0.0 <= gamma < 1.0:
        raise GraphError("need 0 <= gamma < 1")
    g = f.graph
    I, closed, rho = _iso_for(g, nu, **iso_kw)
    phi = split_shift(f) if closed else f
    nup = conjugate(nu)
    gnorm = grad_lp_norm(phi, nu)
    if np.count_nonzero(gnorm == 0):
        raise GraphError("phi must not be constant")
    tilde = np.abs(phi.values) * I * rho ** (-1.0 / nup) / gnorm
    inputs = {"gamma": gamma, "nu": nu, "I": I, "rho_sup": rho, "measure": measure}
    if measure == "vertex":
        lhs_total = vertex_integral(VertexFunction(g, np.exp(nup * gamma * tilde)))
        kappa = 1.0
    elif measure == "edge":
        expf = VertexFunction(g, np.exp(gamma * tilde))
        lhs_total = lp_norm_edge(expf, nup) ** nup
        ends = np.zeros(g.n)  # E(e)/2 at each end: a loop gives E(e) to its vertex
        np.add.at(ends, g.eu, g.emeasure / 2.0)
        np.add.at(ends, g.ev, g.emeasure / 2.0)
        kappa = inputs["kappa"] = float((ends / g.vmeasure).max())
    else:
        raise GraphError("measure must be 'vertex' or 'edge'")
    rhs_bound = kappa * g.total_measure() * (1.0 - gamma) ** (-nup)
    # the INEQUALITY direction here is lhs <= rhs; report with sides swapped
    return InequalityCheck("trudinger", rhs_bound, lhs_total, inputs)


def iteration_constant(p: float, nu: float) -> tuple[float, float]:
    """(c1, c2) of the sup-embedding iteration for p > nu >= 1.

    delta = nu'/p' > 1, gamma_i = 1 + delta + ... + delta^{i+1},
    c1 = prod gamma_i^{1/delta^i} (truncated when the tail is negligible),
    c2 = p'(nu' - p')/nu'^2.
    """
    if not (p > nu >= 1):
        raise GraphError("need p > nu >= 1")
    pp = conjugate(p)
    nup = conjugate(nu)
    delta = nup / pp
    if not delta > 1:
        raise GraphError("delta = nu'/p' must exceed 1")
    c2 = pp * (nup - pp) / (nup * nup)
    logc1 = 0.0
    i = 0
    while True:
        gamma_i = (delta ** (i + 2) - 1.0) / (delta - 1.0)
        term = math.log(gamma_i) / delta**i
        logc1 += term
        # remaining tail is bounded by a geometric-ish series; stop when tiny
        if term < 1e-14 and i > 4:
            break
        i += 1
        if i > 10_000:
            break
    return math.exp(logc1), c2


def sup_embedding_check(f: VertexFunction, p: float, nu: float, **iso_kw) -> InequalityCheck:
    """||grad phi||_p >= c*_{nu,p} V(G)^{1/p - 1/nu} I_nu rho_sup^{-1/p'} ||phi||_inf
    for split phi, p > nu, with c*_{nu,p} = c1^{-c2}."""
    if not (p > nu >= 1):
        raise GraphError("need p > nu >= 1")
    g = f.graph
    I, closed, rho = _iso_for(g, nu, **iso_kw)
    phi = split_shift(f)
    pp = conjugate(p)
    c1, c2 = iteration_constant(p, nu)
    cstar = c1 ** (-c2)
    lhs = grad_lp_norm(phi, p)
    rhs = (
        cstar
        * g.total_measure() ** (1.0 / p - 1.0 / nu)
        * I
        * rho ** (-1.0 / pp)
        * lp_norm_vertex(phi, math.inf)
    )
    return InequalityCheck(
        "sup_embedding", lhs, rhs,
        {"p": p, "nu": nu, "I": I, "rho_sup": rho, "c_star": cstar},
    )


def gennash_check(f: VertexFunction, nu: float, **iso_kw) -> InequalityCheck:
    """32 rho_sup (phi(4 ||f||_1^2 / ||f||_2^2))^2 ||grad f||_2^2 >= ||f||_2^2
    with phi(x) = x^{1/nu}, for Dirichlet f, assuming the isoperimetric
    hypothesis A >= V/phi(V), i.e. I_nu >= 1."""
    g = f.graph
    if not g.boundary:
        raise GraphError("the general Nash form is for graphs with boundary")
    I = iso_constant(g, nu, "open", **iso_kw).value
    if I < 1.0 - 1e-12:
        raise GraphError("hypothesis fails: I_nu < 1 (rescale the edge weights)")
    rho = half_degrees(g).rho_sup
    n1, n2 = lp_norm_vertex(f, 1), lp_norm_vertex(f, 2)
    if np.count_nonzero(n2 == 0):
        raise GraphError("f must be nonzero")
    phi_val = (4.0 * n1 * n1 / (n2 * n2)) ** (1.0 / nu)
    lhs = 32.0 * rho * phi_val**2 * grad_lp_norm(f, 2) ** 2
    rhs = n2 * n2
    return InequalityCheck("gennash", lhs, rhs, {"nu": nu, "I": I, "rho_sup": rho})


def sharpness_experiment(nu: float, p: float, m_grid, n: int = 1024) -> dict:
    """Sobolev quotients of the logarithmic test functions on radial graphs.

    For nu > p: each quotient s = ||grad f_m||_p / ||f_m||_{p nu/(nu-p)}
    normalized by I_nu rho_sup^{-1/p'} upper-bounds the optimal c*_{nu,p},
    which blows down like (nu-p)^{1/p - 1} as nu decreases to p.  At nu = p
    the report carries s^p/||f_m||_inf instead, which decays like 1/log m
    (no sup-norm lower bound survives at the endpoint).
    """
    from .generators import log_test_function, radial_graph

    g = radial_graph(n, nu)
    rho = half_degrees(g).rho_sup
    pp = conjugate(p)
    rows = []
    if nu > p:
        I = iso_constant(g, nu, "open", force=True).value
        q = p * nu / (nu - p)
        norm = I * rho ** (-1.0 / pp)
        for m in m_grid:
            f = log_test_function(g, m)
            s = grad_lp_norm(f, p) / lp_norm_vertex(f, q)
            rows.append({"m": m, "quotient": s, "normalized": s / norm})
        best = min(r["normalized"] for r in rows)
        return {"nu": nu, "p": p, "I": I, "rows": rows, "best_normalized": best}
    if nu == p:
        for m in m_grid:
            f = log_test_function(g, m)
            s = grad_lp_norm(f, p)
            sup = lp_norm_vertex(f, math.inf)
            rows.append({"m": m, "ratio": (s / sup) ** p, "log_m": math.log(m)})
        return {"nu": nu, "p": p, "rows": rows}
    raise GraphError("need nu >= p")
