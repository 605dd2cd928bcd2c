"""Randomized verification suites behind `graphcalc verify`.

Each suite draws seeded random functions (and fields) on a given graph and
checks one family of identities or inequalities, returning a summary dict
with a failure count; determinism is total given the seed.  A suite draws
all its trials as one block, row k of ``rng.standard_normal((trials, n))``
being the k-th draw (``green`` puts f, X and h side by side in one row), the
same numbers as drawing the trials one at a time, and evaluates the block in
one call per check.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import WeightedGraph, half_degrees, GraphError
from .functions import (
    VertexFunction,
    balance_interval,
    balance_point,
    coarea,
    conjugate,
    edge_integral,
    grad_lp_norm,
    lp_norm_edge,
    lp_norm_vertex,
    midpoint_l2_sq,
    split_shift,
    vertex_integral,
)
from .operators import EdgeField, divergence, laplacian_apply
from .isoperimetry import _finite_constant, iso_constant, sobolev_quotient
from . import sobolev as sb

__all__ = ["run_suite", "SUITES"]

# An exact identity fails when its residual exceeds REL_TOL times the sum of
# the absolute values of the terms it adds, and an inequality when its lower
# side falls short by more than REL_TOL times the upper one, so no check
# moves when every weight is rescaled.
REL_TOL = 1e-12


def _draws(g: WeightedGraph, trials: int, rng, dirichlet=False) -> np.ndarray:
    """(trials, n): one seeded draw per row, zero on the boundary if dirichlet."""
    vals = rng.standard_normal((trials, g.n))
    if dirichlet:
        vals = vals * g.interior_mask
    return vals


def _block(g: WeightedGraph, rows: np.ndarray) -> VertexFunction:
    """The draws as one VertexFunction, a column each."""
    return VertexFunction(g, rows.T)


def _nonzero(rows: np.ndarray) -> np.ndarray:
    """The draws that are not identically zero; the quotient suites skip f = 0."""
    return rows[rows.any(axis=1)]


def _below(lhs, rhs) -> int:
    """How many lhs fall below rhs by more than REL_TOL * |rhs|."""
    return int(np.count_nonzero(lhs < rhs - REL_TOL * np.abs(rhs)))


def _worst(residuals) -> float:
    return float(np.max(residuals, initial=0.0))


def _suite_coarea(g, trials, rng):
    f = _block(g, _draws(g, trials, rng))
    grad = grad_lp_norm(f, 1)
    residual = np.abs(coarea(f).integral() - grad)
    # the sweep adds the same terms a_e |f(u) - f(v)| as grad, in another order
    return {"max_residual": _worst(residual), "failures": int(np.any(residual > REL_TOL * grad))}


def _suite_green(g, trials, rng):
    n, m = g.n, len(g.edges)
    draws = rng.standard_normal((trials, 2 * n + m))  # row k: trial k's f, then X, then h
    F, X, H = draws[:, :n] * g.interior_mask, draws[:, n:n + m], draws[:, n + m:] * g.interior_mask
    f, h = _block(g, F), _block(g, H)
    div = divergence(g, EdgeField(g, X.T))
    pair = vertex_integral(VertexFunction(g, div.values * f.values))
    mask = ~g.loop_mask
    eu, ev = g.eu[mask], g.ev[mask]
    jump = np.take(F, ev, axis=1) - np.take(F, eu, axis=1)
    terms = g.ea[mask] * np.compress(mask, X, axis=1) * jump
    green = np.abs(pair + np.sum(terms, axis=1))
    # V-symmetry of the Laplacian on the same draws
    lf, lh = laplacian_apply(g, f), laplacian_apply(g, h)
    s1 = vertex_integral(VertexFunction(g, lf.values * h.values))
    s2 = vertex_integral(VertexFunction(g, f.values * lh.values))
    sym = np.abs(s1 - s2) / (1.0 + np.abs(s1))
    # Green's residual is the rounding of sums of the terms a_e X_e jump_e
    fails = np.any(green > REL_TOL * np.abs(terms).sum(axis=1)) or np.any(sym > 1e-11)
    return {"max_residual": max(_worst(green), _worst(sym)), "failures": int(fails)}


def _suite_ff(g, trials, rng):
    """Federer-Fleming: s_nu(f) >= I_nu (open) / I~-variants (closed)."""
    failures = 0
    nus = [1.5, 2.0, 3.0, math.inf]
    if g.boundary:
        consts = {nu: _finite_constant(iso_constant(g, nu, "open")) for nu in nus}
        f = _block(g, _nonzero(_draws(g, trials, rng, dirichlet=True)))
        for nu in nus:
            failures += _below(sobolev_quotient(f, nu), consts[nu])
    else:
        tilde = {nu: _finite_constant(iso_constant(g, nu, "tilde")) for nu in nus}
        prime = {nu: _finite_constant(iso_constant(g, nu, "tilde_prime")) for nu in nus}
        f = _block(g, _draws(g, trials, rng))
        fs = split_shift(f)
        grad_f, grad_fs = grad_lp_norm(f, 1), grad_lp_norm(fs, 1)
        for nu in nus:
            nup = conjugate(nu)
            failures += _below(grad_fs, tilde[nu] * lp_norm_vertex(fs, nup))
            # the min-shift quotient needs the true nu'-balancing shift
            a = balance_interval(f)[0] if nup == 1.0 else balance_point(f, nup)
            best = lp_norm_vertex(f.shifted(a), nup)
            failures += _below(grad_f, prime[nu] * best)
    return {"failures": failures}


def _suite_sobolev(g, trials, rng):
    f = _block(g, _draws(g, trials, rng, dirichlet=bool(g.boundary)))
    pairs = ((1.0, 2.0), (2.0, 3.0), (1.5, 4.0))
    checks = [sb.sobolev_check(f, p, nu) for p, nu in pairs]
    checks.append(sb.general_F_check(f, r=2.0, p=2.0, nu=4.0))
    checks.append(sb.sup_embedding_check(f, p=3.0, nu=2.0))
    return {"failures": sum(c.failures for c in checks)}


def _suite_nash(g, trials, rng):
    f = _block(g, _nonzero(_draws(g, trials, rng, dirichlet=bool(g.boundary))))
    return {"failures": sum(sb.nash_check(f, nu).failures for nu in (2.5, 3.0, 4.0))}


def _suite_trudinger(g, trials, rng):
    rows = _draws(g, trials, rng, dirichlet=bool(g.boundary))
    f = _block(g, rows[grad_lp_norm(_block(g, rows), 3.0) != 0])
    failures = 0
    exact0 = None
    for gamma in (0.0, 0.3, 0.7):
        c = sb.trudinger_check(f, gamma, 3.0)
        failures += c.failures
        if gamma == 0.0 and len(c.rhs):
            exact0 = float(abs(c.lhs - c.rhs[-1]))  # the last draw's gap
    return {"failures": failures, "gamma0_gap": exact0}


def _suite_gennash(g, trials, rng):
    """Scale the edge weights so the isoperimetric hypothesis I_nu >= 1 holds,
    then check the general Nash form."""
    if not g.boundary:
        raise GraphError("gennash suite needs a graph with boundary")
    failures = 0
    for nu in (2.5, 3.0):
        I = iso_constant(g, nu, "open").value
        if I <= 0:
            continue
        scaled = WeightedGraph(
            g.vertices,
            g.vmeasure,
            [type(e)(e.u, e.v, e.a / I, e.length) for e in g.edges],
            g.boundary,
        )
        f = _block(scaled, _nonzero(_draws(scaled, trials, rng, dirichlet=True)))
        failures += sb.gennash_check(f, nu).failures
    return {"failures": failures}


def _suite_identities(g, trials, rng):
    """rho-integral identity, the two edge-norm identities, and positivity."""
    stats = half_degrees(g)
    rho = stats.rho
    unit = bool(np.all(g.elen == 1.0))
    loopfree = not bool(g.loop_mask.any())
    rows = _draws(g, trials, rng)
    f = _block(g, rows)
    grad2 = grad_lp_norm(f, 2) ** 2

    def rel(a, b):
        return _worst(np.abs(a - b) / (1.0 + np.abs(b)))

    worst = 0.0
    if loopfree:
        rhs = np.sum(rho * rows * g.vmeasure, axis=1)
        worst = max(worst, rel(edge_integral(f), rhs))
    if unit and loopfree:
        rhs = np.sum(rho * rows**2 * g.vmeasure, axis=1)
        worst = max(worst, rel(lp_norm_edge(f, 2) ** 2 + grad2 / 6.0, rhs))
        worst = max(worst, rel(midpoint_l2_sq(f) + grad2 / 4.0, rhs))
    # rho-concavity comparison and Laplacian positivity
    if loopfree:
        for p in (1.0, 2.0, 3.0):
            lhsn = lp_norm_edge(f, p)
            rhsn = stats.rho_sup ** (1.0 / p) * lp_norm_vertex(f, p)
            over = lhsn > rhsn + 1e-9 * (1 + rhsn)
            worst = max(worst, _worst((lhsn - rhsn)[over]))
    lf = laplacian_apply(g, f)
    quad = vertex_integral(VertexFunction(g, lf.values * f.values))
    worst = max(worst, _worst(np.abs(quad - grad2) / (1.0 + quad)))
    return {"max_residual": worst, "failures": int(worst > 1e-11)}


SUITES = {
    "coarea": _suite_coarea,
    "green": _suite_green,
    "ff": _suite_ff,
    "sobolev": _suite_sobolev,
    "nash": _suite_nash,
    "trudinger": _suite_trudinger,
    "gennash": _suite_gennash,
    "identities": _suite_identities,
}


def run_suite(g: WeightedGraph, suite: str, trials: int = 100, seed: int = 0) -> dict:
    if suite not in SUITES:
        raise GraphError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if trials < 0:
        raise GraphError("trials must be >= 0")
    rng = np.random.default_rng(seed)
    out = SUITES[suite](g, trials, rng)
    out.update({"suite": suite, "trials": trials, "seed": seed})
    out.setdefault("failures", 0)
    return out
