"""Heat kernels, decay estimates, and the uniqueness artifacts.

Everything is spectral: K(x,y,t) = sum_i e^{-t lambda_i} phi_i(x) phi_i(y)
over the (Dirichlet) eigenbasis, which is the minimal kernel on a finite
graph, so the semigroup identities hold to rounding.  Finite differences are
used only as an independent check of the heat-equation residual.

Every kernel matrix is the symmetric product B B^T with B = Phi e^{-t Lambda/2}
(BLAS syrk, exactly symmetric).  ``heat_grid`` forms its products over the
solved rows only (the interior in Dirichlet mode, where the boundary rows
and columns are exact zeros), the semigroup product as C^T C with
C = V^{1/2} K(t/2), and judges positivity and the semigroup law relative to
max|K(t)|, since K scales like 1/V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .graph import GraphError, WeightedGraph, half_degrees, with_boundary
from .functions import VertexFunction, grad_lp_norm
from .operators import SpectralDecomposition, eigenvalues, laplacian_apply, spectral_decomposition
from .isoperimetry import DEFAULT_CAP, AdmissibleSet, _subset_table, iso_constant

__all__ = [
    "HeatKernel",
    "heat_kernel",
    "heat_grid",
    "heat_solve",
    "heat_residual",
    "exhaustion_check",
    "nash_diagonal_bound",
    "eigenvalue_lower_bounds",
    "DecayProfile",
    "power_profile",
    "general_decay_bound",
    "nonuniqueness_tree",
    "finite_uniqueness_check",
    "default_t_grid",
]


def default_t_grid(lo: float = 1e-2, hi: float = 1e2, per_decade: int = 32) -> np.ndarray:
    n = int(round(per_decade * math.log10(hi / lo))) + 1
    return np.logspace(math.log10(lo), math.log10(hi), n)


_TINY = np.finfo(float).tiny


def _kernel_block(phi: np.ndarray, lam: np.ndarray, t: float) -> np.ndarray:
    """K(t) on the rows of phi: B B^T with B = phi e^{-t lam/2}, which numpy
    hands to BLAS syrk (half the flops of a general product, and the result
    is exactly symmetric)."""
    B = phi * np.exp(-0.5 * t * lam)
    return B @ B.T


@dataclass
class HeatKernel:
    decomposition: SpectralDecomposition

    @property
    def graph(self) -> WeightedGraph:
        return self.decomposition.graph

    @property
    def mode(self) -> str:
        return self.decomposition.mode

    def matrix(self, t: float) -> np.ndarray:
        """K(x, y, t) over all vertex pairs."""
        d = self.decomposition
        return _kernel_block(d.eigenfunctions, d.eigenvalues, t)

    def evaluate(self, x, y, t: float) -> float:
        g = self.graph
        d = self.decomposition
        ix, iy = g.index(x), g.index(y)
        w = np.exp(-t * d.eigenvalues)
        return float(np.sum(w * d.eigenfunctions[ix] * d.eigenfunctions[iy]))

    def diagonal(self, t: float) -> np.ndarray:
        d = self.decomposition
        w = np.exp(-t * d.eigenvalues)
        return (d.eigenfunctions**2 @ w)


def heat_kernel(g: WeightedGraph, mode: str | None = None) -> HeatKernel:
    if mode is None:
        mode = "dirichlet" if g.boundary else "closed"
    return HeatKernel(spectral_decomposition(g, mode))


def heat_grid(kern: HeatKernel, ts) -> tuple[list[dict], bool]:
    """Positivity, mass and semigroup diagnostics of K(t) at each time in ts.

    One row per time: ``t``, ``min_entry`` and ``min_diagonal`` of K(t),
    ``max_mass`` = max_x sum_y K(x, y, t) V(y), and ``semigroup_residual`` =
    max |K(t/2) V K(t/2) - K(t)| entrywise, with both products computed.
    The products run over the solved rows only; in Dirichlet mode the
    boundary's exact zeros enter the minima and the maximum mass as 0.
    A row passes when min_entry >= -1e-12 s and the residual <= 1e-10 s,
    with s = max|K(t)| (K scales like 1/V; each bound is widened by the
    smallest normal float), and when every mass is within 1e-10 of 1
    (closed) or at most 1 + 1e-10 (Dirichlet); a NaN fails every check.
    Returns the rows and whether every row passed.
    """
    d = kern.decomposition
    g = d.graph
    closed = d.mode == "closed"
    phi, lam, vm = d.eigenfunctions, d.eigenvalues, g.vmeasure
    if not closed:  # the rows laplacian_matrix solved for: the interior
        idx = g.interior_indices()
        phi, vm = phi[idx], vm[idx]
    zeros = len(vm) < g.n  # the boundary rows and columns of K are exact zeros
    sv = np.sqrt(vm)[:, None]
    rows, passed = [], True
    for t in map(float, ts):
        K = _kernel_block(phi, lam, t)
        mass = K @ vm
        lo, hi = float(K.min()), float(K.max())
        scale = max(hi, -lo)
        low_diag, high_mass = float(np.diagonal(K).min()), float(mass.max())
        if zeros:  # min and max keep their first argument when it is NaN
            lo, low_diag, high_mass = min(lo, 0.0), min(low_diag, 0.0), max(high_mass, 0.0)
        C = _kernel_block(phi, lam, t / 2.0)
        C *= sv  # C = V^{1/2} K(t/2), so C^T C = K(t/2) V K(t/2)
        semi = C.T @ C
        del C
        semi -= K
        row = {
            "t": t,
            "min_entry": lo,
            "min_diagonal": low_diag,
            "max_mass": high_mass,
            "semigroup_residual": float(np.abs(semi, out=semi).max()),
        }
        del K, semi
        rows.append(row)
        # below the smallest normal float rounding is absolute, so both
        # bounds also allow that much (K underflows for t lambda_1 > ~708)
        ok = (row["min_entry"] >= -1e-12 * scale - _TINY
              and row["semigroup_residual"] <= 1e-10 * scale + _TINY)
        if closed:
            ok = ok and abs(row["max_mass"] - 1.0) <= 1e-10 and abs(float(mass.min()) - 1.0) <= 1e-10
        else:
            ok = ok and row["max_mass"] <= 1.0 + 1e-10
        passed = passed and ok
    return rows, passed


def heat_solve(
    g: WeightedGraph, f0: VertexFunction, t: float, mode: str | None = None
) -> VertexFunction:
    """u(., t) = e^{-t Lap} f0 (f0 masked to zero on the boundary first)."""
    if t < 0:
        raise GraphError("t must be nonnegative")
    if mode is None:
        mode = "dirichlet" if g.boundary else "closed"
    d = spectral_decomposition(g, mode)
    vals = f0.values * g.interior_mask if mode == "dirichlet" else f0.values
    coef = d.eigenfunctions.T @ (vals * g.vmeasure)
    u = d.eigenfunctions @ (np.exp(-t * d.eigenvalues) * coef)
    return VertexFunction(g, u)


def heat_residual(
    g: WeightedGraph, f0: VertexFunction, t: float, h: float = 1e-5
) -> float:
    """sup over interior vertices of |u_t + Lap u| by centered differences."""
    up = heat_solve(g, f0, t + h)
    um = heat_solve(g, f0, t - h)
    u = heat_solve(g, f0, t)
    ut = (up.values - um.values) / (2.0 * h)
    res = ut + laplacian_apply(g, u).values
    return float(np.max(np.abs(res[g.interior_mask]), initial=0.0))


def exhaustion_check(
    g: WeightedGraph, chain: Sequence, probes: Sequence[tuple]
) -> dict:
    """K_{A_i}(x,y,t) for nested interior sets A_1 c ... c A_k.

    Each A_i induces the graph with boundary = everything outside A_i; the
    table must be non-decreasing in i and bounded by the kernel of g itself.
    """
    sets = [set(a) for a in chain]
    for a, b in zip(sets, sets[1:]):
        if not a.issubset(b):
            raise GraphError("chain must be nested")
    interior = {g.vertices[i] for i in range(g.n) if g.interior_mask[i]}
    for a in sets:
        if not a.issubset(interior):
            raise GraphError("chain sets must be interior")
    for x, y, _ in probes:
        if x not in sets[0] or y not in sets[0]:
            raise GraphError("probes must lie in the first chain set")
    table = []
    for a in sets:
        sub = with_boundary(g, [v for v in g.vertices if v not in a])
        ker = heat_kernel(sub, "dirichlet")
        table.append([ker.evaluate(x, y, t) for (x, y, t) in probes])
    full = heat_kernel(g)
    limit = [full.evaluate(x, y, t) for (x, y, t) in probes]
    rows = np.array(table)
    monotone = bool(np.all(np.diff(rows, axis=0) >= -1e-12))
    bounded = bool(np.all(rows <= np.array(limit)[None, :] + 1e-12))
    return {"table": rows, "limit": limit, "monotone": monotone, "bounded": bounded}


# -- Nash-method decay -----------------------------------------------------------


def nash_diagonal_bound(
    g: WeightedGraph,
    nu: float,
    mode: str | None = None,
    t_grid: np.ndarray | None = None,
    **iso_kw,
) -> dict:
    """G(x,x,t) <= C2 t^{-nu/2} with C2 = (nu/2)^{nu/2} C1^{-nu}.

    Open (Dirichlet) case: G = K and C1 = I_nu rho_sup^{-1/2}/2.  Closed
    case: G = K - 1/V(G) and the shifted constant I~_nu enters with the
    relaxation factor gamma = 2, i.e. C1 = 2^{-2/nu} I~_nu rho_sup^{-1/2}/2.
    """
    if nu <= 2:
        raise GraphError("nu > 2 required")
    if mode is None:
        mode = "dirichlet" if g.boundary else "closed"
    rho = half_degrees(g).rho_sup
    if mode == "dirichlet":
        I = iso_constant(g, nu, "open", **iso_kw).value
        gamma = 1.0
    else:
        I = iso_constant(g, nu, "tilde", **iso_kw).value
        gamma = 2.0
    if I <= 0:
        return {"applicable": False, "reason": "iso constant vanishes"}
    C1 = gamma ** (-2.0 / nu) * I / (2.0 * math.sqrt(rho))
    C2 = (nu / 2.0) ** (nu / 2.0) * C1 ** (-nu)
    ker = heat_kernel(g, mode)
    if t_grid is None:
        t_grid = default_t_grid()
    worst = -math.inf
    shift = 1.0 / g.total_measure() if mode == "closed" else 0.0
    for t in t_grid:
        diag = ker.diagonal(t) - shift
        worst = max(worst, float(np.max(diag[g.interior_mask]) * t ** (nu / 2.0)))
    return {
        "applicable": True,
        "C2": C2,
        "max_scaled_diag": worst,
        "passed": worst <= C2 + 1e-9,
    }


def eigenvalue_lower_bounds(g: WeightedGraph, nu: float, **iso_kw) -> dict:
    """lambda_k >= (k/V(G))^{2/nu} 2^{-4/nu} (I~_nu rho_sup^{-1/2}/2)^2 / e."""
    if nu <= 2:
        raise GraphError("nu > 2 required")
    if not g.is_closed:
        raise GraphError("closed graphs only")
    I = iso_constant(g, nu, "tilde", **iso_kw).value
    rho = half_degrees(g).rho_sup
    vol = g.total_measure()
    base = 2.0 ** (-4.0 / nu) * (I / (2.0 * math.sqrt(rho))) ** 2 / math.e
    ks = np.arange(1, g.n)
    bounds = (ks / vol) ** (2.0 / nu) * base
    lams = eigenvalues(g, "closed")[1:]
    return {
        "k": ks,
        "bounds": bounds,
        "eigenvalues": lams,
        "sound": bool(np.all(bounds <= lams + 1e-9)),
    }


# -- generalized phi-decay --------------------------------------------------------


@dataclass
class DecayProfile:
    """phi nondecreasing positive; F(x) = int_x^inf phi(4/u)^2 du/u; C = 1/(32 rho)."""

    phi: Callable[[float], float]
    C: float
    power: float | None = None  # nu when phi(x) = x^(1/nu); closed-form F

    def F(self, x: float) -> float:
        if x <= 0:
            raise GraphError("F is defined for x > 0")
        if self.power is not None:
            nu = self.power
            return 4.0 ** (2.0 / nu) * (nu / 2.0) * x ** (-2.0 / nu)
        from scipy.integrate import quad

        # substitute u = e^s: F(x) = int_{log x}^inf phi(4 e^{-s})^2 ds
        val, _ = quad(
            lambda s: self.phi(4.0 * math.exp(-s)) ** 2,
            math.log(x),
            np.inf,
            epsrel=1e-12,
            epsabs=0.0,
            limit=400,
        )
        return val

    def F_inverse(self, y: float) -> float:
        if self.power is not None:
            nu = self.power
            return (4.0 ** (2.0 / nu) * (nu / 2.0) / y) ** (nu / 2.0)
        lo, hi = 1.0, 1.0
        while self.F(hi) > y:
            hi *= 2.0
            if hi > 1e300:
                raise GraphError("F never drops below the requested value")
        while self.F(lo) < y:
            lo /= 2.0
            if lo < 1e-300:
                raise GraphError("F inverse out of range")
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if self.F(mid) > y:
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)


def power_profile(g: WeightedGraph, nu: float) -> DecayProfile:
    rho = half_degrees(g).rho_sup
    return DecayProfile(lambda x: x ** (1.0 / nu), 1.0 / (32.0 * rho), power=nu)


def hypothesis_audit(g: WeightedGraph, phi: Callable[[float], float], force=False) -> dict:
    """Check A(boundary Omega) >= V(Omega)/phi(V(Omega)) over admissible sets."""
    pool = sum(1 << int(i) for i in g.interior_indices())
    if pool == 0:
        raise GraphError("no interior vertices")
    if pool.bit_count() > DEFAULT_CAP and not force:
        raise GraphError("interior too large to audit; pass force=True")
    table = _subset_table(g, pool)
    mass = table["mass"]
    phis = np.fromiter(map(phi, mass.tolist()), float, len(mass))
    failing = np.flatnonzero(table["area"] + 1e-12 < mass / phis)
    if failing.size:  # the first failing row: the smallest sets come first
        wit = AdmissibleSet.of_mask(g, int(table["mask"][failing[0]]))
        return {"ok": False, "witness": wit.vertices, "area": wit.area, "vmass": wit.vmass}
    return {"ok": True}


def general_decay_bound(
    g: WeightedGraph, profile: DecayProfile, probes: Sequence[tuple], force=False
) -> dict:
    """K(x,x,t) <= F^{-1}(C t) under the hypothesis A >= V/phi(V)."""
    if not g.boundary:
        raise GraphError("the decay estimate needs a nonempty boundary")
    audit = hypothesis_audit(g, profile.phi, force=force)
    if not audit["ok"]:
        return {"hypothesis": audit, "passed": False}
    ker = heat_kernel(g, "dirichlet")
    rows = []
    ok = True
    for x, t in probes:
        lhs = ker.evaluate(x, x, t)
        rhs = profile.F_inverse(profile.C * t)
        rows.append((x, t, lhs, rhs))
        ok = ok and lhs <= rhs + 1e-9
    return {"hypothesis": audit, "rows": rows, "passed": ok}


# -- uniqueness artifacts ----------------------------------------------------------


def nonuniqueness_tree(alpha: float, depth: int) -> tuple[list, dict]:
    """Radial profile of a bounded nonzero caloric function u = e^t f on the
    growing-degree tree with n_i = floor(i^(1+alpha)) children at level i.

    f(1) = 1, f(2) = (1+n_1)/n_1, and Lap f = -f forces
    f(i+1) = [(2+n_i) f(i) - f(i-1)] / n_i; the values are exact rationals.
    On the level-quotient path, (Lap f)(i) = (f(i)-f(i-1)) + n_i (f(i)-f(i+1)).
    """
    if alpha <= 0:
        raise GraphError("alpha must be positive")
    if depth < 3:
        raise GraphError("depth must be at least 3")
    nseq = [math.floor(i ** (1.0 + alpha)) for i in range(1, depth)]
    f = [Fraction(1), Fraction(1 + nseq[0], nseq[0])]
    for i in range(2, depth):
        ni = nseq[i - 1]
        f.append(((2 + ni) * f[-1] - f[-2]) / ni)
    # exact interior residual of (Lap f + f) on the quotient path
    residuals = [abs((f[0] - f[1]) * nseq[0] + f[0])]
    for i in range(1, depth - 1):
        lap = (f[i] - f[i - 1]) + nseq[i] * (f[i] - f[i + 1])
        residuals.append(abs(lap + f[i]))
    increasing = all(f[i] < f[i + 1] for i in range(depth - 1))
    bound = f[1]
    for ni in nseq[1:]:
        bound *= 1 + Fraction(2, ni)
    report = {
        "n": nseq,
        "residual": float(max(residuals)),
        "increasing": increasing,
        "bounded": f[-1] <= bound,
        "product_bound": float(bound),
        "sup_norm_growth": [float(f[-1]) * math.exp(t) for t in (0.0, 1.0, 2.0)],
    }
    return f, report


def finite_uniqueness_check(
    g: WeightedGraph, trials: int = 5, seed: int = 0, t0: float = 0.5
) -> dict:
    """Energy monotonicity d/dt int u^2 dV = -2 ||grad u||_2^2 and the
    degenerate consequences (zero data stays zero; kernel positivity)."""
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst = 0.0
    for _ in range(trials):
        f0 = VertexFunction(g, rng.standard_normal(g.n))
        up = heat_solve(g, f0, t0 + h)
        um = heat_solve(g, f0, t0 - h)
        u = heat_solve(g, f0, t0)
        dE = (np.sum(up.values**2 * g.vmeasure) - np.sum(um.values**2 * g.vmeasure)) / (
            2.0 * h
        )
        expect = -2.0 * grad_lp_norm(u, 2) ** 2
        worst = max(worst, abs(dE - expect) / (1.0 + abs(expect)))
    zero = heat_solve(g, VertexFunction(g, np.zeros(g.n)), t0)
    zero_ok = float(np.max(np.abs(zero.values), initial=0.0)) <= 1e-12
    ker = heat_kernel(g)
    diag_pos = True
    interior = g.interior_indices()
    if len(interior):
        # strict positivity only holds within a connected component of the
        # interior; across components the Dirichlet kernel vanishes
        comp = -np.ones(g.n, dtype=int)
        label = 0
        for start in interior:
            if comp[start] >= 0:
                continue
            stack = [int(start)]
            comp[start] = label
            while stack:
                i = stack.pop()
                for j in g.neighbors(i):
                    if g.interior_mask[j] and comp[j] < 0:
                        comp[j] = label
                        stack.append(j)
            label += 1
        K = ker.matrix(t0)[np.ix_(interior, interior)]
        c = comp[interior]
        same = c[:, None] == c[None, :]
        diag_pos = bool(np.all(np.where(same, K > 0, np.abs(K) <= 1e-12)))
    return {"energy_residual": worst, "zero_stays_zero": zero_ok, "positivity": diag_pos}
