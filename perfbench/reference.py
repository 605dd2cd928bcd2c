"""Reference computations made apart from graphcalc, and the output checks.

Everything here reads the graph documents directly and uses numpy and scipy
only: brute-force minima over all admissible vertex subsets from bitmask
tables, generalized eigensolves, matrix exponentials, exact rational
magnifications and Gauss-Legendre quadrature.  Nothing is compared against
output stored from an earlier run of graphcalc.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import scipy.linalg as sla

REL = 1e-9  # relative agreement required between graphcalc and a reference


class DocGraph:
    """A graph document as index arrays."""

    def __init__(self, doc: dict):
        verts = doc["vertices"]
        self.ids = [v["id"] for v in verts]
        self.index = {vid: i for i, vid in enumerate(self.ids)}
        self.n = len(self.ids)
        self.V = np.array([float(v["measure"]) for v in verts])
        self.boundary = np.array([bool(v["boundary"]) for v in verts])
        self.closed = not self.boundary.any()
        edges = doc["edges"]
        self.u = np.array([self.index[e["u"]] for e in edges], dtype=np.int64)
        self.v = np.array([self.index[e["v"]] for e in edges], dtype=np.int64)
        self.a = np.array([float(e["a"]) for e in edges])
        self.l = np.array([float(e["length"]) for e in edges])
        self.m = len(edges)
        self._tables = None

    def rho_sup(self) -> float:
        """max over v of V(v)^-1 * sum of E(e)/2 over incident edges (a loop once)."""
        acc = np.zeros(self.n)
        for k in range(self.m):
            half = self.a[k] * self.l[k] / 2.0
            acc[self.u[k]] += half
            if self.u[k] != self.v[k]:
                acc[self.v[k]] += half
        return float((acc / self.V).max())

    def rows(self, mode: str) -> np.ndarray:
        if mode == "closed":
            return np.arange(self.n)
        return np.nonzero(~self.boundary)[0]

    def conductance_matrix(self, mode: str) -> np.ndarray:
        """W with W[i,i] = sum a/l at i and W[i,j] = -sum a/l over edges i-j,
        restricted to the interior rows and columns in Dirichlet mode."""
        W = np.zeros((self.n, self.n))
        for k in range(self.m):
            i, j = self.u[k], self.v[k]
            if i == j:
                continue
            w = self.a[k] / self.l[k]
            W[i, i] += w
            W[j, j] += w
            W[i, j] -= w
            W[j, i] -= w
        r = self.rows(mode)
        return W[np.ix_(r, r)]

    def eigenvalues(self, mode: str) -> np.ndarray:
        """Ascending eigenvalues of W x = lambda diag(V) x."""
        W = self.conductance_matrix(mode)
        return sla.eigh(W, np.diag(self.V[self.rows(mode)]), eigvals_only=True)

    def tables(self) -> "SubsetTables":
        if self._tables is None:
            self._tables = SubsetTables(self)
        return self._tables


# -- bitmask tables -------------------------------------------------------------


def byte_tables(weights) -> list:
    """One 256-entry table per byte of a bitmask: table[c][x] is the sum of
    the weights of the bits set in byte c of the mask equal to x."""
    w = np.asarray(weights, dtype=float)
    x = np.arange(256)
    out = []
    for c in range(0, len(w), 8):
        chunk = w[c:c + 8]
        bits = (x[:, None] >> np.arange(len(chunk))[None, :]) & 1
        out.append(bits @ chunk)
    return out


def table_sum(tables, masks: np.ndarray) -> np.ndarray:
    out = np.zeros(masks.shape)
    for c, t in enumerate(tables):
        out += t[(masks >> (8 * c)) & 255]
    return out


class SubsetTables:
    """Area, mass and complement mass of every subset of the free vertices.

    The free vertices are the interior (every vertex of a closed graph).  The
    complement's mass is summed from its own vertices, not as total - mass.
    """

    def __init__(self, g: DocGraph):
        self.g = g
        self.pool = np.nonzero(~g.boundary)[0]
        k = len(self.pool)
        sub = np.arange(1 << k, dtype=np.int64)
        full = np.zeros(1 << k, dtype=np.int64)
        for b, i in enumerate(self.pool):
            full |= ((sub >> b) & 1) << int(i)
        self.vmask = full
        self.all = (1 << g.n) - 1
        vt = byte_tables(g.V)
        self.mass = table_sum(vt, full)
        self.comass = table_sum(vt, self.all ^ full)
        self.area = np.zeros(1 << k)
        for e in range(g.m):
            i, j = int(g.u[e]), int(g.v[e])
            if i != j:
                self.area += g.a[e] * (((full >> i) ^ (full >> j)) & 1)
        self._gmass = None

    def iso(self, nu: float, variant: str) -> float:
        """Brute-force I_nu (open) or I~_nu / I~'_nu (closed) over all subsets."""
        valid = self.vmask != 0
        if variant != "open":
            valid &= self.vmask != self.all
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = quotient(self.area, self.mass, self.comass, nu, variant)
        return float(vals[valid].min())

    def magnification(self) -> float:
        """min over nonempty A (V(A) <= V(G)/2 when closed) of V(Gamma A)/V(A) - 1."""
        if self._gmass is None:
            nbr = neighbor_masks(self.g)
            gam = np.zeros(len(self.vmask), dtype=np.int64)
            for b, i in enumerate(self.pool):
                gam[1 << b: 1 << (b + 1)] = gam[: 1 << b] | nbr[i]
            self._gmass = table_sum(byte_tables(self.g.V), gam)
        valid = self.vmask != 0
        if self.g.closed:
            valid &= self.mass <= self.comass + 1e-12 * (self.mass + self.comass)
        return float((self._gmass[valid] / self.mass[valid]).min() - 1.0)


def neighbor_masks(g: DocGraph) -> list:
    nbr = [0] * g.n
    for k in range(g.m):
        i, j = int(g.u[k]), int(g.v[k])
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    return nbr


def quotient(area, mass, comass, nu: float, variant: str):
    if variant == "open":
        return area / mass if nu == math.inf else area / mass ** (1.0 - 1.0 / nu)
    small = np.minimum(mass, comass)
    if nu == math.inf:
        return area / small
    if variant == "tilde":
        return area * small ** (1.0 / nu - 1.0)
    return area * (mass ** (1.0 - nu) + comass ** (1.0 - nu)) ** (1.0 / nu)


def set_quotient(g: DocGraph, ids, nu: float, variant: str) -> float:
    """The isoperimetric quotient of one vertex set, from its own vertices."""
    inside = np.zeros(g.n, dtype=bool)
    inside[[g.index[x] for x in ids]] = True
    cut = (inside[g.u] != inside[g.v]) & (g.u != g.v)
    return float(quotient(float(g.a[cut].sum()), float(g.V[inside].sum()),
                          float(g.V[~inside].sum()), nu, variant))


def set_ratio(g: DocGraph, ids) -> Fraction:
    """V(Gamma(B))/V(B) - 1 for a vertex set B, exactly."""
    nbr = neighbor_masks(g)
    gm = 0
    for x in ids:
        gm |= nbr[g.index[x]]
    num = sum(Fraction(float(g.V[i])) for i in range(g.n) if gm >> i & 1)
    den = sum(Fraction(float(g.V[g.index[x]])) for x in ids)
    return num / den - 1


def set_magnification(g: DocGraph, ids) -> Fraction:
    """min over nonempty B within A of V(Gamma(B))/V(B) - 1, exactly."""
    pos = [g.index[x] for x in ids]
    k = len(pos)
    nbr = neighbor_masks(g)
    gam = np.zeros(1 << k, dtype=np.int64)
    mass = np.zeros(1 << k)
    for b, i in enumerate(pos):
        gam[1 << b: 1 << (b + 1)] = gam[: 1 << b] | nbr[i]
        mass[1 << b: 1 << (b + 1)] = mass[: 1 << b] + g.V[i]
    ratio = table_sum(byte_tables(g.V), gam)[1:] / mass[1:]
    near = np.nonzero(ratio <= ratio.min() * (1 + 1e-9))[0] + 1
    return min(set_ratio(g, [ids[b] for b in range(k) if s >> b & 1]) for s in near)


# -- checks of one command's output -----------------------------------------------


def close(x: float, ref: float, scale: float = 1.0, rel: float = REL) -> bool:
    return abs(x - ref) <= rel * max(scale, abs(ref), 1e-300)


def check_iso(g: DocGraph, out: dict, argv: list) -> list:
    nu = float(_opt(argv, "--nu", "inf"))
    variant = _opt(argv, "--variant", "tilde" if g.closed else "open")
    errs = []
    ref = g.tables().iso(nu, variant)
    if not close(out["value"], ref):
        errs.append(f"I({nu},{variant}) = {out['value']!r}, brute force {ref!r}")
    wit = out["witness"] or []
    if not _admissible(g, wit, variant):
        errs.append(f"witness {wit} is not admissible")
    elif not close(set_quotient(g, wit, nu, variant), out["value"]):
        errs.append("witness quotient differs from the value")
    if "--magnification" in argv:
        ref = g.tables().magnification()
        if not close(out["magnification"], ref):
            errs.append(f"magnification {out['magnification']!r}, brute force {ref!r}")
        mw = out["magnification_witness"] or []
        if not mw or any(g.boundary[g.index[x]] for x in mw):
            errs.append("magnification witness is not admissible")
        elif not close(float(set_ratio(g, mw)), out["magnification"]):
            errs.append("magnification witness ratio differs from the value")
    return errs


def _admissible(g: DocGraph, ids, variant: str) -> bool:
    if not ids or any(g.boundary[g.index[x]] for x in ids):
        return False
    return variant == "open" or len(set(ids)) < g.n


def check_bounds(g: DocGraph, out: dict, argv: list) -> list:
    mode = "closed" if g.closed else "dirichlet"
    ev = g.eigenvalues(mode)
    lam = float(ev[1] if mode == "closed" else ev[0])
    errs = []
    if out["mode"] != mode or not close(out["lambda"], lam, float(ev[-1])):
        errs.append(f"lambda {out['lambda']!r}, generalized eigensolve {lam!r}")
    for name in ("dodziuk", "mohar", "alon", "bobkov"):
        b = out[name]
        if b["applicable"] and b["value"] > lam + REL * (1.0 + lam):
            errs.append(f"{name} bound {b['value']!r} exceeds lambda {lam!r}")
    I = g.tables().iso(math.inf, "tilde" if g.closed else "open")
    dodziuk = I * I / (4.0 * g.rho_sup())
    if not close(out["dodziuk"]["value"], dodziuk):
        errs.append(f"dodziuk {out['dodziuk']['value']!r}, I^2/(4 rho_sup) = {dodziuk!r}")
    return errs


def check_flow(g: DocGraph, out: dict, argv: list) -> list:
    A = _opt(argv, "--set", "").split(",")
    errs = []
    c = set_magnification(g, A)
    if sorted(out["A"]) != sorted(A) or out["c"] != float(c):
        errs.append(f"c = {out['c']!r}, exact magnification of A {float(c)!r}")
    X = np.array(out["field"], dtype=float)
    inflow = np.zeros(g.n)  # -div X scaled by V: net a_e X_e arriving
    arriving = np.zeros(g.n)
    loop = g.u == g.v
    w = np.where(loop, 0.0, g.a * X)
    np.add.at(inflow, g.v, w)
    np.add.at(inflow, g.u, -w)
    np.add.at(arriving, g.u, np.where(w > 0, w, 0.0))
    np.add.at(arriving, g.v, np.where(w < 0, -w, 0.0))
    inA = np.zeros(g.n, dtype=bool)
    inA[[g.index[x] for x in A]] = True
    tol = 1e-12 * (1.0 + float(np.abs(w).sum()))
    if np.abs(X[~loop]).max(initial=0.0) > 1.0 + tol:
        errs.append("some |X_e| exceeds 1")
    if np.any(inflow[inA] < out["c"] * g.V[inA] - tol):
        errs.append("-div X < c somewhere on A")
    if np.any(inflow[~inA] > tol):
        errs.append("-div X > 0 somewhere off A")
    if np.any(arriving > g.V + tol):
        errs.append("inflow exceeds V somewhere")
    if not out["passed"]:
        errs.append("graphcalc reports a failed field check")
    return errs


def check_spectrum(g: DocGraph, out: dict, argv: list) -> list:
    mode = "closed" if g.closed else "dirichlet"
    ev = g.eigenvalues(mode)
    k = int(_opt(argv, "-k", str(len(ev))))
    got = np.array(out["eigenvalues"], dtype=float)
    if out["mode"] != mode or len(got) != k:
        return [f"mode {out['mode']} or count {len(got)} wrong"]
    worst = float(np.abs(got - ev[:k]).max())
    if worst > REL * float(ev[-1]):
        return [f"eigenvalues differ by {worst!r} (lambda_max {float(ev[-1])!r})"]
    return []


def heat_rows(g: DocGraph, times) -> list:
    """min_entry, min_diagonal, max_mass of K(t) from scipy.linalg.expm(-t M).

    K(x, y, t) = expm(-t M)[x, y] / V(y), with M = diag(V)^-1 W; in Dirichlet
    mode K vanishes on boundary rows and columns.  Each listed time is an
    integer multiple r of the previous one, and expm(-r t M) is taken as the
    r-th matrix power of expm(-t M) (the semigroup law), which saves a full
    expm per time.
    """
    mode = "closed" if g.closed else "dirichlet"
    r = g.rows(mode)
    M = g.conductance_matrix(mode) / g.V[r][:, None]
    pad = len(r) < g.n
    rows, E, prev = [], None, None
    for t in times:
        if E is None:
            E = sla.expm(-t * M)
        else:
            ratio = round(t / prev)
            if not math.isclose(ratio * prev, t):
                raise ValueError("heat times must be integer multiples of each other")
            E = np.linalg.matrix_power(E, ratio)
        prev = t
        K = E / g.V[r][None, :]
        min_entry, min_diag = float(K.min()), float(np.diag(K).min())
        if pad:
            min_entry, min_diag = min(min_entry, 0.0), min(min_diag, 0.0)
        rows.append({"t": t, "min_entry": min_entry, "min_diagonal": min_diag,
                     "max_mass": float(E.sum(axis=1).max()), "scale": float(np.abs(K).max())})
    return rows


def check_heat(g: DocGraph, out: dict, argv: list) -> list:
    grid = out["grid"]
    ref = heat_rows(g, [row["t"] for row in grid])
    errs = [] if out["passed"] else ["graphcalc reports a failed heat check"]
    for got, want in zip(grid, ref):
        for key in ("min_entry", "min_diagonal"):
            if abs(got[key] - want[key]) > 1e-8 * want["scale"]:
                errs.append(f"t={got['t']}: {key} {got[key]!r}, expm {want[key]!r}")
        if abs(got["max_mass"] - want["max_mass"]) > 1e-9:
            errs.append(f"t={got['t']}: max_mass {got['max_mass']!r}, expm {want['max_mass']!r}")
    return errs


def check_info(g: DocGraph, out: dict, argv: list) -> list:
    want = {"vertices": g.n, "edges": g.m, "boundary_vertices": int(g.boundary.sum()),
            "closed": g.closed}
    errs = [f"{k} = {out[k]!r}, document has {v!r}" for k, v in want.items() if out[k] != v]
    if not close(out["total_vertex_measure"], float(g.V.sum()), rel=1e-12):
        errs.append("total vertex measure differs")
    if not close(out["rho_sup"], g.rho_sup(), rel=1e-12):
        errs.append("rho_sup differs")
    return errs


def check_verify(g: DocGraph, out: dict, argv: list) -> list:
    if out["failures"] != 0:
        return [f"suite {out['suite']} reports {out['failures']} failures"]
    return []


CHECKS = {"iso": check_iso, "bounds": check_bounds, "flow": check_flow,
          "spectrum": check_spectrum, "heat": check_heat, "info": check_info,
          "verify": check_verify}


def check_output(g: DocGraph, kind: str, argv: list, rc: int, stdout: str) -> list:
    """Problems found in one command's output; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    return CHECKS[kind](g, out, argv)


def is_known_fault(g: DocGraph, kind: str, argv: list, rc: int, stdout: str) -> bool:
    """Whether a wrong output is exactly what the closed-graph Ĩ_ν fault gives.

    graphcalc admits the whole vertex set of a closed graph as a Ĩ set when its
    complement's mass rounds to just above 0.  ``iso --variant tilde|tilde_prime``
    then reports value 0 with every vertex as the witness, and ``bounds`` a
    Dodziuk value of 0 while its lambda and every other bound stay right.  Any
    other wrong output is not this fault.
    """
    if rc != 0 or not g.closed or kind not in ("iso", "bounds"):
        return False
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    if kind == "iso":
        return ("--magnification" not in argv
                and _opt(argv, "--variant", "tilde") in ("tilde", "tilde_prime")
                and out["value"] == 0.0 and sorted(out["witness"] or []) == sorted(g.ids))
    errs = check_bounds(g, out, argv)
    return (out["dodziuk"]["value"] == 0.0 and len(errs) == 1
            and errs[0].startswith("dodziuk "))


def _opt(argv: list, flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


# -- spot checks of single functions on the verify graphs ---------------------------


def gauss_edge_norm(g: DocGraph, f: np.ndarray, p: int) -> float:
    """L^p norm of the edgewise-linear f against E by Gauss-Legendre quadrature.

    Each edge is split at the sign change of f, where |f|^p is a polynomial
    of degree p on each piece, so p//2 + 1 nodes integrate it exactly.
    """
    x, w = np.polynomial.legendre.leggauss(p // 2 + 1)
    total = 0.0
    for k in range(g.m):
        b, c = f[g.u[k]], f[g.v[k]]
        cuts = [0.0, 1.0]
        if b * c < 0:
            cuts.insert(1, b / (b - c))
        for s0, s1 in zip(cuts, cuts[1:]):
            s = s0 + (s1 - s0) * (x + 1.0) / 2.0
            total += g.a[k] * g.l[k] * (s1 - s0) / 2.0 * float(np.sum(w * np.abs(b + (c - b) * s) ** p))
    return total ** (1.0 / p)


def spot_check(doc: dict, gc, rng, draws: int = 8) -> list:
    """Test balance_point, coarea and lp_norm_edge of graphcalc (module ``gc``)
    on seeded functions over one graph, against conditions and formulas
    computed here."""
    g = DocGraph(doc)
    wg = gc.WeightedGraph.from_dict(doc)
    errs = []
    for _ in range(draws):
        vals = rng.standard_normal(g.n)
        f = gc.VertexFunction(wg, vals)
        span = float(vals.max() - vals.min())
        for p in (1.5, 2.0, 3.0):
            a = gc.balance_point(f, p)
            eps = 1e-9 * (1.0 + span)

            def h(t):
                d = vals - t
                return float(np.sum(np.sign(d) * np.abs(d) ** (p - 1.0) * g.V))

            if not (h(a - eps) >= 0.0 >= h(a + eps)):
                errs.append(f"balance_point(p={p}) misses the first-order condition")
        cut = g.u != g.v
        want = float(np.sum(g.a[cut] * np.abs(vals[g.u[cut]] - vals[g.v[cut]])))
        if not close(gc.coarea(f).integral(), want, rel=1e-10):
            errs.append("co-area integral differs from sum a_e |f(u) - f(v)|")
        for p in (1, 2, 3, 4):
            if not close(gc.lp_norm_edge(f, p), gauss_edge_norm(g, vals, p), rel=1e-10):
                errs.append(f"lp_norm_edge(p={p}) differs from Gauss-Legendre quadrature")
    return errs
