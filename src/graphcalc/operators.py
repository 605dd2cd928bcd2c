"""Divergence, Laplacian, and spectral decompositions.

The Laplacian acts on vertex values by

    (Lap f)(v) = V(v)^-1 sum_{e ~ {u,v}} a_e (f(v) - f(u)) / l_e

(self-loops drop out), which is V-symmetric and nonnegative.  Eigensolves go
through the similarity-symmetrized matrix S = V^{1/2} M V^{-1/2}, dense:
``eigenvalues`` solves for eigenvalues only, ``spectral_decomposition`` also
for eigenfunctions, with a deterministic sign convention so reports are
reproducible.  Both keep their read-only results in the graph's memo
(``WeightedGraph.memo``), so each graph and mode is solved at most once per
routine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GraphError, WeightedGraph
from .functions import VertexFunction

__all__ = [
    "EdgeField",
    "SpectralDecomposition",
    "laplacian_matrix",
    "laplacian_apply",
    "divergence",
    "normal_flux",
    "spectral_decomposition",
    "eigenvalues",
    "operator_norm_report",
    "OperatorNormReport",
]

MAX_DENSE = 2000


@dataclass
class EdgeField:
    """Edgewise-constant vector field: signed magnitude per stored edge.

    X_e > 0 points along the stored orientation u -> v; at the head v the
    outward normal satisfies n_{e,v} . X = +X_e, at the tail -X_e.  Self-loop
    entries are ignored by the divergence.  Like a VertexFunction, the values
    may be a block of shape (m, B), one field per column.
    """

    graph: WeightedGraph
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (1, 2) or self.values.shape[0] != len(self.graph.edges):
            raise GraphError("field length does not match edge count")


def _per_row(w: np.ndarray, values: np.ndarray) -> np.ndarray:
    """w, one weight per vertex or edge, shaped to scale every column of values."""
    return w.reshape(w.shape + (1,) * (values.ndim - 1))


def gradient_field(f: VertexFunction) -> EdgeField:
    """grad f as an EdgeField: (f(v) - f(u))/l_e along u -> v."""
    g = f.graph
    d = (f.values[g.ev] - f.values[g.eu]) / _per_row(g.elen, f.values)
    d[g.loop_mask] = 0.0
    return EdgeField(g, d)


def normal_flux(X: EdgeField) -> VertexFunction:
    """(n~ . X)(v) = V(v)^-1 sum_e a_e n_{e,v} . X|_e(v)  (net inflow)."""
    g = X.graph
    acc = np.zeros((g.n,) + X.values.shape[1:])
    mask = ~g.loop_mask
    w = _per_row(g.ea[mask], X.values) * X.values[mask]
    np.add.at(acc, g.ev[mask], w)
    np.add.at(acc, g.eu[mask], -w)
    return VertexFunction(g, acc / _per_row(g.vmeasure, acc))


def divergence(g: WeightedGraph, X: EdgeField) -> VertexFunction:
    """div X = -(n~ . X): positive where the field leaves the vertex."""
    nf = normal_flux(X)
    return VertexFunction(g, -nf.values)


def laplacian_matrix(g: WeightedGraph, mode: str = "closed") -> tuple[np.ndarray, np.ndarray]:
    """(M, idx): the Laplacian matrix over the selected vertices.

    mode "closed" keeps every vertex; "dirichlet" restricts rows and columns
    to the interior (the boundary condition).  idx maps matrix rows back to
    vertex indices.
    """
    if mode == "closed":
        idx = np.arange(g.n)
    elif mode == "dirichlet":
        idx = g.interior_indices()
        if len(idx) == 0:
            raise GraphError("dirichlet mode needs a nonempty interior")
    else:
        raise GraphError(f"unknown mode {mode!r}")
    pos = -np.ones(g.n, dtype=int)
    pos[idx] = np.arange(len(idx))
    keep = ~g.loop_mask
    i, j = pos[g.eu[keep]], pos[g.ev[keep]]
    w = g.ea[keep] / g.elen[keep]
    nr = len(idx)
    W = np.zeros(nr * nr)  # row-major, so entry (r, c) sits at r * nr + c
    # np.add.at sums in index order, and the index lists below run edge by
    # edge, so every entry adds its terms in stored edge order.  Diagonal:
    # each endpoint kept by idx gains w; off-diagonal: edges inside idx only.
    d = np.column_stack([i, j]).ravel()
    on = d >= 0
    np.add.at(W, d[on] * (nr + 1), np.repeat(w, 2)[on])
    both = (i >= 0) & (j >= 0)
    i, j = i[both], j[both]
    np.add.at(W, np.column_stack([i * nr + j, j * nr + i]).ravel(), -np.repeat(w[both], 2))
    W = W.reshape(nr, nr)
    M = W / g.vmeasure[idx][:, None]
    return M, idx


def laplacian_apply(g: WeightedGraph, f: VertexFunction) -> VertexFunction:
    acc = np.zeros(f.values.shape)
    mask = ~g.loop_mask
    w = _per_row(g.ea[mask] / g.elen[mask], f.values)
    d = f.values[g.eu[mask]] - f.values[g.ev[mask]]
    np.add.at(acc, g.eu[mask], w * d)
    np.add.at(acc, g.ev[mask], -w * d)
    return VertexFunction(g, acc / _per_row(g.vmeasure, acc))


@dataclass
class SpectralDecomposition:
    graph: WeightedGraph
    mode: str  # "closed" | "dirichlet"
    eigenvalues: np.ndarray  # ascending
    # eigenfunctions as columns of an n-by-k array over ALL vertices
    # (zero on the boundary in dirichlet mode), V-orthonormal
    eigenfunctions: np.ndarray

    def eigenfunction(self, i: int) -> VertexFunction:
        return VertexFunction(self.graph, self.eigenfunctions[:, i])

    @property
    def k(self) -> int:
        return len(self.eigenvalues)


def _symmetrized(g: WeightedGraph, mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, idx, s): S = V^{1/2} M V^{-1/2} made exactly symmetric, s = V^{1/2} on idx.

    Every weight may be finite while a sum overflows, so S must be finite
    or the solve returns inf or NaN.  S + S.T doubles each diagonal entry
    L(v) before halving it, and the spectrum lies in [0, 2 max L], so a
    finite S also keeps the eigenvalues finite.
    """
    if g.n > MAX_DENSE:
        raise GraphError(f"dense eigensolve capped at {MAX_DENSE} vertices")
    with np.errstate(over="ignore", invalid="ignore"):
        M, idx = laplacian_matrix(g, mode)
        s = np.sqrt(g.vmeasure[idx])
        S = M * (s[:, None] / s[None, :])
        S = (S + S.T) / 2.0
    if not np.isfinite(S).all():
        raise GraphError("Laplacian overflows: a vertex's sum of a_e/l_e over its "
                         "measure, or twice it, is not finite")
    return S, idx, s


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _eigenvalue_array(evals: np.ndarray, mode: str) -> np.ndarray:
    """Read-only eigenvalues; in closed mode rounding below 0 is clamped to 0."""
    return _frozen(np.maximum(evals, 0.0) if mode == "closed" else evals)


def eigenvalues(g: WeightedGraph, mode: str = "closed") -> np.ndarray:
    """Ascending Laplacian eigenvalues, without eigenvectors (read-only array).

    One eigvalsh, kept in the graph's memo; when the full decomposition was
    solved first, its eigenvalues are served instead.  Both come from the
    same S, but the two LAPACK routines may differ in the last bits.
    """
    return g.memo(("eigenvalues", mode), lambda: _eigenvalue_array(
        np.linalg.eigvalsh(_symmetrized(g, mode)[0]), mode))


def _decompose(g: WeightedGraph, mode: str) -> SpectralDecomposition:
    S, idx, s = _symmetrized(g, mode)
    evals, Y = np.linalg.eigh(S)
    # map back: phi = V^{-1/2} y is V-orthonormal when y is orthonormal
    phi = Y / s[:, None]
    # deterministic sign: first coordinate exceeding a relative threshold positive
    thr = 1e-12 * np.abs(phi).max(axis=0)
    first = np.argmax(np.abs(phi) > thr, axis=0)
    flip = phi[first, np.arange(phi.shape[1])] < 0
    phi[:, flip] = -phi[:, flip]
    full = np.zeros((g.n, phi.shape[1]))
    full[idx, :] = phi
    evals = _eigenvalue_array(evals, mode)
    g.memo(("eigenvalues", mode), lambda: evals)  # unless eigenvalues solved first
    return SpectralDecomposition(g, mode, evals, _frozen(full))


def spectral_decomposition(
    g: WeightedGraph, mode: str = "closed", k: int | None = None
) -> SpectralDecomposition:
    """Full eigendecomposition, kept in the graph's memo per mode; arrays are read-only."""
    dec = g.memo(("spectral", mode), lambda: _decompose(g, mode))
    if k is None:
        return dec
    return SpectralDecomposition(g, mode, dec.eigenvalues[:k], dec.eigenfunctions[:, :k])


@dataclass
class OperatorNormReport:
    L_sup: float
    rayleigh_max: float  # largest eigenvalue = ||Lap|| on a finite graph

    @property
    def sandwich_holds(self) -> bool:
        lo, hi = self.L_sup, 2.0 * self.L_sup
        eps = 1e-9 * (1.0 + hi)
        return lo - eps <= self.rayleigh_max <= hi + eps


def operator_norm_report(g: WeightedGraph) -> OperatorNormReport:
    """L_sup together with the top Dirichlet eigenvalue; L_sup <= ||Lap|| <= 2 L_sup."""
    from .graph import L_stats

    stats = L_stats(g)
    mode = "dirichlet" if g.boundary else "closed"
    return OperatorNormReport(stats.sup, float(eigenvalues(g, mode)[-1]))
