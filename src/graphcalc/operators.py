"""Divergence, Laplacian, and spectral decompositions.

The Laplacian acts on vertex values by

    (Lap f)(v) = V(v)^-1 sum_{e ~ {u,v}} a_e (f(v) - f(u)) / l_e

(self-loops drop out), which is V-symmetric and nonnegative.  Eigensolves go
through the similarity-symmetrized matrix S = V^{1/2} M V^{-1/2}, symmetric
up to rounding, of which every dense solve reads the lower triangle only:
``eigenvalues`` solves for eigenvalues only, ``spectral_decomposition`` also
for eigenfunctions, with a deterministic sign convention so reports are
reproducible.  Both keep their read-only results in the graph's memo
(``WeightedGraph.memo``), so each graph is solved at most once per routine.

The graph decides the boundary condition.  The solves run over the solved
rows, the interior vertices, which are all of a closed graph; on a graph with
boundary f vanishes on the boundary (Dirichlet), and on a closed graph, where
0 is an eigenvalue, rounding below 0 is clamped to 0.

Above SPARSE_ROWS solved rows, ``eigenvalues(g, k)`` finds the k lowest
eigenvalues of a sparse S by shift-invert Lanczos and certifies them with an
LDL^T inertia count, and the full decomposition overwrites S in place.  Both
need scipy, which is imported only then: below the threshold the dense numpy
solves are faster, and the import (about 26 MB and a quarter second) would
dominate.
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
    "default_mode",
]

MAX_DENSE = 2000
# Above this many solved rows the k lowest eigenvalues are found sparse (with
# one BLAS thread, the sparse solve overtakes the dense one between 250 and
# 300 rows) and the dense decomposition runs in place.
SPARSE_ROWS = 300


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
        if self.values.ndim not in (1, 2) or self.values.shape[0] != self.graph.m:
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


def _solved_rows(g: WeightedGraph) -> np.ndarray:
    """The interior vertex indices, every vertex of a closed graph."""
    idx = g.interior_indices()
    if len(idx) == 0:
        raise GraphError("dirichlet mode needs a nonempty interior")
    return idx


def _edge_rows(g: WeightedGraph, idx: np.ndarray):
    """(i, j, w): per non-loop edge, the rows of its endpoints (-1 off idx)
    and its conductance a_e / l_e, in stored edge order."""
    pos = -np.ones(g.n, dtype=int)
    pos[idx] = np.arange(len(idx))
    keep = ~g.loop_mask
    return pos[g.eu[keep]], pos[g.ev[keep]], g.ea[keep] / g.elen[keep]


def laplacian_matrix(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """(M, idx): the Laplacian matrix over the solved rows, the interior (the
    boundary condition).  idx maps matrix rows back to vertex indices."""
    idx = _solved_rows(g)
    i, j, w = _edge_rows(g, idx)
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
    W /= g.vmeasure[idx][:, None]
    return W, idx


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
    eigenvalues: np.ndarray  # ascending
    # eigenfunctions as columns of an n-by-k array over ALL vertices
    # (zero on the boundary), V-orthonormal
    eigenfunctions: np.ndarray

    def eigenfunction(self, i: int) -> VertexFunction:
        return VertexFunction(self.graph, self.eigenfunctions[:, i])

    @property
    def k(self) -> int:
        return len(self.eigenvalues)


def _symmetrized(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, idx, s): S = V^{1/2} M V^{-1/2}, scaled in place, s = V^{1/2} on idx.

    S is symmetric up to rounding, and every solve reads its lower triangle
    only.  Every weight may be finite while a sum overflows, so S must be
    finite and, since the spectrum lies in [0, 2 max L], so must twice its
    diagonal L(v), or the solve returns inf or NaN.
    """
    if g.n > MAX_DENSE:
        raise GraphError(f"dense eigensolve capped at {MAX_DENSE} vertices")
    with np.errstate(over="ignore", invalid="ignore"):
        S, idx = laplacian_matrix(g)
        s = np.sqrt(g.vmeasure[idx])
        S *= s[:, None]
        S /= s
        _check_finite(S, S.diagonal())
    return S, idx, s


def _check_finite(S: np.ndarray, diag: np.ndarray) -> None:
    if not (np.isfinite(S).all() and np.isfinite(2.0 * diag).all()):
        raise GraphError("Laplacian overflows: a vertex's sum of a_e/l_e over its "
                         "measure, or twice it, is not finite")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _eigenvalue_array(g: WeightedGraph, evals: np.ndarray) -> np.ndarray:
    """Read-only eigenvalues; on a closed graph rounding below 0 is clamped to 0."""
    return _frozen(np.maximum(evals, 0.0) if g.is_closed else evals)


def eigenvalues(g: WeightedGraph, k: int | None = None) -> np.ndarray:
    """Ascending Laplacian eigenvalues, without eigenvectors (read-only array):
    all of them, or the k lowest (fewer when there are fewer rows).

    The whole spectrum is one dense eigvalsh, kept in the graph's memo; when
    the full decomposition was solved first, its eigenvalues are served
    instead.  Both come from the same S, but the two LAPACK routines may
    differ in the last bits.  The k lowest are a prefix of that array when
    it is kept already, or when there are at most SPARSE_ROWS solved rows or
    k + 1 reaches their count.  Otherwise they come from ``_sparse_lowest``
    and are kept under their own key; they agree with the dense values to
    rounding, not bit for bit.  If its certificate fails, the dense solve
    answers, and refuses a graph above MAX_DENSE vertices.
    """
    full = ("eigenvalues",)
    if k is not None and g.memoized(full) is None:
        rows = len(_solved_rows(g))
        if SPARSE_ROWS < rows and 0 < k < rows - 1:
            return g.memo(full + (k,), lambda: _lowest(g, k))
    lams = g.memo(full, lambda: _eigenvalue_array(g, np.linalg.eigvalsh(_symmetrized(g)[0])))
    return lams if k is None else lams[:k]


def _lowest(g: WeightedGraph, k: int) -> np.ndarray:
    lams = _sparse_lowest(g, k)
    if lams is not None:
        return _eigenvalue_array(g, lams)
    if g.n > MAX_DENSE:
        raise GraphError(f"the sparse eigensolve failed its inertia check, and the dense "
                         f"one is capped at {MAX_DENSE} vertices")
    return eigenvalues(g)[:k]


def _sparse_symmetrized(g: WeightedGraph):
    """(S, L): S as a scipy CSC matrix, built from the edge arrays, with
    L(v) on the diagonal and -(a_e/l_e)/(s_u s_v) off it (parallel edges
    summed), s = V^{1/2}.  It is symmetric by construction and never
    densified."""
    from scipy.sparse import csc_matrix

    idx = _solved_rows(g)
    i, j, w = _edge_rows(g, idx)
    nr = len(idx)
    vm = g.vmeasure[idx]
    s = np.sqrt(vm)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.bincount(i[i >= 0], w[i >= 0], nr) + np.bincount(j[j >= 0], w[j >= 0], nr)
        diag /= vm
        both = (i >= 0) & (j >= 0)
        i, j = i[both], j[both]
        off = -w[both] / (s[i] * s[j])
        S = csc_matrix((np.concatenate([diag, off, off]),
                        (np.concatenate([np.arange(nr), i, j]),
                         np.concatenate([np.arange(nr), j, i]))), shape=(nr, nr))
        _check_finite(S.data, diag)
    return S, diag


def _sparse_lowest(g: WeightedGraph, k: int) -> np.ndarray | None:
    """The k lowest eigenvalues, certified, or None when the certificate fails.

    Shift-invert Lanczos (ARPACK's eigsh, Ericsson & Ruhe 1980) finds the
    k + 1 lowest eigenvalues of the sparse S around a shift sigma0 < 0, from
    one sparse LU of S - sigma0 I that keeps the diagonal pivots of a
    symmetric ordering.  The certificate is Sylvester's law of inertia: with
    sigma halfway between the computed lambda_{k-1} and lambda_k, the same
    factorization of S - sigma I is P (S - sigma I) P^T = L D L^T when the row
    and column permutations agree, and then exactly as many eigenvalues lie
    below sigma as D has negative entries.  The answer stands when that
    count is k and lambda_k exceeds lambda_{k-1} by more than 1e-12 of the
    spectral bound 2 max L, so that rounding cannot move sigma across an
    eigenvalue: a repeated eigenvalue at lambda_k fails.  A factorization
    that hits a zero pivot, or a Lanczos run that does not converge, fails
    too.
    """
    from scipy.sparse import identity
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    S, diag = _sparse_symmetrized(g)
    n = S.shape[0]
    scale = 2.0 * float(diag.max())  # every eigenvalue lies in [0, 2 max L]

    def factor(sigma):
        return splu(S - sigma * identity(n, format="csc"), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0, options={"SymmetricMode": True})

    # below 0, so that S - sigma0 I is definite although 0 is an eigenvalue
    # of a closed graph, and close to 0 on the scale of L
    sigma0 = -1e-3 * float(diag.mean())
    # a fixed start, so that repeated solves agree bit for bit, and a
    # positive one, so that it is not orthogonal to a positive eigenvector
    v0 = np.random.default_rng(0).uniform(0.5, 1.5, n)
    try:
        lu = factor(sigma0)
        op = LinearOperator((n, n), matvec=lu.solve, dtype=float)
        lams = np.sort(eigsh(S, k + 1, sigma=sigma0, OPinv=op, tol=0, v0=v0,
                             return_eigenvectors=False))
        if not lams[k] - lams[k - 1] > 1e-12 * scale:
            return None
        lu = factor((lams[k - 1] + lams[k]) / 2.0)
    except RuntimeError:  # a zero pivot, or ARPACK did not converge
        return None
    if not (np.array_equal(lu.perm_r, lu.perm_c)
            and np.count_nonzero(lu.U.diagonal() < 0) == k):
        return None
    return lams[:k]


def _decompose(g: WeightedGraph) -> SpectralDecomposition:
    """Eigenvalues and V-orthonormal eigenfunctions from the lower triangle of
    S, as numpy's solves read it.  Above SPARSE_ROWS solved rows scipy's eigh
    runs LAPACK's syevd, as numpy's eigh does, but overwrites S with the
    eigenvectors instead of working on a copy: S.T is the same matrix in
    Fortran order, and its upper triangle is the lower triangle of S."""
    S, idx, s = _symmetrized(g)
    if len(idx) > SPARSE_ROWS:
        from scipy.linalg import eigh

        evals, phi = eigh(S.T, lower=False, overwrite_a=True, check_finite=False, driver="evd")
    else:
        evals, phi = np.linalg.eigh(S)
    del S
    # map back in place: phi = V^{-1/2} y is V-orthonormal when y is orthonormal
    phi /= s[:, None]
    # deterministic sign: first coordinate exceeding a relative threshold positive
    a = np.abs(phi)
    first = np.argmax(a > 1e-12 * a.max(axis=0), axis=0)
    del a
    phi *= np.where(phi[first, np.arange(phi.shape[1])] < 0, -1.0, 1.0)
    if g.is_closed:
        full = phi
    else:
        full = np.zeros((g.n, phi.shape[1]))
        full[idx, :] = phi
    evals = _eigenvalue_array(g, evals)
    g.memo(("eigenvalues",), lambda: evals)  # unless eigenvalues solved first
    return SpectralDecomposition(g, evals, _frozen(full))


def spectral_decomposition(g: WeightedGraph) -> SpectralDecomposition:
    """Full eigendecomposition, kept in the graph's memo; arrays are read-only."""
    return g.memo(("spectral",), lambda: _decompose(g))


@dataclass
class OperatorNormReport:
    L_sup: float
    rayleigh_max: float  # largest eigenvalue = ||Lap|| on a finite graph

    @property
    def sandwich_holds(self) -> bool:
        lo, hi = self.L_sup, 2.0 * self.L_sup
        eps = 1e-9 * (1.0 + hi)
        return lo - eps <= self.rayleigh_max <= hi + eps


def default_mode(g: WeightedGraph) -> str:
    """The label of the graph's boundary condition: "dirichlet" on a graph with
    boundary, "closed" otherwise."""
    return "dirichlet" if g.boundary else "closed"


def operator_norm_report(g: WeightedGraph) -> OperatorNormReport:
    """L_sup together with the top Dirichlet eigenvalue; L_sup <= ||Lap|| <= 2 L_sup."""
    from .graph import L_stats

    stats = L_stats(g)
    return OperatorNormReport(stats.sup, float(eigenvalues(g)[-1]))
