import math

import numpy as np
import pytest

from graphcalc import (
    Edge,
    EdgeField,
    GraphError,
    VertexFunction,
    WeightedGraph,
    divergence,
    eigenvalues,
    grad_lp_norm,
    gradient_field,
    laplacian_apply,
    laplacian_matrix,
    normal_flux,
    operator_norm_report,
    spectral_decomposition,
    with_boundary,
)
from graphcalc import heat_grid, heat_kernel, operators
from graphcalc.generators import cycle, path, random_graph
from graphcalc.operators import (MAX_DENSE, SPARSE_ROWS, _decompose, _sparse_lowest,
                                 _symmetrized)


def _multigraph(n, rng, dirichlet=False):
    """Weighted random graph with a self-loop and a reversed parallel edge;
    in Dirichlet mode a random proper subset of the vertices is the boundary."""
    g = random_graph(n, rng, weighted=True, allow_loops=True)
    e0 = g.edges[0]
    extra = [Edge(e0.v, e0.u, 0.7, 1.3), Edge(g.vertices[-1], g.vertices[-1], 2.0, 0.5)]
    g = WeightedGraph(g.vertices, rng.uniform(0.3, 3.0, n), list(g.edges) + extra)
    if dirichlet:
        size = int(rng.integers(1, n))
        g = with_boundary(g, [g.vertices[i] for i in rng.choice(n, size, replace=False)])
    return g


def _laplacian_by_edge_loop(g, mode):
    """Reference: the Laplacian matrix accumulated one stored edge at a time."""
    idx = np.arange(g.n) if mode == "closed" else g.interior_indices()
    pos = -np.ones(g.n, dtype=int)
    pos[idx] = np.arange(len(idx))
    W = np.zeros((len(idx), len(idx)))
    for k in range(len(g.edges)):
        if g.loop_mask[k]:
            continue
        i, j = pos[g.eu[k]], pos[g.ev[k]]
        w = g.ea[k] / g.elen[k]
        if i >= 0:
            W[i, i] += w
        if j >= 0:
            W[j, j] += w
        if i >= 0 and j >= 0:
            W[i, j] -= w
            W[j, i] -= w
    return W / g.vmeasure[idx][:, None], idx


def test_gradient_field_values():
    g = path(3)
    f = VertexFunction(g, np.array([0.0, 2.0, 3.0]))
    X = gradient_field(f)
    assert np.allclose(X.values, [2.0, 1.0])


def test_divergence_is_net_outflow():
    g = path(2)
    X = EdgeField(g, np.array([1.0]))  # unit flow 1 -> 2
    div = divergence(g, X)
    assert div(1) == pytest.approx(1.0)  # flow leaves vertex 1
    assert div(2) == pytest.approx(-1.0)
    assert np.allclose(normal_flux(X).values, -div.values)


def test_green_identity_all_vertices():
    rng = np.random.default_rng(5)
    for _ in range(30):
        g = random_graph(int(rng.integers(2, 14)), rng, weighted=True)
        X = EdgeField(g, rng.standard_normal(len(g.edges)))
        f = VertexFunction(g, rng.standard_normal(g.n))
        pair = float(np.sum(divergence(g, X).values * f.values * g.vmeasure))
        mask = ~g.loop_mask
        esum = float(
            np.sum(g.ea[mask] * X.values[mask] * (f.values[g.ev[mask]] - f.values[g.eu[mask]]))
        )
        assert pair + esum == pytest.approx(0.0, abs=1e-11)


def test_laplacian_matrix_matches_apply():
    rng = np.random.default_rng(9)
    g = random_graph(10, rng, weighted=True)
    M, idx = laplacian_matrix(g, "closed")
    f = VertexFunction(g, rng.standard_normal(g.n))
    assert np.allclose(M @ f.values, laplacian_apply(g, f).values, atol=1e-12)
    # row sums vanish: constants are harmonic on a closed graph
    assert np.allclose(M @ np.ones(g.n), 0.0, atol=1e-12)


def test_laplacian_matrix_dirichlet_and_loops():
    rng = np.random.default_rng(11)
    for trial in range(40):
        mode = "dirichlet" if trial % 2 else "closed"
        g = _multigraph(int(rng.integers(2, 25)), rng, dirichlet=mode == "dirichlet")
        M, idx = laplacian_matrix(g, mode)
        ref, ref_idx = _laplacian_by_edge_loop(g, mode)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(M, ref)
        # M acts as Lap on functions that vanish on the boundary
        f = VertexFunction(g, rng.standard_normal(g.n) * g.interior_mask)
        assert np.allclose(M @ f.values[idx], laplacian_apply(g, f).values[idx], atol=1e-12)


def test_laplacian_is_v_symmetric_and_nonnegative():
    rng = np.random.default_rng(10)
    g = random_graph(9, rng, weighted=True)
    f = VertexFunction(g, rng.standard_normal(g.n))
    h = VertexFunction(g, rng.standard_normal(g.n))
    s1 = float(np.sum(laplacian_apply(g, f).values * h.values * g.vmeasure))
    s2 = float(np.sum(f.values * laplacian_apply(g, h).values * g.vmeasure))
    assert s1 == pytest.approx(s2, abs=1e-10)
    quad = float(np.sum(laplacian_apply(g, f).values * f.values * g.vmeasure))
    assert quad == pytest.approx(grad_lp_norm(f, 2) ** 2, rel=1e-10)


def test_spectrum_c4():
    dec = spectral_decomposition(cycle(4), "closed")
    assert np.allclose(dec.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-10)


def test_spectrum_k2():
    from graphcalc.generators import complete

    dec = spectral_decomposition(complete(2), "closed")
    assert np.allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_dirichlet_path_eigenvalues():
    # path of 5 with both ends absorbed: 2 - 2 cos(k pi / 4), k = 1..3
    g = path(5, boundary=[1, 5])
    dec = spectral_decomposition(g, "dirichlet")
    exact = [2.0 - 2.0 * math.cos(k * math.pi / 4) for k in (1, 2, 3)]
    assert np.allclose(dec.eigenvalues, exact, atol=1e-12)
    # eigenfunctions are padded with zeros on the boundary
    assert np.allclose(dec.eigenfunctions[[0, 4], :], 0.0)


def test_eigenfunctions_v_orthonormal():
    rng = np.random.default_rng(21)
    g = random_graph(11, rng, weighted=True)
    dec = spectral_decomposition(g, "closed")
    gram = dec.eigenfunctions.T @ (dec.eigenfunctions * g.vmeasure[:, None])
    assert np.allclose(gram, np.eye(dec.k), atol=1e-9)


def test_sign_convention_deterministic():
    g = cycle(5)
    a = spectral_decomposition(g, "closed")
    g2 = cycle(5)
    b = spectral_decomposition(g2, "closed")
    assert np.array_equal(a.eigenfunctions, b.eigenfunctions)
    for j in range(a.k):
        col = a.eigenfunctions[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        assert col[nz[0]] > 0


def test_eigenvalues_match_decomposition():
    rng = np.random.default_rng(31)
    for n in range(2, 41):
        for mode in ("closed", "dirichlet"):
            g = _multigraph(n, rng, dirichlet=mode == "dirichlet")
            lams = eigenvalues(g, mode)  # solved first, so not read from the decomposition
            full = spectral_decomposition(g, mode).eigenvalues
            assert lams.shape == full.shape
            scale = max(1.0, float(full[-1]))
            assert np.max(np.abs(lams - full)) <= 1e-12 * scale
            if mode == "closed":
                assert np.all(lams >= 0.0)


def test_eigenvalues_reuse_cached_decomposition():
    rng = np.random.default_rng(32)
    for mode in ("closed", "dirichlet"):
        g = _multigraph(15, rng, dirichlet=mode == "dirichlet")
        dec = spectral_decomposition(g, mode)
        assert np.array_equal(eigenvalues(g, mode), dec.eigenvalues)


def test_spectral_arrays_are_read_only():
    rng = np.random.default_rng(33)
    g = _multigraph(8, rng)
    lams = eigenvalues(g)
    dec = spectral_decomposition(g)
    for arr in (lams, dec.eigenvalues, dec.eigenfunctions):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_operator_norm_sandwich():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_graph(int(rng.integers(2, 12)), rng, weighted=True)
        rep = operator_norm_report(g)
        assert rep.sandwich_holds


def test_mode_validation():
    g = cycle(3)
    with pytest.raises(GraphError):
        laplacian_matrix(g, "bogus")
    with pytest.raises(GraphError):
        spectral_decomposition(path(2, boundary=[1, 2]), "dirichlet")  # no interior
    with pytest.raises(GraphError):
        eigenvalues(path(2, boundary=[1, 2]), "dirichlet")
    with pytest.raises(GraphError):
        eigenvalues(g, "bogus")
    with pytest.raises(GraphError):
        eigenvalues(path(MAX_DENSE + 1))


@pytest.mark.filterwarnings("error")  # the solve must refuse, not warn
def test_overflowing_laplacian_is_refused():
    # each weight is finite, but a Laplacian sum, or twice it, is not: at a
    # vertex, after dividing by its measure, or after dividing by a length
    cases = (([1, 2], [1, 1], [Edge(1, 2, a=1e308), Edge(1, 2, a=1e308)]),
             ([1, 2], [1, 1], [Edge(1, 2, a=1e308)]),
             ([1, 2], [1e-10, 1], [Edge(1, 2, a=1e300)]),
             ([1, 2], [1, 1], [Edge(1, 2, a=1e300, length=1e-10)]),
             ([1, 2, 3, 4], [1, 1, 1, 1], [Edge(1, 2, a=1e308), Edge(3, 4, a=1e308)]))
    for vs, ms, es in cases:
        g = WeightedGraph(vs, ms, es)
        for mode in ("closed", "dirichlet"):
            h = with_boundary(g, [vs[-1]]) if mode == "dirichlet" else g
            with pytest.raises(GraphError, match="overflow"):
                eigenvalues(h, mode)
            with pytest.raises(GraphError, match="overflow"):
                spectral_decomposition(h, mode)
    # within the bound the spectrum is finite: lambda_max = 2 L = 2e307
    lams = eigenvalues(WeightedGraph([1, 2], [1, 1], [Edge(1, 2, a=1e307)]))
    assert lams[-1] == pytest.approx(2e307, rel=1e-12)
    # the sparse solve above SPARSE_ROWS refuses the same sums
    g = path(400)
    g = WeightedGraph(g.vertices, g.vmeasure, list(g.edges) + [Edge(1, 2, a=1e308)] * 2)
    for mode in ("closed", "dirichlet"):
        h = with_boundary(g, [400]) if mode == "dirichlet" else g
        with pytest.raises(GraphError, match="overflow"):
            eigenvalues(h, mode, 2)


def _large(rng, mode):
    """A weighted multigraph of 440 vertices (a loop, a parallel edge) whose
    solved rows exceed SPARSE_ROWS; in Dirichlet mode a tenth is boundary."""
    g = _multigraph(440, rng)
    if mode == "dirichlet":
        g = with_boundary(g, [g.vertices[i] for i in rng.choice(g.n, g.n // 10, replace=False)])
    return g


@pytest.mark.parametrize("mode", ["closed", "dirichlet"])
def test_sparse_lowest_eigenvalues_match_dense(mode):
    g = _large(np.random.default_rng(41), mode)
    dense = np.linalg.eigvalsh(_symmetrized(g, mode)[0])
    assert len(dense) > SPARSE_ROWS
    for k in (1, 2, 5):
        lams = _sparse_lowest(g, mode, k)
        assert lams is not None  # certified: no fallback
        got = eigenvalues(g, mode, k)
        assert got.shape == (k,)
        assert np.max(np.abs(got - dense[:k])) <= 1e-12 * dense[-1]
        assert np.array_equal(got, np.maximum(lams, 0.0) if mode == "closed" else lams)
        with pytest.raises(ValueError):
            got[0] = 1.0
    assert g.memoized(("eigenvalues", mode)) is None  # no dense solve ran


def test_sparse_lowest_falls_back_on_a_repeated_eigenvalue():
    # on a cycle lambda_1 = lambda_2, so no shift separates lambda_1 from lambda_2
    g = cycle(400)
    assert _sparse_lowest(g, "closed", 2) is None
    assert np.array_equal(eigenvalues(g, "closed", 2), eigenvalues(cycle(400))[:2])
    assert g.memoized(("eigenvalues", "closed")) is not None  # the dense fallback ran
    # two disjoint cycles: 0 is a double eigenvalue, their lambda_1's are not
    edges = ([Edge(i, (i + 1) % 200) for i in range(200)]
             + [Edge(200 + i, 200 + (i + 1) % 230) for i in range(230)])
    two = WeightedGraph(list(range(430)), [1.0] * 430, edges)
    dense = np.linalg.eigvalsh(_symmetrized(two, "closed")[0])
    assert _sparse_lowest(two, "closed", 1) is None
    assert _sparse_lowest(two, "closed", 2) is not None
    for k in (1, 2):
        got = eigenvalues(two, "closed", k)
        assert np.max(np.abs(got - dense[:k])) <= 1e-12 * dense[-1]


def test_eigenvalues_k_reads_the_dense_solve_where_it_applies(monkeypatch):
    def refuse(*args):
        raise AssertionError("sparse solve called")

    monkeypatch.setattr(operators, "_sparse_lowest", refuse)
    # k + 1 reaches the row count
    g = path(302)
    for k in (301, 302, 500):
        assert np.array_equal(eigenvalues(g, "closed", k), eigenvalues(path(302))[:k])
    # at most SPARSE_ROWS rows
    g = path(SPARSE_ROWS)
    assert np.array_equal(eigenvalues(g, "closed", 2), eigenvalues(path(SPARSE_ROWS))[:2])
    # the full spectrum is kept already
    g = path(400)
    full = eigenvalues(g)
    assert np.array_equal(eigenvalues(g, "closed", 2), full[:2])


def test_a_wrong_sparse_eigenvalue_fails_the_certificate(monkeypatch):
    import scipy.sparse.linalg as spla

    true_eigsh = spla.eigsh

    def skip_lambda_1(A, k, **kw):  # lambda_0, lambda_2, ..., lambda_k
        return np.delete(np.sort(true_eigsh(A, k + 1, **kw)), 1)

    monkeypatch.setattr(spla, "eigsh", skip_lambda_1)
    for mode in ("closed", "dirichlet"):
        g = _large(np.random.default_rng(43), mode)
        assert _sparse_lowest(g, mode, 2) is None
        dense = np.linalg.eigvalsh(_symmetrized(g, mode)[0])
        assert np.array_equal(eigenvalues(g, mode, 2), eigenvalues(g, mode)[:2])
        assert np.max(np.abs(eigenvalues(g, mode, 2) - dense[:2])) <= 1e-12 * dense[-1]


@pytest.mark.parametrize("mode", ["closed", "dirichlet"])
def test_dense_solves_read_the_lower_triangle_only(monkeypatch, mode):
    # S is symmetric only up to rounding: numpy's eigvalsh and eigh and the
    # in-place scipy eigh above SPARSE_ROWS must all read the same triangle
    true_symmetrized = operators._symmetrized

    def lower(*args):
        S, idx, s = true_symmetrized(*args)
        return np.tril(S), idx, s

    builders = (lambda: _multigraph(40, np.random.default_rng(53), mode == "dirichlet"),
                lambda: _large(np.random.default_rng(59), mode))
    for large, build in enumerate(builders):
        graphs = [build() for _ in range(4)]  # one per solve, so that none reads a memo
        assert (len(laplacian_matrix(graphs[0], mode)[1]) > SPARSE_ROWS) == bool(large)
        want = eigenvalues(graphs[0], mode), spectral_decomposition(graphs[1], mode)
        with monkeypatch.context() as m:
            m.setattr(operators, "_symmetrized", lower)
            got = eigenvalues(graphs[2], mode), spectral_decomposition(graphs[3], mode)
        scale = want[0][-1]
        assert np.max(np.abs(got[0] - want[0])) <= 1e-12 * scale
        assert np.max(np.abs(got[1].eigenvalues - want[1].eigenvalues)) <= 1e-12 * scale


def test_dense_stages_keep_few_n_squared_arrays():
    import tracemalloc

    g = _large(np.random.default_rng(47), "dirichlet")
    rows = len(g.interior_indices())
    assert rows > SPARSE_ROWS  # the in-place decomposition
    n2 = rows * rows * 8.0  # bytes of one rows-by-rows array

    def peak(run):
        run()  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / n2
        finally:
            tracemalloc.stop()

    assert peak(lambda: _symmetrized(g, "dirichlet")) <= 1.2
    assert peak(lambda: _decompose(g, "dirichlet")) <= 3.2
    kern = heat_kernel(g, "dirichlet")
    # beyond the eigenfunctions, which the decomposition holds already
    assert peak(lambda: heat_grid(kern, [0.25, 1.0, 4.0, 16.0])) <= 3.2
