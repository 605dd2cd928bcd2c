import json
import math

import numpy as np
import pytest

from graphcalc import (
    Edge,
    EdgeField,
    GraphError,
    L_stats,
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
from graphcalc.operators import (MAX_DENSE, SPARSE_ROWS, OperatorNormReport, _decompose,
                                 _sparse_lowest, _symmetrized)


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


def _lower_by_edge_loop(g):
    """Reference: the lower triangle of S = V^{1/2} M V^{-1/2}, with L(v) from
    L_stats on the diagonal and each entry -(a_e/l_e)/(s_u s_v) below it added
    one stored edge at a time."""
    idx = g.interior_indices()  # every vertex of a closed graph
    pos = -np.ones(g.n, dtype=int)
    pos[idx] = np.arange(len(idx))
    s = np.sqrt(g.vmeasure[idx])
    S = np.diag(L_stats(g).values[idx])
    for k in range(g.m):
        i, j = pos[g.eu[k]], pos[g.ev[k]]
        if i >= 0 and j >= 0 and i != j:  # a loop has i == j
            S[max(i, j), min(i, j)] -= g.ea[k] / g.elen[k] / (s[i] * s[j])
    return S, idx, s


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
    M, idx = laplacian_matrix(g)
    f = VertexFunction(g, rng.standard_normal(g.n))
    assert np.allclose(M @ f.values, laplacian_apply(g, f).values, atol=1e-12)
    # row sums vanish: constants are harmonic on a closed graph
    assert np.allclose(M @ np.ones(g.n), 0.0, atol=1e-12)


def test_laplacian_matrix_dirichlet_and_loops():
    rng = np.random.default_rng(11)
    for trial in range(40):
        mode = "dirichlet" if trial % 2 else "closed"
        g = _multigraph(int(rng.integers(2, 25)), rng, dirichlet=mode == "dirichlet")
        S, idx, s = _symmetrized(g)
        ref, ref_idx, ref_s = _lower_by_edge_loop(g)
        assert np.array_equal(idx, ref_idx) and np.array_equal(s, ref_s)
        assert np.array_equal(S, ref)  # nothing above the diagonal
        # M = V^{-1/2} S V^{1/2}, formed from the same entries
        M, M_idx = laplacian_matrix(g)
        assert np.array_equal(M_idx, idx)
        assert np.array_equal(M, (ref + np.tril(ref, -1).T) * s / s[:, None])
        # M acts as Lap on functions that vanish on the boundary
        f = VertexFunction(g, rng.standard_normal(g.n) * g.interior_mask)
        assert np.allclose(M @ f.values[idx], laplacian_apply(g, f).values[idx], atol=1e-12)


def test_dense_and_sparse_solves_read_one_assembly():
    # the dense S is the lower triangle of the sparse S, bit for bit
    rng = np.random.default_rng(61)
    graphs = [_multigraph(int(rng.integers(2, 41)), rng, dirichlet=mode == "dirichlet")
              for mode in ("closed", "dirichlet") for _ in range(30)]
    graphs += [_large(np.random.default_rng(41), mode) for mode in ("closed", "dirichlet")]
    # twenty parallel edges between two solved vertices: scipy's unstable sort
    # once summed them in another order than the dense scatter
    g = random_graph(30, rng, weighted=True)
    u, v = g.vertices[:2]
    parallel = [Edge(u, v, a, l) for a, l in rng.uniform(0.3, 3.0, (20, 2))]
    g = WeightedGraph(g.vertices, g.vmeasure, list(g.edges) + parallel)
    graphs += [g, with_boundary(g, [g.vertices[-1]])]
    for g in graphs:
        S = _symmetrized(g)[0]
        assert np.array_equal(S, np.tril(operators._sparse_symmetrized(g)[0].toarray()))


def test_laplacian_matrix_is_not_capped():
    g = path(MAX_DENSE + 1)
    M, idx = laplacian_matrix(g)
    assert M.shape == (g.n, g.n) and np.array_equal(idx, np.arange(g.n))
    assert not (M @ np.ones(g.n)).any()  # unit weights: the row sums are exact zeros
    with pytest.raises(GraphError, match="capped"):
        _symmetrized(g)


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
    dec = spectral_decomposition(cycle(4))
    assert np.allclose(dec.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-10)


def test_spectrum_k2():
    from graphcalc.generators import complete

    dec = spectral_decomposition(complete(2))
    assert np.allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_dirichlet_path_eigenvalues():
    # path of 5 with both ends absorbed: 2 - 2 cos(k pi / 4), k = 1..3
    g = path(5, boundary=[1, 5])
    dec = spectral_decomposition(g)
    exact = [2.0 - 2.0 * math.cos(k * math.pi / 4) for k in (1, 2, 3)]
    assert np.allclose(dec.eigenvalues, exact, atol=1e-12)
    # eigenfunctions are padded with zeros on the boundary
    assert np.allclose(dec.eigenfunctions[[0, 4], :], 0.0)


def test_eigenfunctions_v_orthonormal():
    rng = np.random.default_rng(21)
    g = random_graph(11, rng, weighted=True)
    dec = spectral_decomposition(g)
    gram = dec.eigenfunctions.T @ (dec.eigenfunctions * g.vmeasure[:, None])
    assert np.allclose(gram, np.eye(dec.k), atol=1e-9)


def test_sign_convention_deterministic():
    g = cycle(5)
    a = spectral_decomposition(g)
    g2 = cycle(5)
    b = spectral_decomposition(g2)
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
            lams = eigenvalues(g)  # solved first, so not read from the decomposition
            full = spectral_decomposition(g).eigenvalues
            assert lams.shape == full.shape
            scale = max(1.0, float(full[-1]))
            assert np.max(np.abs(lams - full)) <= 1e-12 * scale
            if mode == "closed":
                assert np.all(lams >= 0.0)


def test_eigenvalues_reuse_cached_decomposition():
    rng = np.random.default_rng(32)
    for mode in ("closed", "dirichlet"):
        g = _multigraph(15, rng, dirichlet=mode == "dirichlet")
        dec = spectral_decomposition(g)
        assert np.array_equal(eigenvalues(g), dec.eigenvalues)


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
    graphs = []
    for trial in range(20):
        g = random_graph(int(rng.integers(2, 12)), rng, weighted=True)
        if trial % 2:  # Dirichlet: a random proper subset of the vertices is the boundary
            size = int(rng.integers(1, g.n))
            g = with_boundary(g, [g.vertices[i] for i in rng.choice(g.n, size, replace=False)])
        graphs.append(g)
    # a star whose boundary centre has L = 3 while its free leaves have L = 1
    star = WeightedGraph([0, 1, 2, 3], [1.0] * 4, [Edge(0, v) for v in (1, 2, 3)], boundary=[0])
    graphs.append(star)
    for g in list(graphs):  # the sandwich scales with a_e
        for c in (1e-12, 1e12):
            graphs.append(WeightedGraph.from_columns(g.vertices, g.vmeasure, *g.endpoint_ids(),
                                                     g.ea * c, g.elen, g.boundary))
    for g in graphs:
        rep = operator_norm_report(g)
        assert rep.sandwich_holds, (g.n, g.boundary, rep)
    rep = operator_norm_report(star)
    assert (rep.L_sup, rep.rayleigh_max) == (1.0, 1.0)
    # false passes of an absolute slack: 250 times the upper end, and 0 below L_sup
    assert not OperatorNormReport(L_sup=1e-12, rayleigh_max=5e-10).sandwich_holds
    assert not OperatorNormReport(L_sup=1e-12, rayleigh_max=0.0).sandwich_holds


def test_mode_validation():
    with pytest.raises(GraphError):
        spectral_decomposition(path(2, boundary=[1, 2]))  # no interior
    with pytest.raises(GraphError):
        eigenvalues(path(2, boundary=[1, 2]))
    with pytest.raises(GraphError):
        eigenvalues(path(MAX_DENSE + 1))


def test_the_graph_sets_the_boundary_condition(tmp_path, capsys):
    from graphcalc.cli import main

    # Dirichlet at vertex 5, a free end at vertex 1: 2 - 2 cos((2k - 1) pi / 9)
    g = path(5, boundary=[5])
    exact = [2.0 - 2.0 * math.cos((2 * k - 1) * math.pi / 9) for k in range(1, 5)]
    assert np.allclose(eigenvalues(g), exact, atol=1e-12)
    # without its boundary the graph is closed: 2 - 2 cos(k pi / 5), clamped at 0
    closed = eigenvalues(with_boundary(g, ()))
    assert np.array_equal(closed, eigenvalues(path(5)))
    assert np.allclose(closed, [2.0 - 2.0 * math.cos(k * math.pi / 5) for k in range(5)],
                       atol=1e-12)
    assert closed[0] >= 0.0
    # no option picks another condition than the graph's
    target = str(tmp_path / "c4.json")
    assert main(["gen", "cycle", "4", "-o", target]) == 0
    for command in ("spectrum", "heat"):
        capsys.readouterr()
        assert main([command, target, "--mode", "dirichlet"]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and "unrecognized arguments: --mode dirichlet" in cap.err
    assert main(["spectrum", target]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "closed" and min(doc["eigenvalues"]) >= 0.0


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
                eigenvalues(h)
            with pytest.raises(GraphError, match="overflow"):
                spectral_decomposition(h)
    # within the bound the spectrum is finite: lambda_max = 2 L = 2e307
    lams = eigenvalues(WeightedGraph([1, 2], [1, 1], [Edge(1, 2, a=1e307)]))
    assert lams[-1] == pytest.approx(2e307, rel=1e-12)
    # the sparse solve above SPARSE_ROWS refuses the same sums
    g = path(400)
    g = WeightedGraph(g.vertices, g.vmeasure, list(g.edges) + [Edge(1, 2, a=1e308)] * 2)
    for mode in ("closed", "dirichlet"):
        h = with_boundary(g, [400]) if mode == "dirichlet" else g
        with pytest.raises(GraphError, match="overflow"):
            eigenvalues(h, 2)


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
    dense = np.linalg.eigvalsh(_symmetrized(g)[0])
    assert len(dense) > SPARSE_ROWS
    for k in (1, 2, 5):
        lams = _sparse_lowest(g, k)
        assert lams is not None  # certified: no fallback
        got = eigenvalues(g, k)
        assert got.shape == (k,)
        assert np.max(np.abs(got - dense[:k])) <= 1e-12 * dense[-1]
        assert np.array_equal(got, np.maximum(lams, 0.0) if mode == "closed" else lams)
        with pytest.raises(ValueError):
            got[0] = 1.0
    assert g.memoized(("eigenvalues",)) is None  # no dense solve ran


def _two_orderings(g, k):
    """The certificate with a minimum-degree ordering of its own for each
    factor: (the k lowest eigenvalues or None, the certificate factor)."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import LinearOperator, eigsh, splu

    S, diag = operators._sparse_symmetrized(g)
    n = S.shape[0]

    def factor(sigma):
        return splu(S - sigma * identity(n, format="csc"), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0, options={"SymmetricMode": True})

    sigma0 = -1e-3 * float(diag.mean())
    lu = factor(sigma0)
    op = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    lams = np.sort(eigsh(S, k + 1, sigma=sigma0, OPinv=op, tol=0,
                         v0=np.random.default_rng(0).uniform(0.5, 1.5, n),
                         return_eigenvectors=False))
    lu = factor((lams[k - 1] + lams[k]) / 2.0)
    ok = (lams[k] - lams[k - 1] > 2e-12 * diag.max() and np.array_equal(lu.perm_r, lu.perm_c)
          and np.count_nonzero(lu.U.diagonal() < 0) == k)
    return (lams[:k] if ok else None), lu


@pytest.mark.parametrize("mode", ["closed", "dirichlet"])
def test_sparse_lowest_orders_once_and_keeps_the_fill(monkeypatch, mode):
    import scipy.sparse.linalg as spla

    true_splu = spla.splu
    g = _large(np.random.default_rng(41), mode)
    for k in (1, 2, 5):
        want, reference = _two_orderings(g, k)
        calls = []

        def recording_splu(A, permc_spec, **kw):
            calls.append((permc_spec, true_splu(A, permc_spec=permc_spec, **kw)))
            return calls[-1][1]

        with monkeypatch.context() as m:
            m.setattr(spla, "splu", recording_splu)
            got = _sparse_lowest(g, k)
        # one minimum-degree ordering; the certificate factors in its order
        assert [spec for spec, _ in calls] == ["MMD_AT_PLUS_A", "NATURAL"]
        lu = calls[1][1]
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert (lu.L.nnz, lu.U.nnz) == (reference.L.nnz, reference.U.nnz)
        assert np.count_nonzero(lu.U.diagonal() < 0) == k
        assert want is not None and np.array_equal(got, want)  # bit for bit


def test_sparse_lowest_falls_back_on_a_repeated_eigenvalue():
    # on a cycle lambda_1 = lambda_2, so no shift separates lambda_1 from lambda_2
    g = cycle(400)
    assert _sparse_lowest(g, 2) is None
    assert np.array_equal(eigenvalues(g, 2), eigenvalues(cycle(400))[:2])
    assert g.memoized(("eigenvalues",)) is not None  # the dense fallback ran
    # two disjoint cycles: 0 is a double eigenvalue, their lambda_1's are not
    edges = ([Edge(i, (i + 1) % 200) for i in range(200)]
             + [Edge(200 + i, 200 + (i + 1) % 230) for i in range(230)])
    two = WeightedGraph(list(range(430)), [1.0] * 430, edges)
    dense = np.linalg.eigvalsh(_symmetrized(two)[0])
    assert _sparse_lowest(two, 1) is None
    assert _sparse_lowest(two, 2) is not None
    for k in (1, 2):
        got = eigenvalues(two, k)
        assert np.max(np.abs(got - dense[:k])) <= 1e-12 * dense[-1]


def test_eigenvalues_k_reads_the_dense_solve_where_it_applies(monkeypatch):
    def refuse(*args):
        raise AssertionError("sparse solve called")

    monkeypatch.setattr(operators, "_sparse_lowest", refuse)
    # k + 1 reaches the row count
    g = path(302)
    for k in (301, 302, 500):
        assert np.array_equal(eigenvalues(g, k), eigenvalues(path(302))[:k])
    # at most SPARSE_ROWS rows
    g = path(SPARSE_ROWS)
    assert np.array_equal(eigenvalues(g, 2), eigenvalues(path(SPARSE_ROWS))[:2])
    # the full spectrum is kept already
    g = path(400)
    full = eigenvalues(g)
    assert np.array_equal(eigenvalues(g, 2), full[:2])


def test_a_wrong_sparse_eigenvalue_fails_the_certificate(monkeypatch):
    import scipy.sparse.linalg as spla

    true_eigsh = spla.eigsh

    def skip_lambda_1(A, k, **kw):  # lambda_0, lambda_2, ..., lambda_k
        return np.delete(np.sort(true_eigsh(A, k + 1, **kw)), 1)

    monkeypatch.setattr(spla, "eigsh", skip_lambda_1)
    for mode in ("closed", "dirichlet"):
        g = _large(np.random.default_rng(43), mode)
        assert _sparse_lowest(g, 2) is None
        dense = np.linalg.eigvalsh(_symmetrized(g)[0])
        assert np.array_equal(eigenvalues(g, 2), eigenvalues(g)[:2])
        assert np.max(np.abs(eigenvalues(g, 2) - dense[:2])) <= 1e-12 * dense[-1]


@pytest.mark.parametrize("mode", ["closed", "dirichlet"])
def test_dense_solves_read_the_lower_triangle_only(monkeypatch, mode):
    # S is symmetric only up to rounding: numpy's eigvalsh and eigh and the
    # in-place scipy eigh above SPARSE_ROWS must all read the same triangle
    true_symmetrized = operators._symmetrized

    def lower(*args):  # NaN above the diagonal: a solve that reads it returns NaN
        S, idx, s = true_symmetrized(*args)
        S[np.triu_indices(len(S), 1)] = np.nan
        return S, idx, s

    builders = (lambda: _multigraph(40, np.random.default_rng(53), mode == "dirichlet"),
                lambda: _large(np.random.default_rng(59), mode))
    for large, build in enumerate(builders):
        graphs = [build() for _ in range(4)]  # one per solve, so that none reads a memo
        assert (len(laplacian_matrix(graphs[0])[1]) > SPARSE_ROWS) == bool(large)
        want = eigenvalues(graphs[0]), spectral_decomposition(graphs[1])
        with monkeypatch.context() as m:
            m.setattr(operators, "_symmetrized", lower)
            got = eigenvalues(graphs[2]), spectral_decomposition(graphs[3])
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

    assert peak(lambda: _symmetrized(g)) <= 1.2
    assert peak(lambda: _decompose(g)) <= 3.2
    kern = heat_kernel(g)
    # beyond the eigenfunctions, which the decomposition holds already
    assert peak(lambda: heat_grid(kern, [0.25, 1.0, 4.0, 16.0])) <= 3.2
