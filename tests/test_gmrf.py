"""Graph, Laplacian, intrinsic-field, and constraint machinery.

Oracles here are all built independently of the module under test:
dense Laplacians assembled edge by edge, eigendecomposition
pseudo-inverses, and hand-computed frozen values.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgmbench.gmrf import (
    AdjacencyGraph,
    Constraint,
    Factor,
    component_labels,
    connected_components,
    cycle_graph,
    graph_laplacian,
    icar_log_density,
    icar_log_tau_coefficient,
    icar_quadratic_form,
    lattice_graph,
    path_graph,
    propriety_check,
    read_edge_list,
    sample_icar_kriging,
    sum_to_zero_rows,
    write_edge_list,
)


def dense_laplacian_oracle(graph: AdjacencyGraph) -> np.ndarray:
    """Independent edge-by-edge assembly of D - A."""
    q = np.zeros((graph.n_nodes, graph.n_nodes))
    for i, j in graph.edges:
        q[i, i] += 1.0
        q[j, j] += 1.0
        q[i, j] -= 1.0
        q[j, i] -= 1.0
    return q


def constrained_pseudoinverse_oracle(graph: AdjacencyGraph, tau: float) -> np.ndarray:
    """Covariance of the sum-to-zero intrinsic field via eigendecomposition."""
    w, v = np.linalg.eigh(dense_laplacian_oracle(graph) * tau)
    keep = w > 1e-9 * w[-1]
    return (v[:, keep] / w[keep]) @ v[:, keep].T


# ---------------------------------------------------------------------------
# Graphs


def test_graph_canonicalizes_edges():
    g = AdjacencyGraph(4, ((3, 1), (0, 2)))
    assert g.edges == ((0, 2), (1, 3))
    assert g.n_edges == 2


@pytest.mark.parametrize(
    "edges, message",
    [
        (((0, 0),), "self loop"),
        (((0, 5),), "out of range"),
        (((0, 1), (1, 0)), "duplicate"),
    ],
)
def test_graph_rejects_malformed_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        AdjacencyGraph(3 if edges != (((0, 5),)) else 3, edges)


def test_lattice_structure():
    g = lattice_graph(3, 4)
    assert g.n_nodes == 12
    # 3 rows x 3 horizontal + 2 x 4 vertical
    assert g.n_edges == 3 * 3 + 2 * 4
    deg = g.degrees()
    assert deg.min() == 2 and deg.max() == 4  # corners vs interior
    assert deg.sum() == 2 * g.n_edges


def test_path_and_cycle_degrees():
    assert list(path_graph(4).degrees()) == [1, 2, 2, 1]
    assert list(cycle_graph(5).degrees()) == [2, 2, 2, 2, 2]
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_neighbor_lists_match_edges(lattice_5x4):
    nbrs = lattice_5x4.neighbor_lists()
    for i, j in lattice_5x4.edges:
        assert j in nbrs[i] and i in nbrs[j]
    assert sum(len(x) for x in nbrs) == 2 * lattice_5x4.n_edges


def test_component_labels(two_component_graph):
    assert list(component_labels(two_component_graph)) == [0, 0, 0, 0, 1, 1, 1]
    assert connected_components(two_component_graph) == 2
    assert connected_components(lattice_graph(4, 4)) == 1
    # isolated nodes each form their own component
    assert connected_components(AdjacencyGraph(3, ())) == 3


def union_find_oracle(graph: AdjacencyGraph) -> list[int]:
    """Component labels by repeated relabelling, numbered by first node."""
    label = list(range(graph.n_nodes))
    changed = True
    while changed:
        changed = False
        for i, j in graph.edges:
            lo = min(label[i], label[j])
            if label[i] != lo or label[j] != lo:
                label[i] = label[j] = lo
                changed = True
    first = {}
    return [first.setdefault(root, len(first)) for root in label]


@pytest.mark.parametrize(
    "graph",
    [
        AdjacencyGraph(7, ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6))),
        AdjacencyGraph(5, ((3, 4),)),
        AdjacencyGraph(3, ()),
        lattice_graph(4, 5),
        cycle_graph(6),
    ],
)
def test_graph_caches_are_read_only_and_match_a_fresh_computation(graph):
    # edge_arrays(), component_labels() and graph_laplacian() are computed
    # once per graph and shared, so no caller may write into them.
    a, b = graph.edge_arrays()
    labels = component_labels(graph)
    laplacian = graph_laplacian(graph)
    e = np.asarray(graph.edges, dtype=np.int64).reshape(-1, 2)
    assert a.dtype == b.dtype == np.int64
    assert np.array_equal(a, e[:, 0]) and np.array_equal(b, e[:, 1])
    assert labels.tolist() == union_find_oracle(graph)
    assert connected_components(graph) == len(set(labels.tolist()))
    assert laplacian.tobytes() == dense_laplacian_oracle(graph).tobytes()
    for arr in (a, b, labels, laplacian):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    with pytest.raises(ValueError):
        laplacian[0, 0] += 1.0
    # Every call returns the same arrays; equality and hashing see only
    # the node count and the edges.
    assert graph.edge_arrays()[0] is a and component_labels(graph) is labels
    assert graph_laplacian(graph) is laplacian
    twin = AdjacencyGraph(graph.n_nodes, tuple(reversed(graph.edges)))
    assert twin == graph and hash(twin) == hash(graph)
    assert "_component_labels" not in repr(graph) and "_laplacian" not in repr(graph)


# ---------------------------------------------------------------------------
# Laplacian and quadratic form


def test_laplacian_matches_dense_oracle(lattice_5x4, two_component_graph):
    for g in (lattice_5x4, two_component_graph, path_graph(6)):
        np.testing.assert_allclose(graph_laplacian(g), dense_laplacian_oracle(g), atol=0.0)


def test_laplacian_frozen_2x2():
    expected = np.array(
        [
            [2, -1, -1, 0],
            [-1, 2, 0, -1],
            [-1, 0, 2, -1],
            [0, -1, -1, 2],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(graph_laplacian(lattice_graph(2, 2)), expected)


def test_quadratic_form_frozen_path():
    # (0-1)^2 + (1-3)^2 = 5 on the 3-node path
    assert icar_quadratic_form(np.array([0.0, 1.0, 3.0]), path_graph(3)) == 5.0


@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_quadratic_form_equals_dense_form(n, seed):
    g = np.random.default_rng(seed)
    n_edges = g.integers(0, n * (n - 1) // 2 + 1)
    pairs = {tuple(sorted(g.choice(n, 2, replace=False))) for _ in range(n_edges)}
    graph = AdjacencyGraph(n, tuple(pairs))
    mu = g.standard_normal(n)
    dense = mu @ dense_laplacian_oracle(graph) @ mu
    assert icar_quadratic_form(mu, graph) == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_quadratic_form_shift_invariant(two_component_graph):
    rng = np.random.default_rng(3)
    mu = rng.standard_normal(7)
    labels = component_labels(two_component_graph)
    shifted = mu + np.array([10.0, -3.0])[labels]
    assert icar_quadratic_form(mu, two_component_graph) == pytest.approx(
        icar_quadratic_form(shifted, two_component_graph), rel=1e-12
    )


def test_icar_log_density_exponent_conventions(two_component_graph):
    mu = np.linspace(-1, 1, 7)
    tau = 2.5
    n_minus_k = 7 - 2
    quad = icar_quadratic_form(mu, two_component_graph)
    full = icar_log_density(mu, two_component_graph, tau)
    half = icar_log_density(mu, two_component_graph, tau, half_exponent=True)
    assert full == pytest.approx(n_minus_k * np.log(tau) - 0.5 * tau * quad, rel=1e-12)
    assert half == pytest.approx(0.5 * n_minus_k * np.log(tau) - 0.5 * tau * quad, rel=1e-12)
    assert icar_log_tau_coefficient(two_component_graph) == 5.0
    assert icar_log_tau_coefficient(two_component_graph, half_exponent=True) == 2.5


def test_sum_to_zero_rows_are_one_indicator_per_component(two_component_graph):
    rows = sum_to_zero_rows(two_component_graph)
    labels = component_labels(two_component_graph)
    np.testing.assert_array_equal(rows, [(labels == c).astype(float) for c in range(2)])
    np.testing.assert_array_equal(rows @ graph_laplacian(two_component_graph), np.zeros((2, 7)))


# ---------------------------------------------------------------------------
# Constrained sampling


def test_kriging_draws_sum_to_zero_per_component(two_component_graph, rng):
    draws = sample_icar_kriging(two_component_graph, 1.3, rng, size=200)
    labels = component_labels(two_component_graph)
    for c in range(2):
        sums = draws[:, labels == c].sum(axis=1)
        assert np.abs(sums).max() < 1e-10


def test_kriging_covariance_matches_pseudoinverse(lattice_5x4, rng):
    tau = 0.7
    draws = sample_icar_kriging(lattice_5x4, tau, rng, size=60_000)
    emp = np.cov(draws.T)
    oracle = constrained_pseudoinverse_oracle(lattice_5x4, tau)
    rel = np.linalg.norm(emp - oracle) / np.linalg.norm(oracle)
    assert rel < 0.02
    assert abs(draws.mean()) < 0.01


def test_kriging_variance_scales_inversely_with_tau(lattice_5x4):
    rng = np.random.default_rng(9)
    v1 = sample_icar_kriging(lattice_5x4, 1.0, rng, size=20_000).var()
    v4 = sample_icar_kriging(lattice_5x4, 4.0, rng, size=20_000).var()
    assert v1 / v4 == pytest.approx(4.0, rel=0.1)


def test_kriging_single_draw_matches_batch_head(lattice_5x4):
    # Same underlying normals; LAPACK may block (n,1) and (n,3) solves
    # differently, so agreement is to solver rounding, not bitwise.
    single = sample_icar_kriging(lattice_5x4, 1.0, np.random.default_rng(5))
    batch = sample_icar_kriging(lattice_5x4, 1.0, np.random.default_rng(5), size=3)
    np.testing.assert_allclose(single, batch[0], rtol=1e-10, atol=1e-12)


def test_icar_sampling_and_density_reject_bad_tau(lattice_5x4, rng):
    mu = np.zeros(lattice_5x4.n_nodes)
    for tau in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="tau"):
            sample_icar_kriging(lattice_5x4, tau, rng)
        with pytest.raises(ValueError, match="tau"):
            icar_log_density(mu, lattice_5x4, tau)


def test_constraint_has_no_centering_value():
    # One sum-to-zero path: the sampler recentres once per sweep.
    assert [c.value for c in Constraint] == ["none", "sum_to_zero_kriging"]
    with pytest.raises(ValueError):
        Constraint("sum_to_zero_centering")


# ---------------------------------------------------------------------------
# Propriety checks


def test_laplacian_is_rank_deficient_by_component_count(two_component_graph):
    res = propriety_check(graph_laplacian(two_component_graph))
    assert not res.proper
    assert res.deficiency == 2
    assert str(res) == "RankDeficient(2)"


def test_propriety_identity_and_negative():
    assert propriety_check(np.eye(4)).proper
    res = propriety_check(-np.eye(4))
    assert not res.proper and res.deficiency == 4


# ---------------------------------------------------------------------------
# Factor against numpy's wrappers


def badly_scaled_spd(d: int, seed: int) -> np.ndarray:
    """A random SPD matrix whose rows and columns span 1e-7..1e7 in scale."""
    g = np.random.default_rng(seed)
    a = g.standard_normal((d + 3, d))
    s = np.exp(g.uniform(-8.0, 8.0, d))
    return (a.T @ a + 1e-3 * np.eye(d)) * s[:, None] * s[None, :]


def wrapper_cholesky(h: np.ndarray):
    try:
        return np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return None


@pytest.mark.parametrize("d", [0, 1, 2, 5, 52, 129, 298])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_upper_triangular_solve_is_bit_equal_to_the_lu_solve(d, seed):
    # Factor.sample, the solve with L'.
    factor = Factor(np.linalg.cholesky(badly_scaled_spd(d, seed)))
    g = np.random.default_rng(100 + seed)
    rhs = [
        g.standard_normal(d),
        g.standard_normal((d, 4)),
        g.standard_normal((d, 3)) * np.array([1e-9, 1.0, 1e9]),  # badly scaled columns
    ]
    for b in rhs:
        x = factor.sample(b)
        ref = np.linalg.solve(factor.lower.T, b)
        assert x.shape == ref.shape and x.flags.c_contiguous
        assert x.tobytes() == ref.tobytes()


def test_upper_triangular_solve_raises_on_a_zero_diagonal():
    u = np.triu(np.ones((3, 3)))
    u[1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(u, np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        Factor(u.T).sample(np.ones(3))


@pytest.mark.parametrize("d", [0, 1, 2, 5, 52, 129, 298])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factor_solve_log_det_and_covariance_are_bit_equal_to_numpy(d, seed):
    factor = Factor.of(badly_scaled_spd(d, seed))
    lower = factor.lower
    g = np.random.default_rng(200 + seed)
    for b in (g.standard_normal(d), g.standard_normal(d) * np.exp(g.uniform(-20.0, 20.0, d))):
        x = factor.solve(b)
        ref = np.linalg.solve(lower.T, np.linalg.solve(lower, b))  # as tests/oracle_laplace.py solves
        assert x.shape == ref.shape and x.tobytes() == ref.tobytes()
    log_det = factor.half_log_det()
    assert type(log_det) is float
    assert np.float64(log_det).tobytes() == np.add.reduce(np.log(np.diag(lower))).tobytes()
    # Covariance columns H^{-1} B are ``sample`` of ``forward``, two
    # triangular solves; they agree with the LU inverse M' M (M = L^{-1})
    # to rounding, not bit for bit.
    half = np.linalg.solve(lower, np.eye(d))
    ref = half.T @ half
    cov = factor.sample(factor.forward(np.eye(d)))
    assert cov.shape == ref.shape
    assert (np.abs(cov - ref) <= 1e-11 * np.abs(ref).max(axis=0, initial=0.0)).all()


@pytest.mark.parametrize("d", [0, 1, 2, 5, 52, 129, 298])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_substitution_matches_the_lu_solve(d, seed):
    # Factor.forward, the solve with L, against np.linalg.solve(L, b):
    # LU pivots on L, so the two agree to rounding, column by column.
    factor = Factor.of(badly_scaled_spd(d, seed))
    g = np.random.default_rng(300 + seed)
    rhs = [
        g.standard_normal(d),
        g.standard_normal((d, 4)),
        g.standard_normal((d, 3)) * np.array([1e-9, 1.0, 1e9]),  # badly scaled columns
    ]
    for b in rhs:
        x = factor.forward(b)
        ref = np.linalg.solve(factor.lower, b) if d else np.zeros(b.shape)
        assert x.shape == ref.shape and x.flags.c_contiguous
        assert (np.abs(x - ref) <= 1e-12 * np.abs(ref).max(axis=0, initial=0.0)).all()


def test_forward_substitution_raises_on_a_zero_diagonal():
    lower = np.tril(np.ones((3, 3)))
    lower[1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(lower, np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        Factor(lower).forward(np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        Factor(lower).forward(np.ones((3, 2)))


@pytest.mark.parametrize(
    "h",
    [
        badly_scaled_spd(6, 0),
        badly_scaled_spd(52, 1),
        np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
        -np.eye(3),
        np.zeros((3, 3)),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, np.inf]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),  # the wrapper factors this one
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
        np.array([[4.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, -1.0]]),
        np.zeros((0, 0)),
    ],
    ids=["pd-6", "pd-52", "indefinite", "negative", "zero", "inf", "inf-last", "nan", "nan-off", "nan-then-neg", "empty"],
)
def test_try_cholesky_fails_exactly_where_numpy_cholesky_raises(h):
    # Factor.of, the one constructor.
    ref = wrapper_cholesky(h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        factor = Factor.of(h)
    if ref is None:
        assert factor is None
    else:
        assert factor is not None and factor.lower.shape == ref.shape
        assert factor.lower.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [0, 1, 5, 129, 298])
def test_each_member_of_a_factor_stack_has_the_bits_of_its_single_matrix_factor(d):
    hs = np.stack([badly_scaled_spd(d, seed) for seed in range(3)])
    g = np.random.default_rng(300 + d)
    b = g.standard_normal((3, d)) * np.exp(g.uniform(-20.0, 20.0, (3, d)))
    for k in (3, 1):
        stack = Factor.of(hs[:k])
        assert stack.ok.tolist() == [True] * k
        x, z, log_det = stack.solve(b[:k]), stack.sample(b[:k]), stack.half_log_det()
        assert x.shape == z.shape == (k, d) and log_det.shape == (k,)
        for r in range(k):
            single = Factor.of(hs[r])
            assert stack.lower[r].tobytes() == single.lower.tobytes()
            assert x[r].tobytes() == single.solve(b[r]).tobytes()
            assert z[r].tobytes() == single.sample(b[r]).tobytes()
            assert log_det[r].tobytes() == np.float64(single.half_log_det()).tobytes()


FACTOR_STACKS = {
    1: [np.array([[2.0]]), np.array([[-1.0]]), np.array([[np.nan]]), np.array([[0.0]]), np.array([[np.inf]])],
    2: [
        badly_scaled_spd(2, 0),
        np.array([[1.0, 2.0], [2.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, np.inf]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[1.0, np.nan], [np.nan, 1.0]]),
    ],
    6: [badly_scaled_spd(6, 0), -np.eye(6), badly_scaled_spd(6, 1), np.diag([4.0, np.nan, 1.0, 1.0, 1.0, -1.0])],
}


@pytest.mark.parametrize("d", sorted(FACTOR_STACKS))
def test_a_factor_stack_fails_exactly_the_members_numpy_cholesky_raises_on(d):
    hs = np.stack(FACTOR_STACKS[d])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = Factor.of(hs)
    refs = [wrapper_cholesky(h) for h in hs]
    assert stack.ok.tolist() == [ref is not None for ref in refs]
    assert 0 < stack.ok.sum() < len(hs)
    for r, ref in enumerate(refs):
        if ref is not None:
            assert stack.lower[r].tobytes() == ref.tobytes()
    # One member that does not factor, alone.
    one = Factor.of(hs[~stack.ok][:1])
    assert one.ok.tolist() == [False]


# ---------------------------------------------------------------------------
# Edge-list files


def test_edge_list_round_trip(tmp_path, two_component_graph):
    path = tmp_path / "graph.edges"
    write_edge_list(two_component_graph, path)
    assert read_edge_list(path) == two_component_graph
    assert read_edge_list(path, n_nodes=9).n_nodes == 9


def test_edge_list_parsing(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# comment\n\n1 0\n2 1\n")
    g = read_edge_list(path)
    assert g.n_nodes == 3
    assert g.edges == ((0, 1), (1, 2))
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1 2\n")
    with pytest.raises(ValueError, match="expected"):
        read_edge_list(bad)
