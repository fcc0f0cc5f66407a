import numpy as np
import pytest

from dkf_admm.exceptions import ConfigRejected, DimensionError, GraphNotConnected
from dkf_admm.graphs import (
    SensorGraph,
    build_graph,
    is_connected,
    load_edge_list,
    spectral_summary,
)


def test_complete_k2():
    g = build_graph("complete", 2)
    assert np.array_equal(g.adjacency, [[0, 1], [1, 0]])
    assert np.array_equal(g.laplacian, [[1, -1], [-1, 1]])


def test_path_p3_laplacian():
    g = build_graph("path", 3)
    assert np.array_equal(g.laplacian, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_ring_degrees():
    g = build_graph("ring", 5)
    assert np.all(g.degree == 2)
    assert is_connected(g)


def test_min_nodes():
    with pytest.raises(ValueError):
        build_graph("ring", 1)


def test_connectivity():
    assert is_connected(build_graph("complete", 2))
    assert is_connected(build_graph("path", 3))
    # two disjoint edges on 4 nodes
    g = SensorGraph(4, np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))
    assert not is_connected(g)


def test_explicit_disconnected_rejected():
    with pytest.raises(GraphNotConnected):
        build_graph("explicit", 4, edges=[(0, 1), (2, 3)])


def test_random_geometric_connected_and_reproducible():
    g1 = build_graph("random_geometric", 100, radius=0.3, seed=7)
    g2 = build_graph("random_geometric", 100, radius=0.3, seed=7)
    assert is_connected(g1)
    assert np.array_equal(g1.adjacency, g2.adjacency)


def test_spectral_k2():
    s = spectral_summary(build_graph("complete", 2))
    assert np.allclose(s.eigenvalues, [0, 2], atol=1e-10)
    assert s.lambda_max == pytest.approx(2.0)


def test_spectral_p3():
    s = spectral_summary(build_graph("path", 3))
    assert np.allclose(s.eigenvalues, [0, 1, 3], atol=1e-10)


def test_spectral_k5():
    s = spectral_summary(build_graph("complete", 5))
    assert s.lambda_max == pytest.approx(5.0)
    assert s.lambda_2 == pytest.approx(5.0)


def test_gershgorin_bound():
    g = build_graph("random_geometric", 50, radius=0.3, seed=1)
    s = spectral_summary(g)
    assert s.lambda_max <= 2 * g.degree.max() + 1e-9


def test_eigenpair_residuals_n100():
    g = build_graph("random_geometric", 100, radius=0.3, seed=7)
    vals, vecs = np.linalg.eigh(g.laplacian)
    s = spectral_summary(g)
    assert np.allclose(s.eigenvalues, np.clip(vals, 0, None), atol=1e-10)
    res = g.laplacian @ vecs - vecs * vals
    assert np.abs(res).max() < 1e-10


def test_disagreement_examples():
    k2 = build_graph("complete", 2)
    v = np.array([1.0, 2.0])
    assert np.allclose(k2.disagreement([v, v]), 0)
    assert np.allclose(k2.disagreement([[1.0], [0.0]]), [[1.0], [-1.0]])
    p3 = build_graph("path", 3)
    assert np.allclose(p3.disagreement([[1.0], [2.0], [4.0]])[1], [-1.0])


def test_disagreement_dimension_mismatch():
    g = build_graph("path", 3)
    with pytest.raises(DimensionError):
        g.disagreement([[1.0], [2.0]])  # two rows for three nodes
    with pytest.raises(DimensionError):
        g.disagreement([1.0, 2.0, 3.0])  # not one row per node


@pytest.mark.parametrize("topology,kwargs", [
    ("ring", {}),
    ("path", {}),
    ("complete", {}),
    ("random_geometric", {"radius": 0.35, "seed": 11}),
])
def test_disagreement_matches_dense_kronecker(topology, kwargs):
    n, d = 12, 3
    g = build_graph(topology, n, **kwargs)
    rng = np.random.default_rng(0)
    values = rng.normal(size=(n, d))
    stacked = g.disagreement(values).ravel()
    dense = np.kron(g.laplacian, np.eye(d)) @ values.ravel()
    assert np.abs(stacked - dense).max() < 1e-12


def test_disagreement_zero_iff_consensus():
    g = build_graph("ring", 6)
    v = np.full((6, 2), 3.14)
    assert np.allclose(g.disagreement(v), 0)
    v2 = v.copy()
    v2[3] += 1.0
    assert np.abs(g.disagreement(v2)).max() > 0


def test_lambda2_positive_iff_connected():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(5, 15))
        a = (rng.uniform(size=(n, n)) < 0.5).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        g = SensorGraph(n, a)
        vals = np.linalg.eigvalsh(g.laplacian)
        assert is_connected(g) == (vals[1] > 1e-9)
    # deliberately split graph
    a = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (3, 4), (4, 5)]:
        a[i, j] = a[j, i] = 1
    g = SensorGraph(6, a)
    assert not is_connected(g)
    assert np.linalg.eigvalsh(g.laplacian)[1] < 1e-9


def test_edge_list_file(tmp_path):
    p = tmp_path / "graph.txt"
    p.write_text("# a triangle\n0 1\n1 2\n2 0\n")
    g = load_edge_list(p, 3)
    assert np.array_equal(g.adjacency, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def test_edge_list_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigRejected, match="nope.txt"):
        load_edge_list(tmp_path / "nope.txt", 3)


def test_edge_list_malformed_line_rejected(tmp_path):
    p = tmp_path / "graph.txt"
    for text in ("0 1\n0 1 2\n", "0 1\n2\n", "0 1\n1 x\n"):
        p.write_text(text)
        with pytest.raises(ConfigRejected, match=r"graph.txt, line 2: .* is not an edge"):
            load_edge_list(p, 3)


def test_edge_list_invalid_edge_rejected(tmp_path):
    p = tmp_path / "graph.txt"
    for text in ("0 1\n# loop\n2 2\n", "0 1\n# out of range\n1 3\n", "0 1\n\n-1 2\n"):
        p.write_text(text)
        with pytest.raises(ConfigRejected, match=r"graph.txt, line 3: .* is not an edge"):
            load_edge_list(p, 3)


def test_graph_validation():
    with pytest.raises(ValueError):
        SensorGraph(2, np.array([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(ValueError):
        SensorGraph(2, np.array([[1, 1], [1, 0]]))  # diagonal
