import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_adjacency, dense_laplacian, geometric_adjacency_bruteforce

from dkf_admm.exceptions import ConfigRejected, DimensionError, GraphNotConnected
from dkf_admm.graphs import (
    DENSE_PRODUCT_NODES,
    SensorGraph,
    _certified_bound,
    _level_blocks,
    build_graph,
    spectral_summary,
)
from dkf_admm.harness import ScenarioConfig, build_scenario, load_edge_list, run_scenario


def _from_adjacency(a):
    """A SensorGraph with the edges of a symmetric 0/1 matrix."""
    a = np.asarray(a)
    return SensorGraph(len(a), np.argwhere(a))


def _tree_and_chords(rng, n, split=0):
    """The edges of a random spanning tree on n nodes plus up to 4n random
    chords. With 0 < split < n, node `split` roots a second tree over the
    nodes from `split` on, and no chord joins the two: two components."""
    tree = [(i, int(rng.integers(split if i > split else 0, i)))
            for i in range(1, n) if i != split]
    chords = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
    return tree + [(i, j) for i, j in chords.tolist() if i != j and (i < split) == (j < split)]


def test_complete_k2():
    g = build_graph("complete", 2)
    assert np.array_equal(dense_adjacency(g), [[0, 1], [1, 0]])
    assert np.array_equal(dense_laplacian(g), [[1, -1], [-1, 1]])


def test_path_p3_laplacian():
    g = build_graph("path", 3)
    assert np.array_equal(dense_laplacian(g), [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_ring_degrees():
    g = build_graph("ring", 5)
    assert np.all(g.degree == 2)


def test_min_nodes():
    with pytest.raises(ValueError):
        build_graph("ring", 1)


def test_connectivity():
    assert build_graph("complete", 2).degree.tolist() == [1, 1]
    assert build_graph("path", 3).degree.tolist() == [1, 2, 1]
    # two disjoint edges on 4 nodes, and an isolated last node
    with pytest.raises(GraphNotConnected, match="node 0 reaches 2 of 4"):
        _from_adjacency([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    with pytest.raises(GraphNotConnected, match="node 0 reaches 3 of 4"):
        SensorGraph(4, [(0, 1), (1, 2)])


def test_explicit_disconnected_rejected():
    with pytest.raises(GraphNotConnected, match="not connected"):
        SensorGraph(4, [(0, 1), (2, 3)])


def test_random_geometric_connected_and_reproducible():
    g1 = build_graph("random_geometric", 100, radius=0.3, seed=7)
    g2 = build_graph("random_geometric", 100, radius=0.3, seed=7)
    assert np.array_equal(dense_adjacency(g1), dense_adjacency(g2))


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
    vals, vecs = np.linalg.eigh(dense_laplacian(g))
    s = spectral_summary(g)
    assert np.allclose(s.eigenvalues, np.clip(vals, 0, None), atol=1e-10)
    res = dense_laplacian(g) @ vecs - vecs * vals
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
    dense = np.kron(dense_laplacian(g), np.eye(d)) @ values.ravel()
    assert np.abs(stacked - dense).max() < 1e-12


def test_disagreement_zero_iff_consensus():
    g = build_graph("ring", 6)
    v = np.full((6, 2), 3.14)
    assert np.allclose(g.disagreement(v), 0)
    v2 = v.copy()
    v2[3] += 1.0
    assert np.abs(g.disagreement(v2)).max() > 0


def _rejected_as_disconnected(a):
    """Whether the constructor raises GraphNotConnected on adjacency `a`."""
    try:
        _from_adjacency(a)
    except GraphNotConnected:
        return True
    return False


def test_lambda2_positive_iff_connected():
    # the constructor rejects a graph exactly when the dense lambda_2 is 0
    rng = np.random.default_rng(42)
    verdicts = []
    for p in [0.1, 0.2, 0.3, 0.5] * 5:
        n = int(rng.integers(5, 15))
        a = np.triu(rng.uniform(size=(n, n)) < p, 1)
        a = (a | a.T).astype(float)
        lambda_2 = np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)[1]
        verdicts.append(_rejected_as_disconnected(a))
        assert verdicts[-1] == (lambda_2 <= 1e-9)
    assert any(verdicts) and not all(verdicts)
    # deliberately split graph
    a = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (3, 4), (4, 5)]:
        a[i, j] = a[j, i] = 1
    assert np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)[1] < 1e-9
    assert _rejected_as_disconnected(a)


def test_edge_list_file(tmp_path):
    # also behind a UTF-8 byte-order mark, as Windows editors write: its
    # first line used to be rejected as "'\ufeff# a triangle' is not an edge"
    p = tmp_path / "graph.txt"
    for encoding in ("utf-8", "utf-8-sig"):
        p.write_text("# a triangle\n0 1\n1 2\n2 0\n", encoding=encoding)
        g = load_edge_list(p, 3)
        assert np.array_equal(dense_adjacency(g), [[0, 1, 1], [1, 0, 1], [1, 1, 0]])


def test_edge_list_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigRejected, match="nope.txt"):
        load_edge_list(tmp_path / "nope.txt", 3)


def test_edge_list_malformed_line_rejected(tmp_path):
    p = tmp_path / "graph.txt"
    for text in ("0 1\n0 1 2\n", "0 1\n2\n", "0 1\n1 x\n"):
        p.write_text(text)
        with pytest.raises(ConfigRejected, match=r"graph.txt, line 2: .* is not an edge"):
            load_edge_list(p, 3)


def test_edge_list_undecodable_file_rejected(tmp_path):
    # a raw UnicodeDecodeError before
    p = tmp_path / "graph.txt"
    p.write_bytes(b"0 1\n\xff 2\n")
    with pytest.raises(ConfigRejected, match="cannot read edge list .*graph.txt"):
        load_edge_list(p, 3)


def test_edge_list_invalid_edge_rejected(tmp_path):
    p = tmp_path / "graph.txt"
    for text in ("0 1\n# loop\n2 2\n", "0 1\n# out of range\n1 3\n", "0 1\n\n-1 2\n"):
        p.write_text(text)
        with pytest.raises(ConfigRejected, match=r"graph.txt, line 3: .* is not an edge"):
            load_edge_list(p, 3)


def test_graph_validation():
    with pytest.raises(ConfigRejected, match="self-loop"):
        SensorGraph(2, [(1, 1)])  # diagonal, as an edge pair
    # repeated and reversed pairs collapse: the neighbor lists come out
    # sorted, free of repeats and undirected by construction
    g = SensorGraph(4, [(2, 0), (0, 2), (1, 0), (2, 0), (3, 1)])
    assert g.indptr.tolist() == [0, 2, 4, 5, 6]
    assert g.indices.tolist() == [1, 2, 0, 3, 0, 1]


@st.composite
def _connected_graphs(draw):
    """Random connected graphs (a spanning tree plus chords) on both sides
    of the dense/table switch in `disagreement`, and on the table side the
    same with a hub joined to every node: its degree, N - 1, always exceeds
    the table's width of at most twice the mean degree, so its neighbors
    past that width take the remainder whenever the kind is drawn."""
    kind = draw(st.sampled_from(["dense", "table", "hub"]))
    n = draw(st.integers(2, 40) if kind == "dense"
             else st.integers(DENSE_PRODUCT_NODES, DENSE_PRODUCT_NODES + 40))
    edges = _tree_and_chords(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return SensorGraph(n, edges + [(0, i) for i in range(1, n)] if kind == "hub" else edges)


@settings(max_examples=60, deadline=None)
@given(g=_connected_graphs(), runs=st.integers(0, 4), d=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_disagreement_property_matches_dense_kronecker(g, runs, d, seed):
    # (N, d) rows when runs == 0, node-major (N, R, d) rows otherwise: 1 to
    # 12 columns, so a table product takes up to three 4-column slices
    shape = (g.n_nodes, d) if runs == 0 else (g.n_nodes, runs, d)
    values = np.random.default_rng(seed).normal(size=shape)
    big_l = np.kron(dense_laplacian(g), np.eye(d))
    got = g.disagreement(values)
    assert got.shape == shape
    per_run = [values] if runs == 0 else [values[:, r] for r in range(runs)]
    want = [(big_l @ v.ravel()).reshape(g.n_nodes, d) for v in per_run]
    want = want[0] if runs == 0 else np.stack(want, axis=1)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("kind", ["geometric", "hub and path"])
def test_table_product_is_its_4_column_slices_side_by_side(kind):
    n = 450
    g = (build_graph("random_geometric", n, radius=0.12, seed=3) if kind == "geometric" else
         SensorGraph(n, [(i, i + 1) for i in range(n - 1)] + [(0, i) for i in range(2, n)]))
    values = np.random.default_rng(1).normal(size=(g.n_nodes, 13))
    for c in range(1, 14):
        slices = [g.disagreement(values[:, lo:min(lo + 4, c)]) for lo in range(0, c, 4)]
        assert np.array_equal(g.disagreement(values[:, :c]), np.hstack(slices)), c


@pytest.mark.parametrize("topology", ["ring", "path"])
def test_two_neighbor_table_product_sums_in_csr_order(topology):
    # a width-2 table adds a node's two neighbors in CSR order, as the
    # golden ring400 outputs were made: d_i v_i - (v_first + v_last)
    g = build_graph(topology, DENSE_PRODUCT_NODES + 1)
    v = np.random.default_rng(2).normal(size=(g.n_nodes, 6))
    first, last = v[g.indices[g.indptr[:-1]]], v[g.indices[g.indptr[1:] - 1]]
    pair_sum = np.where(g.degree[:, None] == 2, first + last, first)
    assert np.array_equal(g.disagreement(v), g.degree[:, None] * v - pair_sum)


def test_wide_table_product_peak_memory():
    # 40 columns at N = 10^4: the slices hold one (width, N, 4) gather at a
    # time, not all 40 columns' (about 140 MB at width 44)
    g = build_graph("random_geometric", 10**4, radius=0.028, seed=1)
    values = np.random.default_rng(3).normal(size=(g.n_nodes, 40))
    tracemalloc.start()
    try:
        g.disagreement(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_star_table_width_is_capped():
    # a hub on 10^4 leaves: width 4, and the hub's other 9,995 neighbors
    # take the remainder
    n = 10**4
    g = SensorGraph(n, [(0, i) for i in range(1, n)])
    assert len(g._table) <= math.ceil(2 * g.degree.mean())
    v = np.random.default_rng(4).normal(size=(n, 5))
    want = v - v[0]
    want[0] = (n - 1) * v[0] - v[1:].sum(axis=0)
    assert np.allclose(g.disagreement(v), want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("n,radius", [
    (12, 0.35), (12, 1.0), (60, 0.3), (200, 0.15), (500, 0.1), (1000, 0.08),
])
@pytest.mark.parametrize("seed", [1, 7, 71])
def test_geometric_graph_matches_bruteforce(n, radius, seed):
    g = build_graph("random_geometric", n, radius=radius, seed=seed)
    want = geometric_adjacency_bruteforce(n, radius, seed)
    assert np.array_equal(dense_adjacency(g), want)


def test_geometric_build_never_holds_an_n_by_n_matrix():
    n = 5000
    tracemalloc.start()
    try:
        g = build_graph("random_geometric", n, radius=0.03, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n_nodes == n
    # one N x N float matrix would be 8 N^2 = 200 MB
    assert peak < 8 * n * n / 8


def test_build_scenario_never_holds_an_n_by_n_matrix():
    # the certified lambda_max needs Laplacian products and a block
    # Cholesky only; the exact eigenvalues are not computed unless read
    n = 5000
    config = ScenarioConfig(topology="random_geometric", n_nodes=n, radius=0.03, graph_seed=4)
    tracemalloc.start()
    try:
        graph, _, spectrum, params = build_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.n_nodes == n and spectrum.lambda_max > 0 and params.alpha_nu > 0
    # a quarter of one N x N float matrix (8 N^2 = 200 MB)
    assert peak < 2 * n * n


def test_large_run_calls_no_dense_eigensolver(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("eigvalsh called")

    config = ScenarioConfig(topology="random_geometric", n_nodes=450, radius=0.12, graph_seed=3,
                            l_sub=3, horizon_steps=3)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    metrics = run_scenario(config)
    assert np.isfinite(metrics.rmse_pos).all()
    with pytest.raises(AssertionError, match="eigvalsh called"):
        spectral_summary(build_graph("ring", DENSE_PRODUCT_NODES)).lambda_2


@st.composite
def _large_graphs(draw):
    """(kind, graph) from DENSE_PRODUCT_NODES to 700 nodes (a grid up to
    729): a geometric graph, a random connected explicit graph, an odd or an
    even ring, a path, a grid, or a hub joined to every node (one level
    holds all the others)."""
    kind = draw(st.sampled_from(["geometric", "explicit", "odd ring", "even ring", "path",
                                 "grid", "hub"]))
    n = draw(st.integers(DENSE_PRODUCT_NODES, 700))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "geometric":
        return kind, build_graph("random_geometric", n, radius=draw(st.floats(0.1, 0.3)),
                                 seed=seed)
    if kind.endswith("ring"):
        return kind, build_graph("ring", n | 1 if kind == "odd ring" else n & ~1)
    if kind == "path":
        return kind, build_graph("path", n)
    if kind == "grid":
        width = draw(st.integers(2, 30))
        ids = np.arange(width * -(-n // width)).reshape(-1, width)
        return kind, SensorGraph(ids.size, np.vstack([
            np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()]),
            np.column_stack([ids[:-1].ravel(), ids[1:].ravel()]),
        ]))
    edges = _tree_and_chords(np.random.default_rng(seed), n)
    if kind == "explicit":
        return kind, SensorGraph(n, edges)
    return kind, SensorGraph(n, edges + [(0, i) for i in range(1, n)])  # hub


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["isolated", "two components"]),
       n=st.integers(2, DENSE_PRODUCT_NODES + 40), seed=st.integers(0, 2**32 - 1))
def test_disconnected_graphs_are_rejected(kind, n, seed):
    # the kinds the constructor no longer admits: a connected graph with some
    # nodes cut off (degree 0), or two components with chords inside each
    rng = np.random.default_rng(seed)
    if kind == "two components":
        edges = _tree_and_chords(rng, n, split=int(rng.integers(1, n)))
    else:
        isolated = rng.choice(n, size=int(rng.integers(1, min(n, 20) + 1)), replace=False)
        edges = [(i, j) for i, j in _tree_and_chords(rng, n)
                 if i not in isolated and j not in isolated]
    with pytest.raises(GraphNotConnected, match="not connected"):
        SensorGraph(n, edges)


@settings(max_examples=30, deadline=None)
@given(case=_large_graphs())
def test_level_blocks_make_the_laplacian_block_tridiagonal(case):
    kind, g = case
    blocks = _level_blocks(g)
    order = np.concatenate(blocks)
    assert np.array_equal(np.sort(order), np.arange(g.n_nodes)), kind
    block_of = np.empty(g.n_nodes, dtype=np.intp)
    block_of[order] = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    rows = np.repeat(np.arange(g.n_nodes), np.diff(g.indptr))
    assert np.abs(block_of[rows] - block_of[g.indices]).max(initial=0) <= 1, kind
    assert all(len(b) >= 64 for b in blocks[:-1]), kind


@settings(max_examples=30, deadline=None)
@given(case=_large_graphs())
def test_certified_lambda_max_bounds_the_exact_one(case):
    kind, g = case
    a = dense_adjacency(g)
    rows, cols = np.nonzero(a)
    degree = a.sum(axis=1)
    anderson_morley = (degree[rows] + degree[cols]).max()
    exact = np.linalg.eigvalsh(dense_laplacian(g))[-1]
    got = spectral_summary(g).lambda_max
    # eigvalsh itself may land an ulp or two above an exact 4 (even rings)
    assert exact * (1 - 1e-14) <= got <= anderson_morley, kind
    if kind == "geometric":
        assert got - exact <= 1e-9 * exact
    # the Cholesky test proves nothing below the exact lambda_max
    assert _certified_bound(g, exact * (1 - 1e-6), _level_blocks(g)) is None, kind


def test_certificate_width_is_capped():
    # a hub on every node puts all the others in one breadth-first level: a
    # 1,099-row block, over the cap, so no 1,099 x 1,099 pivot is formed and
    # lambda_max is the Anderson-Morley bound
    n = 1100
    g = SensorGraph(n, _tree_and_chords(np.random.default_rng(5), n) + [(0, i) for i in range(1, n)])
    assert max(map(len, _level_blocks(g))) > 1024
    rows = np.repeat(np.arange(n), np.diff(g.indptr))
    anderson_morley = (g.degree[rows] + g.degree[g.indices]).max()
    tracemalloc.start()
    try:
        got = spectral_summary(g).lambda_max
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == anderson_morley
    assert peak < 8 * 2**20


@pytest.mark.parametrize("topology", ["ring", "path", "complete"])
def test_graph_arrays_out_of_memory_are_config_rejected(monkeypatch, topology):
    # a stand-in np.arange fails as a real allocation too large for memory
    # would, without one being made
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (2**40,)")

    monkeypatch.setattr(np, "arange", out_of_memory)
    with pytest.raises(ConfigRejected, match=f"a {topology} graph of 10 nodes does not fit "
                                             "in memory: Unable to allocate 8.00 TiB"):
        build_graph(topology, 10)
