"""Undirected sensor-network graphs and their Laplacian spectra.

The graph Laplacian L = D - A drives everything here: its nullspace is the
consensus subspace, and its largest eigenvalue bounds every step size the
filter accepts. Graphs are unweighted (a_ij in {0, 1}) and static, and are
stored as edge arrays in CSR (compressed sparse row) form: the sorted
neighbor list of every node, one after another, plus the offset of each
node's list. One Laplacian product then costs O(E), as one consensus round
does in the network. The filter uses only the node degrees and
`SensorGraph.disagreement`; a dense Laplacian exists only inside the
product on small graphs and, transiently, inside `spectral_summary`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from dkf_admm.exceptions import (
    ConfigRejected,
    DimensionError,
    GraphGenerationFailed,
    GraphNotConnected,
    SpectralFailure,
)

_GEOMETRIC_RETRIES = 50
# Graphs with fewer nodes take one dense L @ v GEMM in `disagreement`: it
# beats the edge gather while the N x N Laplacian stays in cache (measured
# crossover at N = 300-400 for 4 to 10 columns).
DENSE_PRODUCT_NODES = 400


def _laplacian(n_nodes, indptr, indices):
    """The dense N x N Laplacian of CSR edge arrays."""
    lap = np.zeros((n_nodes, n_nodes))
    lap[np.repeat(np.arange(n_nodes), np.diff(indptr)), indices] = -1.0
    lap[np.diag_indices(n_nodes)] = np.diff(indptr)
    return lap


@dataclass(frozen=True, eq=False)
class SensorGraph:
    """An undirected communication graph on N sensor nodes, built from
    `edges`, (i, j) pairs with i != j (repeats and reversed pairs collapse),
    as read-only CSR edge arrays: the neighbors of node i are
    indices[indptr[i]:indptr[i + 1]], sorted ascending, and every edge
    appears once from each end (2E entries). A network has at least 2
    nodes; nodes of degree 0 are allowed, and `is_connected` tells them apart.
    """

    n_nodes: int
    edges: InitVar
    indptr: np.ndarray = field(init=False)
    indices: np.ndarray = field(init=False)
    degree: np.ndarray = field(init=False)
    _dense: np.ndarray | None = field(init=False, repr=False)
    _segments: tuple = field(init=False, repr=False)

    def __post_init__(self, edges):
        n = self.n_nodes
        if n < 2:
            raise ConfigRejected(f"a sensor network needs at least 2 nodes, got {n}")
        pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        if np.any((pairs < 0) | (pairs >= n)):  # would alias another (i, j) key
            raise ConfigRejected(f"edges must join nodes in 0..{n - 1}")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ConfigRejected("an edge must join two distinct nodes, not a self-loop")
        rows, cols = np.concatenate([pairs, pairs[:, ::-1]]).T
        keys = np.unique(rows * n + cols)
        indptr = np.searchsorted(keys // n, np.arange(n + 1))
        indices = keys % n
        counts = np.diff(indptr)
        deg = counts.astype(float)
        dense = _laplacian(n, indptr, indices) if n < DENSE_PRODUCT_NODES else None
        # np.add.reduceat gives an empty segment the next row (and fails on a
        # trailing one), so the gather sums only the nodes with neighbors
        nonempty = slice(None) if counts.all() else np.flatnonzero(counts)
        for name, arr in dict(indptr=indptr, indices=indices, degree=deg, _dense=dense).items():
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_segments", (nonempty, indptr[:-1][nonempty]))

    def disagreement(self, values) -> np.ndarray:
        """Row i is the sum of (values_i - values_j) over the neighbors j of
        node i: the lifted Laplacian (L kron I_d) applied to the stacked
        per-node rows of `values`, shape (N, d) or (N, ...). Trailing axes
        are flattened, so R runs of (N, R, d) rows make one product. Small
        graphs take one dense L @ v GEMM, larger ones gather the neighbor
        rows along the edge arrays and sum each node's segment."""
        v = np.asarray(values, dtype=float)
        if v.ndim < 2 or v.shape[0] != self.n_nodes:
            raise DimensionError(
                f"need one row per node, shape ({self.n_nodes}, d), got {v.shape}"
            )
        flat = v.reshape(self.n_nodes, -1)
        return self._apply(flat, np.empty(flat.shape)).reshape(v.shape)

    def _apply(self, flat, out) -> np.ndarray:
        """out = (L kron I) flat for (N, c) rows, without checks; returns out.
        `out` must not overlap `flat`."""
        if self._dense is not None:
            return np.matmul(self._dense, flat, out=out)
        np.multiply(self.degree[:, None], flat, out=out)
        nonempty, starts = self._segments
        out[nonempty] -= np.add.reduceat(np.take(flat, self.indices, axis=0), starts, axis=0)
        return out


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """Sorted Laplacian eigenvalues with the two that matter pulled out:
    lambda_2 (algebraic connectivity) and lambda_max (bounds all step sizes).
    """

    eigenvalues: np.ndarray
    lambda_2: float
    lambda_max: float


def build_graph(topology, n_nodes, *, radius=None, seed=None, edges=None):
    """Construct a SensorGraph from a named topology.

    Parameters
    ----------
    topology : str
        One of ``ring``, ``complete``, ``path``, ``random_geometric``
        (requires `seed` and a finite `radius` > 0), or ``explicit`` (requires
        `edges`, an iterable of (i, j) pairs).
    n_nodes : int
        Number of nodes, at least 2.
    """
    if topology == "complete":
        return SensorGraph(n_nodes, np.argwhere(np.tri(n_nodes, k=-1)))
    if topology in ("ring", "path"):
        i = np.arange(n_nodes - 1)
        pairs = np.column_stack([i, i + 1])
        if topology == "ring" and n_nodes > 2:
            pairs = np.vstack([pairs, [0, n_nodes - 1]])
        return SensorGraph(n_nodes, pairs)
    if topology == "explicit":
        if edges is None:
            raise ConfigRejected("explicit topology requires an edge list")
        g = SensorGraph(n_nodes, list(edges))
        if not is_connected(g):
            raise GraphNotConnected("explicit edge list is not connected")
        return g
    if topology == "random_geometric":
        if seed is None or radius is None or not 0 < radius < np.inf:
            raise ConfigRejected("random_geometric requires radius and seed, and a finite "
                                 f"radius > 0, got radius={radius!r}, seed={seed!r}")
        rng = np.random.default_rng(seed)
        for _ in range(_GEOMETRIC_RETRIES):
            g = SensorGraph(n_nodes, _geometric_edges(rng.uniform(size=(n_nodes, 2)), radius))
            if is_connected(g):
                return g
        raise GraphGenerationFailed(
            f"no connected geometric graph in {_GEOMETRIC_RETRIES} draws "
            f"(N={n_nodes}, radius={radius})"
        )
    raise ConfigRejected(f"unknown topology {topology!r}")


def _geometric_edges(pts, radius):
    """The pairs of points at most `radius` apart, as (E, 2) indices.

    Sweeps the points in x order: offset k pairs each point with the k-th
    next one, for the points whose x window still reaches that far. The
    window is padded by a relative 1e-9, so only the squared-distance test
    (the same floating-point operations as a full N x N distance matrix)
    decides, in O(N) memory per offset.
    """
    order = np.argsort(pts[:, 0], kind="stable")
    p = pts[order]
    reach = np.searchsorted(p[:, 0], p[:, 0] + radius * (1.0 + 1e-9), side="right")
    reach -= np.arange(len(p)) + 1  # how many later points each window holds
    pairs = []
    for k in range(1, int(reach.max(initial=0)) + 1):
        i = np.flatnonzero(reach >= k)
        d2 = ((p[i] - p[i + k]) ** 2).sum(axis=1)
        i = i[d2 <= radius * radius]
        pairs.append(np.column_stack([order[i], order[i + k]]))
    return np.concatenate(pairs) if pairs else np.empty((0, 2), dtype=np.intp)


def is_connected(g: SensorGraph) -> bool:
    """Breadth-first reachability of every node from node 0, one frontier
    of nodes at a time over the edge arrays."""
    seen = np.zeros(g.n_nodes, dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        starts = g.indptr[frontier]
        counts = g.indptr[frontier + 1] - starts
        # positions of all the frontier's neighbor lists in `indices`
        offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
        reached = g.indices[offsets + np.arange(counts.sum())]
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    return bool(seen.all())


def spectral_summary(g: SensorGraph) -> SpectralSummary:
    """Eigenvalues of the (symmetric) Laplacian, sorted ascending: exact
    dense `eigvalsh` of a Laplacian built from the edge arrays for this
    call only.

    Tiny negative values from round-off are clamped to zero; anything
    below -1e-10 is treated as solver failure.
    """
    try:
        vals = np.linalg.eigvalsh(_laplacian(g.n_nodes, g.indptr, g.indices))
    except np.linalg.LinAlgError as exc:
        raise SpectralFailure(str(exc)) from exc
    if vals[0] < -1e-10:
        raise SpectralFailure(f"negative Laplacian eigenvalue {vals[0]}")
    vals = np.clip(vals, 0.0, None)
    vals.setflags(write=False)
    return SpectralSummary(
        eigenvalues=vals, lambda_2=float(vals[1]), lambda_max=float(vals[-1])
    )
