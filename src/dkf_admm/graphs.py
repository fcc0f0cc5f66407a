"""Undirected sensor-network graphs and their Laplacian spectra.

The graph Laplacian L = D - A drives everything here: its nullspace is the
consensus subspace, and its largest eigenvalue bounds every step size the
filter accepts. Graphs are unweighted (a_ij in {0, 1}) and static. The
filter uses only the node degrees and `SensorGraph.disagreement`, so how
the edges are stored is decided here alone; the dense Laplacian is the
test oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from dkf_admm.exceptions import (
    ConfigRejected,
    DimensionError,
    GraphGenerationFailed,
    GraphNotConnected,
    SpectralFailure,
)

_GEOMETRIC_RETRIES = 50
TOPOLOGIES = ("ring", "complete", "path", "random_geometric", "explicit")


@dataclass(frozen=True)
class SensorGraph:
    """An undirected communication graph on N sensor nodes.

    Immutable after construction; the arrays are marked read-only so the
    graph can be shared across simulation workers.
    """

    n_nodes: int
    adjacency: np.ndarray
    degree: np.ndarray = field(init=False)
    laplacian: np.ndarray = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=float)
        if a.shape != (self.n_nodes, self.n_nodes):
            raise DimensionError(
                f"adjacency must be {self.n_nodes}x{self.n_nodes}, got {a.shape}"
            )
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0.0):
            raise ValueError("adjacency must have a zero diagonal")
        if not np.all((a == 0.0) | (a == 1.0)):
            raise ValueError("edges must be unweighted (0/1)")
        deg = a.sum(axis=1)
        lap = np.diag(deg) - a
        for arr in (a, deg, lap):
            arr.setflags(write=False)
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(self, "degree", deg)
        object.__setattr__(self, "laplacian", lap)

    def disagreement(self, values) -> np.ndarray:
        """Row i is the sum of (values_i - values_j) over the neighbors j of
        node i: the lifted Laplacian (L kron I_d) applied to the stacked
        per-node rows of `values`, shape (N, d) or (N, ...). Trailing axes
        are flattened, so R runs of (N, R, d) rows make one (N, R*d) GEMM."""
        v = np.asarray(values, dtype=float)
        if v.ndim < 2 or v.shape[0] != self.n_nodes:
            raise DimensionError(
                f"need one row per node, shape ({self.n_nodes}, d), got {v.shape}"
            )
        flat = v.reshape(self.n_nodes, -1)
        return (self.degree[:, None] * flat - self.adjacency @ flat).reshape(v.shape)


@dataclass(frozen=True)
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
        (requires `radius` and `seed`), or ``explicit`` (requires `edges`,
        an iterable of (i, j) pairs).
    n_nodes : int
        Number of nodes, at least 2.
    """
    if n_nodes < 2:
        raise ValueError("a sensor network needs at least 2 nodes")
    if topology == "complete":
        a = np.ones((n_nodes, n_nodes)) - np.eye(n_nodes)
        return SensorGraph(n_nodes, a)
    if topology in ("ring", "path"):
        a = np.zeros((n_nodes, n_nodes))
        for i in range(n_nodes - 1):
            a[i, i + 1] = a[i + 1, i] = 1.0
        if topology == "ring" and n_nodes > 2:
            a[0, -1] = a[-1, 0] = 1.0
        return SensorGraph(n_nodes, a)
    if topology == "explicit":
        if edges is None:
            raise ValueError("explicit topology requires an edge list")
        a = np.zeros((n_nodes, n_nodes))
        for i, j in edges:
            if not (0 <= i < n_nodes and 0 <= j < n_nodes) or i == j:
                raise ValueError(f"invalid edge ({i}, {j})")
            a[i, j] = a[j, i] = 1.0
        g = SensorGraph(n_nodes, a)
        if not is_connected(g):
            raise GraphNotConnected("explicit edge list is not connected")
        return g
    if topology == "random_geometric":
        if radius is None or seed is None:
            raise ValueError("random_geometric requires radius and seed")
        rng = np.random.default_rng(seed)
        for _ in range(_GEOMETRIC_RETRIES):
            pts = rng.uniform(size=(n_nodes, 2))
            d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            a = (d2 <= radius * radius).astype(float)
            np.fill_diagonal(a, 0.0)
            g = SensorGraph(n_nodes, a)
            if is_connected(g):
                return g
        raise GraphGenerationFailed(
            f"no connected geometric graph in {_GEOMETRIC_RETRIES} draws "
            f"(N={n_nodes}, radius={radius})"
        )
    raise ValueError(f"unknown topology {topology!r}")


def load_edge_list(path, n_nodes):
    """Build an explicit graph from a plain-text edge-list file.

    One ``i j`` pair per line, 0-indexed, whitespace-separated; lines
    starting with ``#`` are comments. An unreadable file, or a line that is
    not two distinct indices in 0..n_nodes-1, raises ConfigRejected.
    """
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigRejected(f"cannot read edge list {path}: {exc}") from exc
    edges = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            i, j = map(int, line.split())
            if not (0 <= i < n_nodes and 0 <= j < n_nodes) or i == j:
                raise ValueError
        except ValueError:
            raise ConfigRejected(f"{path}, line {lineno}: {line!r} is not an edge "
                                 f"between two distinct nodes 0..{n_nodes - 1}") from None
        edges.append((i, j))
    return build_graph("explicit", n_nodes, edges=edges)


def is_connected(g: SensorGraph) -> bool:
    """Breadth-first reachability of every node from node 0."""
    seen = np.zeros(g.n_nodes, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in np.flatnonzero(g.adjacency[i]):
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    return bool(seen.all())


def spectral_summary(g: SensorGraph, tol: float = 1e-10) -> SpectralSummary:
    """Eigenvalues of the (symmetric) Laplacian, sorted ascending.

    Tiny negative values from round-off are clamped to zero; anything
    below -tol is treated as solver failure.
    """
    try:
        vals = np.linalg.eigvalsh(g.laplacian)
    except np.linalg.LinAlgError as exc:
        raise SpectralFailure(str(exc)) from exc
    if vals[0] < -tol:
        raise SpectralFailure(f"negative Laplacian eigenvalue {vals[0]}")
    vals = np.clip(vals, 0.0, None)
    vals.setflags(write=False)
    return SpectralSummary(
        eigenvalues=vals, lambda_2=float(vals[1]), lambda_max=float(vals[-1])
    )
