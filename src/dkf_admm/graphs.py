"""Undirected sensor-network graphs and their Laplacian spectra.

The graph Laplacian L = D - A drives everything here: its nullspace is the
consensus subspace, and its largest eigenvalue bounds every step size the
filter accepts. Graphs are unweighted (a_ij in {0, 1}) and static, and are
stored as edge arrays in CSR (compressed sparse row) form: the sorted
neighbor list of every node, one after another, plus the offset of each
node's list. From DENSE_PRODUCT_NODES nodes on, a graph also holds a
padded neighbor table, with the neighbors of hubs past its width in a CSR
remainder (the hybrid ELL + COO format of Bell & Garland, SC 2009). One
Laplacian product then costs O(E), as one consensus round does in the
network. Every graph is connected, as consensus needs. The filter uses
only the node degrees, the unchecked product `SensorGraph._apply` and
the spectrum's lambda_max. Below DENSE_PRODUCT_NODES nodes, lambda_max is
exact (dense `eigvalsh`); from there on `spectral_summary` certifies an
upper bound from Laplacian products and a Cholesky in blocks of
breadth-first levels, without an N x N matrix. A dense Laplacian exists
only in the product on small graphs and in `eigvalsh`, which large
graphs run only when their exact eigenvalues or lambda_2 are read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from dkf_admm.exceptions import (
    ConfigRejected,
    DimensionError,
    GraphGenerationFailed,
    GraphNotConnected,
    NotPositiveDefinite,
    SpectralFailure,
)
from dkf_admm.linalg import spd_cholesky

_GEOMETRIC_RETRIES = 50
# Graphs with fewer nodes take one dense L @ v GEMM in `disagreement`: it
# beats the neighbor table while the N x N Laplacian stays in cache (one
# 4-column product on rings and geometric graphs, dense against table:
# 4-9 against 7-21 us at N = 200, 12 against 8-18 at 300, 18-24 against
# 9-22 at 400, where 10 columns take 99-108 against 30-71).
DENSE_PRODUCT_NODES = 400
# The table product takes this many columns at a time, so it holds one
# (width, N, 4) gather at a time; `np.take` copies 4-column rows at the
# lowest cost per value of 1 to 5 or 8 columns.
_SLICE_COLUMNS = 4


# A graph's CSR edge keys i * N + j are index integers, so N^2 must fit in one.
_MAX_NODES = math.isqrt(np.iinfo(np.intp).max)


def _check_nodes(n):
    """ConfigRejected unless the node count n is an integer in 2.._MAX_NODES."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 2:
        raise ConfigRejected("a sensor network needs a whole number of at least 2 nodes, "
                             f"got {n!r}")
    if n > _MAX_NODES:
        raise ConfigRejected(f"a sensor network has at most {_MAX_NODES} nodes (its edge keys "
                             f"i N + j must fit in an index), got {n!r}")


def _laplacian(n_nodes, indptr, indices):
    """The dense N x N Laplacian of CSR edge arrays."""
    lap = np.zeros((n_nodes, n_nodes))
    lap[np.repeat(np.arange(n_nodes), np.diff(indptr)), indices] = -1.0
    lap[np.diag_indices(n_nodes)] = np.diff(indptr)
    return lap


def _neighbor_table(n_nodes, indptr, indices) -> tuple:
    """(table, remainder) of CSR edge arrays. Row k of the (w, N) table
    holds every node's k-th neighbor in CSR order, or N past the end of its
    list; w = min(max degree, ceil(2 mean degree)), so the table holds at
    most about twice the 2E entries. The neighbors of rank w and up, found
    only at nodes of over twice the mean degree, make the remainder (nodes,
    starts, neighbors): their lists in CSR order, one after another, and
    where each node's list starts. Unlike the graph's public arrays these
    stay writeable: `np.take` and `reduceat` copy a read-only index array
    on every call."""
    counts = np.diff(indptr)
    width = min(int(counts.max()), -(-2 * len(indices) // n_nodes))
    rows = np.repeat(np.arange(n_nodes), counts)
    # rank * N + node: each entry's position in the flattened table
    slot = (np.arange(len(indices)) - np.repeat(indptr[:-1], counts)) * n_nodes + rows
    short = slot < width * n_nodes
    table = np.full(width * n_nodes, n_nodes, dtype=np.intp)
    table[slot[short]] = indices[short]
    nodes, starts = np.unique(rows[~short], return_index=True)
    return table.reshape(width, n_nodes), (nodes, starts, indices[~short])


@dataclass(frozen=True, eq=False)
class SensorGraph:
    """An undirected communication graph on N sensor nodes, built from
    `edges`, (i, j) pairs with i != j (repeats and reversed pairs collapse),
    as read-only CSR edge arrays: the neighbors of node i are
    indices[indptr[i]:indptr[i + 1]], sorted ascending, and every edge
    appears once from each end (2E entries). A network has at least 2
    nodes and is connected (else GraphNotConnected), so no degree is 0.
    Below DENSE_PRODUCT_NODES nodes the graph also holds its dense
    Laplacian, from there on its neighbor table and remainder (see
    `_neighbor_table`), for the product in `disagreement`.
    """

    n_nodes: int
    edges: InitVar
    indptr: np.ndarray = field(init=False)
    indices: np.ndarray = field(init=False)
    degree: np.ndarray = field(init=False)
    _dense: np.ndarray | None = field(init=False, repr=False)
    _table: np.ndarray | None = field(init=False, repr=False)
    _rest: tuple | None = field(init=False, repr=False)
    # the table product's degrees, each repeated per column, by column count
    _degree_rows: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self, edges):
        _check_nodes(n := self.n_nodes)
        try:
            pairs = np.asarray(edges) if len(edges) else np.empty((0, 2), dtype=np.intp)
        except (TypeError, ValueError) as exc:  # not sized, or ragged
            raise ConfigRejected(f"edges must be a sized sequence of (i, j) integer pairs, "
                                 f"got {type(edges).__name__}: {exc}") from exc
        if pairs.shape[1:] != (2,) or pairs.dtype.kind not in "iu":  # no flat list, no floats
            raise ConfigRejected(f"edges must be (i, j) integer pairs, got {pairs.dtype} {pairs.shape}")
        if np.any((pairs < 0) | (pairs >= n)):  # would alias another (i, j) key
            raise ConfigRejected(f"edges must join nodes in 0..{n - 1}")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ConfigRejected("an edge must join two distinct nodes, not a self-loop")
        rows, cols = np.concatenate([pairs, pairs[:, ::-1]]).astype(np.intp).T
        keys = np.unique(rows * n + cols)
        indptr = np.searchsorted(keys // n, np.arange(n + 1))
        indices = keys % n
        deg = np.diff(indptr).astype(float)
        dense = _laplacian(n, indptr, indices) if n < DENSE_PRODUCT_NODES else None
        table, rest = (None, None) if dense is not None else _neighbor_table(n, indptr, indices)
        for name, arr in dict(indptr=indptr, indices=indices, degree=deg, _dense=dense).items():
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_rest", rest)
        if (reached := sum(map(len, _bfs_levels(self, 0)))) < n:
            raise GraphNotConnected(f"the graph is not connected: node 0 reaches {reached} of {n}")

    def disagreement(self, values) -> np.ndarray:
        """Row i is the sum of (values_i - values_j) over the neighbors j of
        node i: the lifted Laplacian (L kron I_d) applied to the stacked
        per-node rows of `values`, shape (N, d) or (N, ...). Trailing axes
        are flattened, so R runs of (N, R, d) rows make one product. Small
        graphs take one dense L @ v GEMM. Larger ones gather the neighbor
        rows along the neighbor table and sum them with one GEMV, 4 columns
        at a time, add the remainder's segment sums and subtract the total
        from degree * values."""
        v = np.asarray(values, dtype=float)
        if v.ndim < 2 or v.shape[0] != self.n_nodes:
            raise DimensionError(
                f"need one row per node, shape ({self.n_nodes}, d), got {v.shape}"
            )
        flat = v.reshape(self.n_nodes, -1)
        return self._apply(flat, np.empty(flat.shape)).reshape(v.shape)

    def _apply(self, flat, out) -> np.ndarray:
        """out = (L kron I) flat for (N, c) rows, without checks; returns out.
        `out` must be C-contiguous and must not overlap `flat`."""
        if self._dense is not None:
            return np.matmul(self._dense, flat, out=out)
        n, width, cols = self.n_nodes, len(self._table), flat.shape[1]
        ones = np.ones(width)
        # `out` collects the neighbor sums, slice by slice: a copy into its
        # strided columns costs half a subtract there (10 columns, N = 10^4);
        # the GEMV of a one-slice product writes into `out` itself
        for lo in range(0, cols, _SLICE_COLUMNS):
            part = flat[:, lo:lo + _SLICE_COLUMNS]
            padded = np.empty((n + 1, part.shape[1]))  # row N: the padding's zero
            padded[:n] = part
            padded[n] = 0.0
            # the gather dies in this line: two held at once (the next slice's
            # and this one) made the allocator unmap and re-fault them each call
            sums = np.matmul(ones, np.take(padded, self._table, axis=0).reshape(width, -1),
                             out=out.reshape(-1) if cols <= _SLICE_COLUMNS else None)
            if cols > _SLICE_COLUMNS:
                out[:, lo:lo + _SLICE_COLUMNS] = sums.reshape(part.shape)
        nodes, starts, rest = self._rest
        if nodes.size:
            out[nodes] += np.add.reduceat(np.take(flat, rest, axis=0), starts, axis=0)
        # the degree term on the flattened rows: a broadcast of (N, 1) degrees
        # runs its inner loop over only `cols` values
        degree = self._degree_rows.get(cols)
        if degree is None:
            degree = self._degree_rows[cols] = np.repeat(self.degree, cols)
        return np.subtract((degree * flat.reshape(-1)).reshape(flat.shape), out, out=out)


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """The Laplacian spectrum of `graph` as the filter reads it.

    lambda_max bounds every step size: the exact largest eigenvalue below
    DENSE_PRODUCT_NODES nodes, a certified upper bound from there on (see
    `spectral_summary`). `eigenvalues` (sorted ascending) and lambda_2
    (algebraic connectivity) are exact diagnostics, which dense `eigvalsh`
    computes when one is first read.
    """

    graph: SensorGraph = field(repr=False)
    lambda_max: float

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return _exact_eigenvalues(self.graph)

    @property
    def lambda_2(self) -> float:
        return float(self.eigenvalues[1])


def build_graph(topology, n_nodes, *, radius=None, seed=None):
    """The SensorGraph of a named topology on `n_nodes` nodes, an integer
    in 2.._MAX_NODES: ``ring``, ``complete``, ``path`` or ``random_geometric``
    (requires a finite `radius` > 0 and a `seed` that `np.random.default_rng`
    takes, else ConfigRejected). A graph whose arrays do not fit in memory
    raises ConfigRejected too. An edge list goes to `SensorGraph` itself."""
    _check_nodes(n_nodes)
    try:
        return _named_graph(topology, n_nodes, radius, seed)
    except MemoryError as exc:
        raise ConfigRejected(f"a {topology} graph of {n_nodes} nodes does not fit in memory: "
                             f"{exc}") from exc


def _named_graph(topology, n_nodes, radius, seed):
    """`build_graph` on a checked node count."""
    if topology == "complete":
        return SensorGraph(n_nodes, np.argwhere(np.tri(n_nodes, k=-1)))
    if topology in ("ring", "path"):
        i = np.arange(n_nodes - 1)
        pairs = np.column_stack([i, i + 1])
        if topology == "ring" and n_nodes > 2:
            pairs = np.vstack([pairs, [0, n_nodes - 1]])
        return SensorGraph(n_nodes, pairs)
    if topology == "random_geometric":
        if seed is None or not isinstance(radius, numbers.Real) or not 0 < radius < np.inf:
            raise ConfigRejected("random_geometric requires radius and seed, and a finite "
                                 f"radius > 0, got radius={radius!r}, seed={seed!r}")
        try:
            rng = np.random.default_rng(seed)
        except (TypeError, ValueError) as exc:
            raise ConfigRejected(f"unusable seed {seed!r}: {exc}") from exc
        for _ in range(_GEOMETRIC_RETRIES):
            try:
                return SensorGraph(n_nodes, _geometric_edges(rng.uniform(size=(n_nodes, 2)), radius))
            except GraphNotConnected:
                pass
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


def _neighbor_lists(g: SensorGraph, nodes) -> tuple:
    """The neighbor lists of `nodes`, one after another, and their lengths."""
    starts = g.indptr[nodes]
    counts = g.indptr[nodes + 1] - starts
    # positions of all the lists in `indices`
    offsets = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return g.indices[offsets + np.arange(counts.sum())], counts


def _bfs_levels(g: SensorGraph, root) -> list:
    """The breadth-first levels of the nodes reachable from `root`, one
    array of nodes per level, one frontier at a time over the edge arrays.
    The constructor's connectivity check and `_level_blocks` run it."""
    level = np.array([root])
    seen = np.arange(g.n_nodes) == root
    levels = []
    while level.size:
        levels.append(level)
        reached, _ = _neighbor_lists(g, level)
        level = np.unique(reached[~seen[reached]])
        seen[level] = True
    return levels


def spectral_summary(g: SensorGraph) -> SpectralSummary:
    """The Laplacian spectrum of g, with the lambda_max the step sizes use.

    Below DENSE_PRODUCT_NODES nodes, lambda_max is the largest eigenvalue
    from dense `eigvalsh`. From there on it is a certified upper bound,
    found without an N x N matrix: u = theta (1 + 1e-10) + residual from
    `_lanczos_top`, plus the backward error of a Cholesky of u I - L in
    blocks of breadth-first levels that proves it (`_certified_bound`),
    unless a block holds over 1,024 rows, the Cholesky fails or u exceeds
    the Anderson-Morley bound, max over edges of d_i + d_j (Linear and
    Multilinear Algebra 1985; exact on even rings), which is then used. The
    eigenvalues come from `eigvalsh` when first read. Eigenvalues down to
    -1e-10 are clamped to zero; below that, SpectralFailure.
    """
    if g.n_nodes < DENSE_PRODUCT_NODES:
        return SpectralSummary(g, float(_exact_eigenvalues(g)[-1]))
    rows = np.repeat(np.arange(g.n_nodes), np.diff(g.indptr))
    anderson_morley = float(np.max(g.degree[rows] + g.degree[g.indices]))
    theta, residual = _lanczos_top(g)
    shift = theta * (1.0 + _RITZ_RTOL) + residual
    bound = _certified_bound(g, shift, _level_blocks(g)) if shift < anderson_morley else None
    return SpectralSummary(g, anderson_morley if bound is None else min(bound, anderson_morley))


def _exact_eigenvalues(g: SensorGraph) -> np.ndarray:
    """All Laplacian eigenvalues, sorted ascending and read-only: dense
    `eigvalsh` of a Laplacian built for this call only."""
    try:
        vals = np.linalg.eigvalsh(_laplacian(g.n_nodes, g.indptr, g.indices))
    except np.linalg.LinAlgError as exc:
        raise SpectralFailure(str(exc)) from exc
    if vals[0] < -1e-10:
        raise SpectralFailure(f"negative Laplacian eigenvalue {vals[0]}")
    vals = np.clip(vals, 0.0, None)
    vals.setflags(write=False)
    return vals


# Lanczos runs at most this many steps and stops once the top Ritz pair's
# residual is at most _RITZ_RTOL times its value (checked every 5 steps).
_LANCZOS_STEPS = 100
_RITZ_RTOL = 1e-10
_CERTIFIED_ROWS = 1024  # the widest block `_certified_bound` factors: an 8 MB pivot


def _lanczos_top(g: SensorGraph) -> tuple:
    """(theta, residual): the largest Ritz value of L and the norm of its
    Ritz pair's residual, after Lanczos with full reorthogonalization from a
    fixed random start, with the ones vector (L's null vector) deflated.
    theta never exceeds lambda_max, up to round-off."""
    n, steps = g.n_nodes, _LANCZOS_STEPS
    basis = np.empty((steps + 1, n))
    basis[0] = 1.0 / math.sqrt(n)
    start = np.random.default_rng(0).standard_normal(n)
    start -= start.mean()
    basis[1] = start / np.linalg.norm(start)
    tri = np.zeros((steps, steps))
    out = np.empty((n, 1))
    for j in range(1, steps + 1):
        w = g._apply(basis[j, :, None], out)[:, 0]
        tri[j - 1, j - 1] = basis[j] @ w
        known = basis[:j + 1]
        for _ in range(2):  # "twice is enough" for full reorthogonalization
            w -= known.T @ (known @ w)
        beta = float(np.linalg.norm(w))
        if j % 5 == 0 or j == steps or not beta > 0.0:
            vals, vecs = np.linalg.eigh(tri[:j, :j])
            theta, residual = float(vals[-1]), abs(beta * float(vecs[-1, -1]))
            if residual <= _RITZ_RTOL * theta or not beta > 0.0:
                break
        if j < steps:
            basis[j + 1] = w / beta
            tri[j - 1, j] = tri[j, j - 1] = beta
    return theta, residual


def _level_blocks(g: SensorGraph) -> list:
    """The nodes in blocks of consecutive breadth-first levels, each block
    grown until it holds at least 64 rows (the last may hold fewer), from
    one traversal that starts at a lowest-degree node. An edge joins one
    level or two consecutive ones, so it lies within one block or joins
    two adjacent blocks."""
    blocks = []
    for level in _bfs_levels(g, int(np.argmin(g.degree))):
        if blocks and len(blocks[-1]) < 64:
            blocks[-1] = np.concatenate([blocks[-1], level])
        else:
            blocks.append(level)
    return blocks


def _certified_bound(g: SensorGraph, shift, blocks):
    """shift plus the backward error tau of a Cholesky of H = shift I - L if
    that factors, which proves lambda_max <= shift + tau; else None, or if
    a block holds more than _CERTIFIED_ROWS rows.

    `blocks` (see `_level_blocks`) makes H block tridiagonal, with W rows in
    the widest block. Block k's pivot is its diagonal block less Y'Y,
    Y = C^-1 H_(k-1,k) with C the Cholesky factor of block k-1's pivot:
    O(N W^2) flops, two blocks held at a time. If every pivot factors, the
    computed upper factor R has R'R = H + dH with |dH| <= gamma_(2W+1)
    |R'||R| (Demmel, LAPACK Working Note 14, 1989), as a row of R has at most
    2W nonzeros, within its own block and the next. A column of R has squared
    norm h_ii <= shift, and ||R||^2 = ||H|| <= shift, so a row of |R'||R|
    sums to at most 2W shift and ||dH|| <= 2 (W + 1)^2 eps shift. With the
    rounding of the diagonal and the block solves, tau = 8 (W + 1)^2 eps
    shift bounds it, and H + dH positive semidefinite gives the bound.
    """
    if (width := max(map(len, blocks))) > _CERTIFIED_ROWS:
        return None
    pos = np.empty(g.n_nodes, dtype=np.intp)
    pos[np.concatenate(blocks)] = np.arange(g.n_nodes)
    factor, first, lo = np.zeros((0, 0)), 0, 0
    for nodes in blocks:
        size, hi = len(nodes), lo + len(nodes)
        reached, counts = _neighbor_lists(g, nodes)
        cols = pos[reached] - first  # in [previous block | this block | next block]
        keep = cols < hi - first
        band = np.zeros((size, hi - first))
        band[np.repeat(np.arange(size), counts)[keep], cols[keep]] = 1.0  # -L at an edge
        pivot = band[:, lo - first:]
        pivot[np.diag_indices(size)] = shift - g.degree[nodes]
        y = np.linalg.solve(factor, band[:, :lo - first].T)
        try:
            factor = spd_cholesky(pivot - y.T @ y)
        except NotPositiveDefinite:
            return None
        first, lo = lo, hi
    return shift + 8.0 * (width + 1) ** 2 * float(np.finfo(float).eps) * shift
