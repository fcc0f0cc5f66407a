"""Reference computations the tests compare the library against: per-node
sensor arrays, the per-step centralized covariance recursion, the dense
per-mode iteration matrices of both consensus loops, dense graph matrices
read off the edge arrays, and the brute-force N x N random geometric graph;
the random connected graphs and random linear-Gaussian models that
property tests draw; and a spy on the draws of redrawn sensor rows.

Imported by the test modules, which pytest runs with this directory on
the import path.
"""

import numpy as np

from dkf_admm import models
from dkf_admm.exceptions import NotPositiveDefinite
from dkf_admm.graphs import SensorGraph
from dkf_admm.linalg import spd_inverse, sym
from dkf_admm.models import SensorSpec, StateSpaceModel, sensor_specs_at


def sensor_oracle(h, r):
    """(H, R, R^-1 H, H' R^-1 H) of one sensor, computed on its own with
    numpy.linalg: a Cholesky factor of R and two solves, the factorization
    the library uses, so the results match it exactly."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    chol = np.linalg.cholesky(r)
    rinv_h = np.linalg.solve(chol.T, np.linalg.solve(chol, h))
    info = h.T @ rinv_h
    return h, r, rinv_h, 0.5 * (info + info.T)


def info_oracle(model):
    """H_i' R_i^-1 H_i of every node of a model, shape (N, n, n), node by
    node from `sensor_oracle`."""
    return np.array([sensor_oracle(s.h, s.r)[3] for s in model.sensors])


def centralized_priors_oracle(model, n_steps, p=None, t0=1):
    """The centralized prior covariances of steps t0 .. t0 + n_steps - 1 from
    the posterior p (default P0), one step at a time: P_prior = sym(F P F' +
    Q), then P = spd_inverse(sym(spd_inverse(P_prior) + sum_i H_i' R_i^-1
    H_i)) with the step's `sensor_specs_at` stack. A failed posterior
    inverse raises "posterior information matrix not PD|finite at t=...",
    a failed prior inverse "a prior covariance became singular at t=..."."""
    p, priors = model.p0 if p is None else p, []
    for t in range(t0, t0 + n_steps):
        p_prior = sym(model.f @ p @ model.f.T + model.q)
        try:
            p_prior_inv = spd_inverse(p_prior)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(f"a prior covariance became singular at t={t}") from exc
        with np.errstate(over="ignore"):
            omega = sym(p_prior_inv + sensor_specs_at(model, t).info.sum(axis=0))
        try:
            p = spd_inverse(omega)
        except NotPositiveDefinite as exc:
            what = "PD" if np.isfinite(omega).all() else "finite"
            raise NotPositiveDefinite(f"posterior information matrix not {what} at t={t}") from exc
        priors.append(p_prior)
    return np.array(priors)


def covariance_mode_matrix(alpha_nu, laplacian_eigenvalue):
    """Per-mode iteration matrix of the covariance consensus loop,
    [[1 - 2 a l, a l], [1, 0]] for step size a and Laplacian eigenvalue l:
    the dense reference for the closed-form stability certificate."""
    al = alpha_nu * laplacian_eigenvalue
    return np.array([[1.0 - 2.0 * al, al], [1.0, 0.0]])


def state_mode_matrix(alpha_lambda, mu, laplacian_eigenvalue):
    """Per-mode iteration matrix of the state consensus sub-iterations,
    [[1 - (a + mu) l, mu l], [1, 0]] for dual step a, penalty mu and
    Laplacian eigenvalue l."""
    lam = laplacian_eigenvalue
    return np.array([[1.0 - (alpha_lambda + mu) * lam, mu * lam], [1.0, 0.0]])


def dense_adjacency(graph):
    """The N x N 0/1 adjacency matrix of a SensorGraph, one neighbor at a
    time from its edge arrays."""
    a = np.zeros((graph.n_nodes, graph.n_nodes))
    for i in range(graph.n_nodes):
        for j in graph.indices[graph.indptr[i]:graph.indptr[i + 1]]:
            a[i, j] = 1.0
    return a


def dense_laplacian(graph):
    """L = D - A of a SensorGraph, from `dense_adjacency`."""
    a = dense_adjacency(graph)
    return np.diag(a.sum(axis=1)) - a


def geometric_adjacency_bruteforce(n_nodes, radius, seed, retries=50):
    """The random geometric graph `build_graph` draws, built from the full
    N x N matrix of squared distances: the same uniform draws, redrawn
    until the graph is connected (checked by a plain breadth-first search
    over the dense rows). Returns the 0/1 adjacency matrix."""
    rng = np.random.default_rng(seed)
    for _ in range(retries):
        pts = rng.uniform(size=(n_nodes, 2))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        a = (d2 <= radius * radius).astype(float)
        np.fill_diagonal(a, 0.0)
        seen, queue = {0}, [0]
        while queue:
            for j in np.flatnonzero(a[queue.pop()]):
                if j not in seen:
                    seen.add(int(j))
                    queue.append(int(j))
        if len(seen) == n_nodes:
            return a
    raise RuntimeError("no connected draw")


def random_connected_graph(n_nodes, rng, p_extra=0.3):
    """A random spanning tree plus each other node pair with probability
    p_extra."""
    order = rng.permutation(n_nodes)
    edges = [(int(order[k]), int(order[rng.integers(k)])) for k in range(1, n_nodes)]
    edges += [
        (i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)
        if rng.random() < p_extra
    ]
    return SensorGraph(n_nodes, edges)


def random_model(rng, n_nodes, redrawn=False):
    """A random observable model of N = `n_nodes` nodes: n in 2..5 states,
    one m in {1, 2} for all nodes, a Gaussian F scaled to a spectral radius
    drawn from [0.5, 1.2], Gaussian H_i, and SPD Q, P0 and R_i of the form
    G G' + I. With `redrawn`, every node draws its sensor at every step
    from three such candidates."""
    n, m = int(rng.integers(2, 6)), int(rng.integers(1, 3))

    def spd(k):
        g = rng.normal(size=(k, k))
        return g @ g.T + np.eye(k)

    def sensors(count):
        return tuple(SensorSpec(rng.normal(size=(m, n)), spd(m)) for _ in range(count))

    f = rng.normal(size=(n, n))
    f *= rng.uniform(0.5, 1.2) / np.abs(np.linalg.eigvals(f)).max()
    return StateSpaceModel(f=f, q=spd(n), sensors=sensors(n_nodes), x0_mean=rng.normal(size=n),
                           p0=spd(n), redraw_from=sensors(3) if redrawn else (),
                           assignment_seed=int(rng.integers(2**31)))


def count_row_draws(monkeypatch):
    """Patch `models._rows_at` to record every step t whose rows it draws,
    a memo miss, in the list it returns, in call order."""
    draws, rows_at = [], models._rows_at

    def counting(model, t):
        if t not in model._drawn_rows:
            draws.append(t)
        return rows_at(model, t)

    monkeypatch.setattr(models, "_rows_at", counting)
    return draws
