"""The distributed Kalman filter engine, on stacked network arrays.

The whole network's state is one `NetworkState` of arrays whose leading
axis is the node index, so every update below is the paper's
network-level form: the lifted Laplacian (L kron I) acting on the stacked
iterates. One filter time step is: predict with (F, Q); L synchronous
Jacobi sub-iterations of the ADMM state correction (neighbors exchange
only the primal iterate xi, the transformed dual stays local); one step
of the sub-iteration-free covariance consensus on half-vectorized
information matrices (only theta crosses edges); then the posterior
covariance assembly. All exchanges flow through a CommLedger that counts
messages and scalar payloads and rejects any attempt to put a dual
variable on the wire. Independent Monte-Carlo runs can share one step:
the estimates then carry a leading run axis and the measurement-free
covariance half is computed once for all of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from dkf_admm.exceptions import (
    ConfigRejected, DimensionError, NotPositiveDefinite, WireSchemaViolation,
)
from dkf_admm.graphs import SensorGraph
from dkf_admm.linalg import covariance_stability, state_stability, sym, unvech
from dkf_admm.models import StateSpaceModel, node_info_vectors, sensor_specs_at

_PRIMAL_PAYLOADS = {"xi", "theta"}


@dataclass(frozen=True)
class DkfParams:
    """Step sizes and sub-iteration count of the distributed filter.

    alpha_lambda: dual step of the state correction; mu: quadratic penalty
    weight; alpha_nu: covariance consensus step; l_sub: sub-iterations per
    time step. Stability requires alpha_nu < 2/(3 lambda_max) and
    alpha_lambda + 2 mu < 2/lambda_max on the active graph.
    """

    alpha_lambda: float
    mu: float
    alpha_nu: float
    l_sub: int

    def __post_init__(self):
        if self.alpha_lambda <= 0 or self.mu <= 0 or self.alpha_nu <= 0:
            raise ValueError("step sizes must be positive")
        if self.l_sub < 1:
            raise ValueError("l_sub must be >= 1")

    def check(self, spectrum):
        """Exact per-mode stability reports for both consensus loops."""
        return (
            covariance_stability(self.alpha_nu, spectrum),
            state_stability(self.alpha_lambda, self.mu, spectrum),
        )

    def validate_for(self, spectrum, override=False):
        """Raise ConfigRejected unless both sufficient bounds hold.

        `override` skips the guard for deliberate boundary experiments.
        """
        if override:
            return
        lam = spectrum.lambda_max
        if not self.alpha_nu < 2.0 / (3.0 * lam):
            raise ConfigRejected(
                f"alpha_nu={self.alpha_nu} violates the bound 2/(3*lambda_max)="
                f"{2.0 / (3.0 * lam):.6g}"
            )
        if not self.alpha_lambda + 2.0 * self.mu < 2.0 / lam:
            raise ConfigRejected(
                f"alpha_lambda + 2*mu = {self.alpha_lambda + 2.0 * self.mu} violates "
                f"the bound 2/lambda_max = {2.0 / lam:.6g}"
            )


def auto_params(spectrum, l_sub=20) -> DkfParams:
    """Default step sizes: 10% safety margin inside both sufficient regions."""
    lam = spectrum.lambda_max
    mu = 0.01 * (2.0 / lam)
    return DkfParams(
        alpha_lambda=0.9 * (2.0 / lam) - 2.0 * mu,
        mu=mu,
        alpha_nu=0.9 * (2.0 / (3.0 * lam)),
        l_sub=l_sub,
    )


@dataclass
class NetworkState:
    """The filter state of all N nodes as stacked arrays, node index first.

    x_prior, x_post: (N, n) state estimates, or (R, N, n) for R runs
    filtered together; p_prior, p_post: (N, n, n) covariances; theta:
    (N, n(n+1)/2) half-vectorized estimates of the network information
    rate; nu_tilde: the matching consensus duals. The covariance half does
    not depend on the measurements, so all runs share it. The iterates xi
    and lambda_tilde live only inside one time step: the dual restarts at
    zero every step and x_post is the final xi.
    """

    x_prior: np.ndarray
    p_prior: np.ndarray
    x_post: np.ndarray
    p_post: np.ndarray
    theta: np.ndarray
    nu_tilde: np.ndarray


@dataclass
class CommLedger:
    """Counts of simulated network traffic, split by consensus phase.

    Payload sizes are in scalar (real number) units. `record` refuses any
    payload kind other than the primal variables xi and theta: dual
    variables never cross an edge.
    """

    n_nodes: int
    state_messages: np.ndarray = field(init=False)
    state_scalars: np.ndarray = field(init=False)
    cov_messages: np.ndarray = field(init=False)
    cov_scalars: np.ndarray = field(init=False)

    def __post_init__(self):
        self.state_messages = np.zeros(self.n_nodes, dtype=np.int64)
        self.state_scalars = np.zeros(self.n_nodes, dtype=np.int64)
        self.cov_messages = np.zeros(self.n_nodes, dtype=np.int64)
        self.cov_scalars = np.zeros(self.n_nodes, dtype=np.int64)

    def record(self, phase, payload_kind, degrees, payload_len):
        if payload_kind not in _PRIMAL_PAYLOADS:
            raise WireSchemaViolation(
                f"dual payload {payload_kind!r} must not be exchanged"
            )
        counts = np.asarray(degrees, dtype=np.int64)
        if phase == "state":
            self.state_messages += counts
            self.state_scalars += counts * payload_len
        elif phase == "covariance":
            self.cov_messages += counts
            self.cov_scalars += counts * payload_len
        else:
            raise ValueError(f"unknown phase {phase!r}")

    @property
    def messages_sent(self):
        return self.state_messages + self.cov_messages

    @property
    def scalars_sent(self):
        return self.state_scalars + self.cov_scalars


def init_state(model: StateSpaceModel, x0_estimates, p0_nodes=None) -> NetworkState:
    """Network filter state at t = 0.

    `x0_estimates` holds one initial estimate per node, shape (N, n), or
    per run and node, (R, N, n), and `p0_nodes` one covariance per node
    (default: the model's P0); a single estimate or covariance is shared
    by all nodes. theta starts at N * vech(H_i' R_i^-1 H_i) with a zero
    consensus dual, which makes the network-wide sum of theta + nu exactly
    conserved from the first covariance step onward.
    """
    n_nodes, n = model.n_nodes, model.n
    x0 = np.asarray(x0_estimates, dtype=float)
    x0 = np.array(np.broadcast_to(x0, x0.shape[:-2] + (n_nodes, n)))
    p0 = sym(np.broadcast_to(model.p0 if p0_nodes is None else p0_nodes, (n_nodes, n, n)))
    theta = n_nodes * node_info_vectors(sensor_specs_at(model, 0))
    return NetworkState(
        x_prior=x0.copy(),
        p_prior=p0.copy(),
        x_post=x0,
        p_post=p0,
        theta=theta,
        nu_tilde=np.zeros_like(theta),
    )


def _node_apply(m, v):
    """v_i' m_i at every node i, for m of shape (N, a, b) and rows v of
    shape (N, a) or node-major (N, R, a): each node's rows times m_i make
    one small GEMM. For symmetric m this is m_i v_i."""
    return (v.reshape(len(m), -1, m.shape[1]) @ m).reshape(v.shape[:-1] + m.shape[2:])


def _predict(x_post, p_post, model: StateSpaceModel):
    """Local prediction at every node: x = F x, P = F P F' + Q (identical
    to the centralized filter). x_post may carry extra leading axes."""
    return x_post @ model.f.T, sym(model.f @ p_post @ model.f.T + model.q)


def _gains(p_prior, x_prior, sensors, measurements):
    """Per-step gains and local information vectors of every node.

    Returns P_prior^-1, K^-1 = H' R^-1 H + P_prior^-1 / N, K, and
    b = H' R^-1 y + P_prior^-1 x_prior / N, each stacked over nodes.
    x_prior is (N, n) or node-major (N, R, n); the measurements are one
    y_i per node (and run) as `dkf_time_step` takes them, (N, m) or
    (R, N, m), so every node must measure the same dimension m
    (DimensionError otherwise); b takes x_prior's shape.
    """
    n_nodes = len(sensors)
    try:
        p_prior_inv = sym(np.linalg.inv(p_prior))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("a prior covariance became singular") from exc
    k_inv = np.array([s.info_matrix for s in sensors]) + p_prior_inv / n_nodes
    k = sym(np.linalg.inv(k_inv))
    dims = sorted({s.h.shape[0] for s in sensors})
    if len(dims) > 1:
        raise DimensionError(f"nodes need one measurement dimension m, got m_i in {dims}")
    rinv_h = np.array([s.rinv_h for s in sensors])
    y = np.asarray(measurements, dtype=float).reshape(-1, n_nodes, rinv_h.shape[1])
    y = y.swapaxes(0, 1).reshape(x_prior.shape[:-1] + (-1,))
    b = _node_apply(rinv_h, y) + _node_apply(p_prior_inv, x_prior) / n_nodes
    return p_prior_inv, k_inv, k, b


def _correction_round(xi, lam, graph: SensorGraph, k, k_inv, b, params):
    """One synchronous Jacobi sub-iteration on stacked (N, n) arrays, or
    node-major (N, R, n) ones for R runs at once.

    d_i = sum_j (xi_i - xi_j) over neighbors; the dual integrates
    alpha_lambda K^-1 d; the new primal is K (b - lam_new) - mu d, where
    b is the node's local information vector. All nodes read the previous
    round's xi only. Under this dual update sum_i K_i lam_i stays 0, so the
    nodes agree on mean_i K_i b_i rather than on the MAP point of
    `centralized.consensus_fixed_point` (acceptance criterion 3).
    """
    d = graph.disagreement(xi)
    lam_new = lam + params.alpha_lambda * _node_apply(k_inv, d)
    xi_new = _node_apply(k, b - lam_new) - params.mu * d
    return xi_new, lam_new


def _covariance_step(theta, nu, graph: SensorGraph, omega_scaled, alpha_nu):
    """One step of the sub-iteration-free covariance consensus.

    Disagreement is evaluated on the previous step's theta; the new theta
    is N omega - nu_new - alpha_nu * disagreement.
    """
    e = graph.disagreement(theta)
    nu_new = nu + alpha_nu * e
    theta_new = omega_scaled - nu_new - alpha_nu * e
    return theta_new, nu_new


def _posterior_cov(p_prior_inv, theta, t=None):
    """(P_prior^-1 + Theta)^-1 at every node.

    At a node where that sum is not positive definite (a transiently
    indefinite Theta), Theta is floored at zero eigenvalues, with a
    RuntimeWarning naming the node and t. NotPositiveDefinite is raised if
    theta is non-finite or flooring cannot fix it.
    """
    at = "" if t is None else f", t={t}"
    if not np.isfinite(theta).all():
        bad = int(np.argmax(~np.isfinite(theta).all(axis=1)))
        raise NotPositiveDefinite(f"theta diverged to non-finite values (node {bad}{at})")
    theta_mats = unvech(theta)
    m = sym(p_prior_inv + theta_mats)
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        for i in np.flatnonzero(np.linalg.eigvalsh(m)[:, 0] <= 0.0):
            warnings.warn(
                f"posterior information of node {i}{at} is indefinite; "
                "theta floored at zero eigenvalues",
                RuntimeWarning,
                stacklevel=3,
            )
            w, v = np.linalg.eigh(theta_mats[i])
            m[i] = sym(p_prior_inv[i] + (v * np.clip(w, 0.0, None)) @ v.T)
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                f"posterior information matrix not PD even after flooring{at}; "
                "the covariance consensus has diverged"
            ) from exc
    return sym(np.linalg.inv(m))


def dkf_time_step(
    state: NetworkState,
    graph: SensorGraph,
    model: StateSpaceModel,
    measurements_t,
    params: DkfParams,
    ledger: CommLedger | None = None,
    t: int | None = None,
    consensus_log=None,
    sub_iterated_covariance: bool = False,
):
    """Run one full filter time step for every node; updates and returns
    `state`.

    `measurements_t` holds one y_i per node for this step, shape (N, m),
    or (R, N, m) when the state carries a run axis; then all R runs advance
    in this one call, with the covariance half computed once. Every node
    must have the same measurement dimension m, else DimensionError. The
    ledger counts each run's traffic (R times the degree per exchange).
    When `consensus_log` is a list, the per-sub-iteration mean consensus
    error (mean over nodes of ||xi_i - mean(xi)||) is appended as one
    (L,) array, or (R, L) for R runs.
    `sub_iterated_covariance` reruns the covariance consensus l_sub times
    per step instead of once (both converge under the same bound).
    """
    n_nodes, n = state.p_post.shape[:2]
    shape = state.x_post.shape
    # an (N, n) state is one run; runs go node-major, (N, R, n)
    x_post = state.x_post.reshape(-1, n_nodes, n).swapaxes(0, 1)
    runs = x_post.shape[1]
    sensors = sensor_specs_at(model, 0 if t is None else t)
    x_prior, p_prior = _predict(x_post, state.p_post, model)
    p_prior_inv, k_inv, k, b = _gains(p_prior, x_prior, sensors, measurements_t)

    # L primal-only ADMM sub-iterations (Jacobi, duals reset each step).
    xi = x_prior
    lam = np.zeros_like(xi)
    log_rows = []
    for _ in range(params.l_sub):
        xi, lam = _correction_round(xi, lam, graph, k, k_inv, b, params)
        if ledger is not None:
            ledger.record("state", "xi", runs * graph.degree, n)
        if consensus_log is not None:
            log_rows.append(np.linalg.norm(xi - xi.mean(axis=0), axis=-1).mean(axis=0))
    if consensus_log is not None:
        consensus_log.append(np.array(log_rows).T.reshape(shape[:-2] + (-1,)))

    # Sub-iteration-free covariance consensus on the previous step's theta.
    theta, nu = state.theta, state.nu_tilde
    omega_scaled = n_nodes * node_info_vectors(sensors)
    for _ in range(params.l_sub if sub_iterated_covariance else 1):
        theta, nu = _covariance_step(theta, nu, graph, omega_scaled, params.alpha_nu)
        if ledger is not None:
            ledger.record("covariance", "theta", runs * graph.degree, theta.shape[1])

    p_post = _posterior_cov(p_prior_inv, theta, t)
    state.x_prior = x_prior.swapaxes(0, 1).reshape(shape)
    state.x_post = xi.swapaxes(0, 1).reshape(shape)
    state.p_prior, state.p_post, state.theta, state.nu_tilde = p_prior, p_post, theta, nu
    return state
