"""The distributed Kalman filter engine, on stacked network arrays.

The whole network's state is one `NetworkState` of arrays whose leading
axis is the node index, so every update below is the paper's network-level
form: the lifted Laplacian (L kron I) acting on the stacked iterates. One
filter time step has two halves. The covariance half reads no measurement,
so it runs once per step, before any per-run work, and all Monte-Carlo runs
share it: the prior covariance F P F' + Q, its inverse and the gain K; one
round of the covariance consensus (l_sub on per-step-random sensors) on the
symmetric information matrices (only theta crosses edges, as the n(n+1)/2
entries on and below its diagonal); the posterior covariance assembly. One
walk (`_walk`) computes each half from the last: a block's halves ahead of
its state halves, untested, with one test per block, and again tested, one
per step, if that fails. A settled static half (`_SETTLE_TOL`) is carried
across blocks, not recomputed. The state half predicts with F and runs L
synchronous Jacobi sub-iterations of the ADMM state correction (neighbors
exchange only the primal iterate xi, the transformed dual stays local), on
estimates that may carry a leading run axis. Every round of both consensus
loops is the accumulator round; on small graphs the simulator evaluates a
whole loop as one GEMM of its cached all-rounds operator, which is that
same loop run on the block identity. All exchanges flow through a
CommLedger that counts messages and scalar payloads and rejects any attempt
to put a dual variable on the wire.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from dkf_admm.exceptions import (
    ConfigRejected, DimensionError, NotPositiveDefinite, WireSchemaViolation,
)
from dkf_admm.graphs import SensorGraph
from dkf_admm.linalg import (
    SWEEP_MIN_STACK, covariance_stability, spd_cholesky, spd_inverse, state_stability, step_bounds,
    sym, sym_inverse,
)
from dkf_admm.models import _BLOCK_VALUES, StateSpaceModel, _real_array, sensor_blocks, sensor_specs_at


def _check_types(config):
    """ConfigRejected("<name> must be <type>, got <value!r>") for the first dataclass
    field not of its annotated type: an int field takes an Integral and a float
    field a Real, neither a bool; None passes only where it is the default."""
    for f in fields(config):
        value, kind = getattr(config, f.name), f.type.removesuffix(" | None")
        cls = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool}[kind]
        if (value is not None or f.default is not None) and (
                not isinstance(value, cls) or isinstance(value, bool) and kind != "bool"):
            raise ConfigRejected(f"{f.name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class DkfParams:
    """Step sizes and sub-iteration count of the distributed filter.

    alpha_lambda: dual step of the state correction; mu: quadratic penalty
    weight; alpha_nu: covariance consensus step; l_sub: rounds per step of
    the state loop, and of the covariance loop on per-step-random sensors.
    """

    alpha_lambda: float
    mu: float
    alpha_nu: float
    l_sub: int

    def __post_init__(self):
        _check_types(self)
        steps = (self.alpha_lambda, self.mu, self.alpha_nu)
        if not all(math.isfinite(s) and s > 0 for s in steps):
            raise ConfigRejected("step sizes must be positive and finite")
        if self.l_sub < 1:
            raise ConfigRejected("l_sub must be >= 1")

    def check(self, spectrum):
        """Stability reports of the covariance and the state consensus loop."""
        return (
            covariance_stability(self.alpha_nu, spectrum),
            state_stability(self.alpha_lambda, self.mu, spectrum),
        )


def auto_params(spectrum, l_sub=20) -> DkfParams:
    """Default step sizes: 10% safety margin inside both stability bounds."""
    nu_bound, lambda_bound = step_bounds(spectrum.lambda_max)
    mu = 0.01 * lambda_bound
    return DkfParams(
        alpha_lambda=0.9 * lambda_bound - 2.0 * mu,
        mu=mu,
        alpha_nu=0.9 * nu_bound,
        l_sub=l_sub,
    )


@dataclass(eq=False)
class NetworkState:
    """The filter state of all N nodes as stacked arrays, node index first.

    x_prior, x_post: (N, n) state estimates, or (R, N, n) for R runs
    filtered together; p_prior, p_post: (N, n, n) covariances; theta:
    (N, n, n) symmetric estimates of the network information rate N H'R^-1H;
    nu_tilde: the matching consensus duals. All runs share the covariance
    fields (a step's covariance half); the estimates are per run (its
    state half); once a static half settles, the window's later steps hold
    the same arrays. The state iterate xi and its local accumulator K
    lambda_tilde live only inside one time step: the accumulator restarts
    at zero every step and x_post is the final xi.
    """

    x_prior: np.ndarray
    p_prior: np.ndarray
    x_post: np.ndarray
    p_post: np.ndarray
    theta: np.ndarray
    nu_tilde: np.ndarray


@dataclass(eq=False)
class CommLedger:
    """Counts of simulated network traffic, split by consensus phase.

    Payload sizes are in scalar (real number) units. `record` books xi as
    state traffic and theta as covariance traffic, and refuses any other
    payload kind: dual variables never cross an edge.
    """

    n_nodes: int
    state_messages: np.ndarray = field(init=False)
    state_scalars: np.ndarray = field(init=False)
    cov_messages: np.ndarray = field(init=False)
    cov_scalars: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("state_messages", "state_scalars", "cov_messages", "cov_scalars"):
            setattr(self, name, np.zeros(self.n_nodes, dtype=np.int64))

    def record(self, payload_kind, degrees, payload_len):
        """Add `degrees[i]` messages of `payload_len` scalars each at node i,
        to the phase of `payload_kind` (xi: state, theta: covariance); any
        other kind raises WireSchemaViolation.

        `degrees` is a per-node message count; it may cover several rounds
        (and runs) at once, e.g. rounds * runs * graph.degree.
        """
        if payload_kind == "xi":
            messages, scalars = self.state_messages, self.state_scalars
        elif payload_kind == "theta":
            messages, scalars = self.cov_messages, self.cov_scalars
        else:
            raise WireSchemaViolation(f"dual payload {payload_kind!r} must not be exchanged")
        counts = np.asarray(degrees, dtype=np.int64)
        messages += counts
        scalars += counts * payload_len

    @property
    def messages_sent(self):
        return self.state_messages + self.cov_messages

    @property
    def scalars_sent(self):
        return self.state_scalars + self.cov_scalars


def init_state(model: StateSpaceModel, x0_estimates) -> NetworkState:
    """Network filter state at t = 0, every node from the model's P0.

    `x0_estimates` holds one initial estimate per node, shape (N, n), or
    per run and node, (R, N, n) with R >= 1; another shape raises
    DimensionError, and entries other than finite real numbers
    ConfigRejected. theta starts at N H_i' R_i^-1 H_i with a zero consensus
    dual, which makes the network-wide sum of theta + nu exactly conserved
    from the first covariance step on.
    """
    n_nodes, n = model.n_nodes, model.n
    x0 = _real_array(x0_estimates, "x0_estimates", f"(R, {n_nodes}, {n})")
    if x0.ndim not in (2, 3) or x0.shape[-2:] != (n_nodes, n) or not x0.size:
        raise DimensionError(f"x0_estimates {x0.shape} must be ({n_nodes}, {n}) "
                             f"or (R, {n_nodes}, {n}), R >= 1")
    if not np.isfinite(x0).all():
        raise ConfigRejected("x0_estimates must be finite")
    p0, theta = np.tile(model.p0, (n_nodes, 1, 1)), n_nodes * sensor_specs_at(model, 0).info
    return NetworkState(x_prior=x0.copy(), p_prior=p0.copy(), x_post=x0.copy(), p_post=p0,
                        theta=theta, nu_tilde=np.zeros_like(theta))


# Below this many nodes, a loop of 2 to OPERATOR_ROWS // N rounds is one GEMM of
# its cached all-rounds operator. A logged 20-round loop ran faster that way up
# to N = 80 on 4 columns and up to N = 52 on 20 (twice the flops of the round-
# by-round path, in one call instead of 5 L); 64 splits the two.
STACKED_ROUND_NODES = 64
# An operator takes rounds N 2N 8 bytes: at most 2 MB below this row cap.
OPERATOR_ROWS = 2000


def _rounds(z, u, graph: SensorGraph, step, penalty, rounds, buf=None):
    """`rounds` accumulator rounds on (N, c) rows, carrying u = target - acc
    (updated in place): d = (L kron I) z, u -= step * d, z = u - penalty * d.
    Round k's iterate goes to buf[k - 1], or to one slot every round reuses
    (d is formed before z is overwritten). Returns z_R and u_R."""
    d, slot = np.empty(z.shape), np.empty(z.shape) if buf is None else None
    for k in range(rounds):
        graph._apply(z, d)
        u -= step * d
        z = np.subtract(u, np.multiply(d, penalty, out=d), out=slot if buf is None else buf[k])
    return z, u


@functools.lru_cache(maxsize=4)
def _round_operator(graph: SensorGraph, step, penalty, rounds):
    """The read-only all-rounds operator of a consensus loop, `_rounds` run
    on the block identity z_0 = [I | 0], u_0 = [0 | I]: ops (rounds, N, 2N)
    with z_k = ops[k - 1] [z_0; target - acc_0], and the (N, 2N) block of
    acc_R - acc_0. Keyed on the graph object (hashed by identity)."""
    n_nodes = graph.n_nodes
    ops, eye = np.empty((rounds, n_nodes, 2 * n_nodes)), np.eye(2 * n_nodes)
    _, u = _rounds(eye[:n_nodes], eye[n_nodes:].copy(), graph, step, penalty, rounds, ops)
    acc_op = eye[n_nodes:] - u
    ops.flags.writeable = acc_op.flags.writeable = False
    return ops, acc_op


def _consensus_rounds(z, target, graph: SensorGraph, step, penalty, rounds, acc=None, buf=None):
    """All `rounds` synchronous Jacobi rounds of either consensus loop, on
    stacked (N, d) rows or node-major (N, R, d) ones for R runs at once.
    Returns the last iterate z_R, in z's shape, and the local accumulator
    acc_R; `acc` is the accumulator before round 1, or None for a zero one
    that the caller discards (then acc_R is None too).

    Every round is the accumulator round of `_rounds`: d = (L kron I) z,
    acc += step * d, z = target - acc - penalty * d. Its iterates obey the
    two-term recursion z_{k+1} = z_k - (L kron I)((step + penalty) z_k -
    penalty z_{k-1}) that `linalg._worst_radius` certifies. As sum_i d_i =
    0, sum_i (z_i + acc_i) equals sum_i target_i after every round.
    Covariance loop: z = theta, acc = nu_tilde, target = N H' R^-1 H, step
    = penalty = alpha_nu. State loop: z = xi, acc = K lambda_tilde (zero at
    each step's start), target = K b, step = alpha_lambda, penalty = mu;
    the dual update lambda_tilde += alpha_lambda K^-1 d, carried through K,
    needs neither K nor K^-1.

    The loop is linear in [z_0; target - acc_0], so on graphs below
    STACKED_ROUND_NODES a loop of 2 to OPERATOR_ROWS // N rounds is one
    GEMM of `_round_operator`'s last block, the same product with or
    without `buf`, so a log cannot move the step; a (rounds, N, R d) round
    buffer `buf` takes round k's iterate in buf[k - 1], the earlier rounds
    from one more GEMM of the rest of the stack. Every other loop runs round
    by round, its iterates in `buf` or, without one, in one reused slot.
    """
    n_nodes = graph.n_nodes
    z0, t = z.reshape(n_nodes, -1), target.reshape(n_nodes, -1)
    if 1 < rounds and n_nodes < STACKED_ROUND_NODES and rounds * n_nodes <= OPERATOR_ROWS:
        ops, acc_op = _round_operator(graph, step, penalty, rounds)
        rhs = np.concatenate([z0, t if acc is None else t - acc.reshape(n_nodes, -1)])
        z_r = ops[-1] @ rhs
        if buf is not None:
            np.matmul(ops[:-1].reshape(-1, 2 * n_nodes), rhs, out=buf[:-1].reshape(-1, t.shape[1]))
            buf[-1] = z_r
        return z_r.reshape(z.shape), None if acc is None else acc + (acc_op @ rhs).reshape(z.shape)
    u = t.copy() if acc is None else t - acc.reshape(n_nodes, -1)
    z_r, u = _rounds(z0, u, graph, step, penalty, rounds, buf)
    z_r = (z_r if buf is None else z_r.copy()).reshape(z.shape)
    return z_r, None if acc is None else (t - u).reshape(z.shape)


def _posterior_cov(p_prior_inv, theta, t):
    """((P_prior^-1 + Theta)^-1 at every node by one `spd_inverse`, whether Theta was floored).

    At a node where that sum is not positive definite (a transiently
    indefinite Theta), Theta is floored at zero eigenvalues, with a
    RuntimeWarning naming the node and t, attributed (stacklevel 5, through
    `_walk`) to the line that advances the `dkf_steps` window. NotPositiveDefinite is
    raised if the sum is not finite (theta diverged, or the sum
    overflowed), or if flooring cannot fix it.
    """
    with np.errstate(over="ignore"):  # a non-finite sum is named below
        m = p_prior_inv + theta
    try:
        return spd_inverse(m), False
    except NotPositiveDefinite as exc:
        finite = np.isfinite(m).all(axis=(1, 2))
        if not finite.all():
            raise NotPositiveDefinite(f"posterior information P^-1 + Theta is not finite "
                                      f"(node {np.argmin(finite)}, t={t})") from exc
        for i in np.flatnonzero(np.linalg.eigvalsh(m)[:, 0] <= 0.0):
            warnings.warn(f"posterior information of node {i}, t={t} is indefinite; "
                          "theta floored at zero eigenvalues", RuntimeWarning, stacklevel=5)
            w, v = np.linalg.eigh(theta[i])
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite m is named below
                m[i] = sym(p_prior_inv[i] + (v * np.clip(w, 0.0, None)) @ v.T)
        try:
            return spd_inverse(m), True
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                f"posterior information matrix not PD even after flooring, t={t}; "
                "the covariance consensus has diverged"
            ) from exc


class CovarianceHalf(NamedTuple):
    """One step's covariance half; `still`: static sensors, nothing floored, `_still` P_prior, theta."""

    p_prior: np.ndarray
    p_prior_inv: np.ndarray | None
    k: np.ndarray | None
    theta: np.ndarray
    nu_tilde: np.ndarray
    p_post: np.ndarray
    still: bool = False


def _covariance_half(prev, graph: SensorGraph, model: StateSpaceModel, info, alpha_nu, rounds, t,
                     tested=True) -> CovarianceHalf:
    """The measurement-free half of step t after `prev` (a NetworkState or
    step t - 1's half), once for all runs: P_prior = F P_post F' + Q;
    `rounds` covariance consensus rounds from the last theta towards N H'
    R^-1 H, `info` the step's (N, n, n) H' R^-1 H; P_prior^-1 and the gain
    K = (`info` + P_prior^-1 / N)^-1, each an exactly symmetric
    `sym_inverse` (NotPositiveDefinite names t if either fails: a singular
    prior, or one so large that K overflows); P_post from `_posterior_cov`.
    Untested (a block pass), K and (P_prior^-1 + theta)^-1 are one stacked
    inverse, its method chosen from N, and nothing floors."""
    n_nodes = len(info)
    p_prior = sym(model.f @ prev.p_post @ model.f.T + model.q)
    # non-finite: named below, never still; an untested half runs under the pass's errstate
    with np.errstate(over="ignore", invalid="ignore") if tested else contextlib.nullcontext():
        theta, nu = _consensus_rounds(prev.theta, n_nodes * info, graph, alpha_nu,
                                      alpha_nu, rounds, acc=prev.nu_tilde)
        still = model.coordinate_table is None and _still(p_prior, prev.p_prior) and _still(
            theta, prev.theta)
    try:
        p_prior_inv = sym_inverse(p_prior)
        k = sym_inverse(info + p_prior_inv / n_nodes) if tested else None
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(f"a prior covariance became singular at t={t}") from exc
    if tested:
        p_post, floored = _posterior_cov(p_prior_inv, theta, t)
        return CovarianceHalf(p_prior, p_prior_inv, k, theta, nu, p_post, still and not floored)
    # untested: K and P_post, one stack of 2 N matrices, by the method of N
    pair = np.empty((2, *info.shape))
    np.add(info, p_prior_inv / n_nodes, out=pair[0])
    np.add(p_prior_inv, theta, out=pair[1])
    k, p_post = (sym_inverse if n_nodes < SWEEP_MIN_STACK else spd_inverse)(pair)
    return CovarianceHalf(p_prior, p_prior_inv, k, theta, nu, p_post, still)


def _walk(half, graph, model, infos, alpha_nu, rounds, t0, tested):
    """The halves of steps t0, t0 + 1, ..., one per `infos` entry, from the
    `half` before t0: a still half again, else the next `_covariance_half`."""
    for t, info in enumerate(infos, t0):
        half = half if half.still else _covariance_half(half, graph, model, info, alpha_nu, rounds,
                                                        t, tested)
        yield half


# The relative per-step change below which a static covariance half has settled:
# a reused half then stays about _SETTLE_TOL rho / (1 - rho) from the recursion,
# rho its contraction (1e-10 moved a limit covariance 1.7e-12, past a 1e-12 test).
_SETTLE_TOL = 1e-12


def _still(a, b):
    """np.abs(a - b).max() < _SETTLE_TOL * np.abs(a).max(), one entry first."""
    bound = _SETTLE_TOL * max(a.max(), -a.min())
    return abs(a.flat[0] - b.flat[0]) < bound and np.abs(a - b).max() < bound


def dkf_steps(
    state: NetworkState,
    graph: SensorGraph,
    model: StateSpaceModel,
    measurements,
    params: DkfParams,
    *,
    t0: int,
    ledger: CommLedger | None = None,
    consensus_log=None,
):
    """Filter a window of time steps t0, t0 + 1, ...: a generator that
    advances `state` one full step per iteration and yields its t, with
    `state` current (and for reading only: the window carries its own
    node-major estimates) at each yield.

    `measurements` holds one y_i per step and node, (T, N, m), or (R, T, N,
    m) when the state carries R runs; one step's y is the one-step window
    y[..., None, :, :]. When iteration starts the window is checked once: a
    bad t0 or non-real entries raise ConfigRejected; another shape, a state
    of no run or node counts (graph, model, state, ledger) that differ
    DimensionError. Each block of steps (a `sensor_blocks` gather) first
    walks its covariance halves untested (`_walk`) and tests them once: one
    `spd_cholesky` of the posterior-information stack below SWEEP_MIN_STACK
    nodes, the sweep's pivots from there on. If that fails or raises, the
    block walks them again tested, one per state half, flooring, warning and
    raising at its own step. The walk starts each window from `state` and
    each block from the last half; a still half (static sensors,
    `CovarianceHalf`) is carried to the window's end, its traffic booked as
    before. Then every run's L state rounds from x_prior = F x_post towards
    K b = K (H' R^-1 y + P_prior^-1 x_prior / N); a non-finite measurement
    raises ConfigRejected and an overflowing K b NotPositiveDefinite, both
    naming t. A block's halves (6 N n n values a step) and its (steps, L, N,
    R n) buffer of round iterates each hold at most `_BLOCK_VALUES` values
    (or one step); once per block, the ledger books each run's traffic (R
    times the degree per exchange, all rounds of both loops) and, when
    `consensus_log` is a list, the buffer is reduced in place, the op order
    of one step at a time, to one (L,) or (R, L) array per step: each
    sub-iteration's mean over nodes of ||xi_i - mean(xi)||. When the window
    ends, raises or is closed (`close()`, or a `break` out of the only loop
    holding it), both hold exactly the completed steps.
    """
    n_nodes, n = state.p_post.shape[:2]
    shape = state.x_post.shape
    step = shape[:-1] + (model.sensor_arrays.rinv_h.shape[1],)
    y = _real_array(measurements, "measurements", "(T, N, m) or (R, T, N, m)")
    if not state.x_post.size:
        raise DimensionError(f"the state holds no run: x_post has shape {shape}")
    if y.ndim != len(step) + 1 or y.shape[:-3] + y.shape[-2:] != step:
        window = ", ".join(map(str, step[:-2] + ("T",) + step[-2:]))
        raise DimensionError(f"measurements has shape {y.shape}, not ({window})")
    counts = graph.n_nodes, model.n_nodes, n_nodes, n_nodes if ledger is None else ledger.n_nodes
    if len(set(counts)) > 1:
        raise DimensionError("node counts differ: graph %s, model %s, state %s, ledger %s" % counts)
    runs, n_steps = math.prod(shape[:-2]), y.shape[-3]
    y = y.reshape(runs, n_steps, n_nodes, step[-1])
    static = model.coordinate_table is None
    cov_rounds = 1 if static else params.l_sub
    per_block = max(1, _BLOCK_VALUES // (n_nodes * n * max(params.l_sub * runs, 6 * n)))
    block = None if consensus_log is None else np.empty(
        (min(per_block, n_steps), params.l_sub, n_nodes, runs * n))
    # the state half goes node-major, (N, R, .) for R runs (one for an (N, n)
    # state): y' R^-1 H, x' P^-1 and b' K are batched row-vector matmuls
    x_post = state.x_post.reshape(runs, n_nodes, n).swapaxes(0, 1)
    half = CovarianceHalf(state.p_prior, None, None, state.theta, state.nu_tilde, state.p_post)
    for steps, gathered in sensor_blocks(model, t0, n_steps, per_block):
        lo, done = steps.start, 0  # completed steps of this block
        infos = [gathered.info] * (steps.stop - lo) if static else gathered.info
        walk = functools.partial(_walk, half, graph, model, infos, params.alpha_nu, cov_rounds, t0 + lo)
        # a block's halves ahead of its state halves, untested, tested once; a failure walks them tested
        try:
            with np.errstate(all="ignore"):  # no warning: the tested rerun warns
                halves = list(walk(False))
                if not half.still and n_nodes < SWEEP_MIN_STACK:  # at larger N, the sweep's pivots test
                    spd_cholesky(np.concatenate([h.p_prior_inv for h in halves])
                                 + np.concatenate([h.theta for h in halves]))
        except Exception:  # the tested rerun raises it at its own step
            halves = walk(True)
        try:
            for i, half in zip(range(lo, steps.stop), halves):
                t = t0 + i
                sensors = gathered if static else gathered.take(i - lo)
                with np.errstate(over="ignore", invalid="ignore"):
                    x_prior = x_post @ model.f.T
                    y_t = y[:, i].swapaxes(0, 1)
                    kb = (y_t @ sensors.rinv_h + x_prior @ half.p_prior_inv / n_nodes) @ half.k
                if not np.isfinite(kb).all():
                    if not np.isfinite(y_t).all():
                        raise ConfigRejected(f"measurements hold a non-finite value at t={t}")
                    raise NotPositiveDefinite(f"the state-correction target K b is not finite at t={t}")
                # L primal-only ADMM sub-iterations (Jacobi); the accumulator
                # K lambda_tilde stays local, restarts at zero each step and is
                # not kept. The rounds do only the exchange; the log and the
                # ledger follow once per block.
                x_post, _ = _consensus_rounds(x_prior, kb, graph, params.alpha_lambda, params.mu,
                                              params.l_sub, buf=None if block is None else block[i - lo])
                state.x_prior = x_prior.swapaxes(0, 1).reshape(shape)
                state.x_post = x_post.swapaxes(0, 1).reshape(shape)
                state.p_prior, state.p_post, state.theta, state.nu_tilde = (
                    half.p_prior, half.p_post, half.theta, half.nu_tilde)
                done += 1
                yield t
        finally:
            if done and block is not None:  # the round buffers, reduced in place
                rows, node_mean = block[:done], np.full(n_nodes, 1 / n_nodes)
                rows -= (node_mean @ rows)[..., None, :]
                norms = np.square(rows, out=rows).reshape(-1, n) @ np.ones(n)
                spread = node_mean @ np.sqrt(norms, out=norms).reshape(rows.shape[:3] + (runs,))
                consensus_log.extend(s.T.reshape(shape[:-2] + (-1,)) for s in spread)
            if done and ledger is not None:
                ledger.record("xi", done * params.l_sub * runs * graph.degree, n)
                ledger.record("theta", done * cov_rounds * runs * graph.degree, n * (n + 1) // 2)
