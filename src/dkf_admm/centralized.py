"""Centralized references the distributed filter is validated against.

An information-form centralized Kalman filter (the optimal estimator the
network is trying to match) and the closed-form network consensus fixed
point of the per-step state correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dkf_admm.exceptions import ConfigRejected, DimensionError, NotPositiveDefinite
from dkf_admm.linalg import spd_cholesky, spd_inverse, spd_solve, sym, sym_inverse
from dkf_admm.models import SensorArrays, StateSpaceModel, _real_array, sensor_specs_at


@dataclass(frozen=True, eq=False)
class CentralizedState:
    """Centralized filter state after one predict/correct cycle."""

    x_hat: np.ndarray
    p: np.ndarray
    p_prior: np.ndarray


def initial_centralized_state(model: StateSpaceModel) -> CentralizedState:
    return CentralizedState(x_hat=model.x0_mean.copy(), p=model.p0, p_prior=model.p0)


def centralized_kf_step(
    state: CentralizedState, model: StateSpaceModel, measurements, t: int
) -> CentralizedState:
    """One predict + information-form correction with all N measurements.

    Predict with (F, Q); correct by adding sum_i H_i' R_i^-1 H_i to the
    prior information matrix and sum_i H_i' R_i^-1 y_i to the information
    vector. `measurements` holds the y_i of all N nodes, shape (N, m); any
    other shape raises DimensionError, non-finite or non-real entries
    ConfigRejected; the sensors are `sensor_specs_at(model, t)`, and the
    covariances come from a one-step `covariance_window`.
    """
    sensors = sensor_specs_at(model, t)
    shape = sensors.h.shape[:2]
    y = _real_array(measurements, "measurements", shape)
    if y.shape != shape:
        raise DimensionError(f"measurements {y.shape} must be {shape}")
    if not np.isfinite(y).all():
        raise ConfigRejected(f"measurements hold a non-finite value at t={t}")
    (p_prior,), (omega_prior,), (p,) = covariance_window(state.p, model, sensors.info.sum(0)[None], t)
    info_vec = omega_prior @ (model.f @ state.x_hat) + np.einsum("imn,im->n", sensors.rinv_h, y)
    return CentralizedState(x_hat=p @ info_vec, p=p, p_prior=p_prior)


def covariance_window(p, model: StateSpaceModel, info_sums, t0: int) -> tuple:
    """The centralized covariance recursion from the P_post before step t0,
    one step per network information sum sum_i H_i' R_i^-1 H_i in
    `info_sums`: (T, n, n) stacks of P_prior = sym(F P F' + Q), P_prior^-1
    and P_post = sym(P_prior^-1 + info)^-1. The stacks are tested after the
    loop, one `spd_cholesky` each; a failure reruns it with a `spd_inverse`
    per matrix, to raise at the first failing step ("a prior covariance became
    singular at t=...", or "posterior information matrix not PD|finite at
    t=..." for P_post). It reads no measurement."""
    try:
        return _recursion(p, model, info_sums, t0, sym_inverse)
    except NotPositiveDefinite:
        return _recursion(p, model, info_sums, t0, spd_inverse)


def _recursion(p, model: StateSpaceModel, info_sums, t0: int, inverse) -> tuple:
    priors, inv_priors, omegas, posts = np.empty((4, len(info_sums), model.n, model.n))
    with np.errstate(over="ignore", invalid="ignore"):  # a failure is named below
        for i, info in enumerate(info_sums):
            priors[i] = sym(model.f @ p @ model.f.T + model.q)
            try:
                inv_priors[i] = inverse(priors[i])
            except NotPositiveDefinite as exc:
                raise NotPositiveDefinite(f"a prior covariance became singular at t={t0 + i}") from exc
            omegas[i] = sym(inv_priors[i] + info)
            try:
                posts[i] = p = inverse(omegas[i])
            except NotPositiveDefinite as exc:
                what = "PD" if np.isfinite(omegas[i]).all() else "finite"
                raise NotPositiveDefinite(f"posterior information matrix not {what} at t={t0 + i}") from exc
        spd_cholesky(priors), spd_cholesky(omegas)
    return priors, inv_priors, posts


def consensus_fixed_point(x_priors, p_priors, measurements, sensors: SensorArrays) -> np.ndarray:
    """Unique minimizer of the network MAP problem at one time step.

    Returns (sum_i K_i^-1)^-1 sum_i (H_i' R_i^-1 y_i + P_i^-1 x_i / N)
    with K_i^-1 = H_i' R_i^-1 H_i + P_i^-1 / N, summed over the step's
    stacked `sensors` (`model.sensor_arrays` or `sensor_specs_at(model,
    t)`), the (N, n) x_i, the (N, n, n) P_i and the (N, m) y_i: one
    `spd_inverse` of the P_i stack, one `spd_solve`. This is the MAP point
    that acceptance criterion 3 targets. The default state correction does
    not reach it: its rounds (`filtering._consensus_rounds`) keep
    sum_i K_i lambda_tilde_i at its start value 0 and
    sum_i (xi_i + K_i lambda_tilde_i) at sum_i K_i b_i, so the node mean of
    xi is mean_i K_i b_i after every round and the nodes agree on that
    instead, with b_i the node's local information vector.
    """
    n_nodes = len(sensors.info)
    p_inv = spd_inverse(np.asarray(p_priors, dtype=float)) / n_nodes
    y = np.asarray(measurements, dtype=float).reshape(n_nodes, -1)
    rhs = np.einsum("imn,im->n", sensors.rinv_h, y) + np.einsum("imn,in->m", p_inv, x_priors)
    return spd_solve(sym(sensors.info.sum(axis=0) + p_inv.sum(axis=0)), rhs)
