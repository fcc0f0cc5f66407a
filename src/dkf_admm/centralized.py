"""Centralized references the distributed filter is validated against.

An information-form centralized Kalman filter (the optimal estimator the
network is trying to match) and the closed-form network consensus fixed
point of the per-step state correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dkf_admm.exceptions import ConfigRejected, DimensionError, NotPositiveDefinite
from dkf_admm.linalg import spd_inverse, spd_solve, sym
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
    ConfigRejected; the sensors are `sensor_specs_at(model, t)`.
    """
    sensors = sensor_specs_at(model, t)
    shape = sensors.h.shape[:2]
    y = _real_array(measurements, "measurements", shape)
    if y.shape != shape:
        raise DimensionError(f"measurements {y.shape} must be {shape}")
    if not np.isfinite(y).all():
        raise ConfigRejected(f"measurements hold a non-finite value at t={t}")
    p_prior, omega_prior, p = _covariance_update(state.p, model, sensors.info, t)
    info_vec = omega_prior @ (model.f @ state.x_hat) + np.einsum("imn,im->n", sensors.rinv_h, y)
    return CentralizedState(x_hat=p @ info_vec, p=p, p_prior=p_prior)


def _covariance_update(p, model: StateSpaceModel, info, t: int) -> tuple:
    """(P_prior, P_prior^-1, P_post) of one centralized step from P_post of
    the last: P_prior = sym(F P F' + Q), P_post = sym(P_prior^-1 + sum of
    the (N, n, n) `info` stack)^-1. It reads no measurement."""
    p_prior = sym(model.f @ p @ model.f.T + model.q)
    omega_prior = spd_inverse(p_prior)
    with np.errstate(over="ignore"):  # an overflow is named below
        omega = sym(omega_prior + info.sum(axis=0))
    try:
        return p_prior, omega_prior, spd_inverse(omega)
    except NotPositiveDefinite as exc:
        what = "PD" if np.isfinite(omega).all() else "finite"
        raise NotPositiveDefinite(f"posterior information matrix not {what} at t={t}") from exc


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
