"""Linear-Gaussian system models and seeded trajectory generation.

The default world is the constant-velocity tracking model: 4-dim state
(two positions, two velocities), discretized white-noise-acceleration
process noise, and N single-coordinate position sensors spread over the
network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dkf_admm.exceptions import ObservabilityError
from dkf_admm.linalg import is_observable, sym, spd_solve, vech

DEFAULT_X0_MEAN = (0.0, 0.0, 1.0, 1.0)
SENSOR_ASSIGNMENTS = ("static_split", "per_step_random")


@dataclass(frozen=True)
class SensorSpec:
    """One node's measurement model: y_i = H_i x + v_i, v_i ~ N(0, R_i)."""

    node_id: int
    h: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.h, dtype=float))
        r = sym(np.atleast_2d(np.asarray(self.r, dtype=float)))
        if r.shape[0] != h.shape[0]:
            raise ValueError("R_i must match the measurement dimension of H_i")
        np.linalg.cholesky(r)  # R_i must be positive definite
        rinv_h = spd_solve(r, h)
        info = sym(h.T @ rinv_h)
        for arr in (h, r, rinv_h, info):
            arr.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_rinv_h", rinv_h)
        object.__setattr__(self, "_info", info)

    @property
    def rinv_h(self) -> np.ndarray:
        """R_i^-1 H_i, precomputed (used for every information vector)."""
        return self._rinv_h

    @property
    def info_matrix(self) -> np.ndarray:
        """H_i' R_i^-1 H_i, the node's contribution to the information rate."""
        return self._info


@dataclass(frozen=True)
class StateSpaceModel:
    """Global dynamics x_{t+1} = F x_t + w_t plus the per-node sensors.

    `assignment_mode` is ``static`` (sensors fixed at construction) or
    ``per_step_random`` (each node re-draws which position coordinate it
    observes at every time step, seeded by `assignment_seed`).
    """

    f: np.ndarray
    q: np.ndarray
    sensors: tuple
    x0_mean: np.ndarray
    p0: np.ndarray
    assignment_mode: str = "static"
    assignment_seed: int = 0
    n: int = field(init=False)

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        q = sym(self.q)
        x0 = np.asarray(self.x0_mean, dtype=float).ravel()
        p0 = sym(self.p0)
        n = f.shape[0]
        if f.shape != (n, n) or q.shape != (n, n) or p0.shape != (n, n) or x0.size != n:
            raise ValueError("inconsistent model dimensions")
        np.linalg.cholesky(p0)
        # Q may be singular only in the deliberate noise-free limit
        if not np.allclose(q, 0.0):
            np.linalg.cholesky(q)
        h_stack = np.vstack([s.h for s in self.sensors])
        if not is_observable(f, h_stack):
            raise ObservabilityError("stacked (F, H) is not observable")
        for arr in (f, q, x0, p0):
            arr.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "x0_mean", x0)
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(self, "n", n)

    @property
    def n_nodes(self) -> int:
        return len(self.sensors)


@dataclass(frozen=True)
class Trajectory:
    """A seeded draw of true states and per-node measurements.

    states[t] is x_t for t = 0..n_steps-1; measurements[i][t] is y_{i,t}.
    """

    states: np.ndarray
    measurements: tuple
    seed: int


def _position_sensor(node_id, coordinate, n, r_var) -> SensorSpec:
    h = np.zeros((1, n))
    h[0, coordinate] = 1.0
    return SensorSpec(node_id=node_id, h=h, r=np.array([[r_var]]))


def build_constant_velocity_model(
    dt,
    q_intensity=1.0,
    n_nodes=2,
    sensor_assignment="static_split",
    r_var=0.5,
    x0_mean=DEFAULT_X0_MEAN,
    p0=None,
    assignment_seed=0,
) -> StateSpaceModel:
    """Planar constant-velocity model with single-coordinate position sensors.

    F = [[I2, dt I2], [0, I2]]; Q is the white-noise-acceleration
    covariance q * [[dt^3/3 I2, dt^2/2 I2], [dt^2/2 I2, dt I2]]. Under
    ``static_split`` the first half of the nodes observes x1 and the rest
    observes x2; ``per_step_random`` re-draws each node's coordinate every
    step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    i2 = np.eye(2)
    f = np.block([[i2, dt * i2], [np.zeros((2, 2)), i2]])
    q = q_intensity * np.block(
        [[dt**3 / 3 * i2, dt**2 / 2 * i2], [dt**2 / 2 * i2, dt * i2]]
    )
    if sensor_assignment == "static_split":
        coords = [0 if i < n_nodes // 2 else 1 for i in range(n_nodes)]
        mode = "static"
    elif sensor_assignment == "per_step_random":
        rng = np.random.default_rng(assignment_seed)
        coords = rng.integers(0, 2, size=n_nodes)
        mode = "per_step_random"
    else:
        raise ValueError(f"unknown sensor assignment {sensor_assignment!r}")
    sensors = tuple(_position_sensor(i, c, 4, r_var) for i, c in enumerate(coords))
    return StateSpaceModel(
        f=f,
        q=q,
        sensors=sensors,
        x0_mean=x0_mean,
        p0=np.eye(4) if p0 is None else p0,
        assignment_mode=mode,
        assignment_seed=assignment_seed,
    )


def sensor_specs_at(model: StateSpaceModel, t: int) -> tuple:
    """Sensor specs in effect at time step t.

    Static models always return `model.sensors`; per-step-random models
    re-draw each node's observed coordinate deterministically from
    (assignment_seed, t).
    """
    if model.assignment_mode == "static":
        return model.sensors
    rng = np.random.default_rng(np.random.SeedSequence((model.assignment_seed, t)))
    coords = rng.integers(0, 2, size=model.n_nodes)
    r_var = float(model.sensors[0].r[0, 0])
    return tuple(
        _position_sensor(i, int(c), model.n, r_var) for i, c in enumerate(coords)
    )


def simulate_trajectory(
    model: StateSpaceModel, n_steps: int, seed: int, noise_free: bool = False
) -> Trajectory:
    """Draw one trajectory and its per-node measurements, seeded.

    x_0 ~ N(x0_mean, P0), x_{t+1} = F x_t + w_t, y_{i,t} = H_i x_t + v_{i,t}.
    With `noise_free` the draw collapses to x_t = F^t x0_mean and exact
    measurements.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    rng = np.random.default_rng(seed)
    n = model.n
    states = np.empty((n_steps, n))
    if noise_free:
        states[0] = model.x0_mean
    else:
        states[0] = rng.multivariate_normal(model.x0_mean, model.p0)
    if noise_free or np.allclose(model.q, 0.0):
        w = np.zeros((n_steps - 1, n))
    else:
        w = rng.multivariate_normal(np.zeros(n), model.q, size=n_steps - 1)
    for t in range(n_steps - 1):
        states[t + 1] = model.f @ states[t] + w[t]
    measurements = []
    if model.assignment_mode == "static":
        for spec in model.sensors:
            ys = states @ spec.h.T
            if not noise_free:
                m_i = spec.r.shape[0]
                ys = ys + rng.multivariate_normal(np.zeros(m_i), spec.r, size=n_steps)
            measurements.append(ys)
    else:
        for i in range(model.n_nodes):
            ys = np.empty((n_steps, model.sensors[i].h.shape[0]))
            for t in range(n_steps):
                spec = sensor_specs_at(model, t)[i]
                y = spec.h @ states[t]
                if not noise_free:
                    y = y + rng.multivariate_normal(np.zeros(spec.r.shape[0]), spec.r)
                ys[t] = y
            measurements.append(ys)
    states.setflags(write=False)
    return Trajectory(states=states, measurements=tuple(measurements), seed=seed)


def information_rate_target(model: StateSpaceModel, t: int | None = None) -> np.ndarray:
    """Sum over nodes of H_i' R_i^-1 H_i, the covariance-consensus target."""
    sensors = model.sensors if t is None else sensor_specs_at(model, t)
    total = np.zeros((model.n, model.n))
    for s in sensors:
        total += s.info_matrix
    return sym(total)


def node_info_vectors(sensors) -> np.ndarray:
    """Stacked vech(H_i' R_i^-1 H_i) per node, shape (N, n_cov)."""
    return vech(np.array([s.info_matrix for s in sensors]))
