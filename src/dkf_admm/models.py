"""Linear-Gaussian system models and seeded trajectory generation.

The default world is the constant-velocity tracking model: 4-dim state
(two positions, two velocities), discretized white-noise-acceleration
process noise, and N single-coordinate position sensors spread over the
network.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from dkf_admm.exceptions import (ConfigRejected, DimensionError, NotPositiveDefinite,
                                 ObservabilityError)
from dkf_admm.graphs import _check_nodes
from dkf_admm.linalg import is_observable, spd_cholesky, spd_solve, sym

DEFAULT_X0_MEAN = (0.0, 0.0, 1.0, 1.0)
# the constant-velocity state layout x = (x1, x2, dx1/dt, dx2/dt)
POSITION, VELOCITY = slice(0, 2), slice(2, 4)
SENSOR_ASSIGNMENTS = ("static_split", "per_step_random")
# a redrawn model memoizes at most this many drawn row indices (N per step), or one step
_MEMO_ROWS = 2 ** 18
# values per block of steps (or one step): a `sensor_blocks` H' R^-1 H stack, `dkf_steps` rounds
_BLOCK_VALUES = 2 ** 16


def _check_int(value, name, least):
    """ConfigRejected unless `value` is an integer (not a bool) >= `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigRejected(f"{name} must be an integer >= {least}, got {value!r}")


def _real_array(value, name, shape) -> np.ndarray:
    """`value` as a float array: DimensionError ("<name> must be one <shape>
    array") if it is ragged, ConfigRejected unless it holds real numbers."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise DimensionError(f"{name} must be one {shape} array: {exc}") from exc
    if arr.dtype.kind not in "biuf":  # a complex cast would warn and drop the imaginary part
        raise ConfigRejected(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


@dataclass(frozen=True, eq=False)
class SensorSpec:
    """One node's measurement model y_i = H_i x + v_i, v_i ~ N(0, R_i): a
    read-only (H_i, R_i) pair of matching measurement dimension m_i. The
    model checks that R_i is positive definite when it stacks its sensors."""

    h: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.h, dtype=float))
        r = sym(np.atleast_2d(np.asarray(self.r, dtype=float)))
        if r.shape[0] != h.shape[0]:
            raise DimensionError("R_i must match the measurement dimension of H_i")
        for name, arr in (("h", h), ("r", r)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class SensorArrays:
    """The sensors of all N nodes at one time step, stacked node first and
    read-only: h (N, m, n), r (N, m, m), rinv_h = R_i^-1 H_i (N, m, n),
    through which y_i enters the information vector, and info =
    H_i' R_i^-1 H_i (N, n, n), whose network sum is the covariance-consensus
    target. All nodes share one measurement dimension m."""

    h: np.ndarray
    r: np.ndarray
    rinv_h: np.ndarray
    info: np.ndarray

    def __post_init__(self):
        for arr in (self.h, self.r, self.rinv_h, self.info):
            arr.setflags(write=False)

    @classmethod
    def stack(cls, sensors, n_nodes) -> SensorArrays:
        """Stack `SensorSpec`s; R^-1 H and H' R^-1 H come from one batched
        Cholesky solve. NotPositiveDefinite unless every R_i is positive
        definite and R^-1 H and N H' R^-1 H, a node's covariance-consensus
        target for N = `n_nodes`, are finite. Mixed m_i raise DimensionError."""
        dims = sorted({s.h.shape[0] for s in sensors})
        if len(dims) > 1:
            raise DimensionError(f"nodes need one measurement dimension m, got m_i in {dims}")
        h = np.array([s.h for s in sensors])
        r = np.array([s.r for s in sensors])
        rinv_h = spd_solve(r, h)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite node is rejected below
            info = sym(np.swapaxes(h, -1, -2) @ rinv_h)
            finite = np.isfinite(np.concatenate([rinv_h, n_nodes * info], 1)).all(axis=(1, 2))
        if not finite.all():
            bad = np.argmin(finite)
            raise NotPositiveDefinite(f"R^-1 H or N H' R^-1 H of node {bad} is not finite")
        return cls(h, r, rinv_h, info)

    def take(self, rows) -> SensorArrays:
        """The stacks at the (N,) or (B, N) integer indices `rows`."""
        return SensorArrays(self.h[rows], self.r[rows], self.rinv_h[rows], self.info[rows])


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Global dynamics x_{t+1} = F x_t + w_t plus the per-node sensors.

    `sensors` holds one `SensorSpec` per node. If `redraw_from` holds
    candidate sensors, every node draws one of them at every time step,
    seeded by `assignment_seed` (an integer >= 0), and `sensors` sets only
    N and m (filter and noise use the drawn R_i). `sensor_arrays` stacks
    `sensors` and `coordinate_table` the candidates (None if fixed), which
    must match them in m and n; (F, H) must be observable on the fixed
    sensors or on all candidates. P0, and Q unless exactly zero, must pass
    `spd_cholesky`."""

    f: np.ndarray
    q: np.ndarray
    sensors: tuple
    x0_mean: np.ndarray
    p0: np.ndarray
    redraw_from: tuple = ()
    assignment_seed: int = 0
    n: int = field(init=False)
    sensor_arrays: SensorArrays = field(init=False, repr=False)
    coordinate_table: SensorArrays | None = field(init=False, repr=False)
    _drawn_rows: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        _check_int(self.assignment_seed, "assignment_seed", 0)
        f = np.asarray(self.f, dtype=float)
        q = sym(self.q)
        x0 = np.asarray(self.x0_mean, dtype=float).ravel()
        p0 = sym(self.p0)
        n = f.shape[0]
        if f.shape != (n, n) or q.shape != (n, n) or p0.shape != (n, n) or x0.size != n:
            raise DimensionError("inconsistent model dimensions")
        spd_cholesky(p0, "P0")
        if q.any():  # Q may be singular only in the deliberate noise-free limit
            spd_cholesky(q, "Q")
        sensors, redraw_from = tuple(self.sensors), tuple(self.redraw_from)
        arrays = SensorArrays.stack(sensors, len(sensors))
        table = SensorArrays.stack(redraw_from, len(sensors)) if redraw_from else None
        if table is not None and table.h.shape[1:] != arrays.h.shape[1:]:
            raise DimensionError("redraw_from candidates must match the sensors in m and n")
        # any candidate may be drawn at any step: the candidates together must be observable
        if not is_observable(f, (arrays if table is None else table).h.reshape(-1, n)):
            raise ObservabilityError("stacked (F, H) is not observable")
        for arr in (f, q, x0, p0):
            arr.setflags(write=False)
        for name, value in dict(f=f, q=q, x0_mean=x0, p0=p0, sensors=sensors, n=n,
                                redraw_from=redraw_from, sensor_arrays=arrays,
                                coordinate_table=table).items():
            object.__setattr__(self, name, value)

    @property
    def n_nodes(self) -> int:
        return len(self.sensors)

    @property
    def assignment_mode(self) -> str:
        return "static" if self.coordinate_table is None else "per_step_random"


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A `simulate_runs` draw, read-only: states (R, n_steps, n), row t of run
    r x_t, and measurements (R, n_steps, N, m), row t every node's y_{i,t}, a
    window `dkf_steps` takes whole or sliced on its step axis."""

    states: np.ndarray
    measurements: np.ndarray


def build_constant_velocity_model(dt, q_intensity=1.0, n_nodes=2, sensor_assignment="static_split",
                                  r_var=0.5, assignment_seed=0) -> StateSpaceModel:
    """Planar constant-velocity model with single-coordinate position sensors.

    F = [[I2, dt I2], [0, I2]]; Q is the white-noise-acceleration
    covariance q * [[dt^3/3 I2, dt^2/2 I2], [dt^2/2 I2, dt I2]]. Under
    ``static_split`` the first half of the nodes observes x1 and the rest
    observes x2; ``per_step_random`` re-draws each node's coordinate every
    step. The initial state is x0 ~ N(DEFAULT_X0_MEAN, I).
    """
    if isinstance(dt, bool) or not isinstance(dt, numbers.Real) or dt <= 0:
        raise ConfigRejected(f"dt must be a real number > 0, got {dt!r}")
    _check_nodes(n_nodes)
    i2 = np.eye(2)
    f = np.block([[i2, dt * i2], [np.zeros((2, 2)), i2]])
    dt = np.float64(dt)  # a huge dt overflows to inf, which StateSpaceModel rejects
    with np.errstate(over="ignore", invalid="ignore"):
        q = q_intensity * np.block([[dt**3 / 3 * i2, dt**2 / 2 * i2], [dt**2 / 2 * i2, dt * i2]])
    if sensor_assignment not in SENSOR_ASSIGNMENTS:
        raise ConfigRejected(f"unknown sensor assignment {sensor_assignment!r}")
    specs = tuple(SensorSpec(np.eye(1, 4, c), [[r_var]]) for c in range(4)[POSITION])  # x1, x2
    sensors = tuple(specs[0 if i < n_nodes // 2 else 1] for i in range(n_nodes))
    redraw = specs if sensor_assignment == "per_step_random" else ()
    return StateSpaceModel(f=f, q=q, sensors=sensors, x0_mean=DEFAULT_X0_MEAN, p0=np.eye(4),
                           redraw_from=redraw, assignment_seed=assignment_seed)


def _rows_at(model: StateSpaceModel, t: int) -> np.ndarray:
    """Step t's N `coordinate_table` rows, drawn uniformly from (assignment_seed,
    t) and kept in a per-model memo of `_MEMO_ROWS` row indices, the oldest step
    out first: the simulation, the reference and the filter draw them once."""
    memo = model._drawn_rows
    if t not in memo:
        if len(memo) >= max(1, _MEMO_ROWS // model.n_nodes):
            del memo[next(iter(memo))]
        rng = np.random.default_rng(np.random.SeedSequence((model.assignment_seed, t)))
        memo[t] = rng.integers(0, len(model.coordinate_table.h), size=model.n_nodes)
    return memo[t]


def sensor_specs_at(model: StateSpaceModel, t: int) -> SensorArrays:
    """The stacked sensors in effect at time step t, the one-step case of
    `sensor_blocks`: `model.sensor_arrays`, or a new gather of `_rows_at`."""
    _check_int(t, "t", 0)
    table = model.coordinate_table
    return model.sensor_arrays if table is None else table.take(_rows_at(model, t))


def sensor_blocks(model: StateSpaceModel, t0: int, n_steps: int, per_block: int | None = None):
    """(steps, sensors) per block of steps t0 .. t0 + n_steps - 1, `steps`
    the block's slice of the window: `model.sensor_arrays` on static models
    (it broadcasts over the steps; one block by default), else one gather
    of the block's (B, N, ...) stacks from the `_rows_at` rows it holds as
    drawn, so an evicted step is not drawn again (by default at most
    `_BLOCK_VALUES` H' R^-1 H values a block)."""
    _check_int(t0, "t", 0)
    table, n_nodes, n = model.coordinate_table, model.n_nodes, model.n
    per_block = per_block or max(1, n_steps if table is None else _BLOCK_VALUES // (n_nodes * n * n))
    for lo in range(0, n_steps, per_block):
        steps = slice(lo, min(lo + per_block, n_steps))
        yield steps, model.sensor_arrays if table is None else table.take(
            np.array([_rows_at(model, t0 + i) for i in range(steps.start, steps.stop)]))


def simulate_runs(model: StateSpaceModel, n_steps: int, seeds, noise_free: bool = False
                  ) -> Trajectory:
    """One trajectory per seed, states (R, n_steps, n), and every node's
    measurements (R, n_steps, N, m): x_0 ~ N(x0_mean, P0), x_{t+1} = F x_t +
    w_t, y_t = H_t x_t + v_t with H_t, R_t from `sensor_blocks` (static R
    factored once). Run r draws from `default_rng(seeds[r])`: x_0, the process
    noise, then one (n_steps, m) standard-normal block per node, row t times
    the Cholesky factor of R_{i,t}. With `noise_free` the draw collapses to
    x_t = F^t x0_mean and exact measurements. An n_steps < 1 or
    not an integer, seeds that are not iterable or empty, or a seed
    `default_rng` refuses: ConfigRejected."""
    _check_int(n_steps, "n_steps", 1)
    try:
        seeds = list(seeds)
    except TypeError as exc:
        raise ConfigRejected(f"seeds must be an iterable of seeds, got {seeds!r}") from exc
    if not seeds:
        raise ConfigRejected("seeds must hold one seed per run, got none")
    rngs = []
    for seed in seeds:
        try:
            rngs.append(np.random.default_rng(seed))
        except (TypeError, ValueError) as exc:
            raise ConfigRejected(f"unusable seed {seed!r}: {exc}") from exc
    states = np.empty((len(rngs), n_steps, model.n))
    states[:, 0] = model.x0_mean
    w = np.zeros((len(rngs), n_steps - 1, model.n))
    if not noise_free:  # each run's own stream draws x_0, then w, then (below) z
        for r, rng in enumerate(rngs):
            states[r, 0] = rng.multivariate_normal(model.x0_mean, model.p0)
            if model.q.any():
                w[r] = rng.multivariate_normal(np.zeros(model.n), model.q, size=n_steps - 1)
    for t in range(n_steps - 1):  # the stacked matvec is bitwise each run's F @ x
        states[:, t + 1] = np.matmul(model.f, states[:, t, :, None])[..., 0] + w[:, t]
    n_nodes, m = model.sensor_arrays.h.shape[:2]
    measurements, chols = np.empty((len(rngs), n_steps, n_nodes, m)), []
    for steps, sensors in sensor_blocks(model, 0, n_steps):
        measurements[:, steps] = (sensors.h @ states[:, steps, None, :, None])[..., 0]
        chols.append((steps, None if noise_free else spd_cholesky(sensors.r)))
    for y, rng in zip(measurements, [] if noise_free else rngs):  # v_{i,t} = chol(R_{i,t}) z_{i,t}
        z = rng.standard_normal((n_nodes, n_steps, m, 1)).swapaxes(0, 1)
        for steps, chol in chols:
            y[steps] += (chol @ z[steps])[..., 0]
    states.setflags(write=False)
    measurements.setflags(write=False)
    return Trajectory(states=states, measurements=measurements)


def information_rate_target(model: StateSpaceModel) -> np.ndarray:
    """Sum over nodes of H_i' R_i^-1 H_i, the static covariance-consensus target."""
    if model.coordinate_table is not None:
        raise ConfigRejected(f"{model.assignment_mode} sensors have no fixed information rate "
                             "and no steady-state prior covariance")
    return sym(model.sensor_arrays.info.sum(axis=0))
