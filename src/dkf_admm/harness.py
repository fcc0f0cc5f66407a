"""Scenario configuration, Monte-Carlo execution, metrics, and CSV export.

A scenario is one INI-style config file (every key has a default). Running
it simulates `n_mc_runs` independent trajectories, filters them with the
distributed network as one batch (one step call per time step for all
runs), and aggregates per-node RMSE, consensus error, covariance
convergence error, and communication totals.
"""

from __future__ import annotations

import configparser
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from dkf_admm.exceptions import ConfigRejected, NotPositiveDefinite
from dkf_admm.filtering import CommLedger, DkfParams, auto_params, dkf_time_step, init_state
from dkf_admm.graphs import TOPOLOGIES, build_graph, load_edge_list, spectral_summary
from dkf_admm.linalg import dare_solve
from dkf_admm.models import (
    SENSOR_ASSIGNMENTS,
    build_constant_velocity_model,
    information_rate_target,
    simulate_trajectory,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment definition; defaults reproduce a small smoke run."""

    # model
    dt: float = 0.1
    q_intensity: float = 1.0
    r_var: float = 0.5
    sensor_assignment: str = "static_split"
    assignment_seed: int = 0
    # graph
    topology: str = "random_geometric"
    n_nodes: int = 10
    radius: float = 0.45
    graph_seed: int = 7
    edge_list_path: str | None = None
    # filter params ("auto" picks safe defaults from the graph spectrum)
    alpha_lambda: float | None = None
    mu: float | None = None
    alpha_nu: float | None = None
    l_sub: int = 20
    # run
    horizon_steps: int = 50
    n_mc_runs: int = 5
    master_seed: int = 0
    output_dir: str = "out"
    workers: int = 1
    init_box_halfwidth: float = 1.0
    # scenario flags
    noise_free: bool = False
    sub_iterated_covariance: bool = False
    override_stability_guard: bool = False

    def __post_init__(self):
        for name, ok, rule in (
            ("dt", self.dt > 0, "> 0"),
            ("q_intensity", self.q_intensity >= 0, ">= 0"),
            ("r_var", self.r_var > 0, "> 0"),
            ("n_nodes", self.n_nodes >= 2, ">= 2"),
            ("radius", self.radius > 0, "> 0"),
            ("topology", self.topology in TOPOLOGIES, f"one of {TOPOLOGIES}"),
            ("sensor_assignment", self.sensor_assignment in SENSOR_ASSIGNMENTS,
             f"one of {SENSOR_ASSIGNMENTS}"),
            ("horizon_steps", self.horizon_steps >= 1, ">= 1"),
            ("n_mc_runs", self.n_mc_runs >= 1, ">= 1"),
            ("l_sub", self.l_sub >= 1, ">= 1"),
            ("workers", self.workers >= 1, ">= 1"),
        ):
            if not ok:
                raise ConfigRejected(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if self.topology == "explicit" and not self.edge_list_path:
            raise ConfigRejected("topology = explicit requires edge_list_path")


_SECTIONS = {
    "model": ("dt", "q_intensity", "r_var", "sensor_assignment", "assignment_seed"),
    "graph": ("topology", "n_nodes", "radius", "graph_seed", "edge_list_path"),
    "params": ("alpha_lambda", "mu", "alpha_nu", "l_sub"),
    "run": (
        "horizon_steps",
        "n_mc_runs",
        "master_seed",
        "output_dir",
        "workers",
        "init_box_halfwidth",
        "noise_free",
        "sub_iterated_covariance",
        "override_stability_guard",
    ),
}
_FLOATS = {"dt", "q_intensity", "r_var", "radius", "alpha_lambda", "mu", "alpha_nu",
           "init_box_halfwidth"}
_INTS = {"assignment_seed", "n_nodes", "graph_seed", "l_sub", "horizon_steps",
         "n_mc_runs", "master_seed", "workers"}
_BOOLS = {"noise_free", "sub_iterated_covariance", "override_stability_guard"}


def load_config(path) -> ScenarioConfig:
    """Parse a `key = value` config with [model]/[graph]/[params]/[run]
    sections. Missing keys take their defaults; `auto` (or omission) on a
    step-size key selects automatic parameters. Unknown sections and keys,
    and booleans other than 1/0, true/false, yes/no, on/off, are rejected."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigRejected(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigRejected(f"unknown section [{section}]")
    kwargs = {}
    for section, keys in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigRejected(f"unknown key {key!r} in [{section}]")
            raw = raw.strip()
            if raw.lower() in ("auto", "none", ""):
                continue
            try:
                if key in _FLOATS:
                    kwargs[key] = float(raw)
                elif key in _INTS:
                    kwargs[key] = int(raw)
                elif key in _BOOLS:
                    kwargs[key] = parser.getboolean(section, key)
                else:
                    kwargs[key] = raw
            except ValueError as exc:
                raise ConfigRejected(f"bad value for {key}: {raw!r}") from exc
    return ScenarioConfig(**kwargs)


@dataclass
class RunMetrics:
    """Aggregated outputs of one scenario, plus the per-run squared position
    errors that a statistic across runs (a paired drift test) needs."""

    times: np.ndarray  # filter step indices (t = 1..horizon-1)
    rmse_pos: np.ndarray  # (T, N) per-node position RMSE over MC runs
    rmse_vel: np.ndarray  # (T, N)
    consensus_error: np.ndarray  # (T, L) mean over nodes and runs
    cov_error: np.ndarray  # (T, N) ||P_prior - P*||_F / ||P*||_F
    comm: CommLedger = field(default=None)
    n_mc_runs: int = 1
    sq_pos_runs: np.ndarray = field(default=None)  # (R, T, N) squared pos. error


def build_scenario(config: ScenarioConfig):
    """Graph, model, spectrum, and validated params for a config."""
    if config.topology == "explicit":
        graph = load_edge_list(config.edge_list_path, config.n_nodes)
    else:
        graph = build_graph(
            config.topology,
            config.n_nodes,
            radius=config.radius,
            seed=config.graph_seed,
        )
    spectrum = spectral_summary(graph)
    defaults = auto_params(spectrum, config.l_sub)
    params = DkfParams(
        alpha_lambda=defaults.alpha_lambda
        if config.alpha_lambda is None
        else config.alpha_lambda,
        mu=defaults.mu if config.mu is None else config.mu,
        alpha_nu=defaults.alpha_nu if config.alpha_nu is None else config.alpha_nu,
        l_sub=config.l_sub,
    )
    model = build_constant_velocity_model(
        dt=config.dt,
        q_intensity=config.q_intensity,
        n_nodes=config.n_nodes,
        sensor_assignment=config.sensor_assignment,
        r_var=config.r_var,
        assignment_seed=config.assignment_seed,
    )
    return graph, model, spectrum, params


def _run_seed(master_seed, run_idx):
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(run_idx,))


def steady_state_prior(model) -> np.ndarray:
    """The centralized steady-state prior covariance P* from `dare_solve`.

    The Riccati recursion depends on the sensors only through
    sum_i H_i' R_i^-1 H_i, so the solver gets an n-row factor H~ with
    H~' H~ equal to that sum and R = I, instead of the stacked N-row H and
    its N x N noise covariance.
    """
    w, v = np.linalg.eigh(information_rate_target(model))
    h_tilde = np.sqrt(np.clip(w, 0.0, None))[:, None] * v.T
    return dare_solve(model.f, h_tilde, model.q, np.eye(model.n))


def _run_batch(config, graph, model, params, p_star, run_ids):
    """The Monte-Carlo runs `run_ids` as one batched filter pass; returns
    per-run squared errors (R, T, N), consensus errors (R, T, L), the
    shared covariance error (T, N) and the ledger of all the runs."""
    trajs, x0_est = [], []
    for run_idx in run_ids:
        traj_seed, init_seed = _run_seed(config.master_seed, run_idx).spawn(2)
        trajs.append(simulate_trajectory(
            model, config.horizon_steps + 1, traj_seed, noise_free=config.noise_free
        ))
        box = 0.0 if config.noise_free else config.init_box_halfwidth
        x0_est.append(model.x0_mean + np.random.default_rng(init_seed).uniform(
            -box, box, size=(model.n_nodes, model.n)
        ))
    states = np.array([tr.states for tr in trajs])  # (R, T + 1, n)
    meas = np.array([np.stack(tr.measurements, axis=1) for tr in trajs])  # (R, T+1, N, m)
    state = init_state(model, np.array(x0_est))
    ledger = CommLedger(model.n_nodes)
    steps = range(1, config.horizon_steps + 1)
    sq_pos = np.empty((len(run_ids), len(steps), model.n_nodes))
    sq_vel = np.empty_like(sq_pos)
    cov_err = np.empty(sq_pos.shape[1:])
    consensus_log = []
    p_star_norm = np.linalg.norm(p_star)
    for row, t in enumerate(steps):
        try:
            dkf_time_step(
                state, graph, model, meas[:, t], params, ledger=ledger, t=t,
                consensus_log=consensus_log,
                sub_iterated_covariance=config.sub_iterated_covariance,
            )
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(f"t={t}: {exc}") from exc
        err = states[:, t, None] - state.x_post
        sq_pos[:, row] = err[..., 0] ** 2 + err[..., 1] ** 2
        sq_vel[:, row] = err[..., 2] ** 2 + err[..., 3] ** 2
        cov_err[row] = np.linalg.norm(state.p_prior - p_star, axis=(1, 2)) / p_star_norm
    return sq_pos, sq_vel, np.array(consensus_log).swapaxes(0, 1), cov_err, ledger


def run_scenario(config: ScenarioConfig) -> RunMetrics:
    """Execute all Monte-Carlo runs and aggregate metrics.

    The runs are filtered as one batch; with `workers` > 1 a process pool
    filters contiguous chunks of runs, one batch each. Deterministic given
    the config: run seeds derive from master_seed and the run index, and
    aggregation is ordered by run index.
    """
    graph, model, spectrum, params = build_scenario(config)
    params.validate_for(spectrum, override=config.override_stability_guard)
    p_star = steady_state_prior(model)

    chunks = np.array_split(np.arange(config.n_mc_runs), config.workers)
    chunks = [c for c in chunks if c.size]
    run_chunk = partial(_run_batch, config, graph, model, params, p_star)
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = [run_chunk(chunks[0])]

    sq_pos_runs = np.concatenate([r[0] for r in results])
    sq_pos = sq_pos_runs.mean(axis=0)
    sq_vel = np.concatenate([r[1] for r in results]).mean(axis=0)
    consensus = np.concatenate([r[2] for r in results]).mean(axis=0)
    cov_err = results[0][3]  # covariance recursion is measurement-independent
    total = CommLedger(model.n_nodes)
    for name in ("state_messages", "state_scalars", "cov_messages", "cov_scalars"):
        setattr(total, name, sum(getattr(r[4], name) for r in results))
    times = np.arange(1, config.horizon_steps + 1)
    return RunMetrics(
        times=times,
        rmse_pos=np.sqrt(sq_pos),
        rmse_vel=np.sqrt(sq_vel),
        consensus_error=consensus,
        cov_error=cov_err,
        comm=total,
        n_mc_runs=config.n_mc_runs,
        sq_pos_runs=sq_pos_runs,
    )


def validate_params(config: ScenarioConfig) -> str:
    """Human-readable stability report for a config; used by the CLI."""
    graph, model, spectrum, params = build_scenario(config)
    cov_rep, state_rep = params.check(spectrum)
    nu_bound = 2.0 / (3.0 * spectrum.lambda_max)
    lam_bound = 2.0 / spectrum.lambda_max
    lines = [
        f"graph: {config.topology}, N={config.n_nodes}",
        f"lambda_2      = {spectrum.lambda_2:.6g}",
        f"lambda_max    = {spectrum.lambda_max:.6g}",
        f"alpha_nu      = {params.alpha_nu:.6g}  (bound 2/(3 lambda_max) = "
        f"{nu_bound:.6g})  "
        + ("PASS" if cov_rep.sufficient_bound_ok else "FAIL"),
        f"alpha_lambda  = {params.alpha_lambda:.6g}, mu = {params.mu:.6g}  "
        f"(alpha_lambda + 2 mu = {params.alpha_lambda + 2 * params.mu:.6g}, "
        f"bound 2/lambda_max = {lam_bound:.6g})  "
        + ("PASS" if state_rep.sufficient_bound_ok else "FAIL"),
        f"covariance-mode worst radius = {cov_rep.spectral_radius:.6g} "
        f"(Schur: {cov_rep.is_schur})",
        f"state-mode worst radius      = {state_rep.spectral_radius:.6g} "
        f"(Schur: {state_rep.is_schur})",
        "per-mode radii (lambda_i, covariance, state):",
    ]
    for (lam, rc), (_, rs) in zip(cov_rep.per_mode_radii, state_rep.per_mode_radii):
        lines.append(f"  {lam:10.6f}  {rc:8.6f}  {rs:8.6f}")
    return "\n".join(lines)


def _fmt(x) -> str:
    return f"{x:.12g}"


def export_csv(metrics: RunMetrics, output_dir) -> list:
    """Write the five result CSVs; returns the written paths."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_nodes = metrics.rmse_pos.shape[1]
    node_cols = ",".join(f"node_{i}" for i in range(n_nodes))
    paths = []

    def write(name, header, rows):
        p = out / name
        with open(p, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        paths.append(p)

    for name, data in (
        ("rmse_position.csv", metrics.rmse_pos),
        ("rmse_velocity.csv", metrics.rmse_vel),
        ("covariance_error.csv", metrics.cov_error),
    ):
        write(
            name,
            "t," + node_cols,
            (
                [str(t)] + [_fmt(v) for v in data[k]]
                for k, t in enumerate(metrics.times)
            ),
        )
    write(
        "consensus_error.csv",
        "t,l,error",
        (
            [str(t), str(l), _fmt(metrics.consensus_error[k, l])]
            for k, t in enumerate(metrics.times)
            for l in range(metrics.consensus_error.shape[1])
        ),
    )
    # Per-step traffic is constant by construction, so the cumulative
    # ledger divides exactly over steps and runs.
    divisor = len(metrics.times) * metrics.n_mc_runs

    def comm_rows():  # streamed: 2 T N rows would otherwise be held at once
        for t in metrics.times:
            for i in range(n_nodes):
                yield [str(t), str(i), str(int(metrics.comm.state_messages[i]) // divisor),
                       str(int(metrics.comm.state_scalars[i]) // divisor), "state"]
                yield [str(t), str(i), str(int(metrics.comm.cov_messages[i]) // divisor),
                       str(int(metrics.comm.cov_scalars[i]) // divisor), "covariance"]

    write("communication.csv", "t,node,messages,scalars,phase", comm_rows())
    return paths
