"""Scenario configuration, Monte-Carlo execution, metrics, and CSV export.

A scenario is one INI-style config file (every key has a default). Running
it simulates `n_mc_runs` independent trajectories, filters each with the
distributed network, and aggregates per-node RMSE, consensus error,
covariance convergence error, and communication totals.
"""

from __future__ import annotations

import configparser
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dkf_admm.exceptions import ConfigRejected, NotPositiveDefinite
from dkf_admm.filtering import CommLedger, DkfParams, auto_params, dkf_time_step, init_state
from dkf_admm.graphs import TOPOLOGIES, build_graph, load_edge_list, spectral_summary
from dkf_admm.linalg import dare_solve
from dkf_admm.models import (
    SENSOR_ASSIGNMENTS,
    build_constant_velocity_model,
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


def _single_run(config, graph, model, params, p_star, run_idx):
    """One Monte-Carlo run; returns per-step raw errors and the ledger."""
    seq = _run_seed(config.master_seed, run_idx)
    traj_seed, init_seed = seq.spawn(2)
    traj = simulate_trajectory(
        model, config.horizon_steps + 1, traj_seed, noise_free=config.noise_free
    )
    init_rng = np.random.default_rng(init_seed)
    if config.noise_free:
        x0_est = np.tile(model.x0_mean, (model.n_nodes, 1))
    else:
        x0_est = model.x0_mean + init_rng.uniform(
            -config.init_box_halfwidth,
            config.init_box_halfwidth,
            size=(model.n_nodes, model.n),
        )
    state = init_state(model, x0_est)
    ledger = CommLedger(model.n_nodes)
    steps = range(1, config.horizon_steps + 1)
    sq_pos = np.empty((len(steps), model.n_nodes))
    sq_vel = np.empty_like(sq_pos)
    cov_err = np.empty_like(sq_pos)
    consensus_log = []
    p_star_norm = np.linalg.norm(p_star)
    for row, t in enumerate(steps):
        meas_t = [traj.measurements[i][t] for i in range(model.n_nodes)]
        try:
            dkf_time_step(
                state,
                graph,
                model,
                meas_t,
                params,
                ledger=ledger,
                t=t,
                consensus_log=consensus_log,
                sub_iterated_covariance=config.sub_iterated_covariance,
            )
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(f"run {run_idx}, t={t}: {exc}") from exc
        err = traj.states[t] - state.x_post
        sq_pos[row] = err[:, 0] ** 2 + err[:, 1] ** 2
        sq_vel[row] = err[:, 2] ** 2 + err[:, 3] ** 2
        cov_err[row] = np.linalg.norm(state.p_prior - p_star, axis=(1, 2)) / p_star_norm
    return sq_pos, sq_vel, np.array(consensus_log), cov_err, ledger


def run_scenario(config: ScenarioConfig) -> RunMetrics:
    """Execute all Monte-Carlo runs and aggregate metrics.

    Deterministic given the config: run seeds derive from master_seed and
    the run index, and aggregation is ordered by run index regardless of
    the worker pool size.
    """
    graph, model, spectrum, params = build_scenario(config)
    params.validate_for(spectrum, override=config.override_stability_guard)
    h_stack = np.vstack([s.h for s in model.sensors])
    r_bar = np.diag([float(s.r[0, 0]) for s in model.sensors])
    p_star = dare_solve(model.f, h_stack, model.q, r_bar)

    run_ids = list(range(config.n_mc_runs))
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(
                pool.map(
                    _single_run,
                    [config] * len(run_ids),
                    [graph] * len(run_ids),
                    [model] * len(run_ids),
                    [params] * len(run_ids),
                    [p_star] * len(run_ids),
                    run_ids,
                )
            )
    else:
        results = [
            _single_run(config, graph, model, params, p_star, r) for r in run_ids
        ]

    sq_pos_runs = np.array([r[0] for r in results])
    sq_pos = sq_pos_runs.mean(axis=0)
    sq_vel = np.mean([r[1] for r in results], axis=0)
    consensus = np.mean([r[2] for r in results], axis=0)
    cov_err = results[0][3]  # covariance recursion is measurement-independent
    total = CommLedger(model.n_nodes)
    for r in results:
        total.state_messages += r[4].state_messages
        total.state_scalars += r[4].state_scalars
        total.cov_messages += r[4].cov_messages
        total.cov_scalars += r[4].cov_scalars
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
    comm_rows = []
    for t in metrics.times:
        for i in range(n_nodes):
            comm_rows.append(
                [str(t), str(i), str(int(metrics.comm.state_messages[i]) // divisor),
                 str(int(metrics.comm.state_scalars[i]) // divisor), "state"]
            )
            comm_rows.append(
                [str(t), str(i), str(int(metrics.comm.cov_messages[i]) // divisor),
                 str(int(metrics.comm.cov_scalars[i]) // divisor), "covariance"]
            )
    write("communication.csv", "t,node,messages,scalars,phase", comm_rows)
    return paths
