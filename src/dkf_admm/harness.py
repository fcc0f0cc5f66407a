"""Scenario configuration, Monte-Carlo execution, metrics, and CSV export.

A scenario is one INI-style config file (every key has a default). Running
it simulates `n_mc_runs` independent trajectories, filters them with the
distributed network as one batch (one `dkf_steps` window over all time
steps and runs), and aggregates per-node RMSE, consensus error, covariance
convergence error, and communication totals.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dkf_admm.centralized import covariance_window
from dkf_admm.exceptions import ConfigRejected, DimensionError
from dkf_admm.filtering import CommLedger, _check_types, auto_params, dkf_steps, init_state
from dkf_admm.graphs import SensorGraph, build_graph, spectral_summary
from dkf_admm.linalg import dare_solve
from dkf_admm.models import (
    POSITION,
    VELOCITY,
    build_constant_velocity_model,
    information_rate_target,
    sensor_blocks,
    simulate_runs,
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
    sub_iterated_covariance: bool | None = None  # set by sensor_assignment

    def __post_init__(self):
        # types here; dt, n_nodes, radius, l_sub, topology, sensor_assignment values where used
        _check_types(self)
        redrawn = self.sensor_assignment == "per_step_random"
        for name in ("dt", "q_intensity", "r_var", "init_box_halfwidth"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigRejected(f"{name} must be finite, got {getattr(self, name)!r}")
        for name, ok, rule in (
            ("q_intensity", self.q_intensity >= 0, ">= 0"),
            ("r_var", self.r_var > 0, "> 0"),
            ("sub_iterated_covariance", self.sub_iterated_covariance in (None, redrawn),
             f"auto or {redrawn}, as sensor_assignment sets the covariance rounds"),
            ("horizon_steps", self.horizon_steps >= 1, ">= 1"),
            ("n_mc_runs", self.n_mc_runs >= 1, ">= 1"),
            ("workers", self.workers == 1, "1 (Monte-Carlo runs are batched in one process)"),
            ("master_seed", self.master_seed >= 0, ">= 0"),
            ("graph_seed", self.graph_seed >= 0, ">= 0"),
            ("assignment_seed", self.assignment_seed >= 0, ">= 0"),
            ("init_box_halfwidth", self.init_box_halfwidth >= 0, ">= 0"),
            ("edge_list_path", bool(self.edge_list_path) == (self.topology == "explicit"),
             "set if and only if topology = explicit"),
        ):
            if not ok:
                raise ConfigRejected(f"{name} must be {rule}, got {getattr(self, name)!r}")


_SECTIONS = {
    "model": ("dt", "q_intensity", "r_var", "sensor_assignment", "assignment_seed"),
    "graph": ("topology", "n_nodes", "radius", "graph_seed", "edge_list_path"),
    "params": ("alpha_lambda", "mu", "alpha_nu", "l_sub"),
    "run": ("horizon_steps", "n_mc_runs", "master_seed", "output_dir", "workers",
            "init_box_halfwidth", "noise_free", "sub_iterated_covariance"),
}
# each key's type as ScenarioConfig declares it ("float", "str | None", ...)
_TYPES = {f.name: f.type.removesuffix(" | None") for f in dataclasses.fields(ScenarioConfig)}
_PARSE = {"float": float, "int": int, "str": str}
# what each configparser error means, most specific class first
_MALFORMED = ((configparser.MissingSectionHeaderError, "a line before the first [section] header"),
              (configparser.DuplicateSectionError, "a repeated section"),
              (configparser.DuplicateOptionError, "a repeated key"),
              (configparser.ParsingError, "neither a [section] header nor a key = value line"))
_BLOCK_VALUES = 2 ** 16  # values per % operation of export_csv: a few MB of text at most


def _read_text(path, what) -> str:
    """An input file decoded as UTF-8, a leading byte-order mark dropped;
    unreadable or undecodable: ConfigRejected."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigRejected(f"cannot read {what} {path}: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    """Parse a UTF-8 `key = value` config with [model]/[graph]/[params]/[run]
    sections. Missing keys take their defaults; `auto`, `none` or an empty
    value is accepted only on the keys whose default is None (automatic
    step sizes, no edge list). Unreadable, undecodable or malformed files,
    unknown sections ([DEFAULT] too) and keys, and booleans other than 1/0,
    true/false, yes/no, on/off, are rejected; values are literal (no % interpolation)."""
    text = _read_text(path, "config file")
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:  # its own message names the file and spans lines
        lineno = getattr(exc, "lineno", None) or exc.errors[0][0]
        reason = next(reason for cls, reason in _MALFORMED if isinstance(exc, cls))
        raise ConfigRejected(f"malformed config file {path}, line {lineno}: {reason}") from exc
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
            try:
                if raw.lower() in ("auto", "none", ""):  # None passes where it is the default
                    kwargs[key] = None
                elif _TYPES[key] == "bool":
                    kwargs[key] = parser.getboolean(section, key)
                else:
                    kwargs[key] = _PARSE[_TYPES[key]](raw)
            except ValueError as exc:
                raise ConfigRejected(f"bad value for {key}: {raw!r}") from exc
    return ScenarioConfig(**kwargs)


def load_edge_list(path, n_nodes):
    """Build an explicit graph from a plain-text edge-list file.

    One ``i j`` pair per line, 0-indexed, whitespace-separated; lines
    starting with ``#`` are comments. An unreadable or non-UTF-8 file, or a
    line that is not two distinct indices in 0..n_nodes-1, raises ConfigRejected.
    """
    edges = []
    for lineno, line in enumerate(_read_text(path, "edge list").split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            i, j = map(int, line.split())
            if not (0 <= i < n_nodes and 0 <= j < n_nodes) or i == j:
                raise ValueError
        except ValueError:
            raise ConfigRejected(f"{path}, line {lineno}: {line!r} is not an edge "
                                 f"between two distinct nodes 0..{n_nodes - 1}") from None
        edges.append((i, j))
    return SensorGraph(n_nodes, edges)


@dataclass(eq=False)
class RunMetrics:
    """Aggregated outputs of one scenario, plus the per-run squared position
    errors that a statistic across runs (a paired drift test) needs."""

    times: np.ndarray  # filter step indices (t = 1..horizon-1)
    rmse_pos: np.ndarray  # (T, N) per-node position RMSE over MC runs
    rmse_vel: np.ndarray  # (T, N)
    consensus_error: np.ndarray  # (T, L) mean over nodes and runs
    cov_error: np.ndarray  # (T, N) ||P_prior - P_ref||_F / ||P_ref||_F
    comm: CommLedger = field(default=None)
    n_mc_runs: int = 1
    sq_pos_runs: np.ndarray = field(default=None)  # (R, T, N) squared pos. error


def build_scenario(config: ScenarioConfig):
    """Graph, model, spectrum, and validated params for a config. The model
    is built first, so its input errors fire before the spectrum, whose
    lambda_max alone sets the automatic step sizes."""
    model = build_constant_velocity_model(
        dt=config.dt,
        q_intensity=config.q_intensity,
        n_nodes=config.n_nodes,
        sensor_assignment=config.sensor_assignment,
        r_var=config.r_var,
        assignment_seed=config.assignment_seed,
    )
    if config.topology == "explicit":
        graph = load_edge_list(config.edge_list_path, config.n_nodes)
    else:
        graph = build_graph(config.topology, config.n_nodes, radius=config.radius,
                            seed=config.graph_seed)
    spectrum = spectral_summary(graph)
    params = dataclasses.replace(auto_params(spectrum, config.l_sub), **{
        key: getattr(config, key) for key in ("alpha_lambda", "mu", "alpha_nu")
        if getattr(config, key) is not None
    })
    return graph, model, spectrum, params


def steady_state_prior(model) -> np.ndarray:
    """The centralized steady-state prior covariance P* from `dare_solve`.

    The Riccati recursion depends on the sensors only through
    sum_i H_i' R_i^-1 H_i, so the solver gets an n-row factor H~ with
    H~' H~ equal to that sum and R = I, instead of the stacked N-row H and
    its N x N noise covariance. Only static models with a nonzero Q have a
    steady state (Q = 0 gives P* = 0): any other raises ConfigRejected.
    """
    target = information_rate_target(model)  # rejects redrawn sensors first
    if not model.q.any():
        raise ConfigRejected("q_intensity = 0 has no steady-state prior covariance (P* = 0)")
    w, v = np.linalg.eigh(target)
    h_tilde = np.sqrt(np.clip(w, 0.0, None))[:, None] * v.T
    return dare_solve(model.f, h_tilde, model.q, np.eye(model.n))


def reference_priors(model, n_steps) -> np.ndarray:
    """The centralized prior covariance each step's covariance error is
    measured against, shape (n_steps, n, n) for t = 1..n_steps.

    Static sensors: the steady-state P* of `steady_state_prior` at every
    step. Per-step-random sensors have no steady state, so the reference is
    the time-varying centralized covariance recursion from P0: the
    `covariance_window` of `centralized_kf_step`, once over all steps.
    """
    if model.assignment_mode == "static":
        return np.broadcast_to(steady_state_prior(model), (n_steps, model.n, model.n))
    sums = [s.info.sum(axis=1) for _, s in sensor_blocks(model, 1, n_steps)]
    return covariance_window(model.p0, model, np.concatenate(sums), 1)[0]


def run_scenario(config: ScenarioConfig) -> RunMetrics:
    """Execute all Monte-Carlo runs and aggregate metrics.

    The runs are drawn by one `simulate_runs` call and filtered as one
    batch, by one `dkf_steps` window over the horizon for all of them;
    each step it yields is scored from the state before the next runs.
    The window books the ledger and the consensus log a block of steps at
    a time, and the log is averaged over runs once, after the last step.
    Deterministic given the config: run seeds derive from master_seed and
    the run index, and runs are ordered by run index.
    """
    graph, model, spectrum, params = build_scenario(config)
    for report in params.check(spectrum):
        report.require()
    p_refs = reference_priors(model, config.horizon_steps)
    # cov_error on P, P_ref times a power of 2 (exact) so P_ref's norm cannot underflow
    scale = np.ldexp(1.0, -np.frexp(np.abs(p_refs).max(axis=(1, 2), keepdims=True))[1])
    p_refs = p_refs * scale

    seeds = [np.random.SeedSequence(entropy=config.master_seed, spawn_key=(run,)).spawn(2)
             for run in range(config.n_mc_runs)]  # (trajectory, initial estimate) per run
    traj = simulate_runs(model, config.horizon_steps + 1, [s[0] for s in seeds],
                         noise_free=config.noise_free)  # states (R, T + 1, n)
    box = 0.0 if config.noise_free else config.init_box_halfwidth
    state = init_state(model, model.x0_mean + np.array([np.random.default_rng(s[1]).uniform(
        -box, box, size=(model.n_nodes, model.n)) for s in seeds]))
    ledger = CommLedger(model.n_nodes)
    steps = range(1, config.horizon_steps + 1)
    # each step scores into these: squared (position, velocity) errors, covariance error
    sq = np.empty((config.n_mc_runs, len(steps), model.n_nodes, 2))
    cov_sq = np.empty((len(steps), model.n_nodes))
    diff, dev = np.empty(state.x_post.shape), np.empty(state.p_prior.shape)
    consensus_log, p_prior = [], None
    split = np.zeros((model.n, 2))  # sums the squared errors of (position, velocity)
    split[POSITION, 0] = split[VELOCITY, 1] = 1.0
    for row, t in enumerate(dkf_steps(state, graph, model, traj.measurements[:, 1:], params, t0=1,
                                      ledger=ledger, consensus_log=consensus_log)):
        np.subtract(traj.states[:, t, None], state.x_post, out=diff)
        np.matmul(np.square(diff, out=diff), split, out=sq[:, row])
        if state.p_prior is p_prior:  # a reused static half, scored against the same P*
            cov_sq[row] = cov_sq[row - 1]
            continue
        np.subtract(np.multiply(p_prior := state.p_prior, scale[row], out=dev), p_refs[row], out=dev)
        np.einsum("nij,nij->n", dev, dev, out=cov_sq[row])
    flat = p_refs.reshape(len(steps), 1, -1)
    ref_norms = np.sqrt(flat @ flat.swapaxes(1, 2))[:, 0]  # (T, 1), np.linalg.norm's own dot
    return RunMetrics(
        times=np.array(steps),
        rmse_pos=np.sqrt(sq[..., 0].mean(axis=0)),
        rmse_vel=np.sqrt(sq[..., 1].mean(axis=0)),
        consensus_error=np.array(consensus_log).mean(axis=1),  # (T, R, L) -> (T, L)
        cov_error=np.sqrt(cov_sq) / ref_norms,
        comm=ledger,
        n_mc_runs=config.n_mc_runs,
        sq_pos_runs=sq[..., 0],
    )


def validate_params(config: ScenarioConfig) -> tuple:
    """Stability report text of a config and the `DkfParams.check` reports it renders."""
    _, _, spectrum, params = build_scenario(config)
    reports = params.check(spectrum)
    lines = [
        f"graph: {config.topology}, N={config.n_nodes}",
        f"lambda_2      = {spectrum.lambda_2:.6g}",
        f"lambda_max    = {spectrum.lambda_max:.6g}",
        *(report.line for report in reports),
    ]
    return "\n".join(lines), reports


def export_csv(metrics: RunMetrics, output_dir) -> list:
    """Write the five result CSVs from the metric arrays, each value as %.12g,
    a block of steps (`_BLOCK_VALUES` values, or one step) per % operation;
    returns the paths. Traffic not divisible by steps x runs: DimensionError;
    a directory or file that cannot be written: ConfigRejected."""
    comm, times = metrics.comm, np.asarray(metrics.times)
    per_step, rest = np.divmod(np.column_stack([comm.state_messages, comm.state_scalars,
                                                comm.cov_messages, comm.cov_scalars]),
                               len(times) * metrics.n_mc_runs)
    if rest.any():
        node, column = np.argwhere(rest)[0]
        raise DimensionError(f"node {node}'s {('state', 'covariance')[column // 2]} traffic does "
                             f"not divide over {len(times)} steps x {metrics.n_mc_runs} runs")
    out = path = Path(output_dir)
    node_header = "t," + ",".join(f"node_{i}" for i in range(metrics.rmse_pos.shape[1]))
    node_fmt = "%d" + ",%.12g" * metrics.rmse_pos.shape[1] + "\n"
    tables = {name: (node_header, node_fmt, [times[:, None], values]) for name, values in (
        ("rmse_position.csv", metrics.rmse_pos), ("rmse_velocity.csv", metrics.rmse_vel),
        ("covariance_error.csv", metrics.cov_error))}
    tables["consensus_error.csv"] = ("t,l,error", "%d,%d,%.12g\n", np.broadcast_arrays(
        times[:, None, None], np.arange(metrics.consensus_error.shape[1])[:, None],
        metrics.consensus_error[..., None]))  # (T, L, 1) each: a step's L rows of (t, l, error)
    pieces = "".join(f"{{0}},{i},{sm},{ss},state\n{{0}},{i},{cm},{cs},covariance\n"
                     for i, (sm, ss, cm, cs) in enumerate(per_step.tolist())).split("{0}")
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, fmt, columns) in tables.items():
            steps = max(1, _BLOCK_VALUES // max(1, sum(c[:1].size for c in columns)))
            blocks = (np.concatenate([c[lo:lo + steps] for c in columns], axis=-1).ravel()
                      for lo in range(0, max(map(len, columns)), steps))  # unequal lengths: ValueError
            with open(path := out / name, "w", encoding="utf-8") as fh:
                fh.write(header + "\n")
                fh.writelines((fmt * (b.size // fmt.count("%"))) % tuple(b.tolist()) for b in blocks)
        with open(path := out / "communication.csv", "w", encoding="utf-8") as fh:
            fh.write("t,node,messages,scalars,phase\n")
            for t in times:  # one step's 2N rows, formatted once, joined by each step's t
                fh.write(str(t).join(pieces))
    except OSError as exc:  # the directory or the file being written
        raise ConfigRejected(f"cannot write {path}: {exc}") from exc
    return [out / name for name in (*tables, "communication.csv")]
