"""Benchmark of dkf-admm: four Monte-Carlo scenario workloads.

Run from the repository root:

    python3 perfbench/dkfbench.py --workload ring6-mc --seed 1 --seconds 12 --trace 0

One process runs one workload as a closed loop: scenarios back to back, one
worker, BLAS pinned to one thread. Scenarios go through the user-facing
surface only (`ScenarioConfig` -> `run_scenario`, or the in-process
`dkf_admm.cli.main(["run", ...])`), and every scenario's outputs are checked.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, the per-layer metrics with `--trace 1`.
The traced run wraps the program's public functions from outside
(spantrace.py). The line before the result holds the environment block and
the span summary; both also go to perfbench/out/.

The program is imported from ./src only. Without it the script exits with
code 2 and prints no result.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # Fix the BLAS thread count before numpy loads its library.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import dataclasses
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spantrace import SpanTracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPS = 3  # least set-up repeats, after one warm-up repeat
SETUP_REPS_MAX = 30
TRACED_REPS_MAX = 3
COV_ROUNDOFF = 1e-12  # a converged covariance error sits at round-off level
# Median time of `_probe` on the 2-core machine the benchmark was built on.
# Reported times are rescaled to this host speed (see `_probe`).
PROBE_NOMINAL_S = 0.015
CSV_FILES = (
    "rmse_position.csv",
    "rmse_velocity.csv",
    "covariance_error.csv",
    "consensus_error.csv",
    "communication.csv",
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """A scenario shape. Seeds are added per run; `tiny` shrinks it for tests."""

    name: str
    config: dict
    tiny: dict
    # The first scenarios of a run, with distinct master seeds, give the
    # accuracy metrics; enough of them that rmse_pos spreads little by seed.
    accuracy_scenarios: int
    cli: bool = False  # run through cli.main with an INI file and CSV export
    regular_degree: int = 0  # > 0: explicit random regular graph from an edge list


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ring6-mc",
            dict(topology="ring", n_nodes=6, l_sub=10, horizon_steps=300, n_mc_runs=5),
            tiny=dict(horizon_steps=20, n_mc_runs=2),
            accuracy_scenarios=6,
        ),
        Workload(
            "regular100-cli",
            dict(topology="explicit", n_nodes=100, alpha_lambda=0.10, mu=0.001,
                 alpha_nu=0.04, l_sub=20, horizon_steps=100, n_mc_runs=5),
            tiny=dict(n_nodes=20, horizon_steps=10, n_mc_runs=2),
            cli=True,
            regular_degree=7,
            accuracy_scenarios=5,
        ),
        Workload(
            "geo1000-single",
            dict(topology="random_geometric", n_nodes=1000, radius=0.08, l_sub=20,
                 horizon_steps=100, n_mc_runs=1),
            tiny=dict(n_nodes=60, radius=0.3, horizon_steps=10),
            accuracy_scenarios=4,
        ),
        Workload(
            "randsensor12-subcov",
            dict(topology="random_geometric", n_nodes=12, radius=1.0, l_sub=20,
                 horizon_steps=100, n_mc_runs=2, sensor_assignment="per_step_random",
                 sub_iterated_covariance=True),
            tiny=dict(n_nodes=6, horizon_steps=10, n_mc_runs=1),
            accuracy_scenarios=6,
        ),
    )
}

# Span name -> the bindings, as the calling modules look them up, that record it.
TRACE_BINDINGS = {
    "graphs.build_graph": ["dkf_admm.harness:build_graph", "dkf_admm.graphs:build_graph"],
    "graphs.load_edge_list": ["dkf_admm.harness:load_edge_list"],
    "graphs.spectral_summary": ["dkf_admm.harness:spectral_summary"],
    "linalg.dare_solve": ["dkf_admm.harness:dare_solve"],
    "linalg.vech": ["dkf_admm.models:vech", "dkf_admm.filtering:vech"],
    "linalg.unvech": ["dkf_admm.filtering:unvech"],
    "linalg.spd_inverse": ["dkf_admm.filtering:spd_inverse"],
    "models.simulate_trajectory": ["dkf_admm.harness:simulate_trajectory"],
    "models.sensor_specs_at": [
        "dkf_admm.filtering:sensor_specs_at",
        "dkf_admm.models:sensor_specs_at",
    ],
    "models.node_info_vectors": ["dkf_admm.filtering:node_info_vectors"],
    "filtering.dkf_time_step": ["dkf_admm.harness:dkf_time_step"],
    "filtering.CommLedger.record": ["dkf_admm.filtering:CommLedger.record"],
    "harness.build_scenario": ["dkf_admm.harness:build_scenario"],
    "harness.run_scenario": ["dkf_admm.harness:run_scenario", "dkf_admm.cli:run_scenario"],
    "harness.load_config": ["dkf_admm.cli:load_config"],
    "harness.export_csv": ["dkf_admm.cli:export_csv"],
    "cli.main": ["dkf_admm.cli:main"],
}


class ScenarioFailed(Exception):
    """A scenario's user-visible outputs are missing or malformed."""


@dataclasses.dataclass
class Outputs:
    """What a user reads back from one scenario."""

    rmse_pos: np.ndarray  # (T, N)
    rmse_vel: np.ndarray  # (T, N)
    consensus: np.ndarray  # (T, L)
    cov_error: np.ndarray  # (T, N)
    messages: int  # ledger totals over nodes, steps and runs
    scalars: int


@dataclasses.dataclass(frozen=True)
class Expect:
    """Reference values for one workload and seed, from the public API."""

    sum_degree: int
    n_nodes: int
    n_state: int
    static: bool
    pos_var: np.ndarray  # trace of the centralized posterior position block, t = 1..T


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0


# -- program and inputs ---------------------------------------------------


def load_program(root):
    """The dkf_admm modules from root/src, or None when that tree is missing."""
    src = (root / "src").resolve()
    if not (src / "dkf_admm" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"dkf_admm.{m}") for m in ("harness", "cli", "centralized")}
    if Path(mods["harness"].__file__).resolve().parent != src / "dkf_admm":
        raise ImportError(f"dkf_admm was not imported from {src}")
    return SimpleNamespace(**mods)


def random_regular_edges(n, degree, rng):
    """Edges of a connected random `degree`-regular graph on n nodes.

    Pairing model with local rejection of loops and repeated edges,
    restarted afresh on a dead end or a disconnected result.
    """
    for _ in range(100):
        stubs = list(np.repeat(np.arange(n), degree))
        edges = set()
        while stubs:
            for _ in range(100):
                i, j = rng.choice(len(stubs), size=2, replace=False)
                u, v = sorted((int(stubs[i]), int(stubs[j])))
                if u != v and (u, v) not in edges:
                    break
            else:
                break
            edges.add((u, v))
            for k in sorted((i, j), reverse=True):
                stubs.pop(k)
        if not stubs and _connected(n, edges):
            return sorted(edges)
    raise RuntimeError(f"no connected {degree}-regular graph on {n} nodes")


def _connected(n, edges):
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [v for u in frontier for v in nbrs[u] if v not in seen]
        seen.update(frontier)
    return len(seen) == n


def scenario_config(prog, wl, seed, rep, tiny, work, **overrides):
    """The workload's ScenarioConfig for one repeat of one run."""
    fields = {**wl.config, **(wl.tiny if tiny else {})}
    fields.update(
        graph_seed=seed,
        master_seed=seed * 1000 + rep,
        workers=1,
        output_dir=str(work / "results"),
    )
    if wl.regular_degree:
        fields["edge_list_path"] = str(work / "edges.txt")
    fields.update(overrides)
    return prog.harness.ScenarioConfig(**fields)


def write_inputs(wl, seed, tiny, work):
    """Files the scenario reads: the edge list of an explicit graph."""
    work.mkdir(parents=True, exist_ok=True)
    if wl.regular_degree:
        n = {**wl.config, **(wl.tiny if tiny else {})}["n_nodes"]
        edges = random_regular_edges(n, wl.regular_degree, np.random.default_rng(seed))
        (work / "edges.txt").write_text("".join(f"{u} {v}\n" for u, v in edges))


def ini_text(cfg):
    sections = {
        "graph": ("topology", "n_nodes", "edge_list_path"),
        "params": ("alpha_lambda", "mu", "alpha_nu", "l_sub"),
        "run": ("horizon_steps", "n_mc_runs", "master_seed", "workers"),
    }
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {getattr(cfg, key)}" for key in keys]
    return "\n".join(lines) + "\n"


def expectations(prog, cfg):
    """Graph degrees and the centralized reference, outside any timing."""
    graph, model, _, _ = prog.harness.build_scenario(cfg)
    state = prog.centralized.initial_centralized_state(model)
    zeros = [np.zeros(s.h.shape[0]) for s in model.sensors]
    pos_var = []
    for t in range(1, cfg.horizon_steps + 1):
        # The covariance recursion does not depend on the measurements.
        state = prog.centralized.centralized_kf_step(state, model, zeros, t)
        pos_var.append(state.p[0, 0] + state.p[1, 1])
    return Expect(
        sum_degree=int(round(float(np.sum(graph.degree)))),
        n_nodes=model.n_nodes,
        n_state=model.n,
        static=model.assignment_mode == "static",
        pos_var=np.array(pos_var),
    )


# -- one scenario ---------------------------------------------------------


def read_cli_outputs(out_dir, cfg, exit_code):
    """Parse the five CSVs the CLI writes, checking they are all there."""
    if exit_code != 0:
        raise ScenarioFailed(f"cli exit code {exit_code}")
    t, n, l_sub = cfg.horizon_steps, cfg.n_nodes, cfg.l_sub
    want_rows = dict(zip(CSV_FILES, (t, t, t, t * l_sub, 2 * t * n)))
    rows = {}
    for name in CSV_FILES:
        path = out_dir / name
        if not path.is_file():
            raise ScenarioFailed(f"{name} was not written")
        rows[name] = path.read_text().splitlines()[1:]
        if len(rows[name]) != want_rows[name]:
            raise ScenarioFailed(f"{name} has {len(rows[name])} rows, want {want_rows[name]}")

    def grid(name, **kw):
        return np.loadtxt(rows[name], delimiter=",", ndmin=2, **kw)

    comm = grid("communication.csv", usecols=(2, 3), dtype=np.int64)
    runs = cfg.n_mc_runs  # the CSV holds per-run traffic
    return Outputs(
        rmse_pos=grid("rmse_position.csv")[:, 1:],
        rmse_vel=grid("rmse_velocity.csv")[:, 1:],
        consensus=grid("consensus_error.csv")[:, 2].reshape(t, l_sub),
        cov_error=grid("covariance_error.csv")[:, 1:],
        messages=int(comm[:, 0].sum()) * runs,
        scalars=int(comm[:, 1].sum()) * runs,
    )


def run_one(prog, wl, cfg, work):
    """(seconds, outputs) of one scenario; only the program call is timed."""
    if wl.cli:
        ini, out_dir = work / "scenario.ini", Path(cfg.output_dir)
        ini.write_text(ini_text(cfg))
        for name in CSV_FILES:
            (out_dir / name).unlink(missing_ok=True)
        t0 = time.perf_counter()
        code = prog.cli.main(["run", str(ini), "--output", str(out_dir), "--quiet"])
        seconds = time.perf_counter() - t0
        return seconds, read_cli_outputs(out_dir, cfg, code)
    t0 = time.perf_counter()
    metrics = prog.harness.run_scenario(cfg)
    seconds = time.perf_counter() - t0
    comm = metrics.comm
    return seconds, Outputs(
        rmse_pos=np.asarray(metrics.rmse_pos),
        rmse_vel=np.asarray(metrics.rmse_vel),
        consensus=np.asarray(metrics.consensus_error),
        cov_error=np.asarray(metrics.cov_error),
        messages=int(np.sum(comm.messages_sent)),
        scalars=int(np.sum(comm.scalars_sent)),
    )


def expected_traffic(expect, cfg):
    """Closed-form ledger totals: per node-step, mean degree x (L + c)
    messages and mean degree x (L n + c n(n+1)/2) scalars, where c is the
    number of covariance exchanges per step."""
    c = cfg.l_sub if cfg.sub_iterated_covariance else 1
    n = expect.n_state
    steps = cfg.horizon_steps * cfg.n_mc_runs
    return (
        expect.sum_degree * (cfg.l_sub + c) * steps,
        expect.sum_degree * (cfg.l_sub * n + c * n * (n + 1) // 2) * steps,
    )


def check(out, expect, cfg):
    """Problems found in one scenario's outputs; empty when all checks pass."""
    t = cfg.horizon_steps
    shapes = {
        "rmse_pos": (out.rmse_pos, (t, expect.n_nodes)),
        "rmse_vel": (out.rmse_vel, (t, expect.n_nodes)),
        "consensus": (out.consensus, (t, cfg.l_sub)),
        "cov_error": (out.cov_error, (t, expect.n_nodes)),
    }
    problems = [f"{k} has shape {a.shape}, want {s}" for k, (a, s) in shapes.items() if a.shape != s]
    if problems:
        return problems
    if not all(np.isfinite(a).all() for a, _ in shapes.values()):
        problems.append("non-finite output")
    want = expected_traffic(expect, cfg)
    if (out.messages, out.scalars) != want:
        problems.append(f"ledger {out.messages}/{out.scalars} != closed form {want[0]}/{want[1]}")
    if np.any(out.consensus[:, -1] > out.consensus[:, 0]):
        problems.append("consensus error at the last sub-iteration exceeds the first")
    if expect.static:
        mid = out.cov_error[max(t // 2, 1) - 1].max()
        if out.cov_error[-1].max() > mid + COV_ROUNDOFF:
            problems.append("covariance error grew over the second half")
    return problems


def _probe():
    """Seconds taken by a fixed mix of interpreter loops and small numpy work.

    Shared cores swing the speed of all code by up to 2x over tens of
    seconds. Timing this probe right before and after each scenario and
    rescaling the scenario's time by PROBE_NOMINAL_S / probe cancels most
    of that swing, while a change to the program moves only the scenario.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += (i * i) % 7
    a = np.full((120, 120), 0.01)
    for _ in range(30):
        a = a @ a
        a /= a.max()
    v = np.zeros(4)
    for _ in range(3000):
        v = v + 1.0
    return time.perf_counter() - t0


@dataclasses.dataclass(frozen=True)
class Timed:
    """One scenario that ran to the end."""

    seconds: float  # wall time of the program call
    probe_s: float  # mean probe time right before and after it
    out: Outputs

    @property
    def scaled_s(self):
        """Wall time rescaled to the nominal host speed."""
        return self.seconds * PROBE_NOMINAL_S / self.probe_s


def attempt(tally, prog, wl, cfg, expect, work):
    """Run and check one scenario; a Timed, or None if it raised."""
    tally.attempted += 1
    try:
        before = _probe()
        seconds, out = run_one(prog, wl, cfg, work)
        probe_s = (before + _probe()) / 2
        problems = check(out, expect, cfg)
    except Exception:  # a failed scenario is counted, and the run goes on
        traceback.print_exc()
        tally.failed += 1
        return None
    if problems:
        tally.failed += 1
        print(f"{wl.name} master_seed={cfg.master_seed}: {'; '.join(problems)}", file=sys.stderr)
    return Timed(seconds, probe_s, out)


# -- runs -----------------------------------------------------------------


def _accuracy(runs, expect):
    """(rmse_pos, ratio to the centralized posterior) over the second halves."""
    half = len(expect.pos_var) // 2
    ms = np.mean([np.mean(out.rmse_pos[half:] ** 2) for out in runs])
    rmse = float(np.sqrt(ms))
    return rmse, rmse / float(np.sqrt(np.mean(expect.pos_var[half:])))


def _timed_loop(tally, prog, wl, seed, tiny, work, expect, seconds, least,
                most=None, first=0, tracer=None):
    """Full scenarios back to back for about `seconds`: at least `least`, at
    most `most`, repeat ids from `first`. A scenario starts only if half its
    predecessor's time still fits."""
    results = []
    end = time.perf_counter() + seconds
    last = 0.0
    while len(results) < least or (
        time.perf_counter() + last / 2 < end and (most is None or len(results) < most)
    ):
        rep = first + len(results)
        if tracer is not None:
            tracer.request = rep
        cfg = scenario_config(prog, wl, seed, rep, tiny, work)
        t0 = time.perf_counter()
        results.append(attempt(tally, prog, wl, cfg, expect, work))
        last = time.perf_counter() - t0
    return results


def _setup_runs(tally, prog, wl, seed, tiny, work, expect, budget):
    """Set-up repeats: the scenario at horizon 1 with one run."""
    runs = []
    end = time.perf_counter() + budget
    rep = 0
    while rep < SETUP_REPS + 1 or (time.perf_counter() < end and rep < SETUP_REPS_MAX):
        cfg = scenario_config(prog, wl, seed, rep, tiny, work, horizon_steps=1, n_mc_runs=1)
        res = attempt(tally, prog, wl, cfg, expect, work)
        if res is not None and rep > 0:  # repeat 0 warms caches
            runs.append(res)
        rep += 1
    return runs


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(prog, wl, seed, seconds, tiny, work):
    """Untraced run: (result, detail) with every end-to-end metric."""
    tally = Tally()
    base = scenario_config(prog, wl, seed, 0, tiny, work)
    expect = expectations(prog, base)
    setup = _setup_runs(tally, prog, wl, seed, tiny, work, expect, seconds / 6)
    results = _timed_loop(tally, prog, wl, seed, tiny, work, expect, seconds, wl.accuracy_scenarios)
    done = [r for r in results if r is not None]
    if not done or not setup:
        raise RuntimeError(f"{wl.name}: every scenario raised")
    wall = statistics.median(r.scaled_s for r in done)
    accuracy_runs = [r.out for r in results[: wl.accuracy_scenarios] if r is not None]
    if not accuracy_runs:
        raise RuntimeError(f"{wl.name}: every accuracy scenario raised")
    rmse, ratio = _accuracy(accuracy_runs, expect)
    first = done[0].out
    node_steps = base.n_nodes * base.horizon_steps * base.n_mc_runs
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    metrics = {
        "wall_s": _metric(wall, "s"),
        "node_steps_per_s": _metric(node_steps / wall, "1/s"),
        "setup_s": _metric(statistics.median(r.scaled_s for r in setup), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "rmse_pos": _metric(rmse, "m"),
        "rmse_ratio_vs_central": _metric(ratio, "1"),
        "msgs_per_node_step": _metric(first.messages / node_steps, "1"),
        "scalars_per_node_step": _metric(first.scalars / node_steps, "1"),
        "ok_frac": _metric(1.0 - tally.failed / tally.attempted, "1"),
    }
    detail = {
        "raw_wall_s": statistics.median(r.seconds for r in done),
        "raw_setup_s": statistics.median(r.seconds for r in setup),
        "probe_s": statistics.median(r.probe_s for r in done),
        "scenario_s": [r.seconds for r in done],
        "scenario_scaled_s": [r.scaled_s for r in done],
        "size": {"n_nodes": base.n_nodes, "horizon_steps": base.horizon_steps,
                 "n_mc_runs": base.n_mc_runs, "l_sub": base.l_sub},
    }
    return _result(tally, metrics), detail


def _nbytes(obj, depth=2):
    """Bytes held in numpy arrays reachable from obj within `depth` fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0:
        return 0
    if isinstance(obj, (tuple, list)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return 0
    return sum(_nbytes(v, depth - 1) for v in items)


def _layer_metrics(stats, graph, out, cfg):
    """Per-layer metrics of one traced scenario."""
    step = stats["filtering.dkf_time_step"]
    step_ms = step.durations_s * 1e3 if step.calls else np.zeros(1)
    specs = stats["models.sensor_specs_at"]
    run = stats["harness.run_scenario"]
    final = out.consensus[-1]
    return {
        "graphs.build_graph.s": _metric(stats["graphs.build_graph"].total_s, "s"),
        "graphs.load_edge_list.calls": _metric(stats["graphs.load_edge_list"].calls, "count"),
        "graphs.spectral_summary.s": _metric(stats["graphs.spectral_summary"].total_s, "s"),
        "graphs.adjacency_mb": _metric(_nbytes(graph) / 1e6, "MB"),
        "linalg.dare_solve.s": _metric(stats["linalg.dare_solve"].total_s, "s"),
        "linalg.vech.calls": _metric(stats["linalg.vech"].calls, "count"),
        "linalg.unvech.calls": _metric(stats["linalg.unvech"].calls, "count"),
        "linalg.unvech.s": _metric(stats["linalg.unvech"].total_s, "s"),
        "linalg.spd_inverse.calls": _metric(stats["linalg.spd_inverse"].calls, "count"),
        "models.simulate_trajectory.s": _metric(stats["models.simulate_trajectory"].total_s, "s"),
        "models.sensor_specs_at.calls_per_step": _metric(
            specs.calls / (cfg.horizon_steps * cfg.n_mc_runs), "1"
        ),
        "models.sensor_specs_at.s": _metric(specs.total_s, "s"),
        "models.node_info_vectors.calls": _metric(stats["models.node_info_vectors"].calls, "count"),
        "filtering.dkf_time_step.calls": _metric(step.calls, "count"),
        "filtering.dkf_time_step.self_s": _metric(step.self_s, "s"),
        "filtering.step_ms_p50": _metric(np.percentile(step_ms, 50), "ms"),
        "filtering.step_ms_p90": _metric(np.percentile(step_ms, 90), "ms"),
        "filtering.CommLedger.record.calls": _metric(stats["filtering.CommLedger.record"].calls, "count"),
        "filtering.consensus_ratio_final": _metric(final[-1] / final[0], "1"),
        "harness.run_scenario.self_s": _metric(run.self_s, "s"),
        "harness.build_scenario.s": _metric(stats["harness.build_scenario"].total_s, "s"),
        "harness.load_config.calls": _metric(stats["harness.load_config"].calls, "count"),
        "harness.export_csv.calls": _metric(stats["harness.export_csv"].calls, "count"),
        "cli.main.calls": _metric(stats["cli.main"].calls, "count"),
    }


def traced(prog, wl, seed, seconds, tiny, work, spans_path=None):
    """Traced run: (result, detail) with every per-layer metric.

    Half the time runs untraced scenarios and half traced ones, so that
    `trace.overhead_frac` compares the two within one process.
    """
    tally = Tally()
    base = scenario_config(prog, wl, seed, 0, tiny, work)
    expect = expectations(prog, base)
    warm = scenario_config(prog, wl, seed, 0, tiny, work, horizon_steps=1, n_mc_runs=1)
    attempt(tally, prog, wl, warm, expect, work)  # fills caches before timing
    plain = _timed_loop(tally, prog, wl, seed, tiny, work, expect, seconds / 2, 1)
    tracer = SpanTracer(TRACE_BINDINGS, keep=("graphs.build_graph",))
    with tracer:
        runs = _timed_loop(tally, prog, wl, seed, tiny, work, expect, seconds / 2, 1,
                           most=TRACED_REPS_MAX, first=len(plain), tracer=tracer)
    graph = tracer.returned.get("graphs.build_graph")
    per_rep, walls, summaries = [], [], []
    for rep, res in enumerate(runs, start=len(plain)):
        if res is None:
            continue
        stats = tracer.summary(request=rep)
        cfg = scenario_config(prog, wl, seed, rep, tiny, work)
        walls.append(res.scaled_s)
        summaries.append(stats)
        per_rep.append(_layer_metrics(stats, graph, res.out, cfg))
    if not per_rep:
        raise RuntimeError(f"{wl.name}: every traced scenario raised")
    plain_walls = [r.scaled_s for r in plain if r is not None]
    if not plain_walls:
        raise RuntimeError(f"{wl.name}: every untraced scenario raised")
    metrics = {
        name: _metric(statistics.median(m[name]["value"] for m in per_rep), per_rep[0][name]["unit"])
        for name in per_rep[0]
    }
    overhead = statistics.median(walls) / statistics.median(plain_walls) - 1.0
    metrics["trace.overhead_frac"] = _metric(overhead, "1")
    if spans_path is not None:
        tracer.save(spans_path)
    detail = {
        "scenarios_untraced": len(plain_walls),
        "scenarios_traced": len(per_rep),
        "step_samples_per_scenario": int(metrics["filtering.dkf_time_step.calls"]["value"]),
        "absent_bindings": tracer.absent,
        "spans": {
            name: {
                "calls": statistics.median(s[name].calls for s in summaries),
                "total_s": statistics.median(s[name].total_s for s in summaries),
                "self_s": statistics.median(s[name].self_s for s in summaries),
            }
            for name in tracer.names
        },
    }
    return _result(tally, metrics), detail


def _result(tally, metrics):
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


# -- environment and entry point ------------------------------------------


def git_commit(root):
    """HEAD commit read from .git without running git; 'unknown' elsewhere."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root):
    """Interpreter, BLAS and machine facts, plus the program's size in lines."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    src_lines = {
        p.name: p.read_bytes().count(b"\n") for p in sorted((root / "src" / "dkf_admm").glob("*.py"))
    }
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": nproc,
        "commit": git_commit(root),
        "src_lines": src_lines,
        "src_lines_total": sum(src_lines.values()),
    }


def run_workload(prog, wl, seed, seconds, trace, tiny=False, work=None, spans_path=None):
    """(result, detail) of one run of one workload."""
    work = Path(work) if work is not None else OUT_DIR / "work" / wl.name
    write_inputs(wl, seed, tiny, work)
    if trace:
        return traced(prog, wl, seed, seconds, tiny, work, spans_path)
    return end_to_end(prog, wl, seed, seconds, tiny, work)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prog = load_program(ROOT)
    if prog is None:
        print(f"no program at {ROOT / 'src' / 'dkf_admm'}; nothing to benchmark", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"{wl.name}.spans.npz" if args.trace else None
    result, detail = run_workload(prog, wl, args.seed, args.seconds, args.trace, spans_path=spans)
    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "env": environment(ROOT), "detail": detail}
    (OUT_DIR / f"{wl.name}-trace{args.trace}.json").write_text(
        json.dumps({**info, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
