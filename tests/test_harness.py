import dataclasses
import filecmp
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import centralized_priors_oracle, count_row_draws, sensor_oracle

import dkf_admm
from dkf_admm import harness, models
from dkf_admm.centralized import centralized_kf_step, covariance_window, initial_centralized_state
from dkf_admm.exceptions import ConfigRejected, DimensionError, NotPositiveDefinite
from dkf_admm.filtering import CommLedger, dkf_steps, init_state
from dkf_admm.harness import (
    RunMetrics,
    ScenarioConfig,
    build_scenario,
    export_csv,
    load_config,
    run_scenario,
    steady_state_prior,
    validate_params,
)
from dkf_admm.linalg import dare_solve
from dkf_admm.models import (
    SensorSpec,
    StateSpaceModel,
    build_constant_velocity_model,
    sensor_specs_at,
)

SMOKE = ScenarioConfig(
    topology="ring", n_nodes=6, horizon_steps=8, n_mc_runs=2, l_sub=5,
    master_seed=42,
)


def test_config_defaults_and_sections(tmp_path):
    p = tmp_path / "scenario.ini"
    p.write_text(
        "[model]\ndt = 0.2\nr_var = 0.7\n"
        "[graph]\ntopology = ring\nn_nodes = 12\n"
        "[params]\nalpha_nu = auto\nl_sub = 9\n"
        "[run]\nhorizon_steps = 15\nnoise_free = true\n"
    )
    cfg = load_config(p)
    assert cfg.dt == 0.2 and cfg.r_var == 0.7
    assert cfg.topology == "ring" and cfg.n_nodes == 12
    assert cfg.alpha_nu is None  # auto
    assert cfg.l_sub == 9 and cfg.horizon_steps == 15
    assert cfg.noise_free is True
    assert cfg.q_intensity == 1.0  # untouched default


def test_config_rejections(tmp_path):
    missing = tmp_path / "nope.ini"
    with pytest.raises(ConfigRejected):
        load_config(missing)
    bad_key = tmp_path / "bad_key.ini"
    bad_key.write_text("[run]\nhorizon = 5\n")
    with pytest.raises(ConfigRejected):
        load_config(bad_key)
    bad_val = tmp_path / "bad_val.ini"
    bad_val.write_text("[model]\ndt = fast\n")
    with pytest.raises(ConfigRejected):
        load_config(bad_val)
    bad_section = tmp_path / "bad_section.ini"  # would run with N = 10
    bad_section.write_text("[grpah]\nn_nodes = 400\n")
    with pytest.raises(ConfigRejected):
        load_config(bad_section)
    bad_bool = tmp_path / "bad_bool.ini"  # would run with noise_free = False
    bad_bool.write_text("[run]\nnoise_free = ture\n")
    with pytest.raises(ConfigRejected):
        load_config(bad_bool)
    # `none`, `auto` or an empty value only where the default is None
    for k, text in enumerate((
        "[graph]\nn_nodes = none\n",  # would run with N = 10
        "[graph]\ntopology = auto\n",
        "[run]\nhorizon_steps =\n",
        "n_nodes = 5\n",  # no section header
        "[graph]\nn_nodes = 5\nn_nodes = 6\n",  # a duplicated key
        "[graph]\n[graph]\n",  # a duplicated section
        "[DEFAULT]\n",  # would run with every default
        "[DEFAULT]\nl_sub = 3\n[params]\nalpha_nu = 0.01\n",  # would run with l_sub = 3
    )):
        bad = tmp_path / f"bad{k}.ini"
        bad.write_text(text)
        with pytest.raises(ConfigRejected):
            load_config(bad)
    not_utf8 = tmp_path / "latin1.ini"  # a raw UnicodeDecodeError before
    not_utf8.write_bytes(b"\xff[run]\nhorizon_steps = 5\n")
    with pytest.raises(ConfigRejected, match="cannot read config file .*latin1.ini"):
        load_config(not_utf8)
    # a UTF-8 byte-order mark, as Windows editors write, used to read as "a
    # line before the first [section] header"
    text = "[graph]\nn_nodes = 6\n[run]\nhorizon_steps = 5\n"
    plain, marked = tmp_path / "plain.ini", tmp_path / "bom.ini"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf[graph]")
    assert load_config(marked) == load_config(plain) != ScenarioConfig()
    ok = tmp_path / "auto.ini"
    ok.write_text("[params]\nmu = none\nalpha_lambda =\n[graph]\nedge_list_path = none\n")
    cfg = load_config(ok)
    assert cfg.mu is None and cfg.alpha_lambda is None and cfg.edge_list_path is None
    with pytest.raises(ConfigRejected):
        ScenarioConfig(horizon_steps=0)
    with pytest.raises(ConfigRejected):
        ScenarioConfig(n_mc_runs=0)
    for workers in (0, 2):
        with pytest.raises(ConfigRejected, match="workers must be 1"):
            ScenarioConfig(workers=workers)
    # the sensor assignment sets the covariance rounds; the key only echoes it
    for assignment, value in (("static_split", True), ("per_step_random", False)):
        with pytest.raises(ConfigRejected, match="sub_iterated_covariance must be auto or"):
            ScenarioConfig(sensor_assignment=assignment, sub_iterated_covariance=value)
    for assignment, value in (("static_split", False), ("per_step_random", True)):
        ScenarioConfig(sensor_assignment=assignment, sub_iterated_covariance=value)
    auto = tmp_path / "auto_cov.ini"
    auto.write_text("[run]\nsub_iterated_covariance = auto\n")
    assert load_config(auto).sub_iterated_covariance is None
    for key in ("master_seed", "graph_seed", "assignment_seed", "init_box_halfwidth"):
        with pytest.raises(ConfigRejected, match=f"{key} must be >= 0"):
            ScenarioConfig(**{key: -1})
    for key in ("dt", "q_intensity", "r_var", "init_box_halfwidth"):
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ConfigRejected, match=f"{key} must be finite"):
                ScenarioConfig(**{key: value})


def test_build_scenario_auto_params_pass_guard():
    graph, model, spectrum, params = build_scenario(SMOKE)
    assert graph.n_nodes == 6 and model.n_nodes == 6
    for report in params.check(spectrum):
        report.require()


def test_explicit_params_override_auto():
    cfg = dataclasses.replace(SMOKE, alpha_nu=0.01, mu=0.002)
    _, _, _, params = build_scenario(cfg)
    assert params.alpha_nu == 0.01 and params.mu == 0.002
    # the unset step size still comes from the automatic rule
    _, _, _, auto = build_scenario(SMOKE)
    assert params.alpha_lambda == auto.alpha_lambda


def test_unstable_params_rejected_unless_overridden():
    cfg = dataclasses.replace(SMOKE, alpha_nu=5.0, horizon_steps=2)
    with pytest.raises(ConfigRejected):
        run_scenario(cfg)
    report, reports = validate_params(cfg)
    assert "FAIL" in report
    cov_rep, state_rep = reports
    assert report.splitlines()[-2:] == [cov_rep.line, state_rep.line]
    state_rep.require()
    with pytest.raises(ConfigRejected, match="alpha_nu=5.0 violates"):  # the report's FAIL
        cov_rep.require()
    assert "PASS" in validate_params(SMOKE)[0]


def test_run_scenario_shapes_and_finiteness():
    m = run_scenario(SMOKE)
    t, n, l = SMOKE.horizon_steps, SMOKE.n_nodes, SMOKE.l_sub
    assert m.times.shape == (t,)
    assert m.rmse_pos.shape == (t, n)
    assert m.rmse_vel.shape == (t, n)
    assert m.cov_error.shape == (t, n)
    assert m.consensus_error.shape == (t, l)
    assert m.sq_pos_runs.shape == (SMOKE.n_mc_runs, t, n)
    for arr in (m.rmse_pos, m.rmse_vel, m.cov_error, m.consensus_error):
        assert np.isfinite(arr).all()
    assert (m.cov_error[-1] < m.cov_error[0]).all()
    # the per-run errors are exactly what rmse_pos averages
    assert np.array_equal(m.rmse_pos, np.sqrt(m.sq_pos_runs.mean(axis=0)))


def test_run_scenario_communication_totals():
    m = run_scenario(SMOKE)
    graph, model, _, params = build_scenario(SMOKE)
    factor = SMOKE.horizon_steps * SMOKE.n_mc_runs
    n_cov = model.n * (model.n + 1) // 2
    assert np.array_equal(m.comm.state_messages, factor * params.l_sub * graph.degree)
    assert np.array_equal(
        m.comm.state_scalars, factor * params.l_sub * graph.degree * model.n
    )
    assert np.array_equal(m.comm.cov_messages, factor * graph.degree)
    assert np.array_equal(m.comm.cov_scalars, factor * graph.degree * n_cov)


def test_noise_free_run_tracks_exactly():
    cfg = dataclasses.replace(
        SMOKE, noise_free=True, n_mc_runs=1, l_sub=40, horizon_steps=10
    )
    m = run_scenario(cfg)
    assert m.rmse_pos.max() < 1e-6
    assert m.rmse_vel.max() < 1e-6


def test_deterministic_csv_export(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    export_csv(run_scenario(SMOKE), out_a)
    export_csv(run_scenario(SMOKE), out_b)
    names = [
        "rmse_position.csv", "rmse_velocity.csv", "covariance_error.csv",
        "consensus_error.csv", "communication.csv",
    ]
    for name in names:
        assert (out_a / name).exists()
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False)


def test_csv_headers_and_row_counts(tmp_path):
    m = run_scenario(SMOKE)
    export_csv(m, tmp_path)
    n = SMOKE.n_nodes
    node_header = "t," + ",".join(f"node_{i}" for i in range(n))
    for name in ("rmse_position.csv", "rmse_velocity.csv", "covariance_error.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == node_header
        assert len(lines) == 1 + SMOKE.horizon_steps
    lines = (tmp_path / "consensus_error.csv").read_text().splitlines()
    assert lines[0] == "t,l,error"
    assert len(lines) == 1 + SMOKE.horizon_steps * SMOKE.l_sub
    lines = (tmp_path / "communication.csv").read_text().splitlines()
    assert lines[0] == "t,node,messages,scalars,phase"
    assert len(lines) == 1 + 2 * SMOKE.horizon_steps * n


def test_communication_csv_per_step_values(tmp_path):
    export_csv(run_scenario(SMOKE), tmp_path)
    graph, model, _, params = build_scenario(SMOKE)
    n_cov = model.n * (model.n + 1) // 2
    for line in (tmp_path / "communication.csv").read_text().splitlines()[1:]:
        t, node, msgs, scalars, phase = line.split(",")
        deg = int(graph.degree[int(node)])
        if phase == "state":
            assert int(msgs) == params.l_sub * deg
            assert int(scalars) == params.l_sub * deg * model.n
        else:
            assert int(msgs) == deg
            assert int(scalars) == deg * n_cov


def test_csv_bytes_from_hand_built_metrics(tmp_path):
    # the exact text of all five files: %.12g cells, row orders (t then l;
    # t, node, then state before covariance) and the per-step ledger split
    third, big = 1 / 3, 123456789.123456789
    ledger = CommLedger(2)
    runs, times = 3, np.array([1, 2])
    ledger.record("xi", runs * len(times) * np.array([2, 3]), 4)
    ledger.record("theta", runs * len(times) * np.array([1, 2]), 10)
    metrics = RunMetrics(
        times=times,
        rmse_pos=np.array([[third, 1e-20], [0.0, big]]),
        rmse_vel=np.array([[2.0, -third], [1e300, 5e-324]]),
        consensus_error=np.array([[third, 2.0, 0.0], [1e-20, big, 7.5]]),
        cov_error=np.array([[0.1, 0.2], [12.0, 1 / 7]]),
        comm=ledger,
        n_mc_runs=runs,
    )
    paths = export_csv(metrics, tmp_path)
    expected = {
        "rmse_position.csv": "t,node_0,node_1\n1,0.333333333333,1e-20\n2,0,123456789.123\n",
        "rmse_velocity.csv": "t,node_0,node_1\n1,2,-0.333333333333\n2,1e+300,4.94065645841e-324\n",
        "covariance_error.csv": "t,node_0,node_1\n1,0.1,0.2\n2,12,0.142857142857\n",
        "consensus_error.csv": (
            "t,l,error\n1,0,0.333333333333\n1,1,2\n1,2,0\n"
            "2,0,1e-20\n2,1,123456789.123\n2,2,7.5\n"
        ),
        "communication.csv": (
            "t,node,messages,scalars,phase\n"
            "1,0,2,8,state\n1,0,1,10,covariance\n1,1,3,12,state\n1,1,2,20,covariance\n"
            "2,0,2,8,state\n2,0,1,10,covariance\n2,1,3,12,state\n2,1,2,20,covariance\n"
        ),
    }
    assert [p.name for p in paths] == list(expected)
    for path in paths:
        assert path.read_bytes() == expected[path.name].encode(), path.name


def test_export_csv_rejects_traffic_that_does_not_divide(tmp_path):
    # 5 and 7 state messages over 2 steps used to be floored to 2 and 3 per
    # step, a file that sums to 10 messages, not 12
    ledger = CommLedger(2)
    ledger.record("xi", np.array([5, 7]), 4)
    table = np.ones((2, 2))
    metrics = RunMetrics(times=np.array([1, 2]), rmse_pos=table, rmse_vel=table,
                         consensus_error=table, cov_error=table, comm=ledger)
    with pytest.raises(DimensionError, match="node 0's state traffic does not divide over "
                                             "2 steps x 1 runs"):
        export_csv(metrics, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def _hand_built_metrics(n_steps, n_nodes, n_rounds, rng, runs=3):
    """Random metric tables over steps 1..n_steps, and a ledger whose node i
    sends i + 1 state and i + 2 covariance messages per step."""
    ledger = CommLedger(n_nodes)
    ledger.record("xi", runs * n_steps * np.arange(1, n_nodes + 1), 4)
    ledger.record("theta", runs * n_steps * np.arange(2, n_nodes + 2), 10)

    def table(width):
        return rng.standard_normal((n_steps, width)) * 10.0 ** rng.integers(-30, 30, (n_steps, 1))
    return RunMetrics(times=np.arange(1, n_steps + 1), rmse_pos=table(n_nodes),
                      rmse_vel=table(n_nodes), consensus_error=table(n_rounds),
                      cov_error=table(n_nodes), comm=ledger, n_mc_runs=runs)


@pytest.mark.parametrize("block_values, n_steps", [(harness._BLOCK_VALUES, 2000), (7, 12)])
def test_csv_writer_matches_savetxt(tmp_path, monkeypatch, block_values, n_steps):
    # np.savetxt, the writer before the block formatter, is the reference for
    # the four array files: tables of several blocks (7 values is less than a
    # step, so a block is one step), with edge values in every table
    monkeypatch.setattr(harness, "_BLOCK_VALUES", block_values)
    n_nodes, n_rounds = 40, 20
    assert min(n_steps * (n_nodes + 1), n_steps * n_rounds * 3) > harness._BLOCK_VALUES
    metrics = _hand_built_metrics(n_steps, n_nodes, n_rounds, np.random.default_rng(5))
    edges = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -1e300, 0.0]
    for table in (metrics.rmse_pos, metrics.rmse_vel, metrics.consensus_error, metrics.cov_error):
        rows = np.random.default_rng(table.shape[1]).choice(n_steps, len(edges), replace=False)
        table[rows, rows % table.shape[1]] = edges
    export_csv(metrics, tmp_path)
    times, node_fmt = metrics.times, ["%d"] + ["%.12g"] * n_nodes
    node_header = "t," + ",".join(f"node_{i}" for i in range(n_nodes))
    references = {
        "rmse_position.csv": (node_header, node_fmt, [times, metrics.rmse_pos]),
        "rmse_velocity.csv": (node_header, node_fmt, [times, metrics.rmse_vel]),
        "covariance_error.csv": (node_header, node_fmt, [times, metrics.cov_error]),
        "consensus_error.csv": ("t,l,error", ["%d", "%d", "%.12g"], [
            np.repeat(times, n_rounds), np.tile(np.arange(n_rounds), n_steps),
            metrics.consensus_error.ravel()]),
    }
    for name, (header, fmt, columns) in references.items():
        expected = io.StringIO()
        np.savetxt(expected, np.column_stack(columns), fmt=fmt, delimiter=",", header=header,
                   comments="")
        assert (tmp_path / name).read_bytes() == expected.getvalue().encode(), name
    # t runs past one digit; every step repeats the per-step traffic
    expected = "t,node,messages,scalars,phase\n" + "".join(
        f"{t},{i},{i + 1},{4 * (i + 1)},state\n{t},{i},{i + 2},{10 * (i + 2)},covariance\n"
        for t in range(1, n_steps + 1) for i in range(n_nodes))
    assert (tmp_path / "communication.csv").read_bytes() == expected.encode()


def test_export_csv_memory_does_not_grow_with_steps(tmp_path, monkeypatch):
    # the writer holds one block of rows at a time, so its peak is the same at
    # 4x the steps; a one-shot np.column_stack of each table peaked at 153 kB
    # and 494 kB here. Blocks of 2**10 values keep the tables small enough to
    # trace every allocation quickly.
    monkeypatch.setattr(harness, "_BLOCK_VALUES", 2 ** 10)
    peaks = []
    for n_steps in (250, 1000):
        metrics = _hand_built_metrics(n_steps, 50, 3, np.random.default_rng(n_steps))
        tracemalloc.start()
        try:
            export_csv(metrics, tmp_path / str(n_steps))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0], peaks


def test_run_scenario_reads_the_state_layout(monkeypatch):
    # position and velocity errors come from models.POSITION / VELOCITY,
    # not from indices fixed in the harness: swapping them swaps the RMSEs
    m = run_scenario(SMOKE)
    monkeypatch.setattr(harness, "POSITION", models.VELOCITY)
    monkeypatch.setattr(harness, "VELOCITY", models.POSITION)
    swapped = run_scenario(SMOKE)
    assert np.array_equal(swapped.rmse_pos, m.rmse_vel)
    assert np.array_equal(swapped.rmse_vel, m.rmse_pos)


def test_run_scenario_simulates_all_runs_at_once(monkeypatch):
    # one simulate_runs call per scenario, which gathers the sensors for all
    # runs at once; over the whole scenario (reference, simulation, filter)
    # each step's rows are drawn once, not once per run, consumer and step
    calls, draws = [], count_row_draws(monkeypatch)

    def spy(*args, **kwargs):
        calls.append(args)
        return models.simulate_runs(*args, **kwargs)

    monkeypatch.setattr(harness, "simulate_runs", spy)
    cfg = dataclasses.replace(SMOKE, n_mc_runs=3, sensor_assignment="per_step_random",
                              sub_iterated_covariance=True)
    run_scenario(cfg)
    assert len(calls) == 1 and len(calls[0][2]) == 3
    assert sorted(draws) == list(range(cfg.horizon_steps + 1))


def test_runs_depend_only_on_their_index():
    # run r draws from (master_seed, r) alone, so the first two runs of a
    # three-run scenario are a two-run scenario's runs; the batch width
    # changes the GEMM shapes, so they agree to round-off, and the shared
    # covariance recursion agrees exactly
    two = run_scenario(dataclasses.replace(SMOKE, n_mc_runs=2))
    three = run_scenario(dataclasses.replace(SMOKE, n_mc_runs=3))
    assert np.allclose(three.sq_pos_runs[:2], two.sq_pos_runs, rtol=1e-12, atol=0.0)
    assert np.array_equal(three.cov_error, two.cov_error)
    for name in ("messages_sent", "scalars_sent"):
        assert np.array_equal(2 * getattr(three.comm, name), 3 * getattr(two.comm, name))


def test_more_sub_iterations_help():
    final_errs, final_rmse = [], []
    for l_sub in (1, 5, 20, 100):
        m = run_scenario(
            dataclasses.replace(SMOKE, l_sub=l_sub, horizon_steps=10, master_seed=1)
        )
        final_errs.append(m.consensus_error[-1, -1])
        final_rmse.append(m.rmse_pos[-1].mean())
    # end-of-step consensus error shrinks strictly with the budget, and the
    # single-sub-iteration filter is clearly worse in RMSE too
    assert all(a > b for a, b in zip(final_errs, final_errs[1:]))
    assert final_rmse[1] < final_rmse[0]


def test_edge_list_only_with_explicit_topology(tmp_path):
    # a ring with an edge list used to run and ignore the file
    for topology, path in (("ring", str(tmp_path / "edges.txt")), ("explicit", None)):
        with pytest.raises(ConfigRejected, match="set if and only if topology = explicit"):
            dataclasses.replace(SMOKE, topology=topology, edge_list_path=path)


def test_edge_list_scenario(tmp_path):
    p = tmp_path / "graph.txt"
    p.write_text("0 1\n1 2\n2 3\n3 0\n")
    cfg = dataclasses.replace(
        SMOKE, topology="explicit", edge_list_path=str(p), n_nodes=4,
        horizon_steps=3,
    )
    m = run_scenario(cfg)
    assert np.isfinite(m.rmse_pos).all()


def test_steady_state_prior_matches_stacked_dare():
    # 50 sensors with random single-row H_i and distinct noise variances
    base = build_constant_velocity_model(dt=0.1, n_nodes=2)
    rng = np.random.default_rng(3)
    sensors = tuple(
        SensorSpec(rng.normal(size=(1, 4)), [[rng.uniform(0.2, 2.0)]])
        for _ in range(50)
    )
    model = StateSpaceModel(
        f=base.f, q=base.q, sensors=sensors, x0_mean=base.x0_mean, p0=base.p0
    )
    h_stack = np.vstack([s.h for s in sensors])
    r_bar = np.diag([float(s.r[0, 0]) for s in sensors])
    p_ref = dare_solve(model.f, h_stack, model.q, r_bar)
    p_star = steady_state_prior(model)
    assert np.linalg.norm(p_star - p_ref) <= 1e-12 * np.linalg.norm(p_ref)


def test_per_step_random_cov_error_tracks_the_time_varying_reference():
    # Redrawn sensors have no steady state: the reference is the centralized
    # covariance recursion from P0 with each step's sensors, recomputed here
    # from the per-node H_i' R_i^-1 H_i and plain inverses.
    cfg = dataclasses.replace(SMOKE, sensor_assignment="per_step_random",
                              horizon_steps=20, n_mc_runs=1)
    m = run_scenario(cfg)
    graph, model, _, params = build_scenario(cfg)
    # the distributed prior covariances do not depend on the measurements
    state = init_state(model, np.tile(model.x0_mean, (model.n_nodes, 1)))
    zeros = np.zeros((cfg.horizon_steps, model.n_nodes, model.sensors[0].h.shape[0]))
    p_post = model.p0
    for t in dkf_steps(state, graph, model, zeros, params, t0=1):
        p_prior = model.f @ p_post @ model.f.T + model.q
        want = np.linalg.norm(state.p_prior - p_prior, axis=(1, 2)) / np.linalg.norm(p_prior)
        assert np.allclose(m.cov_error[t - 1], want, rtol=1e-9, atol=1e-12)
        specs = sensor_specs_at(model, t)
        info = sum(sensor_oracle(h, r)[3] for h, r in zip(specs.h, specs.r))
        p_post = np.linalg.inv(np.linalg.inv(p_prior) + info)
    # at t = 1 every node's prior is the centralized one, which the static
    # DARE reference P* misses by more than half its norm
    assert np.abs(m.cov_error[0]).max() < 1e-12
    p_star = steady_state_prior(dataclasses.replace(model, redraw_from=()))
    p_prior_1 = model.f @ model.p0 @ model.f.T + model.q
    assert np.linalg.norm(p_prior_1 - p_star) / np.linalg.norm(p_star) > 0.5


def test_reference_priors_are_the_centralized_step_priors():
    # the reference runs the covariance half of centralized_kf_step alone:
    # the same priors, bit for bit, as whole steps on zero measurements
    model = build_constant_velocity_model(dt=0.1, n_nodes=6, sensor_assignment="per_step_random",
                                          assignment_seed=5)
    refs = harness.reference_priors(model, 15)
    state = initial_centralized_state(model)
    for t in range(1, 16):
        state = centralized_kf_step(state, model, np.zeros((6, 1)), t)
        assert np.array_equal(refs[t - 1], state.p_prior)


@pytest.mark.parametrize("case", ["static", "redrawn", "outlasting_the_memo", "gather_blocks"])
def test_reference_recursion_equals_the_per_step_oracle(monkeypatch, case):
    # the window recursion bit for bit against the per-step sym + spd_inverse
    # recursion of tests/oracles.py (on a fresh model of the same draw): on
    # static sensors through covariance_window (reference_priors returns P*
    # there), on redrawn ones through reference_priors, also with a row memo
    # of 3 steps and with gather blocks of 7 steps, each step drawn once
    model, fresh = (build_constant_velocity_model(
        dt=0.1, n_nodes=6, assignment_seed=5,
        sensor_assignment="static_split" if case == "static" else "per_step_random")
        for _ in range(2))
    want = centralized_priors_oracle(fresh, 40)
    if case == "static":
        info = np.broadcast_to(model.sensor_arrays.info.sum(axis=0), (40, 4, 4))
        assert np.array_equal(covariance_window(model.p0, model, info, 1)[0], want)
        return
    if case == "outlasting_the_memo":
        monkeypatch.setattr(models, "_MEMO_ROWS", 3 * 6)
    if case == "gather_blocks":
        monkeypatch.setattr(models, "_BLOCK_VALUES", 7 * 6 * 16)
    draws = count_row_draws(monkeypatch)
    assert np.array_equal(harness.reference_priors(model, 40), want)
    assert draws == list(range(1, 41))


@pytest.mark.parametrize("n_nodes, r_var", [(6, 1e-307), (3, 1e-300)], ids=["posterior", "prior"])
def test_reference_failure_is_the_per_step_oracles(n_nodes, r_var):
    # q = 0 and precise redrawn sensors: on the 6-ring the posterior
    # information overflows at t=22; on the 3-ring the prior's inverse fails
    # first, at t=3. The window raises the per-step recursion's error and cause
    cfg = ScenarioConfig(topology="ring", n_nodes=n_nodes, sensor_assignment="per_step_random",
                         r_var=r_var, q_intensity=0.0, horizon_steps=30)
    errors = []
    for reference in (harness.reference_priors, centralized_priors_oracle):
        with pytest.raises(NotPositiveDefinite) as info:
            reference(build_scenario(cfg)[1], cfg.horizon_steps)
        errors.append((str(info.value), type(info.value.__cause__)))
    assert errors[0] == errors[1]
    assert errors[0][0] == ("posterior information matrix not finite at t=22" if n_nodes == 6
                            else "a prior covariance became singular at t=3")


def test_per_step_random_covariances_stay_consistent():
    # one theta exchange per step cannot track a target redrawn every step:
    # with it this run floored theta 136 times and cov_error peaked at 911;
    # l_sub exchanges keep every node's prior near the centralized one
    # (a RuntimeWarning, such as a floored theta, fails the test)
    m = run_scenario(ScenarioConfig(n_nodes=12, radius=1.0, sensor_assignment="per_step_random",
                                    horizon_steps=100, n_mc_runs=1))
    assert m.cov_error.max() < 0.1


def test_library_runs_on_numpy_alone():
    # a fresh interpreter: importing the package and running a scenario
    # must not pull in scipy (its import alone costs about 20 MB of RSS),
    # nor a process pool
    src = str(Path(dkf_admm.__file__).resolve().parents[1])
    code = (
        "import sys, dkf_admm\n"
        "dkf_admm.run_scenario(dkf_admm.ScenarioConfig(horizon_steps=3, n_mc_runs=2))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'concurrent', 'multiprocessing')))\n"
    )
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def _records():
    """A fresh instance of every array-holding record, each built the same way."""
    model = build_constant_velocity_model(dt=0.1, n_nodes=4)
    traj = dkf_admm.simulate_runs(model, 3, [1])
    return {
        "StateSpaceModel": model,
        "SensorSpec": model.sensors[0],
        "SensorArrays": model.sensor_arrays,
        "Trajectory": traj,
        "SpectralSummary": dkf_admm.spectral_summary(dkf_admm.build_graph("ring", 4)),
        "CentralizedState": dkf_admm.centralized.initial_centralized_state(model),
        "NetworkState": init_state(model, np.zeros((4, 4))),
        "CommLedger": CommLedger(4),
        "RunMetrics": RunMetrics(np.arange(2), *np.ones((4, 2, 4)), comm=CommLedger(4)),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_array_records_compare_by_identity(name):
    # `==` between equal but distinct instances used to raise "The truth
    # value of an array ... is ambiguous", and hash() a TypeError
    a, b = _records()[name], _records()[name]
    assert type(a).__name__ == name and a is not b
    assert (a == b) is False and (a == a) is True
    assert hash(a) == hash(a) and len({a, b}) == 2
