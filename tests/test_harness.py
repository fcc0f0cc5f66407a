import dataclasses
import filecmp

import numpy as np
import pytest

from dkf_admm.exceptions import ConfigRejected
from dkf_admm.harness import (
    ScenarioConfig,
    build_scenario,
    export_csv,
    load_config,
    run_scenario,
    steady_state_prior,
    validate_params,
)
from dkf_admm.linalg import dare_solve
from dkf_admm.models import SensorSpec, StateSpaceModel, build_constant_velocity_model

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
    with pytest.raises(ConfigRejected):
        ScenarioConfig(horizon_steps=0)
    with pytest.raises(ConfigRejected):
        ScenarioConfig(n_mc_runs=0)
    with pytest.raises(ConfigRejected):
        ScenarioConfig(workers=0)


def test_build_scenario_auto_params_pass_guard():
    graph, model, spectrum, params = build_scenario(SMOKE)
    assert graph.n_nodes == 6 and model.n_nodes == 6
    params.validate_for(spectrum)


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
    report = validate_params(cfg)
    assert "FAIL" in report
    assert "PASS" in validate_params(SMOKE)


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


def test_parallel_matches_serial():
    # three one-run chunks in a pool against one batch of three runs; the
    # batch width changes the GEMM shapes, so results agree to round-off
    serial = run_scenario(dataclasses.replace(SMOKE, workers=1, n_mc_runs=3))
    parallel = run_scenario(dataclasses.replace(SMOKE, workers=3, n_mc_runs=3))
    assert np.allclose(serial.rmse_pos, parallel.rmse_pos, rtol=1e-12, atol=0.0)
    assert np.allclose(
        serial.consensus_error, parallel.consensus_error, rtol=1e-12, atol=0.0
    )
    assert np.array_equal(serial.cov_error, parallel.cov_error)
    assert np.array_equal(serial.comm.scalars_sent, parallel.comm.scalars_sent)


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
        SensorSpec(i, rng.normal(size=(1, 4)), [[rng.uniform(0.2, 2.0)]])
        for i in range(50)
    )
    model = StateSpaceModel(
        f=base.f, q=base.q, sensors=sensors, x0_mean=base.x0_mean, p0=base.p0
    )
    h_stack = np.vstack([s.h for s in sensors])
    r_bar = np.diag([float(s.r[0, 0]) for s in sensors])
    p_ref = dare_solve(model.f, h_stack, model.q, r_bar)
    p_star = steady_state_prior(model)
    assert np.linalg.norm(p_star - p_ref) <= 1e-12 * np.linalg.norm(p_ref)
