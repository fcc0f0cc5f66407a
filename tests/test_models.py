import numpy as np
import pytest

from dkf_admm.exceptions import ObservabilityError
from dkf_admm.linalg import unvech, vech
from dkf_admm.models import (
    SensorSpec,
    StateSpaceModel,
    build_constant_velocity_model,
    information_rate_target,
    sensor_specs_at,
    simulate_trajectory,
)


def scalar_model(f=0.95, q=1.0, r=0.5):
    return StateSpaceModel(
        f=np.array([[f]]),
        q=np.array([[q]]),
        sensors=(SensorSpec(0, np.array([[1.0]]), np.array([[r]])),
                 SensorSpec(1, np.array([[1.0]]), np.array([[r]]))),
        x0_mean=np.zeros(1),
        p0=np.eye(1),
    )


def test_cv_transition_matrix():
    model = build_constant_velocity_model(dt=0.1, n_nodes=4)
    f = model.f
    assert f[0, 2] == pytest.approx(0.1)
    assert f[1, 3] == pytest.approx(0.1)
    assert np.allclose(np.diag(f), 1.0)
    assert np.allclose(f - np.diag(np.diag(f)) - 0.1 * np.eye(4, k=2), 0.0)


def test_cv_process_noise_structure():
    dt, q = 0.2, 1.5
    model = build_constant_velocity_model(dt=dt, q_intensity=q, n_nodes=4)
    i2 = np.eye(2)
    expected = q * np.block(
        [[dt**3 / 3 * i2, dt**2 / 2 * i2], [dt**2 / 2 * i2, dt * i2]]
    )
    assert np.allclose(model.q, expected)


def test_cv_rejects_degenerate_dt():
    with pytest.raises(ValueError):
        build_constant_velocity_model(dt=0.0)
    with pytest.raises(ValueError):
        build_constant_velocity_model(dt=-1.0)


def test_static_split_assignment_and_observability():
    model = build_constant_velocity_model(dt=0.1, n_nodes=4)
    hs = [s.h for s in model.sensors]
    assert np.array_equal(hs[0], [[1, 0, 0, 0]])
    assert np.array_equal(hs[1], [[1, 0, 0, 0]])
    assert np.array_equal(hs[2], [[0, 1, 0, 0]])
    assert np.array_equal(hs[3], [[0, 1, 0, 0]])
    # single node is NOT observable, the stacked network is
    from dkf_admm.linalg import is_observable

    assert not is_observable(model.f, hs[0])
    assert is_observable(model.f, np.vstack(hs))


def test_unobservable_model_rejected():
    sensors = (
        SensorSpec(0, np.array([[1.0, 0.0]]), np.array([[1.0]])),
        SensorSpec(1, np.array([[1.0, 0.0]]), np.array([[1.0]])),
    )
    with pytest.raises(ObservabilityError):
        StateSpaceModel(
            f=np.eye(2), q=np.eye(2), sensors=sensors,
            x0_mean=np.zeros(2), p0=np.eye(2),
        )


def test_trajectory_determinism():
    model = build_constant_velocity_model(dt=0.1, n_nodes=6)
    t1 = simulate_trajectory(model, 50, seed=123)
    t2 = simulate_trajectory(model, 50, seed=123)
    assert np.array_equal(t1.states, t2.states)
    for a, b in zip(t1.measurements, t2.measurements):
        assert np.array_equal(a, b)


def test_noise_free_trajectory_is_deterministic_power():
    model = build_constant_velocity_model(dt=0.1, n_nodes=4)
    traj = simulate_trajectory(model, 10, seed=0, noise_free=True)
    x = np.array(model.x0_mean)
    for t in range(10):
        assert np.allclose(traj.states[t], x, atol=1e-12)
        x = model.f @ x
    for i, spec in enumerate(model.sensors):
        assert np.allclose(
            traj.measurements[i], traj.states @ spec.h.T, atol=1e-12
        )


def test_process_noise_sample_variance():
    model = scalar_model(f=0.9, q=2.0)
    traj = simulate_trajectory(model, 100_000, seed=7)
    resid = traj.states[1:, 0] - 0.9 * traj.states[:-1, 0]
    assert np.var(resid) == pytest.approx(2.0, rel=0.03)


def test_process_noise_whiteness():
    model = scalar_model(f=0.5, q=1.0)
    n = 100_000
    traj = simulate_trajectory(model, n, seed=11)
    resid = traj.states[1:, 0] - 0.5 * traj.states[:-1, 0]
    resid = resid - resid.mean()
    denom = np.dot(resid, resid)
    for lag in (1, 2, 5):
        rho = np.dot(resid[lag:], resid[:-lag]) / denom
        assert abs(rho) < 5.0 / np.sqrt(n)


def test_information_rate_orthogonal_unit_sensors():
    sensors = (
        SensorSpec(0, np.array([[1.0, 0.0]]), np.array([[1.0]])),
        SensorSpec(1, np.array([[0.0, 1.0]]), np.array([[1.0]])),
    )
    model = StateSpaceModel(
        f=0.5 * np.eye(2), q=np.eye(2), sensors=sensors,
        x0_mean=np.zeros(2), p0=np.eye(2),
    )
    assert np.allclose(information_rate_target(model), np.eye(2))


def test_information_rate_linearity():
    n_nodes = 7
    model = build_constant_velocity_model(dt=0.1, n_nodes=n_nodes, r_var=2.0)
    single = model.sensors[0].info_matrix
    # first half of static_split shares one sensor
    half = n_nodes // 2
    partial = sum(s.info_matrix for s in model.sensors[:half])
    assert np.allclose(partial, half * single)


def test_information_rate_hundred_nodes():
    model = build_constant_velocity_model(dt=0.1, n_nodes=100, r_var=0.5)
    target = information_rate_target(model)
    oracle = sum(s.h.T @ np.linalg.inv(s.r) @ s.h for s in model.sensors)
    assert np.allclose(target, oracle, atol=1e-12)
    assert np.allclose(target, np.diag([100.0, 100.0, 0.0, 0.0]))


def test_information_rate_vech_consistency():
    model = build_constant_velocity_model(dt=0.1, n_nodes=10, r_var=0.7)
    summed = sum(vech(s.info_matrix) for s in model.sensors)
    assert np.array_equal(information_rate_target(model), unvech(summed))


def test_per_step_random_assignment():
    model = build_constant_velocity_model(
        dt=0.1, n_nodes=6, sensor_assignment="per_step_random", assignment_seed=9
    )
    s0 = sensor_specs_at(model, 0)
    s0_again = sensor_specs_at(model, 0)
    for a, b in zip(s0, s0_again):
        assert np.array_equal(a.h, b.h)
    # some step differs from step 0 for at least one node
    differs = any(
        not np.array_equal(sensor_specs_at(model, t)[i].h, s0[i].h)
        for t in range(1, 8)
        for i in range(6)
    )
    assert differs


def test_per_step_random_trajectory_builds_specs_once_per_step(monkeypatch):
    import dkf_admm.models as models

    model = build_constant_velocity_model(
        dt=0.1, n_nodes=6, sensor_assignment="per_step_random", assignment_seed=9
    )
    n_steps, calls = 12, []

    def counting(m, t):
        calls.append(t)
        return sensor_specs_at(m, t)

    monkeypatch.setattr(models, "sensor_specs_at", counting)
    traj = simulate_trajectory(model, n_steps, seed=21)
    assert sorted(calls) == list(range(n_steps))

    # inline reference: the specs looked up per (node, step), same draw order
    rng = np.random.default_rng(21)
    states = np.empty((n_steps, 4))
    states[0] = rng.multivariate_normal(model.x0_mean, model.p0)
    w = rng.multivariate_normal(np.zeros(4), model.q, size=n_steps - 1)
    for t in range(n_steps - 1):
        states[t + 1] = model.f @ states[t] + w[t]
    assert np.array_equal(traj.states, states)
    for i in range(6):
        for t in range(n_steps):
            spec = sensor_specs_at(model, t)[i]
            y = spec.h @ states[t] + rng.multivariate_normal(np.zeros(1), spec.r)
            assert np.array_equal(traj.measurements[i][t], y)
