import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import count_row_draws, sensor_oracle

from dkf_admm.exceptions import (
    ConfigRejected, DimensionError, NotPositiveDefinite, ObservabilityError,
)
from dkf_admm.models import (
    POSITION,
    SENSOR_ASSIGNMENTS,
    VELOCITY,
    SensorSpec,
    StateSpaceModel,
    build_constant_velocity_model,
    information_rate_target,
    sensor_specs_at,
    simulate_runs,
)


def scalar_model(f=0.95, q=1.0, r=0.5):
    return StateSpaceModel(
        f=np.array([[f]]),
        q=np.array([[q]]),
        sensors=(SensorSpec(np.array([[1.0]]), np.array([[r]])),
                 SensorSpec(np.array([[1.0]]), np.array([[r]]))),
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
    # the layout constants name the blocks: positions advance by dt * velocity
    assert np.array_equal(f[POSITION, VELOCITY], 0.1 * np.eye(2))


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
        SensorSpec(np.array([[1.0, 0.0]]), np.array([[1.0]])),
        SensorSpec(np.array([[1.0, 0.0]]), np.array([[1.0]])),
    )
    with pytest.raises(ObservabilityError):
        StateSpaceModel(
            f=np.eye(2), q=np.eye(2), sensors=sensors,
            x0_mean=np.zeros(2), p0=np.eye(2),
        )


def test_indefinite_sensor_noise_rejected():
    # the model's batched Cholesky solve checks every R_i
    sensors = (
        SensorSpec(np.array([[1.0, 0.0]]), np.array([[1.0]])),
        SensorSpec(np.array([[0.0, 1.0]]), np.array([[-1.0]])),
    )
    with pytest.raises(NotPositiveDefinite):
        StateSpaceModel(
            f=np.eye(2), q=np.eye(2), sensors=sensors,
            x0_mean=np.zeros(2), p0=np.eye(2),
        )


def test_overflowing_sensor_information_rejected():
    # R_2 = 5e-324 is positive, but R_2^-1 H_2 overflows to inf; at 1.5e-308
    # R^-1 H and H' R^-1 H are finite, but the 3-node consensus target
    # 3 H' R^-1 H is not. No RuntimeWarning fires before the check.
    base = build_constant_velocity_model(dt=0.1, n_nodes=2)
    for r in (5e-324, 1.5e-308):
        sensors = base.sensors + (SensorSpec(base.sensors[0].h, [[r]]),)
        with pytest.raises(NotPositiveDefinite, match="N H' R\\^-1 H of node 2 is not finite"):
            StateSpaceModel(f=base.f, q=base.q, sensors=sensors, x0_mean=base.x0_mean,
                            p0=base.p0)


def test_model_inputs_raise_library_errors():
    # a P0 or a nonzero Q that is not positive definite used to escape as a
    # raw LinAlgError; redraw candidates of another H shape than the sensors
    # are rejected (the mode string they replace once read "Static")
    base = build_constant_velocity_model(dt=0.1, n_nodes=2)
    args = dict(f=base.f, q=base.q, sensors=base.sensors, x0_mean=base.x0_mean, p0=base.p0)
    # a tiny Q is not the noise-free limit: only an exactly zero Q skips the check
    tiny_indefinite = 1e-10 * np.diag([1.0, -1.0, 1.0, 1.0])
    for name, bad in (("P0", dict(p0=-np.eye(4))), ("Q", dict(q=-base.q)),
                      ("Q", dict(q=tiny_indefinite))):
        with pytest.raises(NotPositiveDefinite, match=f"{name} must be positive definite"):
            StateSpaceModel(**{**args, **bad})
    for h in (np.eye(2, 4), np.eye(1, 3)):  # another m, another n
        with pytest.raises(DimensionError, match="redraw_from candidates must match the sensors in m and n"):
            StateSpaceModel(**args, redraw_from=(SensorSpec(h, np.eye(len(h))),))
    StateSpaceModel(**{**args, "q": np.zeros((4, 4))})  # the noise-free limit stays


def test_model_rejects_non_finite_covariances():
    # numpy's Cholesky passes NaN through, so a NaN P0 or Q used to build a model
    base = build_constant_velocity_model(dt=0.1, n_nodes=2)
    args = dict(f=base.f, q=base.q, sensors=base.sensors, x0_mean=base.x0_mean, p0=base.p0)
    nan = np.eye(4)
    nan[1, 2] = nan[2, 1] = np.nan
    for name, key in (("P0", "p0"), ("Q", "q")):
        with pytest.raises(NotPositiveDefinite, match=f"{name} must be positive definite"):
            StateSpaceModel(**{**args, key: nan})
    # dt**3 overflows: an inf Q, not an OverflowError and no RuntimeWarning
    for q_intensity in (1.0, 0.0):
        with pytest.raises(NotPositiveDefinite, match="Q must be positive definite"):
            build_constant_velocity_model(dt=1e300, q_intensity=q_intensity, n_nodes=2,
                                          sensor_assignment="per_step_random")


def test_trajectory_determinism():
    model = build_constant_velocity_model(dt=0.1, n_nodes=6)
    t1 = simulate_runs(model, 50, [123])
    t2 = simulate_runs(model, 50, [123])
    assert np.array_equal(t1.states, t2.states)
    assert t1.measurements.shape == (1, 50, 6, 1)
    assert np.array_equal(t1.measurements, t2.measurements)


def test_noise_free_trajectory_is_deterministic_power():
    model = build_constant_velocity_model(dt=0.1, n_nodes=4)
    traj = simulate_runs(model, 10, [0], noise_free=True)
    states, measurements = traj.states[0], traj.measurements[0]
    x = np.array(model.x0_mean)
    for t in range(10):
        assert np.allclose(states[t], x, atol=1e-12)
        x = model.f @ x
    for i, spec in enumerate(model.sensors):
        assert np.allclose(measurements[:, i], states @ spec.h.T, atol=1e-12)


@pytest.mark.parametrize("kind", ["static", "redrawn", "noise_free", "q_zero"])
def test_simulate_runs_equals_each_seeds_trajectory(kind):
    # one batched draw for all runs: run r is seed r's own one-seed draw, bit for bit
    model = build_constant_velocity_model(
        dt=0.1, n_nodes=5, q_intensity=0.0 if kind == "q_zero" else 1.0,
        sensor_assignment="per_step_random" if kind == "redrawn" else "static_split",
        assignment_seed=4)
    seeds = [3, np.random.SeedSequence(entropy=9, spawn_key=(1,)), 0, 12345]
    runs = simulate_runs(model, 30, seeds, noise_free=kind == "noise_free")
    assert runs.states.shape == (4, 30, 4)
    assert runs.measurements.shape == (4, 30, 5, 1)
    assert not runs.states.flags.writeable and not runs.measurements.flags.writeable
    for r, seed in enumerate(seeds):
        one = simulate_runs(model, 30, [seed], noise_free=kind == "noise_free")
        assert np.array_equal(runs.states[r], one.states[0])
        assert np.array_equal(runs.measurements[r], one.measurements[0])


@pytest.mark.parametrize("position", [0, 1, 2])
def test_simulate_runs_names_an_unusable_seed(position):
    seeds = [1, 2, 3]
    seeds[position] = -1
    with pytest.raises(ConfigRejected, match="unusable seed -1: "):
        simulate_runs(build_constant_velocity_model(dt=0.1), 5, seeds)


def test_process_noise_sample_variance():
    model = scalar_model(f=0.9, q=2.0)
    states = simulate_runs(model, 100_000, [7]).states[0]
    resid = states[1:, 0] - 0.9 * states[:-1, 0]
    assert np.var(resid) == pytest.approx(2.0, rel=0.03)


def test_process_noise_whiteness():
    model = scalar_model(f=0.5, q=1.0)
    n = 100_000
    states = simulate_runs(model, n, [11]).states[0]
    resid = states[1:, 0] - 0.5 * states[:-1, 0]
    resid = resid - resid.mean()
    denom = np.dot(resid, resid)
    for lag in (1, 2, 5):
        rho = np.dot(resid[lag:], resid[:-lag]) / denom
        assert abs(rho) < 5.0 / np.sqrt(n)


def test_tiny_process_noise_is_drawn():
    # Q = 0 means exactly zero: a Q whose entries are all below 1e-8 used to
    # count as zero, so no process noise was drawn while the filter
    # predicted with Q
    model = build_constant_velocity_model(dt=0.1, q_intensity=1e-8, n_nodes=2)
    states = simulate_runs(model, 50, [0]).states[0]
    x = states[0]
    powers = [x := model.f @ x for _ in range(49)]
    assert not np.array_equal(states[1:], np.array(powers))


def test_redraw_candidates_need_no_position_layout():
    # the candidates are data: a one-coordinate state used to be refused
    # ("per_step_random sensors draw x1 or x2, but n = 1"), and a step may
    # draw any of three candidates, each R_i with its row
    specs = tuple(SensorSpec(np.array([[1.0]]), np.array([[r]])) for r in (0.5, 1.0, 2.0))
    model = StateSpaceModel(f=np.eye(1), q=np.eye(1), sensors=specs[:2], x0_mean=[0.0],
                            p0=np.eye(1), redraw_from=specs, assignment_seed=5)
    assert model.assignment_mode == "per_step_random"
    drawn = np.concatenate([sensor_specs_at(model, t).r.ravel() for t in range(20)])
    assert set(drawn) == {0.5, 1.0, 2.0}


def test_state_space_model_takes_no_mode_string(monkeypatch):
    # the per-step schedule is the redraw_from data: no assignment_mode
    # input, no constant-velocity layout, and the model builder draws nothing
    import dataclasses
    import inspect

    inits = {f.name for f in dataclasses.fields(StateSpaceModel) if f.init}
    assert "assignment_mode" not in inits and "redraw_from" in inits
    assert "POSITION" not in inspect.getsource(StateSpaceModel)

    def no_draw(*args, **kwargs):
        raise AssertionError("the model builder drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for assignment, mode in (("static_split", "static"), ("per_step_random", "per_step_random")):
        model = build_constant_velocity_model(dt=0.1, n_nodes=5, sensor_assignment=assignment)
        assert model.assignment_mode == mode
        # every mode keeps the static split as its sensors
        assert [int(np.argmax(s.h)) for s in model.sensors] == [0, 0, 1, 1, 1]


def test_information_rate_orthogonal_unit_sensors():
    sensors = (
        SensorSpec(np.array([[1.0, 0.0]]), np.array([[1.0]])),
        SensorSpec(np.array([[0.0, 1.0]]), np.array([[1.0]])),
    )
    model = StateSpaceModel(
        f=0.5 * np.eye(2), q=np.eye(2), sensors=sensors,
        x0_mean=np.zeros(2), p0=np.eye(2),
    )
    assert np.allclose(information_rate_target(model), np.eye(2))


def test_information_rate_linearity():
    n_nodes = 7
    model = build_constant_velocity_model(dt=0.1, n_nodes=n_nodes, r_var=2.0)
    # static_split: the first half shares one sensor, the rest another
    half = n_nodes // 2
    first, last = model.sensors[0], model.sensors[-1]
    expected = (half * sensor_oracle(first.h, first.r)[3]
                + (n_nodes - half) * sensor_oracle(last.h, last.r)[3])
    assert np.allclose(information_rate_target(model), expected)


def test_information_rate_hundred_nodes():
    model = build_constant_velocity_model(dt=0.1, n_nodes=100, r_var=0.5)
    target = information_rate_target(model)
    oracle = sum(s.h.T @ np.linalg.inv(s.r) @ s.h for s in model.sensors)
    assert np.allclose(target, oracle, atol=1e-12)
    assert np.allclose(target, np.diag([100.0, 100.0, 0.0, 0.0]))


def test_information_rate_is_the_summed_oracle():
    model = build_constant_velocity_model(dt=0.1, n_nodes=10, r_var=0.7)
    summed = sum(sensor_oracle(s.h, s.r)[3] for s in model.sensors)
    assert np.array_equal(information_rate_target(model), summed)


def test_per_step_random_assignment():
    model = build_constant_velocity_model(
        dt=0.1, n_nodes=6, sensor_assignment="per_step_random", assignment_seed=9
    )
    s0 = sensor_specs_at(model, 0)
    assert np.array_equal(s0.h, sensor_specs_at(model, 0).h)
    # some step differs from step 0 for at least one node
    differs = any(
        not np.array_equal(sensor_specs_at(model, t).h, s0.h) for t in range(1, 8)
    )
    assert differs
    # the table's two rows observe the two POSITION coordinates
    assert np.array_equal(model.coordinate_table.h[:, 0, POSITION], np.eye(2))
    assert not model.coordinate_table.h[:, 0, VELOCITY].any()


def test_per_step_random_rows_are_drawn_once_per_model():
    # each step's rows are memoized on the model: equal to a fresh draw from
    # (assignment_seed, t), reused by later calls, never shared across seeds
    models = [build_constant_velocity_model(dt=0.1, n_nodes=40, assignment_seed=seed,
                                            sensor_assignment="per_step_random")
              for seed in (3, 4)]
    for model in models:
        for t in range(5):
            specs = sensor_specs_at(model, t)
            rows = model._drawn_rows[t]
            fresh = np.random.default_rng(np.random.SeedSequence((model.assignment_seed, t)))
            assert np.array_equal(rows, fresh.integers(0, 2, size=40))
            assert np.array_equal(specs.h, model.coordinate_table.h[rows])
            assert sensor_specs_at(model, t).h is not specs.h  # the gather is per call
            assert model._drawn_rows[t] is rows
        assert sorted(model._drawn_rows) == list(range(5))
    assert models[0]._drawn_rows is not models[1]._drawn_rows
    assert any(not np.array_equal(models[0]._drawn_rows[t], models[1]._drawn_rows[t])
               for t in range(5))


@pytest.mark.parametrize("cap, kept", [(3 * 40 + 39, 3), (10, 1)])
def test_redrawn_row_memo_stays_within_its_cap(monkeypatch, cap, kept):
    # the memo holds at most _MEMO_ROWS row indices (patched to 3 steps of 40
    # nodes, and to less than one step, which keeps one), the oldest step out
    # first; an evicted step draws the rows a fresh model draws
    import dkf_admm.models as models

    monkeypatch.setattr(models, "_MEMO_ROWS", cap)
    model, fresh = (build_constant_velocity_model(dt=0.1, n_nodes=40, assignment_seed=3,
                                                  sensor_assignment="per_step_random")
                    for _ in range(2))
    first = sensor_specs_at(model, 0).h
    for t in range(1, 10):
        sensor_specs_at(model, t)
        assert sum(map(len, model._drawn_rows.values())) <= max(cap, 40)
    assert list(model._drawn_rows) == list(range(10 - kept, 10))
    assert np.array_equal(sensor_specs_at(model, 0).h, first)
    assert list(model._drawn_rows)[-1] == 0 and len(model._drawn_rows) == kept
    sensor_specs_at(fresh, 0)
    assert np.array_equal(model._drawn_rows[0], fresh._drawn_rows[0])


@settings(max_examples=60, deadline=None)
@given(
    n_nodes=st.integers(2, 12),
    assignment=st.sampled_from(SENSOR_ASSIGNMENTS),
    assignment_seed=st.integers(0, 2**16),
    t=st.integers(0, 1000),
    r_var=st.floats(0.05, 5.0),
)
def test_sensor_rows_match_per_node_oracle(n_nodes, assignment, assignment_seed, t, r_var):
    # no construction-time draw: every model builds (it used to be refused
    # when that draw gave all nodes one coordinate)
    model = build_constant_velocity_model(
        dt=0.1, n_nodes=n_nodes, sensor_assignment=assignment, r_var=r_var,
        assignment_seed=assignment_seed,
    )
    if assignment == "static_split":
        coords = [0 if i < n_nodes // 2 else 1 for i in range(n_nodes)]
    else:  # the documented draw of every node's coordinate at step t
        seq = np.random.SeedSequence((assignment_seed, t))
        coords = np.random.default_rng(seq).integers(0, 2, size=n_nodes)
    arrays = sensor_specs_at(model, t)
    for i, c in enumerate(coords):
        h = np.zeros((1, 4))
        h[0, c] = 1.0
        for got, want in zip(
            (arrays.h[i], arrays.r[i], arrays.rinv_h[i], arrays.info[i]),
            sensor_oracle(h, [[r_var]]),
        ):
            assert np.array_equal(got, want)
    # the information rate sums a static model's sensors, node by node; a
    # redrawn model's moves with the draw, and its placeholder sum is no target
    if assignment != "static_split":
        with pytest.raises(ConfigRejected, match="per_step_random sensors have no fixed"):
            information_rate_target(model)
        return
    total = np.zeros((4, 4))
    for s in model.sensors:
        total += sensor_oracle(s.h, s.r)[3]
    assert np.array_equal(information_rate_target(model), total)


def _reference_states(model, n_steps, rng):
    """x_0 and the process noise drawn first, as `simulate_runs` does per run."""
    states = np.empty((n_steps, 4))
    states[0] = rng.multivariate_normal(model.x0_mean, model.p0)
    w = rng.multivariate_normal(np.zeros(4), model.q, size=n_steps - 1)
    for t in range(n_steps - 1):
        states[t + 1] = model.f @ states[t] + w[t]
    return states


def _two_precision_model():
    """Redrawn candidates with R = 0.01 (x1) and R = 100 (x2), unlike the
    placeholder R = 0.5 of the builder's sensors."""
    cv = build_constant_velocity_model(
        dt=0.1, n_nodes=6, sensor_assignment="per_step_random", assignment_seed=9
    )
    candidates = (SensorSpec(np.eye(1, 4, 0), [[0.01]]), SensorSpec(np.eye(1, 4, 1), [[100.0]]))
    return StateSpaceModel(f=cv.f, q=cv.q, sensors=cv.sensors, x0_mean=cv.x0_mean, p0=cv.p0,
                           redraw_from=candidates, assignment_seed=9)


def test_per_step_random_trajectory_builds_specs_once_per_step(monkeypatch):
    model = build_constant_velocity_model(
        dt=0.1, n_nodes=6, sensor_assignment="per_step_random", assignment_seed=9)
    _check_trajectory_against_per_step_reference(monkeypatch, model)


def test_per_step_random_noise_uses_the_drawn_sensors_r(monkeypatch):
    _check_trajectory_against_per_step_reference(monkeypatch, _two_precision_model())


def _check_trajectory_against_per_step_reference(monkeypatch, model):
    n_steps, draws = 12, count_row_draws(monkeypatch)
    traj = simulate_runs(model, n_steps, [21])
    assert sorted(draws) == list(range(n_steps))

    # inline reference: one draw per (node, step), node by node, with the
    # drawn sensor of that step
    rng = np.random.default_rng(21)
    states = _reference_states(model, n_steps, rng)
    assert np.array_equal(traj.states[0], states)
    assert traj.measurements.shape == (1, n_steps, 6, 1)
    for i in range(6):
        for t in range(n_steps):
            arrays = sensor_specs_at(model, t)
            y = arrays.h[i] @ states[t] + rng.multivariate_normal(np.zeros(1), arrays.r[i])
            assert np.array_equal(traj.measurements[0, t, i], y)


def test_static_trajectory_matches_per_node_reference():
    model = build_constant_velocity_model(dt=0.1, n_nodes=5, r_var=0.3)
    n_steps = 15
    traj = simulate_runs(model, n_steps, [4])
    # inline reference: one (n_steps, m) noise block per node, node by node
    rng = np.random.default_rng(4)
    states = _reference_states(model, n_steps, rng)
    assert np.array_equal(traj.states[0], states)
    assert traj.measurements.shape == (1, n_steps, 5, 1)
    for i, spec in enumerate(model.sensors):
        ys = states @ spec.h.T + rng.multivariate_normal(np.zeros(1), spec.r, size=n_steps)
        assert np.array_equal(traj.measurements[0, :, i], ys)
    assert not traj.measurements.flags.writeable
