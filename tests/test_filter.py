import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkf_admm.exceptions import ConfigRejected, DimensionError, WireSchemaViolation
from dkf_admm.filtering import (
    CommLedger,
    DkfParams,
    _correction_round,
    _covariance_step,
    _gains,
    _posterior_cov,
    _predict,
    auto_params,
    dkf_time_step,
    init_state,
)
from dkf_admm.graphs import build_graph, spectral_summary
from dkf_admm.linalg import spd_inverse, spd_solve, sym, unvech, vech
from dkf_admm.models import (
    SensorSpec,
    StateSpaceModel,
    build_constant_velocity_model,
    information_rate_target,
    node_info_vectors,
    simulate_trajectory,
)


def _setup(n_nodes=4, topology="ring", l_sub=20, traj_seed=3, **graph_kwargs):
    graph = build_graph(topology, n_nodes, **graph_kwargs)
    spectrum = spectral_summary(graph)
    params = auto_params(spectrum, l_sub=l_sub)
    model = build_constant_velocity_model(dt=0.1, n_nodes=n_nodes, r_var=0.5)
    traj = simulate_trajectory(model, 3, seed=traj_seed)
    state = init_state(model, np.tile(model.x0_mean, (n_nodes, 1)))
    return graph, spectrum, params, model, traj, state


def test_params_validation():
    k2 = spectral_summary(build_graph("complete", 2))
    DkfParams(0.5, 0.05, 0.2, 10).validate_for(k2)
    with pytest.raises(ConfigRejected):
        DkfParams(0.5, 0.05, 0.5, 10).validate_for(k2)  # alpha_nu >= 1/3
    with pytest.raises(ConfigRejected):
        DkfParams(1.0, 0.05, 0.2, 10).validate_for(k2)  # alpha + 2mu >= 1
    # override skips the guard
    DkfParams(1.0, 0.05, 0.5, 10).validate_for(k2, override=True)
    with pytest.raises(ValueError):
        DkfParams(-0.1, 0.05, 0.2, 10)
    with pytest.raises(ValueError):
        DkfParams(0.5, 0.05, 0.2, 0)


def test_auto_params_inside_bounds():
    for topology, n in (("ring", 8), ("complete", 12), ("path", 5)):
        spectrum = spectral_summary(build_graph(topology, n))
        params = auto_params(spectrum)
        params.validate_for(spectrum)
        cov_rep, state_rep = params.check(spectrum)
        assert cov_rep.is_schur and state_rep.is_schur


def test_predict_matches_formula():
    _, _, _, model, _, state = _setup()
    state.x_post[0] = [1.0, -1.0, 0.5, 0.2]
    state.p_post[0] = np.diag([1.0, 2.0, 3.0, 4.0])
    x_prior, p_prior = _predict(state.x_post, state.p_post, model)
    for x, p, xp, pp in zip(state.x_post, state.p_post, x_prior, p_prior):
        assert np.allclose(xp, model.f @ x)
        assert np.allclose(pp, model.f @ p @ model.f.T + model.q, atol=1e-14)


def test_gain_inverse_pair():
    _, _, _, model, traj, state = _setup()
    meas = [traj.measurements[i][1] for i in range(4)]
    _, k_inv, k, b = _gains(state.p_prior, state.x_prior, model.sensors, meas)
    for i, spec in enumerate(model.sensors):
        assert np.allclose(k_inv[i] @ k[i], np.eye(4), atol=1e-12)
        p_inv = spd_inverse(state.p_prior[i])
        assert np.allclose(k_inv[i], spec.info_matrix + p_inv / 4, atol=1e-14)
        b_ref = spd_solve(spec.r, spec.h).T @ meas[i] + p_inv @ state.x_prior[i] / 4
        assert np.allclose(b[i], b_ref, atol=1e-12)


def test_init_theta_scaled_info():
    _, _, _, model, _, state = _setup(n_nodes=6)
    omega = node_info_vectors(model.sensors)
    assert np.allclose(state.theta, 6 * omega)
    assert np.allclose(state.nu_tilde, 0.0)


def _dense_round(xi, lam, laplacian, k, k_inv, b, alpha, mu):
    """Monolithic reference: the same sub-iteration written with the
    Kronecker-lifted Laplacian acting on the stacked state vector."""
    n_nodes, n = xi.shape
    big_l = np.kron(laplacian, np.eye(n))
    big_kinv = np.zeros((n_nodes * n, n_nodes * n))
    big_k = np.zeros_like(big_kinv)
    for i in range(n_nodes):
        sl = slice(i * n, (i + 1) * n)
        big_kinv[sl, sl] = k_inv[i]
        big_k[sl, sl] = k[i]
    d = big_l @ xi.ravel()
    lam_new = lam.ravel() + alpha * big_kinv @ d
    xi_new = big_k @ (b.ravel() - lam_new) - mu * d
    return xi_new.reshape(n_nodes, n), lam_new.reshape(n_nodes, n)


def _reference_gains(x_prior, p_prior, sensors, meas):
    """K^-1, K and b of every node from the textbook formulas."""
    n_nodes = len(sensors)
    k_inv = np.array(
        [s.info_matrix + spd_inverse(p) / n_nodes for s, p in zip(sensors, p_prior)]
    )
    b = np.array([
        spd_solve(s.r, s.h).T @ y + spd_inverse(p) @ x / n_nodes
        for s, y, x, p in zip(sensors, meas, x_prior, p_prior)
    ])
    return k_inv, np.linalg.inv(k_inv), b


@pytest.mark.parametrize("topology,n_nodes", [("ring", 3), ("path", 5)])
def test_correction_round_matches_dense_oracle(topology, n_nodes):
    graph, _, params, model, traj, state = _setup(n_nodes=n_nodes, topology=topology)
    meas = [traj.measurements[i][1] for i in range(n_nodes)]
    # distinct iterates and duals so the disagreement term is active
    draws = np.random.default_rng(0).normal(size=(n_nodes, 2, 4))
    xi0, lam0 = draws[:, 0], draws[:, 1]
    k_inv, k, b = _reference_gains(state.x_prior, state.p_prior, model.sensors, meas)

    xi, lam = _correction_round(xi0, lam0, graph, k, k_inv, b, params)
    xi_ref, lam_ref = _dense_round(
        xi0, lam0, graph.laplacian, k, k_inv, b, params.alpha_lambda, params.mu
    )
    assert np.allclose(xi, xi_ref, atol=1e-12)
    assert np.allclose(lam, lam_ref, atol=1e-12)


def test_correction_reaches_consensus():
    # many sub-iterations drive all nodes to a common value; with equal
    # priors the common value is the average of the local one-shot updates
    graph, _, params, model, traj, state = _setup(
        n_nodes=6, topology="ring", l_sub=4000
    )
    meas = [traj.measurements[i][1] for i in range(6)]
    k_inv_ref, k_ref, b_ref = _reference_gains(
        state.x_prior, state.p_prior, model.sensors, meas
    )
    local = np.einsum("ijk,ik->ij", k_ref, b_ref)
    _, k_inv, k, b = _gains(state.p_prior, state.x_prior, model.sensors, meas)
    xi, lam = state.x_prior, np.zeros((6, 4))
    for _ in range(params.l_sub):
        xi, lam = _correction_round(xi, lam, graph, k, k_inv, b, params)
    spread = np.abs(xi - xi.mean(axis=0)).max()
    assert spread < 1e-10
    assert np.allclose(xi[0], np.mean(local, axis=0), atol=1e-8)


def test_correction_consensus_error_decays_geometrically():
    graph, spectrum, params, model, traj, state = _setup(n_nodes=8, topology="ring")
    meas = [traj.measurements[i][1] for i in range(8)]
    rng = np.random.default_rng(4)
    xi = state.x_prior + rng.normal(size=(8, 4))
    lam = np.zeros_like(xi)
    _, k_inv, k, b = _gains(state.p_prior, state.x_prior, model.sensors, meas)
    errs = []
    for _ in range(100):
        xi, lam = _correction_round(xi, lam, graph, k, k_inv, b, params)
        errs.append(np.linalg.norm(xi - xi.mean(axis=0)))
    errs = np.array(errs)
    # average per-round contraction over a window clear of both the initial
    # transient and the floating-point floor must not beat the worst
    # disagreement-mode radius by more than a little slack
    _, state_rep = params.check(spectrum)
    rate = (errs[80] / errs[20]) ** (1.0 / 60.0)
    assert rate < state_rep.spectral_radius + 0.05
    assert errs[-1] < 1e-6 * errs[0]


def test_covariance_step_two_nodes_closed_form():
    # K2, theta = (a, b) scalar-per-component: e = (a-b, b-a),
    # nu_new = alpha e, theta_new = 2 omega - nu_new - alpha e
    graph = build_graph("complete", 2)
    model = build_constant_velocity_model(dt=0.1, n_nodes=2)
    state = init_state(model, np.tile(model.x0_mean, (2, 1)))
    omega = node_info_vectors(model.sensors)
    alpha = 0.25
    t0 = state.theta
    e = np.array([t0[0] - t0[1], t0[1] - t0[0]])
    theta, nu = _covariance_step(t0, state.nu_tilde, graph, 2 * omega, alpha)
    assert np.allclose(nu, alpha * e, atol=1e-14)
    assert np.allclose(theta, 2 * omega - 2 * alpha * e, atol=1e-14)


def test_covariance_step_matches_dense_oracle():
    graph = build_graph("random_geometric", 7, radius=0.6, seed=2)
    model = build_constant_velocity_model(dt=0.1, n_nodes=7)
    draws = np.random.default_rng(8).normal(size=(7, 2, 10))
    theta0, nu0 = draws[:, 0], draws[:, 1]
    alpha = 0.05
    omega_scaled = 7 * node_info_vectors(model.sensors)
    theta, nu = _covariance_step(theta0, nu0, graph, omega_scaled, alpha)
    big_l = np.kron(graph.laplacian, np.eye(theta0.shape[1]))
    e = (big_l @ theta0.ravel()).reshape(theta0.shape)
    nu_ref = nu0 + alpha * e
    theta_ref = omega_scaled - nu_ref - alpha * e
    assert np.allclose(nu, nu_ref, atol=1e-13)
    assert np.allclose(theta, theta_ref, atol=1e-13)


def test_covariance_consensus_converges_to_network_sum():
    graph = build_graph("random_geometric", 10, radius=0.5, seed=4)
    spectrum = spectral_summary(graph)
    model = build_constant_velocity_model(dt=0.1, n_nodes=10, r_var=0.5)
    params = auto_params(spectrum)
    state = init_state(model, np.tile(model.x0_mean, (10, 1)))
    target = vech(information_rate_target(model))
    omega_scaled = 10 * node_info_vectors(model.sensors)
    theta, nu = state.theta, state.nu_tilde
    for _ in range(3000):
        theta, nu = _covariance_step(theta, nu, graph, omega_scaled, params.alpha_nu)
    for th in theta:
        assert np.linalg.norm(th - target) < 1e-12 * np.linalg.norm(target)


def test_theta_plus_nu_sum_is_conserved():
    graph = build_graph("ring", 9)
    spectrum = spectral_summary(graph)
    model = build_constant_velocity_model(dt=0.1, n_nodes=9)
    params = auto_params(spectrum)
    state = init_state(model, np.tile(model.x0_mean, (9, 1)))
    omega_scaled = 9 * node_info_vectors(model.sensors)
    target = omega_scaled.sum(axis=0)
    theta, nu = state.theta, state.nu_tilde
    for _ in range(200):
        theta, nu = _covariance_step(theta, nu, graph, omega_scaled, params.alpha_nu)
        total = (theta + nu).sum(axis=0)
        assert np.allclose(total, target, atol=1e-10 * np.abs(target).max())


def test_posterior_nominal():
    _, _, _, model, _, state = _setup()
    theta = np.tile(vech(np.eye(4) * 2.0), (4, 1))
    p_post = _posterior_cov(sym(np.linalg.inv(state.p_prior)), theta)
    for p_prior, p in zip(state.p_prior, p_post):
        expected = spd_inverse(spd_inverse(p_prior) + 2.0 * np.eye(4))
        assert np.allclose(p, expected, atol=1e-12)


def test_posterior_floors_indefinite_theta():
    _, _, _, model, _, state = _setup()
    p_prior = state.p_prior.copy()
    p_prior[0] = 100.0 * np.eye(4)  # weak prior so a bad theta matters
    theta = np.tile(vech(np.eye(4)), (4, 1))
    # indefinite transient at node 0: one strongly negative eigenvalue
    theta[0] = vech(np.diag([1.0, -5.0, 1.0, 1.0]))
    with pytest.warns(RuntimeWarning, match=r"node 0, t=7") as record:
        p_post = _posterior_cov(sym(np.linalg.inv(p_prior)), theta, t=7)
    assert len(record) == 1  # the other nodes are not floored
    floored = np.diag([1.0, 0.0, 1.0, 1.0])
    expected = spd_inverse(spd_inverse(p_prior[0]) + floored)
    assert np.allclose(p_post[0], expected, atol=1e-12)
    np.linalg.cholesky(p_post[0])
    assert np.allclose(p_post[1:], 0.5 * np.eye(4), atol=1e-12)


def test_ledger_counts_and_wire_schema():
    ledger = CommLedger(3)
    degrees = np.array([2, 1, 1])
    ledger.record("state", "xi", degrees, 4)
    ledger.record("state", "xi", degrees, 4)
    ledger.record("covariance", "theta", degrees, 10)
    assert np.array_equal(ledger.state_messages, 2 * degrees)
    assert np.array_equal(ledger.state_scalars, 8 * degrees)
    assert np.array_equal(ledger.cov_scalars, 10 * degrees)
    assert np.array_equal(ledger.messages_sent, 3 * degrees)
    with pytest.raises(WireSchemaViolation):
        ledger.record("state", "lambda_tilde", degrees, 4)
    with pytest.raises(WireSchemaViolation):
        ledger.record("covariance", "nu_tilde", degrees, 10)
    with pytest.raises(ValueError):
        ledger.record("broadcast", "xi", degrees, 4)


def test_time_step_traffic_formula():
    graph, _, params, model, traj, state = _setup(n_nodes=5, topology="path", l_sub=7)
    ledger = CommLedger(5)
    meas = [traj.measurements[i][1] for i in range(5)]
    dkf_time_step(state, graph, model, meas, params, ledger=ledger, t=1)
    n, n_cov = 4, 10
    assert np.array_equal(ledger.state_messages, 7 * graph.degree)
    assert np.array_equal(ledger.state_scalars, 7 * graph.degree * n)
    assert np.array_equal(ledger.cov_messages, graph.degree)
    assert np.array_equal(ledger.cov_scalars, graph.degree * n_cov)


def test_time_step_matches_per_node_operations():
    # one full step from random, non-identity posteriors against a dense
    # reference: the predict and gain formulas node by node, the
    # Kronecker-lifted sub-iterations and covariance step, and the
    # posterior (P_prior^-1 + Theta)^-1
    graph, _, params, model, traj, state = _setup(
        n_nodes=5, topology="random_geometric", l_sub=6, radius=0.7, seed=1
    )
    rng = np.random.default_rng(12)
    for i in range(5):
        state.x_post[i] = rng.normal(size=4)
        g = rng.normal(size=(4, 4))
        state.p_post[i] = g @ g.T + np.eye(4)
    x_post0, p_post0 = state.x_post.copy(), state.p_post.copy()
    theta0, nu0 = state.theta.copy(), state.nu_tilde.copy()
    meas = [traj.measurements[i][1] for i in range(5)]

    dkf_time_step(state, graph, model, meas, params, t=1)

    x_prior = np.array([model.f @ x for x in x_post0])
    p_prior = np.array([model.f @ p @ model.f.T + model.q for p in p_post0])
    k_inv, k, b = _reference_gains(x_prior, p_prior, model.sensors, meas)
    xi, lam = x_prior, np.zeros_like(x_prior)
    for _ in range(params.l_sub):
        xi, lam = _dense_round(
            xi, lam, graph.laplacian, k, k_inv, b, params.alpha_lambda, params.mu
        )
    big_l = np.kron(graph.laplacian, np.eye(theta0.shape[1]))
    e = (big_l @ theta0.ravel()).reshape(theta0.shape)
    nu_ref = nu0 + params.alpha_nu * e
    theta_ref = 5 * node_info_vectors(model.sensors) - nu_ref - params.alpha_nu * e
    p_post_ref = np.array(
        [spd_inverse(spd_inverse(p) + unvech(th)) for p, th in zip(p_prior, theta_ref)]
    )
    assert np.allclose(state.x_prior, x_prior, atol=1e-10)
    assert np.allclose(state.p_prior, p_prior, atol=1e-10)
    assert np.allclose(state.x_post, xi, atol=1e-10)
    assert np.allclose(state.p_post, p_post_ref, atol=1e-10)
    assert np.allclose(state.theta, theta_ref, atol=1e-10)
    assert np.allclose(state.nu_tilde, nu_ref, atol=1e-10)


def test_symmetric_nodes_stay_symmetric():
    # a 2-node complete graph with identical sensors and identical
    # measurements can never break symmetry
    from dkf_admm.models import SensorSpec, StateSpaceModel

    base = build_constant_velocity_model(dt=0.1, n_nodes=2)
    h_pos = np.array([[1.0, 0, 0, 0], [0.0, 1, 0, 0]])
    r_pos = 0.5 * np.eye(2)
    model2 = StateSpaceModel(
        f=base.f, q=base.q,
        sensors=(SensorSpec(0, h_pos, r_pos), SensorSpec(1, h_pos, r_pos)),
        x0_mean=base.x0_mean, p0=base.p0,
    )
    graph2 = build_graph("complete", 2)
    params2 = auto_params(spectral_summary(graph2), l_sub=8)
    state2 = init_state(model2, np.tile(model2.x0_mean, (2, 1)))
    traj2 = simulate_trajectory(model2, 8, seed=10)
    for t in range(1, 8):
        y = traj2.measurements[0][t]
        dkf_time_step(state2, graph2, model2, [y, y], params2, t=t)
        assert np.allclose(state2.x_post[0], state2.x_post[1], atol=1e-12)
        assert np.allclose(state2.p_post[0], state2.p_post[1], atol=1e-12)


def test_sub_iterated_covariance_converges_faster():
    graph = build_graph("ring", 8)
    spectrum = spectral_summary(graph)
    model = build_constant_velocity_model(dt=0.1, n_nodes=8, r_var=0.5)
    params = auto_params(spectrum, l_sub=20)
    traj = simulate_trajectory(model, 4, seed=6)
    target = information_rate_target(model)

    def run(sub_iterated):
        state = init_state(model, np.tile(model.x0_mean, (8, 1)))
        for t in range(1, 4):
            meas = [traj.measurements[i][t] for i in range(8)]
            dkf_time_step(
                state, graph, model, meas, params, t=t,
                sub_iterated_covariance=sub_iterated,
            )
        return np.linalg.norm(unvech(state.theta) - target, axis=(1, 2)).max()

    assert run(True) < run(False)


@settings(max_examples=30, deadline=None)
@given(
    n_nodes=st.integers(2, 7),
    runs=st.integers(1, 4),
    l_sub=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_step_equals_per_run_steps(n_nodes, runs, l_sub, seed):
    # a random connected graph: a random spanning tree plus random extra edges
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_nodes)
    edges = [(int(order[k]), int(order[rng.integers(k)])) for k in range(1, n_nodes)]
    edges += [
        (i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)
        if rng.random() < 0.3
    ]
    graph = build_graph("explicit", n_nodes, edges=edges)
    params = auto_params(spectral_summary(graph), l_sub=l_sub)
    model = build_constant_velocity_model(dt=0.1, n_nodes=n_nodes, r_var=0.5)
    x0 = model.x0_mean + rng.normal(size=(runs, n_nodes, 4))
    g = rng.normal(size=(n_nodes, 4, 4))
    p0 = g @ g.transpose(0, 2, 1) + np.eye(4)
    meas = rng.normal(size=(2, runs, n_nodes, 1))

    batch = init_state(model, x0, p0)
    singles = [init_state(model, x0[r], p0) for r in range(runs)]
    batch_ledger, single_ledger = CommLedger(n_nodes), CommLedger(n_nodes)
    batch_log, single_logs = [], [[] for _ in range(runs)]
    for t in (1, 2):
        dkf_time_step(batch, graph, model, meas[t - 1], params, ledger=batch_ledger,
                      t=t, consensus_log=batch_log)
        for r, single in enumerate(singles):
            dkf_time_step(single, graph, model, meas[t - 1, r], params,
                          ledger=single_ledger if r == 0 else None, t=t,
                          consensus_log=single_logs[r])

    assert batch.x_post.shape == (runs, n_nodes, 4)
    assert batch_log[0].shape == (runs, l_sub)
    for r, single in enumerate(singles):
        assert np.allclose(batch.x_post[r], single.x_post, rtol=1e-12, atol=1e-12)
        assert np.allclose(batch.x_prior[r], single.x_prior, rtol=1e-12, atol=1e-12)
        for name in ("p_prior", "p_post", "theta", "nu_tilde"):
            assert np.array_equal(getattr(batch, name), getattr(single, name))
        for row, single_row in zip(batch_log, single_logs[r]):
            assert np.allclose(row[r], single_row, rtol=1e-12, atol=1e-12)
    for name in ("state_messages", "state_scalars", "cov_messages", "cov_scalars"):
        assert np.array_equal(
            getattr(batch_ledger, name), runs * getattr(single_ledger, name)
        )


def test_mixed_measurement_dimensions_rejected():
    # node 0 measures x1 only (m = 1), node 1 both positions (m = 2)
    graph, _, params, model, _, state = _setup(n_nodes=2, topology="complete")
    h2 = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    mixed = StateSpaceModel(
        f=model.f, q=model.q, x0_mean=model.x0_mean, p0=model.p0,
        sensors=(SensorSpec(0, h2[:1], [[0.5]]), SensorSpec(1, h2, 0.5 * np.eye(2))),
    )
    with pytest.raises(DimensionError, match="one measurement dimension"):
        dkf_time_step(state, graph, mixed, [np.zeros(1), np.zeros(2)], params, t=1)
