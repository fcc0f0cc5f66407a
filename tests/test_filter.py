import dataclasses
import inspect
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (count_row_draws, dense_laplacian, info_oracle, random_connected_graph,
                     sensor_oracle)

from dkf_admm import filtering, models
from dkf_admm.exceptions import (
    ConfigRejected,
    DimensionError,
    NotPositiveDefinite,
    WireSchemaViolation,
)
from dkf_admm.filtering import (
    CommLedger,
    DkfParams,
    OPERATOR_ROWS,
    STACKED_ROUND_NODES,
    CovarianceHalf,
    _consensus_rounds,
    _covariance_half,
    _posterior_cov,
    _round_operator,
    auto_params,
    dkf_steps,
    init_state,
)
from dkf_admm.graphs import DENSE_PRODUCT_NODES, build_graph, spectral_summary
from dkf_admm.harness import ScenarioConfig, build_scenario, run_scenario
from dkf_admm.linalg import SWEEP_MIN_STACK, spd_inverse, sym
from dkf_admm.models import (
    SensorSpec,
    StateSpaceModel,
    build_constant_velocity_model,
    information_rate_target,
    sensor_specs_at,
    simulate_runs,
)


def _setup(n_nodes=4, topology="ring", l_sub=20, traj_seed=3, **graph_kwargs):
    graph = build_graph(topology, n_nodes, **graph_kwargs)
    spectrum = spectral_summary(graph)
    params = auto_params(spectrum, l_sub=l_sub)
    model = build_constant_velocity_model(dt=0.1, n_nodes=n_nodes, r_var=0.5)
    traj = simulate_runs(model, 3, [traj_seed])
    state = init_state(model, np.tile(model.x0_mean, (n_nodes, 1)))
    return graph, spectrum, params, model, traj, state


def test_params_validation():
    k2 = spectral_summary(build_graph("complete", 2))
    for report in DkfParams(0.5, 0.05, 0.2, 10).check(k2):
        report.require()
    # K2: lambda_max = 2, bounds 1/3 on alpha_nu and 1 on alpha_lambda + 2 mu
    for params, message in (
        (DkfParams(0.5, 0.05, 0.5, 10), "alpha_nu=0.5 violates the bound 2/(3*lambda_max)=0.3"),
        (DkfParams(1.0, 0.05, 0.2, 10), "alpha_lambda+2*mu=1.1 violates the bound 2/lambda_max=1"),
    ):
        with pytest.raises(ConfigRejected, match=re.escape(message)):
            for report in params.check(k2):
                report.require()
    with pytest.raises(ValueError):
        DkfParams(-0.1, 0.05, 0.2, 10)
    with pytest.raises(ValueError):
        DkfParams(0.5, 0.05, 0.2, 0)


def test_auto_params_inside_bounds():
    for topology, n in (("ring", 8), ("complete", 12), ("path", 5)):
        spectrum = spectral_summary(build_graph(topology, n))
        params = auto_params(spectrum)
        cov_rep, state_rep = params.check(spectrum)
        cov_rep.require()
        state_rep.require()
        assert cov_rep.is_schur and state_rep.is_schur


def _half(state, graph, model, params, t=1):
    """The tested `_covariance_half` of static-sensor step t, one covariance
    round: a CovarianceHalf."""
    return _covariance_half(state, graph, model, sensor_specs_at(model, t).info, params.alpha_nu,
                            1, t)


def _arguments(func, args, kwargs):
    """The arguments of a call of `func`, by name, defaults included."""
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def test_predict_matches_formula():
    graph, _, params, model, traj, state = _setup()
    state.x_post[0] = [1.0, -1.0, 0.5, 0.2]
    state.p_post[0] = np.diag([1.0, 2.0, 3.0, 4.0])
    x_post, p_post = state.x_post.copy(), state.p_post.copy()
    p_prior = _half(state, graph, model, params).p_prior
    list(dkf_steps(state, graph, model, traj.measurements[0, 1:2], params, t0=1))
    assert np.array_equal(state.p_prior, p_prior)
    for x, p, xp, pp in zip(x_post, p_post, state.x_prior, p_prior):
        assert np.allclose(xp, model.f @ x)
        assert np.allclose(pp, model.f @ p @ model.f.T + model.q, atol=1e-14)


def test_gain_inverse_pair():
    # below the stack-inverse switch (LAPACK) and at it (the sweep), with a
    # distinct, non-diagonal prior at every node. Every node holds the same
    # estimate, so one state round exchanges nothing and x_post is K b
    for n_nodes in (4, SWEEP_MIN_STACK):
        graph, _, params, model, traj, state = _setup(n_nodes=n_nodes, l_sub=1)
        state.x_post[:] = [1.0, -1.0, 0.5, 0.2]
        state.p_post *= 1.0 + np.arange(n_nodes)[:, None, None] / n_nodes
        meas = traj.measurements[0, 1]
        half = _half(state, graph, model, params)
        p_prior, p_inv, k = half.p_prior, half.p_prior_inv, half.k
        list(dkf_steps(state, graph, model, meas[None], params, t0=1))
        for i, spec in enumerate(model.sensors):
            _, _, rinv_h, info = sensor_oracle(spec.h, spec.r)
            p_inv_ref = spd_inverse(p_prior[i])
            assert np.allclose(p_inv[i] @ p_prior[i], np.eye(4), atol=1e-12)
            assert np.allclose(p_inv[i], p_inv_ref, atol=1e-14)
            b_ref = rinv_h.T @ meas[i] + p_inv_ref @ state.x_prior[i] / n_nodes
            k_ref = np.linalg.inv(info + p_inv_ref / n_nodes)
            assert np.allclose(k[i], k_ref, rtol=0.0, atol=1e-12 * np.abs(k_ref).max())
            assert np.allclose(state.x_post[i], k_ref @ b_ref, atol=1e-12)


def test_step_runs_one_covariance_half_before_the_state_rounds(monkeypatch):
    # R = 3 runs on redrawn sensors, both steps in one block: each step calls
    # the covariance half once, untested, whose theta loop runs inside it,
    # and the block's halves come before its state loops
    graph, _, params, _, _, _ = _setup(n_nodes=5, topology="path", l_sub=4)
    model = build_constant_velocity_model(dt=0.1, n_nodes=5, sensor_assignment="per_step_random")
    calls = []

    def spy(name):
        inner = getattr(filtering, name)
        monkeypatch.setattr(filtering, name, lambda *a, **kw: calls.append(
            (name, _arguments(inner, a, kw).get("tested"))) or inner(*a, **kw))

    spy("_covariance_half")
    spy("_consensus_rounds")
    state = init_state(model, np.broadcast_to(model.x0_mean, (3, 5, 4)))
    list(dkf_steps(state, graph, model, np.zeros((3, 2, 5, 1)), params, t0=1))
    half, rounds = ("_covariance_half", False), ("_consensus_rounds", None)
    assert calls == [half, rounds] * 2 + [rounds] * 2


def _spied_halves(monkeypatch):
    """A list that collects (t, tested) of every `_covariance_half` call."""
    calls, inner = [], filtering._covariance_half

    def spy(*args, **kwargs):
        arguments = _arguments(inner, args, kwargs)
        calls.append((arguments["t"], arguments["tested"]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(filtering, "_covariance_half", spy)
    return calls


def _failing_window(case):
    """A 6-ring window whose block passes fail: `flooring` (alpha_nu = 50,
    far past its bound 1/6: every step floors theta, and t=119 raises) or
    `singular_prior` (q = 0 and precise sensors from t=3: the prior of the
    third step, t=5, is singular). Returns graph, model, params, x0, window, t0."""
    if case == "flooring":
        graph, model, _, params = build_scenario(
            ScenarioConfig(topology="ring", n_nodes=6, alpha_nu=50.0, l_sub=1))
        window, t0 = simulate_runs(model, 121, [0]).measurements[0, 1:], 1
    else:
        graph = build_graph("ring", 6)
        params = auto_params(spectral_summary(graph), l_sub=3)
        model = build_constant_velocity_model(dt=0.1, n_nodes=6, q_intensity=0.0, r_var=1e-20)
        window, t0 = np.zeros((6, 6, 1)), 3
    return graph, model, params, np.tile(model.x0_mean, (6, 1)), window, t0


@pytest.mark.parametrize("case, error", [
    ("flooring", "posterior information P^-1 + Theta is not finite (node 0, t=119)"),
    ("singular_prior", "a prior covariance became singular at t=5"),
])
def test_failed_block_pass_equals_one_step_windows(monkeypatch, case, error):
    # blocks of 3 steps whose pass fails (the error's step is mid-block: t=119
    # of 118..120, t=5 of 3..5) rerun one tested half per step, so the window
    # is bitwise its one-step windows: state, ledger, log, the error and every
    # warning, message and file (the line that advances the window)
    graph, model, params, x0, window, t0 = _failing_window(case)
    monkeypatch.setattr(filtering, "_BLOCK_VALUES", 3 * 6 * 4 * max(params.l_sub, 6 * 4))

    def run(windows):
        state, ledger, log = init_state(model, x0), CommLedger(6), []
        with warnings.catch_warnings(record=True) as caught, pytest.raises(
                NotPositiveDefinite) as failed:
            warnings.simplefilter("always")
            for start, steps in windows:
                for _ in dkf_steps(state, graph, model, steps, params, t0=start, ledger=ledger,
                                   consensus_log=log):
                    pass
        return (state, ledger, log), str(failed.value), [(str(w.message), w.filename)
                                                          for w in caught]

    got = run([(t0, window)])
    want = run([(t0 + i, window[i:i + 1]) for i in range(len(window))])
    _assert_same_run(got[0], want[0])
    assert got[1:] == want[1:] and got[1] == error
    assert len(got[2]) > 100 if case == "flooring" else not got[2]
    assert {file for _, file in got[2]} <= {__file__}


def test_block_pass_computes_each_half_once(monkeypatch):
    # blocks of 3 steps: a passing block computes each step's half once,
    # untested; a failing one (the prior of t=5) reruns its steps tested
    graph, params, model, x0, window = _window_case("static_split", None)
    monkeypatch.setattr(filtering, "_BLOCK_VALUES", _steps_per_block(params, model, None, 3))
    calls = _spied_halves(monkeypatch)
    list(dkf_steps(init_state(model, x0), graph, model, window, params, t0=1))
    assert calls == [(t, False) for t in range(1, 8)]

    graph, model, params, x0, window, t0 = _failing_window("singular_prior")
    monkeypatch.setattr(filtering, "_BLOCK_VALUES", 3 * 6 * 4 * 6 * 4)
    calls.clear()
    with pytest.raises(NotPositiveDefinite, match="singular at t=5"):
        list(dkf_steps(init_state(model, x0), graph, model, window, params, t0=t0))
    assert calls == [(3, False), (4, False), (5, False), (3, True), (4, True), (5, True)]


def test_init_theta_scaled_info():
    _, _, _, model, _, state = _setup(n_nodes=6)
    assert np.allclose(state.theta, 6 * info_oracle(model))
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
    terms = [sensor_oracle(s.h, s.r) for s in sensors]
    k_inv = np.array(
        [info + spd_inverse(p) / n_nodes for (*_, info), p in zip(terms, p_prior)]
    )
    b = np.array([
        rinv_h.T @ y + spd_inverse(p) @ x / n_nodes
        for (_, _, rinv_h, _), y, x, p in zip(terms, meas, x_prior, p_prior)
    ])
    return k_inv, np.linalg.inv(k_inv), b


def _kb(k, b):
    """K_i b_i of every node, one matrix-vector product at a time."""
    return np.einsum("ijk,ik->ij", k, b)


@pytest.mark.parametrize("topology,n_nodes", [("ring", 3), ("path", 5)])
def test_correction_round_matches_dense_oracle(topology, n_nodes):
    graph, _, params, model, traj, state = _setup(n_nodes=n_nodes, topology=topology)
    meas = traj.measurements[0, 1]
    # distinct iterates and duals so the disagreement term is active
    draws = np.random.default_rng(0).normal(size=(n_nodes, 2, 4))
    xi0, lam0 = draws[:, 0], draws[:, 1]
    k_inv, k, b = _reference_gains(state.x_prior, state.p_prior, model.sensors, meas)

    # the kernel carries the dual as the accumulator K lambda_tilde
    xi, acc = _consensus_rounds(
        xi0, _kb(k, b), graph, params.alpha_lambda, params.mu, 1, acc=_kb(k, lam0)
    )
    xi_ref, lam_ref = _dense_round(
        xi0, lam0, dense_laplacian(graph), k, k_inv, b, params.alpha_lambda, params.mu
    )
    assert np.allclose(xi, xi_ref, atol=1e-12)
    assert np.allclose(_kb(k_inv, acc), lam_ref, atol=1e-12)


def test_correction_reaches_consensus():
    # many sub-iterations drive all nodes to a common value; with equal
    # priors the common value is the average of the local one-shot updates
    graph, _, params, model, traj, state = _setup(
        n_nodes=6, topology="ring", l_sub=4000
    )
    meas = traj.measurements[0, 1]
    list(dkf_steps(state, graph, model, meas[None], params, t0=1))
    k_inv_ref, k_ref, b_ref = _reference_gains(
        state.x_prior, state.p_prior, model.sensors, meas
    )
    local = _kb(k_ref, b_ref)
    xi = state.x_post
    spread = np.abs(xi - xi.mean(axis=0)).max()
    assert spread < 1e-10
    assert np.allclose(xi[0], np.mean(local, axis=0), atol=1e-8)


def test_correction_consensus_error_decays_geometrically():
    graph, spectrum, params, model, traj, state = _setup(n_nodes=8, topology="ring")
    state.x_post += np.random.default_rng(4).normal(size=(8, 4))
    log = []
    list(dkf_steps(state, graph, model, traj.measurements[0, 1:2],
                   dataclasses.replace(params, l_sub=100), t0=1, consensus_log=log))
    errs = log[0]  # round k's mean consensus error lands in errs[k - 1]
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
    omega = info_oracle(model)
    alpha = 0.25
    t0 = state.theta
    e = np.array([t0[0] - t0[1], t0[1] - t0[0]])
    theta, nu = _consensus_rounds(t0, 2 * omega, graph, alpha, alpha, 1, acc=state.nu_tilde)
    assert np.allclose(nu, alpha * e, atol=1e-14)
    assert np.allclose(theta, 2 * omega - 2 * alpha * e, atol=1e-14)


def test_covariance_step_matches_dense_oracle():
    graph = build_graph("random_geometric", 7, radius=0.6, seed=2)
    model = build_constant_velocity_model(dt=0.1, n_nodes=7)
    draws = sym(np.random.default_rng(8).normal(size=(7, 2, 4, 4)))
    theta0, nu0 = draws[:, 0], draws[:, 1]
    alpha = 0.05
    omega_scaled = 7 * info_oracle(model)
    theta, nu = _consensus_rounds(theta0, omega_scaled, graph, alpha, alpha, 1, acc=nu0)
    big_l = np.kron(dense_laplacian(graph), np.eye(16))
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
    target = information_rate_target(model)
    omega_scaled = 10 * info_oracle(model)
    theta, _ = _consensus_rounds(state.theta, omega_scaled, graph, params.alpha_nu,
                                 params.alpha_nu, 3000, acc=state.nu_tilde)
    for th in theta:
        assert np.linalg.norm(th - target) < 1e-12 * np.linalg.norm(target)


@settings(max_examples=30, deadline=None)
@given(
    n_nodes=st.one_of(st.integers(2, 12),
                      st.integers(STACKED_ROUND_NODES, STACKED_ROUND_NODES + 2),
                      st.integers(400, 420)),
    runs=st.sampled_from([None, 1, 3]),
    loop=st.sampled_from(["covariance", "state"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_theta_plus_nu_sum_is_conserved(n_nodes, runs, loop, seed):
    # both loops on one kernel: after the rounds sum_i (z_i + acc_i) equals
    # sum_i target_i, for (N, d) rows and node-major (N, R, d) ones, on the
    # operator, dense-product and neighbor-table paths; the covariance
    # loop's symmetric (N, n, n) stacks stay bitwise symmetric
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(n_nodes, rng, p_extra=min(0.3, 4.0 / n_nodes))
    params = auto_params(spectral_summary(graph))
    lead = (n_nodes,) if runs is None else (n_nodes, runs)
    if loop == "covariance":
        model = build_constant_velocity_model(dt=0.1, n_nodes=n_nodes)
        omega_scaled = n_nodes * info_oracle(model)
        target = omega_scaled if runs is None else np.repeat(omega_scaled[:, None], runs, 1)
        z, step, penalty = target.copy(), params.alpha_nu, params.alpha_nu
    else:
        target = rng.normal(size=lead + (4,))
        z, step, penalty = rng.normal(size=lead + (4,)), params.alpha_lambda, params.mu
    z, acc = _consensus_rounds(z, target, graph, step, penalty, 50, acc=np.zeros_like(z))
    if loop == "covariance":
        for a in (z, acc):
            assert a.shape == target.shape and np.array_equal(a, np.swapaxes(a, -1, -2))
    total = (z + acc).sum(axis=0)
    assert np.allclose(total, target.sum(axis=0), rtol=0.0, atol=1e-10 * np.abs(target).max())


def _accumulator_rounds(z, acc, target, laplacian, step, penalty, rounds):
    """Every iterate of `rounds` accumulator rounds d = (L kron I) z, acc +=
    step * d, z = target - acc - penalty * d, the lifted product written as
    the dense L times the (N, c) node rows; and the last accumulator."""
    n_nodes = len(laplacian)
    z, acc, target = (a.reshape(n_nodes, -1) for a in (z, acc, target))
    iterates = []
    for _ in range(rounds):
        d = laplacian @ z
        acc = acc + step * d
        z = target - acc - penalty * d
        iterates.append(z)
    return np.array(iterates), acc


@settings(max_examples=40, deadline=None)
@given(
    n_nodes=st.one_of(st.integers(2, 12),
                      st.integers(STACKED_ROUND_NODES - 3, STACKED_ROUND_NODES + 3),
                      st.integers(DENSE_PRODUCT_NODES - 2, DENSE_PRODUCT_NODES + 2)),
    runs=st.sampled_from([None, 1, 3]),
    loop=st.sampled_from(["covariance", "state"]),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_consensus_rounds_match_the_accumulator_rounds(n_nodes, runs, loop, data, seed):
    # the all-rounds operator and the round-by-round loop against the
    # accumulator round of every round: each iterate (written to the round
    # buffer) and the last accumulator, below and above STACKED_ROUND_NODES
    # and DENSE_PRODUCT_NODES, and on both sides of the operator's row cap;
    # the inputs are read-only, as the loop must not write to them
    cap = OPERATOR_ROWS // n_nodes
    rounds = data.draw(st.one_of(st.integers(1, 20), st.integers(cap - 1, cap + 1)), "rounds")
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(n_nodes, rng, p_extra=min(0.3, 4.0 / n_nodes))
    params = auto_params(spectral_summary(graph))
    step, penalty = ((params.alpha_nu, params.alpha_nu) if loop == "covariance"
                     else (params.alpha_lambda, params.mu))
    shape = (n_nodes,) + (() if runs is None else (runs,)) + (16 if loop == "covariance" else 4,)
    z, acc, target = rng.normal(size=(3,) + shape)
    for a in (z, acc, target):
        a.setflags(write=False)
    want, want_acc = _accumulator_rounds(z, acc, target, dense_laplacian(graph), step, penalty,
                                         rounds)
    tol, acc_tol = 1e-12 * np.abs(want).max(), 1e-12 * np.abs(want_acc).max()
    buf = np.empty((rounds, n_nodes, z[0].size))
    got, got_acc = _consensus_rounds(z, target, graph, step, penalty, rounds, acc=acc, buf=buf)
    assert got.shape == got_acc.shape == shape
    assert np.allclose(buf, want, rtol=0.0, atol=tol)
    assert np.array_equal(got.reshape(n_nodes, -1), buf[-1])
    assert np.allclose(got_acc.reshape(n_nodes, -1), want_acc, rtol=0.0, atol=acc_tol)
    # without a buffer (the operator's last block, or one reused slot), and
    # with a discarded accumulator
    unbuffered, unbuffered_acc = _consensus_rounds(z, target, graph, step, penalty, rounds, acc=acc)
    assert np.array_equal(unbuffered, got) and np.array_equal(unbuffered_acc, got_acc)
    alone, none = _consensus_rounds(z, target, graph, step, penalty, rounds)
    assert none is None
    zero_start, _ = _accumulator_rounds(z, 0 * z, target, dense_laplacian(graph), step, penalty,
                                        rounds)
    assert np.allclose(alone.reshape(n_nodes, -1), zero_start[-1], rtol=0.0,
                       atol=1e-12 * np.abs(zero_start).max())


def test_posterior_nominal():
    _, _, _, model, _, state = _setup()
    theta = np.tile(np.eye(4) * 2.0, (4, 1, 1))
    p_post, floored = _posterior_cov(sym(np.linalg.inv(state.p_prior)), theta, 1)
    assert not floored
    for p_prior, p in zip(state.p_prior, p_post):
        expected = spd_inverse(spd_inverse(p_prior) + 2.0 * np.eye(4))
        assert np.allclose(p, expected, atol=1e-12)


def test_posterior_floors_indefinite_theta():
    for n_nodes in (4, SWEEP_MIN_STACK):  # LAPACK, then sweep inverses
        _, _, _, model, _, state = _setup(n_nodes=n_nodes)
        p_prior = state.p_prior.copy()
        p_prior[0] = 100.0 * np.eye(4)  # weak prior so a bad theta matters
        theta = np.tile(np.eye(4), (n_nodes, 1, 1))
        # indefinite transient at node 0: one strongly negative eigenvalue
        theta[0] = np.diag([1.0, -5.0, 1.0, 1.0])
        with pytest.warns(RuntimeWarning, match=r"node 0, t=7") as record:
            p_post, floored = _posterior_cov(sym(np.linalg.inv(p_prior)), theta, t=7)
        assert len(record) == 1 and floored  # the other nodes are not floored
        floored = np.diag([1.0, 0.0, 1.0, 1.0])
        expected = spd_inverse(spd_inverse(p_prior[0]) + floored)
        assert np.allclose(p_post[0], expected, atol=1e-12)
        np.linalg.cholesky(p_post[0])
        assert np.allclose(p_post[1:], 0.5 * np.eye(4), atol=1e-12)


def test_flooring_that_overflows_raises_without_a_numpy_warning():
    # theta indefinite with an eigenvalue near 1e308: the floored sum
    # overflows when it is symmetrized; the library error names t, and the
    # only warning is the flooring's own (numpy's overflow warning, from
    # linalg.py, used to come first)
    theta = np.diag([1.5e308, -2.0, 0.0, 0.0])[None]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NotPositiveDefinite, match=r"not PD even after flooring, t=9;"):
            _posterior_cov(np.eye(4)[None], theta, 9)
    assert not [w for w in caught if w.filename.endswith("linalg.py")]
    assert [str(w.message) for w in caught] == [
        "posterior information of node 0, t=9 is indefinite; theta floored at zero eigenvalues"]


def test_singular_prior_names_the_step():
    # no process noise and a zero posterior make every prior F 0 F' = 0
    for n_nodes in (4, SWEEP_MIN_STACK):  # LAPACK, then sweep inverses
        graph = build_graph("ring", n_nodes)
        params = auto_params(spectral_summary(graph), l_sub=2)
        model = build_constant_velocity_model(dt=0.1, n_nodes=n_nodes, q_intensity=0.0)
        state = init_state(model, np.tile(model.x0_mean, (n_nodes, 1)))
        state.p_post = np.zeros((n_nodes, 4, 4))
        with pytest.raises(NotPositiveDefinite, match=r"singular at t=4$"):
            list(dkf_steps(state, graph, model, np.zeros((1, n_nodes, 1)), params, t0=4))


def test_overflowing_gain_names_the_step():
    # q_intensity = 1e308 on the default 10-node ring: the gain inverse K
    # overflows in the first step (a scenario run stops before it, in the
    # steady-state Riccati reference)
    graph, model, _, params = build_scenario(ScenarioConfig(q_intensity=1e308))
    state = init_state(model, np.tile(model.x0_mean, (model.n_nodes, 1)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        NotPositiveDefinite, match=r"a prior covariance became singular at t=1$"
    ):
        list(dkf_steps(state, graph, model, np.zeros((1, model.n_nodes, 1)), params, t0=1))


def test_divergent_covariance_step_names_the_step_once():
    # alpha_nu = 50 on the 6-node ring, far past its bound 1/6, which only a
    # library caller can run (every harness run is certified): theta
    # diverges, the posterior floors it with warnings, and at last the
    # posterior information is not positive definite
    graph, model, spectrum, params = build_scenario(
        ScenarioConfig(topology="ring", n_nodes=6, alpha_nu=50.0, l_sub=1))
    assert not params.check(spectrum)[0].is_schur
    window = simulate_runs(model, 251, [0]).measurements[0, 1:]
    state = init_state(model, np.tile(model.x0_mean, (6, 1)))
    with pytest.warns(RuntimeWarning, match="theta floored") as floored, pytest.raises(
            NotPositiveDefinite) as exc:
        for t in range(1, 251):
            list(dkf_steps(state, graph, model, window[t - 1:t], params, t0=t))
    # the step that failed is named once, not once per layer it passed
    assert str(exc.value).count("t=") == 1, exc.value
    # each flooring warning points at the line that advances the window: a
    # one-step window's list() above, a for loop and a list() of the whole window
    filenames = [{w.filename for w in floored}]
    for consume in (lambda steps: [t for t in steps], list):
        state = init_state(model, np.tile(model.x0_mean, (6, 1)))
        with pytest.warns(RuntimeWarning, match="theta floored") as windowed, pytest.raises(
                NotPositiveDefinite, match=re.escape(str(exc.value))):
            consume(dkf_steps(state, graph, model, window, params, t0=1))
        filenames.append({w.filename for w in windowed})
    assert filenames == [{__file__}] * 3


def test_time_step_rejects_misshaped_measurements():
    # one y_i per step and node (and run), of the model's m = 1: a (2, 3, 1)
    # window must not pass as six nodes' measurements of a one-run, six-node
    # state; nor may a window wrong in m, in its rank or in its run count
    graph, _, params, model, _, _ = _setup(n_nodes=6)
    for lead, meas_shape in (
        ((), (2, 3, 1)),
        ((), (1, 6, 2)),
        ((), (1, 1, 6, 1)),
        ((3,), (1, 6, 1)),
        ((3,), (2, 1, 6, 1)),
    ):
        state = init_state(model, np.broadcast_to(model.x0_mean, lead + (6, 4)))
        with pytest.raises(DimensionError, match=r"measurements has shape"):
            list(dkf_steps(state, graph, model, np.zeros(meas_shape), params, t0=1))


def test_ledger_counts_and_wire_schema():
    ledger = CommLedger(3)
    degrees = np.array([2, 1, 1])
    ledger.record("xi", degrees, 4)
    ledger.record("xi", degrees, 4)
    ledger.record("theta", degrees, 10)
    assert np.array_equal(ledger.state_messages, 2 * degrees)
    assert np.array_equal(ledger.state_scalars, 8 * degrees)
    assert np.array_equal(ledger.cov_scalars, 10 * degrees)
    assert np.array_equal(ledger.messages_sent, 3 * degrees)
    assert np.array_equal(ledger.cov_messages, degrees)  # theta is covariance traffic
    with pytest.raises(WireSchemaViolation):
        ledger.record("lambda_tilde", degrees, 4)
    with pytest.raises(WireSchemaViolation):
        ledger.record("nu_tilde", degrees, 10)


def test_time_step_traffic_formula():
    # each loop is recorded once per step: its rounds times runs times degree;
    # the covariance loop runs once on static sensors, l_sub times on redrawn,
    # and a theta message carries the n(n+1)/2 entries of a symmetric matrix
    # that stays bitwise symmetric
    graph, _, params, static, traj, _ = _setup(n_nodes=5, topology="path", l_sub=7)
    redrawn = build_constant_velocity_model(dt=0.1, n_nodes=5, sensor_assignment="per_step_random")
    n, n_cov = 4, 10
    for lead in ((), (3,)):  # an (N, n) state, then R = 3 runs
        runs = lead[0] if lead else 1
        for model, cov_rounds in ((static, 1), (redrawn, 7)):
            state = init_state(model, np.broadcast_to(model.x0_mean, lead + (5, 4)))
            ledger = CommLedger(5)
            meas = np.broadcast_to(traj.measurements[0, 1:2], lead + (1, 5, 1))
            list(dkf_steps(state, graph, model, meas, params, t0=1, ledger=ledger))
            assert np.array_equal(ledger.state_messages, runs * 7 * graph.degree)
            assert np.array_equal(ledger.state_scalars, runs * 7 * graph.degree * n)
            assert np.array_equal(ledger.cov_messages, runs * cov_rounds * graph.degree)
            assert np.array_equal(
                ledger.cov_scalars, runs * cov_rounds * graph.degree * n_cov
            )
            for z in (state.theta, state.nu_tilde):
                assert np.array_equal(z, z.transpose(0, 2, 1))


@pytest.mark.parametrize("runs, n_nodes, radius", [
    pytest.param(None, 6, 0.6, id="None"),
    pytest.param(3, 6, 0.6, id="3"),
    pytest.param(5, 61, 0.3, id="61_nodes-5"),
])
def test_consensus_log_matches_per_round_formula(runs, n_nodes, radius):
    # the reference accumulator rounds, with the mean consensus error of each
    # round computed from its iterate; the step computes the log from its
    # buffer. Both graphs are below STACKED_ROUND_NODES, so the loop runs on
    # the all-rounds operator; at 61 nodes and 20 columns a GEMM of the whole
    # stack rounds its last block differently from a GEMM of that block alone
    assert n_nodes < STACKED_ROUND_NODES
    graph, _, params, model, traj, _ = _setup(
        n_nodes=n_nodes, topology="random_geometric", l_sub=9, radius=radius, seed=2
    )
    rng = np.random.default_rng(4)
    lead = () if runs is None else (runs,)
    state = init_state(model, model.x0_mean + rng.normal(size=lead + (n_nodes, 4)))
    meas = traj.measurements[0, 1] + rng.normal(size=lead + traj.measurements[0, 1].shape)

    # node-major (N, R, .) rows, R = 1 for an (N, n) state
    x_prior = state.x_post.reshape(-1, n_nodes, 4).swapaxes(0, 1) @ model.f.T
    y = meas.reshape(-1, n_nodes, 1).swapaxes(0, 1)
    half = _half(state, graph, model, params)
    p_inv, k = half.p_prior_inv, half.k
    rinv_h = sensor_specs_at(model, 1).rinv_h
    b = np.einsum("imn,irm->irn", rinv_h, y) + np.einsum("inm,irm->irn", p_inv, x_prior) / n_nodes
    kb = np.einsum("inm,irm->irn", k, b)
    iterates, _ = _accumulator_rounds(x_prior, np.zeros_like(x_prior), kb, dense_laplacian(graph),
                                      params.alpha_lambda, params.mu, params.l_sub)
    xis = iterates.reshape((params.l_sub,) + x_prior.shape)  # (L, N, R, n)
    spread = np.linalg.norm(xis - xis.mean(axis=1, keepdims=True), axis=-1).mean(axis=1)
    want = spread.T.reshape(lead + (-1,))

    logged = init_state(model, state.x_post)
    log = []
    list(dkf_steps(logged, graph, model, meas[..., None, :, :], params, t0=1, consensus_log=log))
    assert len(log) == 1 and log[0].shape == lead + (params.l_sub,)
    assert np.allclose(log[0], want, rtol=1e-12, atol=1e-12)
    # the log observes the step and does not change it
    list(dkf_steps(state, graph, model, meas[..., None, :, :], params, t0=1))
    for name in ("x_post", "p_post", "theta"):
        assert np.array_equal(getattr(logged, name), getattr(state, name))


@pytest.mark.parametrize("runs", [None, 3])
def test_consensus_log_on_the_edge_gather_path(runs):
    # N >= DENSE_PRODUCT_NODES: the rounds take the neighbor table. A step
    # with l_sub = k ends at the k-th round's xi, so steps with l_sub = 1..3
    # give each logged round's spread from x_post alone
    graph, _, params, model, traj, _ = _setup(
        n_nodes=500, topology="random_geometric", l_sub=3, radius=0.12, seed=3
    )
    assert graph._dense is None
    rng = np.random.default_rng(5)
    lead = () if runs is None else (runs,)
    x0 = model.x0_mean + rng.normal(size=lead + (500, 4))
    meas = traj.measurements[0, 1:2] + rng.normal(size=lead + traj.measurements[0, 1:2].shape)
    log = []
    list(dkf_steps(init_state(model, x0), graph, model, meas, params, t0=1, consensus_log=log))
    assert len(log) == 1 and log[0].shape == lead + (3,)
    for k in range(1, 4):
        state = init_state(model, x0)
        list(dkf_steps(state, graph, model, meas, dataclasses.replace(params, l_sub=k), t0=1))
        xi = state.x_post
        want = np.linalg.norm(xi - xi.mean(axis=-2, keepdims=True), axis=-1).mean(axis=-1)
        assert np.allclose(log[0][..., k - 1], want, rtol=1e-12, atol=1e-12)


def test_consensus_log_extra_peak_memory():
    # a logged step needs its (L, N, R, n) round buffer and little more: the
    # reduction runs in place, so its extra peak over an unlogged step stays
    # within 1.3 buffers (N = 1,000, R = 3, L = 20)
    graph, _, params, model, traj, _ = _setup(n_nodes=1000, topology="ring", l_sub=20)
    meas = np.broadcast_to(traj.measurements[0, 1:2], (3, 1, 1000, 1))
    buffer_bytes = params.l_sub * 1000 * 3 * 4 * 8

    def step_peak(log):
        state = init_state(model, np.broadcast_to(model.x0_mean, (3, 1000, 4)))
        tracemalloc.start()
        try:
            list(dkf_steps(state, graph, model, meas, params, t0=1, consensus_log=log))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    step_peak(None)  # warm the lazily built index caches
    extra = step_peak([]) - step_peak(None)
    assert extra <= 1.3 * buffer_bytes, extra / buffer_bytes


def test_unlogged_step_peak_memory_does_not_grow_with_rounds():
    # an unlogged step keeps its iterate in one reused slot above
    # STACKED_ROUND_NODES (N = 1,000 ring) and past the operator's row cap
    # (6-node ring, L = 4,000), so its peak, operator build included, does
    # not grow with L (R = 3)
    for n_nodes, short_l, long_l in ((1000, 2, 20), (6, 20, 4000)):
        graph, _, params, model, traj, _ = _setup(n_nodes=n_nodes, topology="ring")
        meas = np.broadcast_to(traj.measurements[0, 1:2], (3, 1, n_nodes, 1))

        def step_peak(l_sub):
            state = init_state(model, np.broadcast_to(model.x0_mean, (3, n_nodes, 4)))
            step_params = dataclasses.replace(params, l_sub=l_sub)
            _round_operator.cache_clear()
            tracemalloc.start()
            try:
                list(dkf_steps(state, graph, model, meas, step_params, t0=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        step_peak(short_l)  # warm the lazily built index caches
        short, long = step_peak(short_l), step_peak(long_l)
        assert long <= 1.1 * short, (n_nodes, long, short)


def test_run_scenario_builds_each_loop_operator_once():
    # both loops of a small graph with redrawn sensors run on the operator:
    # one build (a cache miss) per loop and scenario, a hit on every later
    # step, and the cache stays within its bound over many scenarios
    config = ScenarioConfig(topology="ring", n_nodes=6, sensor_assignment="per_step_random",
                            horizon_steps=10, n_mc_runs=2, l_sub=5)
    before = _round_operator.cache_info()
    run_scenario(config)
    after = _round_operator.cache_info()
    assert after.misses - before.misses == 2
    assert after.hits - before.hits == 2 * (config.horizon_steps - 1)
    for seed in range(20):
        run_scenario(dataclasses.replace(config, master_seed=seed))
    info = _round_operator.cache_info()
    assert info.misses - after.misses == 40
    assert info.currsize <= info.maxsize


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
    meas = traj.measurements[0, 1]

    list(dkf_steps(state, graph, model, meas[None], params, t0=1))

    x_prior = np.array([model.f @ x for x in x_post0])
    p_prior = np.array([model.f @ p @ model.f.T + model.q for p in p_post0])
    k_inv, k, b = _reference_gains(x_prior, p_prior, model.sensors, meas)
    xi, lam = x_prior, np.zeros_like(x_prior)
    for _ in range(params.l_sub):
        xi, lam = _dense_round(
            xi, lam, dense_laplacian(graph), k, k_inv, b, params.alpha_lambda, params.mu
        )
    big_l = np.kron(dense_laplacian(graph), np.eye(16))
    e = (big_l @ theta0.ravel()).reshape(theta0.shape)
    nu_ref = nu0 + params.alpha_nu * e
    theta_ref = 5 * info_oracle(model) - nu_ref - params.alpha_nu * e
    p_post_ref = np.array(
        [spd_inverse(spd_inverse(p) + th) for p, th in zip(p_prior, theta_ref)]
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
        sensors=(SensorSpec(h_pos, r_pos), SensorSpec(h_pos, r_pos)),
        x0_mean=base.x0_mean, p0=base.p0,
    )
    graph2 = build_graph("complete", 2)
    params2 = auto_params(spectral_summary(graph2), l_sub=8)
    state2 = init_state(model2, np.tile(model2.x0_mean, (2, 1)))
    # both nodes measure node 0's y at every step
    window = np.repeat(simulate_runs(model2, 8, [10]).measurements[0, 1:, :1], 2, axis=1)
    for _ in dkf_steps(state2, graph2, model2, window, params2, t0=1):
        assert np.allclose(state2.x_post[0], state2.x_post[1], atol=1e-12)
        assert np.allclose(state2.p_post[0], state2.p_post[1], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    n_nodes=st.integers(2, 7),
    runs=st.integers(1, 4),
    l_sub=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_step_equals_per_run_steps(n_nodes, runs, l_sub, seed):
    # theta and nu_tilde, shared by all runs, stay bitwise symmetric after every step
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(n_nodes, rng)
    params = auto_params(spectral_summary(graph), l_sub=l_sub)
    model = build_constant_velocity_model(dt=0.1, n_nodes=n_nodes, r_var=0.5)
    x0 = model.x0_mean + rng.normal(size=(runs, n_nodes, 4))
    g = rng.normal(size=(n_nodes, 4, 4))
    p0 = g @ g.transpose(0, 2, 1) + np.eye(4)
    meas = rng.normal(size=(2, runs, n_nodes, 1))

    batch = init_state(model, x0)
    singles = [init_state(model, x0[r]) for r in range(runs)]
    for state in (batch, *singles):
        state.p_post = p0
    batch_ledger, single_ledger = CommLedger(n_nodes), CommLedger(n_nodes)
    batch_log, single_logs = [], [[] for _ in range(runs)]
    for _ in dkf_steps(batch, graph, model, meas.swapaxes(0, 1), params, t0=1,
                       ledger=batch_ledger, consensus_log=batch_log):
        for z in (batch.theta, batch.nu_tilde):
            assert z.shape == (n_nodes, 4, 4) and np.array_equal(z, z.transpose(0, 2, 1))
    for r, single in enumerate(singles):
        list(dkf_steps(single, graph, model, meas[:, r], params, t0=1,
                       ledger=single_ledger if r == 0 else None, consensus_log=single_logs[r]))

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
    assert np.array_equal(batch_ledger.cov_scalars, batch_ledger.cov_messages * 4 * 5 // 2)


def test_mixed_measurement_dimensions_rejected():
    # node 0 measures x1 only (m = 1), node 1 both positions (m = 2): the
    # model refuses to build, so no step can meet mixed dimensions
    model = build_constant_velocity_model(dt=0.1, n_nodes=2)
    h2 = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    with pytest.raises(DimensionError, match="one measurement dimension"):
        StateSpaceModel(
            f=model.f, q=model.q, x0_mean=model.x0_mean, p0=model.p0,
            sensors=(SensorSpec(h2[:1], [[0.5]]), SensorSpec(h2, 0.5 * np.eye(2))),
        )


def _window_case(sensors, runs, n_steps=7):
    """A 5-node ring with L = 3, its params, model, x0 and an (R, T, N, 1)
    or (T, N, 1) window of measurements (R = runs, or no run axis)."""
    graph = build_graph("ring", 5)
    params = auto_params(spectral_summary(graph), l_sub=3)
    model = build_constant_velocity_model(dt=0.1, n_nodes=5, sensor_assignment=sensors)
    traj = simulate_runs(model, n_steps + 1, range(runs or 1))
    x0 = model.x0_mean + np.random.default_rng(5).normal(size=(runs or 1, 5, 4))
    lead = slice(None) if runs else 0
    return graph, params, model, x0[lead], traj.measurements[lead, 1:]


def _stepped(graph, params, model, x0, window, n_steps):
    """State, ledger and log after `n_steps` one-step windows from t = 1."""
    state, ledger, log = init_state(model, x0), CommLedger(model.n_nodes), []
    for i in range(n_steps):
        list(dkf_steps(state, graph, model, window[..., i:i + 1, :, :], params, t0=i + 1,
                       ledger=ledger, consensus_log=log))
    return state, ledger, log


def _assert_same_run(got, want):
    (state, ledger, log), (ref_state, ref_ledger, ref_log) = got, want
    for f in dataclasses.fields(state):
        assert np.array_equal(getattr(state, f.name), getattr(ref_state, f.name)), f.name
    for name in ("state_messages", "state_scalars", "cov_messages", "cov_scalars"):
        assert np.array_equal(getattr(ledger, name), getattr(ref_ledger, name)), name
    assert len(log) == len(ref_log)
    assert all(np.array_equal(row, ref_row) for row, ref_row in zip(log, ref_log))


def _steps_per_block(params, model, runs, steps):
    """A block cap of `steps` whole steps of this window (5 nodes, n = 4): its
    round buffer or its six (N, n, n) covariance arrays, whichever is larger."""
    return steps * model.n_nodes * 4 * max(params.l_sub * (runs or 1), 6 * 4)


@pytest.mark.parametrize("block_steps", [None, 3, 1])
@pytest.mark.parametrize("runs", [None, 3])
@pytest.mark.parametrize("sensors", ["static_split", "per_step_random"])
def test_window_equals_one_step_calls(monkeypatch, sensors, runs, block_steps):
    # 7 steps in one block, in blocks of 3, 3 and 1, and one step per block
    # (a cap below one step's values): bitwise the 7 one-step calls
    graph, params, model, x0, window = _window_case(sensors, runs)
    want = _stepped(graph, params, model, x0, window, 7)
    if block_steps is not None:
        monkeypatch.setattr(filtering, "_BLOCK_VALUES",
                            _steps_per_block(params, model, runs, block_steps) - (block_steps == 1))
    state, ledger, log = init_state(model, x0), CommLedger(5), []
    steps = dkf_steps(state, graph, model, window, params, t0=1, ledger=ledger,
                      consensus_log=log)
    assert list(steps) == list(range(1, 8))
    assert log[0].shape == ((runs, 3) if runs else (3,))
    _assert_same_run((state, ledger, log), want)


def test_redrawn_window_outlasting_the_row_memo_equals_one_step_calls(monkeypatch):
    # a row memo of one step (5 nodes) and blocks of 3 steps: each block
    # holds the rows it drew, so the window is bitwise the 7 one-step calls
    # and draws each step's rows once, though the memo keeps only the last
    graph, params, model, x0, window = _window_case("per_step_random", 3)
    want = _stepped(graph, params, model, x0, window, 7)
    monkeypatch.setattr(models, "_MEMO_ROWS", 5)
    monkeypatch.setattr(filtering, "_BLOCK_VALUES", _steps_per_block(params, model, 3, 3))
    draws = count_row_draws(monkeypatch)
    fresh = build_constant_velocity_model(dt=0.1, n_nodes=5, sensor_assignment="per_step_random")
    state, ledger, log = init_state(fresh, x0), CommLedger(5), []
    assert list(dkf_steps(state, graph, fresh, window, params, t0=1, ledger=ledger,
                          consensus_log=log)) == list(range(1, 8))
    assert draws == list(range(8)) and list(fresh._drawn_rows) == [7]  # step 0: init_state
    _assert_same_run((state, ledger, log), want)


@pytest.mark.parametrize("runs", [None, 3])
def test_window_failure_at_step_k_keeps_the_steps_before_it(monkeypatch, runs):
    # a NaN measurement at t = 5 raises the one-step error naming t = 5, with
    # the state, ledger and log at exactly steps 1..4 (one full block of 3
    # steps and one step of the next)
    graph, params, model, x0, window = _window_case("static_split", runs)
    window = window.copy()
    window[..., 4, 2, :] = np.nan
    monkeypatch.setattr(filtering, "_BLOCK_VALUES", _steps_per_block(params, model, runs, 3))
    state, ledger, log = init_state(model, x0), CommLedger(5), []
    with pytest.raises(ConfigRejected) as failed:
        for _ in dkf_steps(state, graph, model, window, params, t0=1, ledger=ledger,
                           consensus_log=log):
            pass
    assert str(failed.value) == "measurements hold a non-finite value at t=5"
    want = _stepped(graph, params, model, x0, window, 4)
    _assert_same_run((state, ledger, log), want)
    with pytest.raises(ConfigRejected) as one_step:
        list(dkf_steps(want[0], graph, model, window[..., 4:5, :, :], params, t0=5))
    assert str(one_step.value) == str(failed.value)


def test_window_break_books_the_completed_steps(monkeypatch):
    # a break after t = 4 of 7 (blocks of 3): the ledger and log catch up on
    # close(), or when a for loop drops the only reference to the window
    graph, params, model, x0, window = _window_case("static_split", 2)
    monkeypatch.setattr(filtering, "_BLOCK_VALUES", _steps_per_block(params, model, 2, 3))
    want = _stepped(graph, params, model, x0, window, 4)
    state, ledger, log = init_state(model, x0), CommLedger(5), []
    steps = dkf_steps(state, graph, model, window, params, t0=1, ledger=ledger,
                      consensus_log=log)
    for t in steps:
        if t == 4:
            break
    assert len(log) == 3  # the first block; step 4 waits in the second
    steps.close()
    _assert_same_run((state, ledger, log), want)

    state, ledger, log = init_state(model, x0), CommLedger(5), []
    for t in dkf_steps(state, graph, model, window, params, t0=1, ledger=ledger,
                       consensus_log=log):
        if t == 4:
            break
    _assert_same_run((state, ledger, log), want)


def test_window_checks_its_shape_once():
    graph, params, model, x0, window = _window_case("static_split", 3)
    state = init_state(model, x0)
    with pytest.raises(DimensionError, match=re.escape(
            "measurements has shape (7, 5, 1), not (3, T, 5, 1)")):
        next(dkf_steps(state, graph, model, window[0], params, t0=1))
    with pytest.raises(ConfigRejected, match="measurements must hold real numbers"):
        next(dkf_steps(state, graph, model, window.astype(complex), params, t0=1))
    assert list(dkf_steps(state, graph, model, window[:, :0], params, t0=1)) == []


# The static 6-ring's covariance recursion contracts by about 0.89 per step
# (the ratio of its successive changes), so a half reused once its relative
# change is below the settle tolerance 1e-12 stays within 1e-12 rho / (1 - rho)
# of the unreused recursion; rho = 0.9 leaves room for the recursion's round-off.
_REUSE_BOUND = 1e-12 * 0.9 / (1 - 0.9)


def _ring_window(sensors, n_steps, runs=2, n_nodes=6):
    """The ring of `ring6-mc` (L = 10) on `n_nodes` nodes, its model and
    params, x0 and an (R, T, N, 1) window of measurements."""
    graph, model, _, params = build_scenario(ScenarioConfig(
        topology="ring", n_nodes=n_nodes, l_sub=10, sensor_assignment=sensors))
    x0 = model.x0_mean + np.random.default_rng(5).normal(size=(runs, n_nodes, 4))
    return graph, model, params, x0, simulate_runs(model, n_steps + 1, range(runs)).measurements[:, 1:]


def _direct_halves(graph, model, params, x0, n_steps):
    """Every step's CovarianceHalf from a tested `_covariance_half` of the
    step before's, recomputed at every step."""
    half, halves = init_state(model, x0), []
    cov_rounds = 1 if model.coordinate_table is None else params.l_sub
    for t in range(1, n_steps + 1):
        half = _covariance_half(half, graph, model, sensor_specs_at(model, t).info,
                                params.alpha_nu, cov_rounds, t)
        halves.append(half)
    return halves


def _same_halves(got, want):
    """Whether two lists of CovarianceHalf are bitwise equal, field by field."""
    return len(got) == len(want) and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for a, b in zip(got, want) for name in CovarianceHalf._fields)


def _spied_window(monkeypatch, state, graph, model, window, params, t0=1):
    """Run a window; returns the halves it computed, as `_direct_halves`
    does, and each step's state (p_prior, theta, p_post). Each half comes
    from a block's pass, untested."""
    computed, seen, inner = [], [], filtering._covariance_half

    def spy(*args, **kwargs):
        assert _arguments(inner, args, kwargs)["tested"] is False
        half = inner(*args, **kwargs)
        computed.append(half)
        return half

    monkeypatch.setattr(filtering, "_covariance_half", spy)
    for _ in dkf_steps(state, graph, model, window, params, t0=t0):
        seen.append((state.p_prior, state.theta, state.p_post))
    monkeypatch.setattr(filtering, "_covariance_half", inner)
    return computed, seen


def _assert_within_reuse_bound(seen, want):
    """Each (p_prior, theta, p_post) within _REUSE_BOUND of want's, relative
    to want's largest entry."""
    for got, ref in zip(seen, want):
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= _REUSE_BOUND * np.abs(b).max()


def test_settle_rule_is_the_relative_max_formula():
    # _still decides as np.abs(a - b).max() < 1e-12 * np.abs(a).max(): on
    # random, equal, near, zero, NaN and inf pairs, with the first entry
    # alike or not
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 4, 4))
    near, first_off, rest_off = a * (1 + 1e-13), a.copy(), a.copy()
    first_off.flat[0] += 1.0
    rest_off.flat[-1] += 1e-3
    pairs = [(a, a), (a, near), (near, a), (a, first_off), (a, rest_off), (rest_off, a),
             (a, rng.normal(size=a.shape)), (np.zeros_like(a), np.zeros_like(a)), (-a, -near),
             (-np.abs(a) - 1, (-np.abs(a) - 1) * (1 + 1e-13))]  # its largest |entry| negative
    for bad in (np.nan, np.inf, -np.inf):
        for k in (0, -1):
            spoiled = a.copy()
            spoiled.flat[k] = bad
            pairs += [(spoiled, a), (a, spoiled), (spoiled, spoiled)]
    with np.errstate(over="ignore", invalid="ignore"):
        got = [bool(filtering._still(x, y)) for x, y in pairs]
        want = [bool(np.abs(x - y).max() < 1e-12 * np.abs(x).max()) for x, y in pairs]
    assert got == want and True in got and False in got


def test_settled_half_is_reused_within_its_bound(monkeypatch):
    graph, model, params, x0, window = _ring_window("static_split", 400)
    want = _direct_halves(graph, model, params, x0, 400)
    computed, seen = _spied_window(monkeypatch, init_state(model, x0), graph, model, window, params)
    settle = len(computed)  # the last step that computed its half
    assert 150 < settle < 300
    assert _same_halves(computed, want[:settle])  # bitwise up to the settle step
    assert all(s[0] is c.p_prior and s[1] is c.theta and s[2] is c.p_post
               for s, c in zip(seen, computed))
    _assert_within_reuse_bound(seen[settle:], [(h.p_prior, h.theta, h.p_post) for h in want[settle:]])
    assert seen[-1][0] is seen[-2][0] is computed[-1].p_prior  # reused, not recomputed


def test_redrawn_or_floored_halves_never_settle(monkeypatch):
    graph, model, params, x0, window = _ring_window("per_step_random", 300)
    want = _direct_halves(graph, model, params, x0, 300)
    computed, _ = _spied_window(monkeypatch, init_state(model, x0), graph, model, window, params)
    assert len(computed) == 300 and _same_halves(computed, want)
    # 64 nodes, where every inverse is the sweep, in blocks of 10 steps: the
    # untested pass equals the tested recursion on static and redrawn sensors
    for sensors in ("static_split", "per_step_random"):
        graph64, model64, params64, x0_64, window64 = _ring_window(sensors, 30, n_nodes=SWEEP_MIN_STACK)
        computed, _ = _spied_window(monkeypatch, init_state(model64, x0_64), graph64, model64,
                                    window64, params64)
        assert _same_halves(computed, _direct_halves(graph64, model64, params64, x0_64, 30))
    # one redraw candidate: the sensors never change, yet no half is reused
    spec = SensorSpec(np.eye(2, 4), 0.5 * np.eye(2))
    model = StateSpaceModel(f=model.f, q=model.q, x0_mean=model.x0_mean, p0=model.p0,
                            sensors=(spec,) * 6, redraw_from=(spec,))
    window = simulate_runs(model, 301, range(2)).measurements[:, 1:]
    computed, _ = _spied_window(monkeypatch, init_state(model, x0), graph, model, window, params)
    assert len(computed) == 300

    # a static window whose every posterior floors (and warns): no step
    # settles. Every block's test fails, so each step computes a tested half
    graph, model, params, x0, window = _ring_window("static_split", 300)
    calls, inner = [], filtering._posterior_cov

    def fails(a):
        raise NotPositiveDefinite("matrix must be positive definite")
    monkeypatch.setattr(filtering, "spd_cholesky", fails)

    def floors(p_prior_inv, theta, t):
        calls.append(t)
        warnings.warn(f"theta floored at t={t}", RuntimeWarning)
        return inner(p_prior_inv, theta, t)[0], True

    monkeypatch.setattr(filtering, "_posterior_cov", floors)
    with pytest.warns(RuntimeWarning, match="theta floored") as record:
        list(dkf_steps(init_state(model, x0), graph, model, window, params, t0=1))
    assert calls == list(range(1, 301)) and len(record) == 300


def test_ledger_and_conservation_hold_across_the_settle_step(monkeypatch):
    graph, model, params, x0, window = _ring_window("static_split", 300)
    runs, n, ledger = len(x0), model.n, CommLedger(6)
    target = 6 * info_oracle(model).sum(axis=0)
    state, drift = init_state(model, x0), 0.0
    for t in dkf_steps(state, graph, model, window, params, t0=1, ledger=ledger):
        drift = max(drift, np.abs((state.theta + state.nu_tilde).sum(axis=0) - target).max())
    assert drift < 1e-10
    per_run = t * (params.l_sub * graph.degree * n + graph.degree * n * (n + 1) // 2)
    assert t == 300 and np.array_equal(ledger.scalars_sent, runs * per_run)

    # split at t = 250, after the settle step: the second window recomputes
    # t = 251 and settles again there
    whole, seen = _spied_window(monkeypatch, init_state(model, x0), graph, model, window, params)
    state, settle = init_state(model, x0), len(whole)
    first, split = _spied_window(monkeypatch, state, graph, model, window[:, :250], params)
    second, rest = _spied_window(monkeypatch, state, graph, model, window[:, 250:], params, t0=251)
    assert len(first) == settle < 250 and len(second) == 1
    for got, ref in zip(split[:settle], seen[:settle]):
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    _assert_within_reuse_bound(split[settle:] + rest, seen[settle:])
