import inspect
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import covariance_mode_matrix, state_mode_matrix

from dkf_admm import filtering, linalg
from dkf_admm.exceptions import (
    NotPositiveDefinite,
    ObservabilityError,
    RiccatiDivergence,
)
from dkf_admm.graphs import build_graph, spectral_summary
from dkf_admm.linalg import (
    SWEEP_MIN_STACK,
    covariance_stability,
    dare_solve,
    spd_cholesky,
    spd_inverse,
    spd_solve,
    state_stability,
    step_bounds,
    sym,
    sym_inverse,
)
from dkf_admm.models import build_constant_velocity_model


def test_spd_solve_examples():
    assert np.allclose(spd_solve(2 * np.eye(3), [2.0, 4.0, 6.0]), [1, 2, 3])
    b = np.array([3.0, -1.0])
    assert np.allclose(spd_solve(np.eye(2), b), b)


def test_spd_solve_stack_matches_per_matrix():
    rng = np.random.default_rng(2)
    g = rng.normal(size=(3, 4, 4))
    a = g @ g.transpose(0, 2, 1) + np.eye(4)
    b = rng.normal(size=(3, 4, 2))
    x = spd_solve(a, b)
    for k in range(3):
        assert np.array_equal(x[k], spd_solve(a[k], b[k]))
        assert np.allclose(a[k] @ x[k], b[k], atol=1e-10)


def test_spd_solve_vs_dense_inverse():
    rng = np.random.default_rng(1)
    g = rng.normal(size=(5, 5))
    a = g @ g.T + np.eye(5)
    b = rng.normal(size=5)
    x = spd_solve(a, b)
    assert np.allclose(x, np.linalg.inv(a) @ b, atol=1e-9)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_spd_solve_conditioned_sweep():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        # condition number up to 1e6
        w = 10.0 ** rng.uniform(-3, 3, size=n)
        a = sym(q @ np.diag(w) @ q.T)
        b = rng.normal(size=n)
        rel = np.linalg.norm(spd_solve(a, b) - np.linalg.inv(a) @ b)
        assert rel <= 1e-9 * max(1.0, np.linalg.norm(b) / w.min())


def test_spd_solve_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        spd_solve(np.diag([1.0, -1.0]), np.ones(2))


def test_spd_solve_rejects_non_finite():
    # numpy's Cholesky returns NaN for a NaN input instead of raising
    for bad in (np.nan, np.inf):
        with pytest.raises(NotPositiveDefinite, match="matrix must be positive definite"):
            spd_solve(np.diag([1.0, bad]), np.ones(2))


def test_one_definiteness_test_in_the_library():
    # every definiteness check goes through spd_cholesky, so the finiteness
    # rule cannot be left out of a copy
    src = Path(inspect.getfile(spd_cholesky)).parent
    calls = {p.name: p.read_text().count("np.linalg.cholesky(") for p in src.glob("*.py")}
    assert sum(calls.values()) == 1, calls
    assert "np.linalg.cholesky(" in inspect.getsource(spd_cholesky)


def test_one_unchecked_inverse_in_the_library():
    # every inverse goes through sym_inverse, whose finiteness rule a fused
    # stack of inverses cannot leave out
    src = Path(inspect.getfile(sym_inverse)).parent
    calls = {p.name: p.read_text().count("np.linalg.inv(") for p in src.glob("*.py")}
    assert sum(calls.values()) == 1, calls
    assert "np.linalg.inv(" in inspect.getsource(sym_inverse)


def test_one_covariance_recursion_in_the_library():
    # every covariance half comes from the one walk, so the reuse of a still
    # half and the tested rerun of a failed block pass have one home
    src = Path(inspect.getfile(filtering)).parent
    call = re.compile(r"(?<!def )_covariance_half\(")
    calls = {p.name: len(call.findall(p.read_text())) for p in src.glob("*.py")}
    assert sum(calls.values()) == 1, calls
    assert "_covariance_half(" in inspect.getsource(filtering._walk)


def test_dare_scalar_golden_ratio():
    p = dare_solve(np.eye(1), np.eye(1), np.eye(1), np.eye(1))
    assert p[0, 0] == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-12)


def test_dare_f_zero_gives_q():
    q = np.diag([2.0, 3.0])
    p = dare_solve(np.zeros((2, 2)), np.eye(2), q, np.eye(2))
    assert np.allclose(p, q, atol=1e-12)


def test_dare_rejects_non_finite_noise_fast():
    # a NaN Q used to run all 100,000 iterations before RiccatiDivergence
    f, h = np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 0.0]])
    for q, r, name in ((np.diag([np.nan, 1.0]), np.eye(1), "Q"), (np.eye(2), [[np.nan]], "R")):
        start = time.perf_counter()
        with pytest.raises(NotPositiveDefinite, match=f"{name} must be positive definite"):
            dare_solve(f, h, q, r)
        assert time.perf_counter() - start < 0.1


def test_dare_unobservable_rejected():
    f = np.diag([1.0, 1.0])
    h = np.array([[1.0, 0.0]])  # second state invisible and marginally stable
    with pytest.raises(ObservabilityError):
        dare_solve(f, h, np.eye(2), np.eye(1))


def _plain_step(p, f, h, q, r):
    s = h @ p @ h.T + r
    return sym(f @ p @ f.T - f @ p @ h.T @ np.linalg.solve(s, h @ p @ f.T) + q)


def _residual(p, f, h, q, r):
    # Frobenius norm of P minus one Riccati step from P
    return float(np.linalg.norm(p - _plain_step(p, f, h, q, r)))


def _riccati_oracle(f, h, q, r, n_iter=10_000):
    # long plain recursion, independent of the solver's stopping logic
    p = q.copy()
    for _ in range(n_iter):
        p = _plain_step(p, f, h, q, r)
    return p


def test_dare_stops_by_the_two_step_rule():
    # the first iterate P whose incoming step is <= 0.1 tol ||P|| and whose
    # outgoing step is <= tol ||P||, exactly (each step evaluated once)
    model = build_constant_velocity_model(dt=0.1, n_nodes=10, r_var=0.5)
    f, q = model.f, model.q
    h, r, tol = np.vstack([s.h for s in model.sensors]), 0.5 * np.eye(10), 1e-12
    prev, p = q, _plain_step(q, f, h, q, r)
    while not (np.linalg.norm(p - prev) <= 0.1 * tol * np.linalg.norm(p)
               and np.linalg.norm(_plain_step(p, f, h, q, r) - p) <= tol * np.linalg.norm(p)):
        prev, p = p, _plain_step(p, f, h, q, r)
    assert np.array_equal(dare_solve(f, h, q, r, tol), p)


def test_dare_constant_velocity_golden():
    model = build_constant_velocity_model(dt=0.1, n_nodes=10, r_var=0.5)
    h = np.vstack([s.h for s in model.sensors])
    r = np.diag([float(s.r[0, 0]) for s in model.sensors])
    p_star = dare_solve(model.f, h, model.q, r, tol=1e-12)
    oracle = _riccati_oracle(model.f, h, model.q, r)
    assert _residual(oracle, model.f, h, model.q, r) < 1e-12
    assert np.linalg.norm(p_star - oracle) < 1e-10
    np.linalg.cholesky(p_star)  # positive definite


def test_dare_random_observable_systems():
    rng = np.random.default_rng(3)
    count = 0
    while count < 20:
        n = int(rng.integers(1, 7))
        f = rng.normal(size=(n, n)) * 0.9
        h = rng.normal(size=(max(1, n // 2), n))
        q = sym(rng.normal(size=(n, n)))
        q = q @ q.T + 0.5 * np.eye(n)
        r = np.diag(rng.uniform(0.5, 2.0, size=h.shape[0]))
        try:
            p = dare_solve(f, h, q, r, tol=1e-10)
        except ObservabilityError:
            continue
        count += 1
        assert _residual(p, f, h, q, r) <= 1e-10 * np.linalg.norm(p)


def test_dare_singular_innovation_covariance_is_divergence():
    # ten identical stacked rows (x1, x2 five times each): R = 0.5 I is lost
    # against entries near 3e304, so H P H' + R is singular; numpy's raw
    # LinAlgError("Singular matrix") used to escape
    model = build_constant_velocity_model(dt=0.1, q_intensity=1e308)
    h = np.tile(np.eye(2, 4), (5, 1))
    with pytest.raises(RiccatiDivergence, match="H P H' \\+ R became singular"):
        dare_solve(model.f, h, model.q, 0.5 * np.eye(10))


def test_dare_overflow_is_divergence():
    # q_intensity = 1e308: the norm of the first step overflows to inf, which
    # used to pass both convergence tests and return one step from Q; no
    # RuntimeWarning escapes (pytest makes it an error)
    model = build_constant_velocity_model(dt=0.1, q_intensity=1e308)
    with pytest.raises(RiccatiDivergence, match="the Riccati iteration overflowed"):
        dare_solve(model.f, np.eye(2, 4), model.q, 0.1 * np.eye(2))


def test_one_riccati_update_in_the_library():
    # the Riccati update is written once, in the step function of dare_solve
    src = Path(inspect.getfile(dare_solve)).parent
    update = "np.linalg.solve(s, h @ p @ f.T)"
    calls = {p.name: p.read_text().count(update) for p in src.glob("*.py")}
    assert sum(calls.values()) == 1, calls
    assert update in inspect.getsource(linalg._riccati_step)


def test_covariance_mode_matrix_examples():
    assert np.allclose(covariance_mode_matrix(0.25, 2.0), [[0, 0.5], [1, 0]])
    near_zero = covariance_mode_matrix(1e-12, 1.0)
    assert np.allclose(near_zero, [[1, 0], [1, 0]], atol=1e-10)
    m = covariance_mode_matrix(0.3, 3.0)
    assert np.allclose(m, [[-0.8, 0.9], [1, 0]])
    # quadratic-formula oracle for the eigenvalues
    tr, det = m[0, 0], -m[0, 1]
    disc = tr * tr - 4 * det
    roots = [(tr + np.sqrt(complex(disc))) / 2, (tr - np.sqrt(complex(disc))) / 2]
    assert max(abs(r) for r in roots) == pytest.approx(
        max(abs(v) for v in np.linalg.eigvals(m))
    )


def test_state_mode_matrix_examples():
    assert np.allclose(state_mode_matrix(1.0, 0.0, 1.0), [[0, 0], [1, 0]])
    assert np.allclose(
        state_mode_matrix(0.1, 0.001, 2.0), [[0.798, 0.002], [1, 0]]
    )


def test_check_stability_examples():
    k2 = spectral_summary(build_graph("complete", 2))
    rep = covariance_stability(0.3, k2)
    assert rep.is_schur

    rep_bad = covariance_stability(1.5, k2)
    assert rep_bad.spectral_radius > 1 and not rep_bad.is_schur
    # M at alpha=1.5, lambda=2 is [[-5, 3], [1, 0]]
    assert np.allclose(covariance_mode_matrix(1.5, 2.0), [[-5, 3], [1, 0]])

    # boundary: alpha_lambda + 2 mu == 2/lambda_max exactly -> strict bound fails
    mu = 0.1
    alpha = 2.0 / k2.lambda_max - 2 * mu
    rep_edge = state_stability(alpha, mu, k2)
    assert not rep_edge.is_schur

    # eigvalsh gives a 6-node ring lambda_max = 3.999999999999999, an ulp
    # below 4: step sizes exactly on the bounds used to pass at radius 1
    ring6 = spectral_summary(build_graph("ring", 6))
    for rep in (state_stability(0.4, 0.05, ring6), covariance_stability(1 / 6, ring6)):
        assert rep.spectral_radius == pytest.approx(1.0, abs=1e-15)
        assert not rep.is_schur and rep.line.endswith("FAIL")


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["ring", "path", "complete", "random_geometric"]),
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.01, max_value=2.0),
    st.floats(min_value=0.01, max_value=2.0),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_closed_form_certificate_matches_dense_modes(topology, n, seed, r_nu, r_state, share):
    # step sizes at r times their bound, on both sides of it; the state
    # pair splits alpha_lambda + 2 mu = r * bound by `share`
    kwargs = dict(radius=0.6, seed=seed) if topology == "random_geometric" else {}
    spectrum = spectral_summary(build_graph(topology, n, **kwargs))
    nu_bound, lam_bound = step_bounds(spectrum.lambda_max)
    alpha_nu = r_nu * nu_bound
    mu = 0.5 * share * r_state * lam_bound
    alpha = (1.0 - share) * r_state * lam_bound
    nonzero = spectrum.eigenvalues[1:]
    for rep, mode, r in (
        (covariance_stability(alpha_nu, spectrum),
         lambda lam: covariance_mode_matrix(alpha_nu, lam), r_nu),
        (state_stability(alpha, mu, spectrum),
         lambda lam: state_mode_matrix(alpha, mu, lam), r_state),
    ):
        dense = [max(abs(np.linalg.eigvals(mode(lam)))) for lam in nonzero]
        assert abs(rep.spectral_radius - max(dense)) <= 1e-12
        if abs(r - 1.0) >= 1e-9:
            assert rep.is_schur == all(rho < 1.0 for rho in dense)


def test_sufficiency_sweep_covariance():
    g = spectral_summary(build_graph("random_geometric", 30, radius=0.4, seed=5))
    rng = np.random.default_rng(11)
    for _ in range(1000):
        lam = rng.uniform(1e-6, g.lambda_max)
        alpha = rng.uniform(1e-9, 2.0 / (3.0 * lam))
        rho = max(abs(np.linalg.eigvals(covariance_mode_matrix(alpha, lam))))
        assert rho < 1.0


def test_sufficiency_sweep_state():
    g = spectral_summary(build_graph("random_geometric", 30, radius=0.4, seed=5))
    rng = np.random.default_rng(13)
    for _ in range(1000):
        lam = rng.uniform(1e-6, g.lambda_max)
        mu = rng.uniform(1e-9, 0.99 / lam)
        alpha = rng.uniform(1e-9, 2.0 / lam - 2 * mu)
        rho = max(abs(np.linalg.eigvals(state_mode_matrix(alpha, mu, lam))))
        assert rho < 1.0


def test_spd_inverse_symmetric():
    rng = np.random.default_rng(2)
    for lead in ((), (5,)):  # one matrix, then a (5, 4, 4) stack
        g = rng.normal(size=lead + (4, 4))
        a = g @ np.swapaxes(g, -1, -2) + np.eye(4)
        inv = spd_inverse(a)
        assert np.array_equal(inv, np.swapaxes(inv, -1, -2))
        assert np.allclose(a @ inv, np.eye(4), atol=1e-10)


def _spd_stack(shape, n, seed, max_log_cond=6.0):
    """Exactly symmetric SPD matrices of `shape` + (n, n), with condition
    numbers up to 10**max_log_cond, and those condition numbers."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=shape + (n, n)))
    w = 10.0 ** rng.uniform(-max_log_cond / 2, max_log_cond / 2, size=shape + (n,))
    return sym((q * w[..., None, :]) @ np.swapaxes(q, -1, -2)), w.max(-1) / w.min(-1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.sampled_from([
        (SWEEP_MIN_STACK - 1,),
        (SWEEP_MIN_STACK,),
        (1000,),
        (2, (SWEEP_MIN_STACK - 1) // 2),
        (2, 500),
    ]),
    st.integers(min_value=0, max_value=2**31),
)
def test_sym_inverse_matches_per_matrix_inverse(n, shape, seed):
    # both paths: LAPACK below SWEEP_MIN_STACK matrices, the sweep from it on
    a, cond = _spd_stack(shape, n, seed)
    inv = sym_inverse(a)
    ref = np.linalg.inv(a)
    rel = np.linalg.norm(inv - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
    assert inv.shape == a.shape
    assert np.all(rel <= 1e-14 * cond)
    assert np.array_equal(inv, np.swapaxes(inv, -1, -2))


def test_sym_inverse_switches_at_sweep_min_stack():
    a, _ = _spd_stack((SWEEP_MIN_STACK,), 4, seed=5, max_log_cond=3.0)
    assert np.array_equal(sym_inverse(a[1:]), sym(np.linalg.inv(a[1:])))
    # the sweep inverts each matrix on its own, so a member's inverse does
    # not depend on the stack around it, and differs from LAPACK's in bits
    sweep = sym_inverse(a)
    assert np.array_equal(sweep, sym_inverse(np.concatenate([a, a]))[:SWEEP_MIN_STACK])
    assert not np.array_equal(sweep, sym(np.linalg.inv(a)))


@pytest.mark.parametrize("nodes", [SWEEP_MIN_STACK // 2, SWEEP_MIN_STACK - 1, SWEEP_MIN_STACK])
def test_stack_of_stacks_inverts_each_stack_as_alone(nodes):
    # a (2, N, 4, 4) stack takes the method of N matrices (LAPACK below
    # SWEEP_MIN_STACK, though 2 N is not): bitwise each stack's own inverse
    a, _ = _spd_stack((2, nodes), 4, seed=11, max_log_cond=3.0)
    for inverse in (sym_inverse, spd_inverse):
        assert np.array_equal(inverse(a), np.stack([inverse(a[0]), inverse(a[1])]))
    if nodes < SWEEP_MIN_STACK:
        assert np.array_equal(sym_inverse(a), sym(np.linalg.inv(a)))


@pytest.mark.parametrize("size", [SWEEP_MIN_STACK - 1, SWEEP_MIN_STACK, 1000])
def test_stack_inverses_reject_singular_and_indefinite(size):
    # spd_inverse's verdict is Cholesky's below SWEEP_MIN_STACK and the
    # sweep's pivots from it on, with one message on both sides
    a, _ = _spd_stack((size,), 4, seed=9, max_log_cond=3.0)
    assert np.array_equal(spd_inverse(a), sym_inverse(a))  # a PD stack passes, same values
    zero = a.copy()
    zero[3] = 0.0
    for inverse in (sym_inverse, spd_inverse):
        with pytest.raises(NotPositiveDefinite):
            inverse(zero)
    for k, member in ((3, np.zeros((4, 4))), (5, np.diag([1.0, -1.0, 2.0, 0.5])),
                      (7, np.ones((4, 4))), (size - 1, -np.eye(4))):
        bad = a.copy()
        bad[k] = member
        with pytest.raises(NotPositiveDefinite, match="matrix must be positive definite"):
            spd_inverse(bad)


@pytest.mark.parametrize("size", [SWEEP_MIN_STACK - 1, SWEEP_MIN_STACK, 1000])
def test_stack_inverses_reject_non_finite_and_overflowing_members(size):
    # one finiteness rule after both paths: LAPACK used to return NaN or inf
    # below SWEEP_MIN_STACK, where the sweep raised
    a, _ = _spd_stack((size,), 4, seed=9, max_log_cond=3.0)
    for k, member, spd_message in (
        (2, np.full((4, 4), np.nan), "must be positive definite"),
        (4, np.diag([1.0, 1.0, 1.0, 0.0]), "must be positive definite"),
        (6, 1e-310 * np.eye(4), "is singular"),  # PD, but the inverse overflows
        # not PD, but the sweep's first pivot overflows its reciprocal and
        # leaves NaN pivots, which used to read "singular" from 64 matrices on
        (8, np.diag([1e-310, -1.0, 1.0, 1.0]), "must be positive definite"),
        # NaN only below the diagonal, which the sweep used to drop
        (0, np.where(np.arange(16).reshape(4, 4) == 14, np.nan, np.eye(4)),
         "must be positive definite"),
    ):
        bad = a.copy()
        bad[k] = member
        with pytest.raises(NotPositiveDefinite, match="matrix is singular"):
            sym_inverse(bad)
        with pytest.raises(NotPositiveDefinite, match=spd_message):
            spd_inverse(bad)
    inf_pair = np.eye(4)
    inf_pair[1, 2] = inf_pair[2, 1] = np.inf  # symmetric, off the diagonal
    for member in (np.diag([np.inf, 1.0, 1.0, 1.0]), np.diag([-np.inf, 1.0, 1.0, 1.0]),
                   np.diag([1.0, -1.0, 2.0, 0.5]), np.diag([1.0, 1.0, 1.0, np.nan]), inf_pair):
        bad = a.copy()
        bad[1] = member
        with pytest.raises(NotPositiveDefinite, match="matrix must be positive definite"):
            spd_inverse(bad)
