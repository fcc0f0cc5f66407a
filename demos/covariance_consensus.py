"""Watch every node discover the network-wide information rate.

Each node starts out knowing only its own sensor quality (its local
H_i' R_i^-1 H_i). The covariance consensus exchanges one half-vectorized
matrix per neighbor per time step, and after a few hundred steps every
node's theta matches the sum over the whole network. The prior covariance
P_{i,t|t-1} then converges to the steady-state Riccati solution P*, the
same limit the centralized filter reaches.

Run:  python3 demos/covariance_consensus.py
"""

import numpy as np

from dkf_admm import (
    auto_params,
    build_constant_velocity_model,
    build_graph,
    dare_solve,
    dkf_steps,
    information_rate_target,
    init_state,
    simulate_runs,
    spectral_summary,
)

N = 10
graph = build_graph("random_geometric", N, radius=0.45, seed=3)
spectrum = spectral_summary(graph)
params = auto_params(spectrum, l_sub=5)
model = build_constant_velocity_model(dt=0.1, n_nodes=N, r_var=0.5)

print(f"graph: {N} nodes, lambda_2 = {spectrum.lambda_2:.3f}, "
      f"lambda_max = {spectrum.lambda_max:.3f}")
print(f"step sizes: alpha_nu = {params.alpha_nu:.4f}, "
      f"alpha_lambda = {params.alpha_lambda:.4f}, mu = {params.mu:.4f}\n")

target = information_rate_target(model)
h = np.vstack([s.h for s in model.sensors])
r = np.diag([float(s.r[0, 0]) for s in model.sensors])
p_star = dare_solve(model.f, h, model.q, r)

horizon = 600
traj = simulate_runs(model, horizon + 1, [11])
rng = np.random.default_rng(12)
state = init_state(model, model.x0_mean + rng.normal(size=(N, 4)))

print(f"{'t':>5}  {'max rel theta error':>20}  {'max rel P error':>16}")
for t in dkf_steps(state, graph, model, traj.measurements[0, 1:], params, t0=1):
    if t in (1, 2, 5, 10, 20, 50, 100, 200, 400, 600):
        theta_err = np.linalg.norm(
            state.theta - target, axis=(1, 2)
        ).max() / np.linalg.norm(target)
        p_err = np.linalg.norm(
            state.p_prior - p_star, axis=(1, 2)
        ).max() / np.linalg.norm(p_star)
        print(f"{t:>5}  {theta_err:>20.3e}  {p_err:>16.3e}")

print("\nboth errors decay geometrically; the limits are the network sum")
print("of sensor information and the centralized Riccati solution P*")
