"""A 100-node tracking scenario, end to end through the harness.

Builds a random 7-regular communication graph (a good expander keeps
lambda_2 high and lambda_max low, so fixed step sizes are both stable and
fast), validates the step sizes, runs 10 Monte-Carlo trajectories of a
constant-velocity target, and writes the result CSVs.

Run:  python3 demos/large_network_run.py
"""

import tempfile
from pathlib import Path

import numpy as np

from dkf_admm import ScenarioConfig, export_csv, run_scenario, validate_params


def regular_graph_edges(n, degree, seed):
    """Union of `degree` random perfect matchings, redrawn on collisions."""
    rng = np.random.default_rng(seed)
    edges = set()
    for _ in range(degree):
        while True:
            perm = rng.permutation(n)
            cand = [(int(min(a, b)), int(max(a, b)))
                    for a, b in perm.reshape(-1, 2)]
            if all(e not in edges for e in cand):
                edges.update(cand)
                break
    return sorted(edges)


edges = regular_graph_edges(100, 7, seed=0)
edge_file = Path(tempfile.mkdtemp()) / "edges.txt"
edge_file.write_text("\n".join(f"{i} {j}" for i, j in edges))

config = ScenarioConfig(
    topology="explicit",
    edge_list_path=str(edge_file),
    n_nodes=100,
    dt=0.1,
    alpha_lambda=0.10,
    mu=0.001,
    alpha_nu=0.04,
    l_sub=20,
    horizon_steps=100,
    n_mc_runs=10,
    master_seed=0,
    output_dir="out_large_network",
)

print(validate_params(config)[0])
print("running 10 Monte-Carlo trajectories...")
metrics = run_scenario(config)

curve = metrics.rmse_pos.mean(axis=1)
print(f"\nall-node position RMSE: t=1 {curve[0]:.3f} -> "
      f"t=10 {curve[9]:.3f} -> t=100 {curve[-1]:.3f}")
final = metrics.rmse_pos[-1]
print(f"final per-node spread: {(final.max() - final.min()) / final.mean():.2%}")
print(f"per-step consensus error over sub-iterations at t=100:")
print("  " + " ".join(f"{e:.1e}" for e in metrics.consensus_error[-1][::4]))

paths = export_csv(metrics, config.output_dir)
print(f"\nwrote {len(paths)} CSV files to {config.output_dir}/")
