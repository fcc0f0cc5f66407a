"""Map the step-size stability regions for a given graph.

Both consensus loops reduce, mode by Laplacian mode, to a 2x2 linear
recursion. The loop converges iff that matrix is Schur stable for every
nonzero eigenvalue lambda of the Laplacian. For positive step sizes the
closed-form bounds

    covariance loop:  alpha_nu < 2 / (3 lambda_max)
    state loop:       alpha_lambda + 2 mu < 2 / lambda_max

are exact, not merely sufficient. This script prints an ASCII map of the
worst per-mode spectral radius against the bounds, showing that the
radius falls below 1 exactly inside them.

Run:  python3 demos/stability_regions.py
"""

import numpy as np

from dkf_admm import (
    build_graph,
    covariance_stability,
    spectral_summary,
    state_stability,
)
from dkf_admm.linalg import step_bounds

graph = build_graph("random_geometric", 20, radius=0.4, seed=5)
spectrum = spectral_summary(graph)
lam_max = spectrum.lambda_max
nu_bound, lam_bound = step_bounds(lam_max)
print(f"20-node graph, lambda_max = {lam_max:.3f}")
print(f"covariance bound: alpha_nu < {nu_bound:.4f}")
print(f"state bound:      alpha_lambda + 2 mu < {lam_bound:.4f}\n")

print("covariance loop: worst spectral radius along alpha_nu")
print(f"{'alpha_nu':>10}  {'worst radius':>12}  {'< 1':>6}  {'bound':>6}")
for alpha in np.linspace(0.01, 1.2 / lam_max, 12):
    rep = covariance_stability(alpha, spectrum)
    print(f"{alpha:>10.4f}  {rep.spectral_radius:>12.4f}"
          f"  {str(rep.spectral_radius < 1.0):>6}  {str(rep.is_schur):>6}")

print("\nstate loop: ASCII map over (alpha_lambda, mu); '+' = worst radius < 1,")
print("'.' = unstable, '!' = the radius and the bound disagree")
alphas = np.linspace(0.01, 3.0 / lam_max, 30)
mus = np.linspace(0.001, 1.0 / lam_max, 14)
disagree = 0
for mu in mus[::-1]:
    row = ""
    for alpha in alphas:
        rep = state_stability(alpha, mu, spectrum)
        stable = rep.spectral_radius < 1.0
        if stable != rep.is_schur:
            disagree += 1
            row += "!"
        else:
            row += "+" if stable else "."
    print(f"mu={mu:.4f}  {row}")
print(f"{'':>10}alpha_lambda from {alphas[0]:.3f} to {alphas[-1]:.3f}")
print(f"\n{disagree} '!' cells: the stable set ends exactly at the line "
      "alpha_lambda + 2 mu = 2 / lambda_max")
