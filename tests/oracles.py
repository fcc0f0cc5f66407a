"""Per-node reference computations for the stacked sensor arrays.

Imported by the test modules, which pytest runs with this directory on
the import path.
"""

import numpy as np


def sensor_oracle(h, r):
    """(H, R, R^-1 H, H' R^-1 H) of one sensor, computed on its own with
    numpy.linalg: a Cholesky factor of R and two solves, the factorization
    the library uses, so the results match it exactly."""
    h = np.atleast_2d(np.asarray(h, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    chol = np.linalg.cholesky(r)
    rinv_h = np.linalg.solve(chol.T, np.linalg.solve(chol, h))
    info = h.T @ rinv_h
    return h, r, rinv_h, 0.5 * (info + info.T)


def info_vectors_oracle(model):
    """vech(H_i' R_i^-1 H_i) of every node of a model, shape (N, n(n+1)/2),
    node by node from `sensor_oracle`."""
    rows = []
    for s in model.sensors:
        info = sensor_oracle(s.h, s.r)[3]
        rows.append(info[np.triu_indices(len(info))])
    return np.array(rows)
