"""Symmetric-matrix utilities behind the filter.

One Cholesky definiteness test behind the SPD solves and small inverses,
stack inverses by a batched sweep whose pivots test the large stacks, a
doubling solver for the discrete algebraic Riccati equation (doubling k is
Riccati step 2^k, and one plain step certifies the result), and the exact
closed-form Schur-stability certificate of both consensus loops, whose 2x2
per-mode recursions are decided by the Laplacian's lambda_2 and lambda_max
alone (`StabilityReport`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from dkf_admm.exceptions import (
    ConfigRejected,
    DimensionError,
    NotPositiveDefinite,
    ObservabilityError,
    RiccatiDivergence,
)


def sym(m) -> np.ndarray:
    """Symmetrize: (m + m^T) / 2 over the last two axes, which must be
    square (DimensionError). Absorbs floating-point drift."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"a matrix must be square, got shape {m.shape}")
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def spd_cholesky(a, what="matrix") -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix or stack, the definiteness test
    of all but large `spd_inverse` stacks; NotPositiveDefinite("<what> must be
    positive definite") unless a is finite (numpy's Cholesky passes NaN) and factors."""
    if np.isfinite(a).all():
        try:
            return np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            pass
    raise NotPositiveDefinite(f"{what} must be positive definite")


def spd_solve(a, b):
    """Solve a x = b for SPD a (or a stack) on its `spd_cholesky` factor."""
    chol = spd_cholesky(sym(a))
    y = np.linalg.solve(chol, np.asarray(b, dtype=float))
    return np.linalg.solve(np.swapaxes(chol, -1, -2), y)


# From this many matrices on, `sym_inverse` sweeps: 50 us per call + 0.2 us per
# 4 x 4 matrix, against LAPACK's 1 us per matrix (crossover 48-64, 2-core host).
SWEEP_MIN_STACK = 64


def sym_inverse(a) -> np.ndarray:
    """Inverse of every matrix of a symmetric positive definite stack
    (..., n, n), exactly symmetric; definiteness is not tested. Below
    SWEEP_MIN_STACK matrices on the last stack axis one LAPACK inverse each,
    else `_sweep`, each member as it would be alone; a zero pivot, a
    non-finite member or an overflow raises NotPositiveDefinite."""
    a = np.asarray(a, dtype=float)
    if math.prod(a.shape[-3:-2]) >= SWEEP_MIN_STACK:
        return _sweep(a)
    try:
        inv = sym(np.linalg.inv(a))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("matrix is singular") from exc
    if not np.isfinite(inv).all():
        raise NotPositiveDefinite("matrix is singular")
    return inv


def _sweep(a, spd=False) -> np.ndarray:
    """A^-1 of a symmetric stack by the sweep operator (Goodnight, The American
    Statistician 1979) on a batch-last (n, n, K) copy: n rank-1 updates whose
    products c_i c_j keep it exactly symmetric. With `spd`, the pivots (the
    LDL' pivots, all positive iff a finite stack is PD) test definiteness,
    and a failure takes `spd_cholesky`'s verdict, as below SWEEP_MIN_STACK."""
    m = a.transpose(-2, -1, *range(a.ndim - 2)).copy()
    outer = np.empty_like(m)  # reused: fresh (n, n, K) temporaries cost 2x at K = 10^4
    pivots = np.empty(m.shape[1:]) if spd else None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(len(m)):
            c = m[k].copy()
            if spd:
                pivots[k] = c[k]
            d = 1.0 / c[k]
            np.multiply(c[:, None], c[None, :], out=outer)
            m -= np.multiply(outer, d, out=outer)
            m[k] = m[:, k] = c * d
            m[k, k] = -d
    # a row k written over column k drops a non-finite entry below the diagonal, so test a too
    if not (np.isfinite(a).all() and np.isfinite(m).all()) or spd and (pivots <= 0.0).any():
        if spd:
            spd_cholesky(a)  # a non-PD member, even one whose first pivot's reciprocal overflowed
        raise NotPositiveDefinite("matrix is singular")  # a PD member whose inverse overflows
    return -m.transpose(*range(2, m.ndim), 0, 1)


def spd_inverse(a) -> np.ndarray:
    """Inverse of one SPD matrix or of each of a stack (..., n, n), tested by
    `spd_cholesky` below SWEEP_MIN_STACK matrices on the last stack axis and
    from there on by the sweep's own pivots, so a large stack factors once;
    both tests raise NotPositiveDefinite("matrix must be positive definite")."""
    a = np.asarray(a, dtype=float)
    if math.prod(a.shape[-3:-2]) >= SWEEP_MIN_STACK:
        return _sweep(a, spd=True)
    spd_cholesky(a)
    return sym_inverse(a)


def is_observable(f, h) -> bool:
    """Rank test of the stacked observability matrix [H; HF; ...; HF^(n-1)]."""
    f = np.asarray(f, dtype=float)
    blocks = [np.atleast_2d(np.asarray(h, dtype=float))]
    for _ in range(f.shape[0] - 1):
        blocks.append(blocks[-1] @ f)
    return np.linalg.matrix_rank(np.vstack(blocks)) == f.shape[0]


def _riccati_step(p, f, h, q, r_bar) -> np.ndarray:
    """F P F' - F P H'(H P H' + R)^-1 H P F' + Q, symmetrized."""
    s = h @ p @ h.T + r_bar
    try:
        gain = np.linalg.solve(s, h @ p @ f.T)
    except np.linalg.LinAlgError as exc:
        raise RiccatiDivergence("the innovation covariance H P H' + R became singular") from exc
    return sym(f @ p @ f.T - f @ p @ h.T @ gain + q)


MAX_DOUBLINGS = 64


def dare_solve(f, h, q, r_bar, tol=1e-12) -> np.ndarray:
    """Structure-preserving doubling for the discrete algebraic Riccati equation.

    P* is the fixed point of P <- F P F' - F P H'(H P H' + R)^-1 H P F' + Q,
    the centralized filter's prior recursion. From A = F', G = H'R^-1 H and
    P = Q, a doubling solves W = I + G P against [A | G] and sets P <- P +
    A'P W^-1 A, G <- G + A W^-1 G A', A <- A W^-1 A (Chu, Fan, Lin & Wang
    2004): doubling k is the recursion's iterate 2^k from P_0 = 0. The first
    P its doubling moved by <= tol ||P|| (within MAX_DOUBLINGS, ~2^64 steps)
    is returned if one plain `_riccati_step` moves it by <= tol ||P|| too.
    Requires (F, H) observable and Q, R SPD; a singular I + G P, a non-finite
    norm (an overflow), a failed last step or no convergence: RiccatiDivergence.
    """
    f = np.asarray(f, dtype=float)
    h = np.atleast_2d(np.asarray(h, dtype=float))
    q = sym(q)
    r_bar = sym(np.atleast_2d(np.asarray(r_bar, dtype=float)))
    if not is_observable(f, h):
        raise ObservabilityError("(F, H) is not observable")
    spd_cholesky(q, "Q")
    spd_cholesky(r_bar, "R")
    a, g, p = f.T, sym(h.T @ spd_solve(r_bar, h)), q
    with np.errstate(all="ignore"):
        for _ in range(MAX_DOUBLINGS):
            try:
                w_a, w_g = np.hsplit(np.linalg.solve(np.eye(len(p)) + g @ p, np.hstack([a, g])), 2)
            except np.linalg.LinAlgError as exc:
                raise RiccatiDivergence("the doubling's I + G P became singular") from exc
            p_next, g, a = sym(p + a.T @ p @ w_a), sym(g + a @ w_g @ a.T), a @ w_a
            step, p, p_norm = np.linalg.norm(p_next - p), p_next, np.linalg.norm(p_next)
            if not (math.isfinite(step) and math.isfinite(p_norm)):
                raise RiccatiDivergence("the Riccati iteration overflowed (a non-finite norm)")
            if step <= tol * p_norm:
                if not np.linalg.norm(_riccati_step(p, f, h, q, r_bar) - p) <= tol * p_norm:
                    raise RiccatiDivergence("the doubling's P fails its one-step check")
                return p
    raise RiccatiDivergence(f"no convergence within {MAX_DOUBLINGS} doublings")


@dataclass(frozen=True)
class StabilityReport:
    """One consensus loop's stability certificate: the bounded step-size
    quantity and its value, the name and value of its `step_bounds` bound,
    and `is_schur`: positive step sizes and value < (1 - SCHUR_MARGIN)
    bound, which read the spectrum's lambda_max alone. `modes` holds the
    (c, m, spectrum) of the per-mode recursion, from which the worst
    spectral radius is formed only when read. `line` renders it; `require`
    raises ConfigRejected, naming the violated bound, unless Schur stable."""

    quantity: str
    value: float
    bound_name: str
    bound: float
    is_schur: bool
    modes: tuple = field(repr=False, compare=False)

    @property
    def spectral_radius(self) -> float:
        """The worst per-mode radius over the exact spectrum, a diagnostic
        that reads the exact lambda_2 (`_worst_radius`)."""
        return _worst_radius(*self.modes)

    @property
    def line(self) -> str:
        verdict = "PASS" if self.is_schur else "FAIL"
        return (f"{self.quantity} = {self.value:.6g}  (bound {self.bound_name} = {self.bound:.6g})"
                f"  worst radius = {self.spectral_radius:.6g}  {verdict}")

    def require(self):
        if not self.is_schur:
            raise ConfigRejected(f"{self.quantity}={self.value} violates the bound "
                                 f"{self.bound_name}={self.bound:.6g}")


# a value must stay below its bound by this relative margin, above the round-off
# of eigvalsh's lambda_max (3.999999999999999 for the 4 of a 6-node ring), which
# small graphs use; the certified lambda_max of large ones is never below the exact
SCHUR_MARGIN = 1e-10


def step_bounds(lambda_max: float) -> tuple:
    """The exact stability bounds (2/(3 lambda_max), 2/lambda_max) on
    alpha_nu and on alpha_lambda + 2 mu, for positive step sizes;
    ConfigRejected unless lambda_max > 0, as on every connected graph."""
    if not lambda_max > 0.0:
        raise ConfigRejected(f"lambda_max must be > 0 (the graph needs an edge), got {lambda_max}")
    return 2.0 / (3.0 * lambda_max), 2.0 / lambda_max


def _worst_radius(c: float, m: float, spectrum) -> float:
    """Largest root modulus of the per-mode recursion z^2 - (1 - c l) z - m l
    over l in [lambda_2, lambda_max], the exact eigenvalues. For 0 < m < c
    the roots are real, the larger falls and the smaller rises with l, so an
    endpoint is worst."""
    lam = spectrum.eigenvalues[[1, -1]]
    b = 1.0 - c * lam
    return float(np.max(np.abs(b) + np.sqrt(b * b + 4.0 * m * lam))) / 2.0


def covariance_stability(alpha_nu: float, spectrum) -> StabilityReport:
    """Covariance consensus, modes [[1 - 2 a l, a l], [1, 0]] for a = alpha_nu."""
    bound = step_bounds(spectrum.lambda_max)[0]
    return StabilityReport("alpha_nu", alpha_nu, "2/(3*lambda_max)", bound,
                           0.0 < alpha_nu < bound * (1 - SCHUR_MARGIN),
                           (2.0 * alpha_nu, alpha_nu, spectrum))


def state_stability(alpha_lambda: float, mu: float, spectrum) -> StabilityReport:
    """State sub-iterations, modes [[1 - (a + mu) l, mu l], [1, 0]] for a =
    alpha_lambda; a non-positive mu (the filter rejects it) is not Schur."""
    value, bound = alpha_lambda + 2.0 * mu, step_bounds(spectrum.lambda_max)[1]
    return StabilityReport("alpha_lambda+2*mu", value, "2/lambda_max", bound,
                           alpha_lambda > 0.0 and mu > 0.0 and value < bound * (1 - SCHUR_MARGIN),
                           (alpha_lambda + mu, mu, spectrum))
