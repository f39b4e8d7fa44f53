"""Reference asymptotic laws for the centered/scaled PEL statistic.

The limit depends on the correlation-decay exponent alpha:

* short-range / weak long-range dependence (alpha > 1/2): Normal with
  variance kappa^2 = 2 c*^2 sum_k rho(k)^2 (``kappa_squared``) after
  centering at c_star and scaling by sqrt(p);
* boundary alpha = 1/2: Normal(0, c*^2) at scale sqrt(p log p); the
  subsampling calibration scales by sqrt(p) there (``ergodic_scale``);
* strong long-range dependence (alpha < 1/2): a non-Normal law at scale
  p^alpha, sampled through the Gaussian quadratic-form surrogate
  c* p^(alpha-1) sum_j (Z_j^2 - 1) (``sample_lrd_limit``);
* non-ergodic: the raw statistic converges to a Gaussian quadratic
  functional, discretized on a q-point grid as the inverse-operator form
  (c*/q) Z' (I + (2 c*/q) R0)^{-1} Z and evaluated in the eigenbasis of
  R0 as (c*/q) sum_k w_k G_k^2 with G ~ N(0, I) (``sample_ne_limit``).

Both samplers cost what their draws need: O(q) per non-ergodic draw after
one eigendecomposition, and about half a dense p x p product per LRD draw,
since the Cholesky factor of the surrogate is triangular.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .simulate import lrd_correlation

__all__ = [
    "kappa_squared",
    "sample_ne_limit",
    "sample_lrd_limit",
]


def kappa_squared(rho, c_star: float) -> float:
    """Limiting Normal variance 2 c*^2 sum_{k>=0} rho(k)^2 from rho(0..K)."""
    rho = np.asarray(rho, dtype=float)
    return float(2.0 * c_star**2 * np.sum(rho**2))


# columns of the LRD Cholesky factor per product in sample_lrd_limit: at
# p=2048 with 976 rows on one BLAS thread the panel products took 116-141 ms
# at width 256 against 174-214 ms for the dense product; of the widths
# 128-1024 tried, 256 was the fastest in each of three runs
_LRD_PANEL = 256


def sample_ne_limit(rho0_grid, c_star: float, n_draws: int, seed) -> np.ndarray:
    """Draws of the non-ergodic limit, discretized on a q-point grid.

    Each draw is (c*/q) Z' (I_q + (2 c*/q) R0)^{-1} Z with Z ~ N(0, R0):
    the Riemann discretization of the limiting quadratic functional (the
    inverse form resums the alternating kernel series).  With R0 = Q L Q'
    and Z = Q L^(1/2) G, G ~ N(0, I_q), the operator is diagonal in the
    same basis, so a draw is (c*/q) sum_k w_k G_k^2 with weights
    w_k = max(l_k, 0) / (1 + 2 c* l_k / q): O(q) per draw once the
    eigenvalues are known.  Under the spectral condition every
    denominator lies in (0, 2), so each w_k is finite and >= 0 and the
    draws are >= 0.

    The grid correlation must be symmetric PSD with unit diagonal, and
    4 c*^2 * mean(R0^2) (the grid version of the squared-kernel integral)
    must stay below 1, else the limit series diverges (DomainError).
    """
    r = np.asarray(rho0_grid, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise DimensionError("rho0_grid must be a square matrix")
    q = r.shape[0]
    if q < 1:
        raise DimensionError("rho0_grid must not be empty")
    if n_draws < 1:
        raise DimensionError(f"n_draws must be >= 1, got {n_draws}")
    if not np.allclose(r, r.T, atol=1e-10):
        raise DomainError("rho0_grid must be symmetric")
    if not np.allclose(np.diag(r), 1.0, atol=1e-8):
        raise DomainError("rho0_grid must have unit diagonal")
    if not c_star >= 0:
        raise DomainError(f"c_star must be >= 0, got {c_star}")
    if 4.0 * c_star**2 * float(np.mean(r**2)) >= 1.0:
        raise DomainError(
            "spectral condition 4 c*^2 mean(rho0^2) < 1 violated; "
            "the limit series may diverge")

    # R0 may be rank deficient (finite basis): clip its rounding negatives
    evals = np.linalg.eigvalsh(r)
    if evals.min() < -1e-8 * max(1.0, evals.max()):
        raise NumericError(
            f"rho0_grid is not PSD (min eigenvalue {evals.min():.3e})")
    w = np.clip(evals, 0.0, None) / (1.0 + (2.0 * c_star / q) * evals)

    g = np.random.default_rng(seed).standard_normal((q, n_draws))
    return (c_star / q) * (w @ np.square(g, out=g))


def sample_lrd_limit(alpha: float, p_surrogate: int = 2048,
                     n_draws: int = 10_000, seed=None,
                     c_star: float = 1.0) -> np.ndarray:
    """Draws of the strong-LRD limit via its Gaussian quadratic-form surrogate.

    Each draw is c* p^(alpha-1) sum_{j=1}^p (Z_j^2 - 1) with Z a stationary
    Gaussian vector of length p = p_surrogate and correlation rho_alpha;
    the law converges to the scale-p^alpha limit as p_surrogate grows.
    Z = G U with U the upper Cholesky factor, so the columns a..e of Z
    need only the first e rows of U: the sum of squares is accumulated
    panel by panel, which skips the zero half of U and never forms Z.
    """
    if not 0 < alpha < 0.5:
        raise DomainError(f"alpha must lie in (0, 1/2), got {alpha}")
    if p_surrogate < 2:
        raise DimensionError("p_surrogate must be >= 2")
    if n_draws < 1:
        raise DimensionError(f"n_draws must be >= 1, got {n_draws}")
    if not 0 <= c_star < math.inf:
        raise DomainError(f"c_star must be >= 0 and finite, got {c_star}")
    p = p_surrogate
    u = lrd_correlation(p, alpha)
    rng = np.random.default_rng(seed)
    scale = c_star * p ** (alpha - 1.0)
    out = np.empty(n_draws)
    batch = max(1, min(n_draws, 2_000_000 // p))
    for done in range(0, n_draws, batch):
        g = rng.standard_normal((min(batch, n_draws - done), p))
        ssq = np.zeros(len(g))
        for a in range(0, p, _LRD_PANEL):
            e = min(a + _LRD_PANEL, p)
            y = g[:, :e] @ u[:e, a:e]
            ssq += np.einsum("ij,ij->i", y, y)
        out[done:done + len(g)] = scale * (ssq - p)
    return out
