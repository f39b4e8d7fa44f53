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
  functional, sampled by discretizing the inverse-operator form
  (c*/q) Z' (I + (2 c*/q) R0)^{-1} Z on a q-point grid
  (``sample_ne_limit``).
"""

from __future__ import annotations

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


def sample_ne_limit(rho0_grid, c_star: float, n_draws: int, seed) -> np.ndarray:
    """Draws of the non-ergodic limit, discretized on a q-point grid.

    Each draw is (c*/q) Z' (I_q + (2 c*/q) R0)^{-1} Z with Z ~ N(0, R0):
    the Riemann discretization of the limiting quadratic functional (the
    inverse form resums the alternating kernel series and is the stabler
    evaluation near the spectral-radius boundary).

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
    if c_star < 0:
        raise DomainError("c_star must be >= 0")
    if 4.0 * c_star**2 * float(np.mean(r**2)) >= 1.0:
        raise DomainError(
            "spectral condition 4 c*^2 mean(rho0^2) < 1 violated; "
            "the limit series may diverge")

    # R0 may be rank deficient (finite basis), so factor by eigendecomposition.
    evals, evecs = np.linalg.eigh(r)
    if evals.min() < -1e-8 * max(1.0, evals.max()):
        raise NumericError(
            f"rho0_grid is not PSD (min eigenvalue {evals.min():.3e})")
    root = evecs * np.sqrt(np.clip(evals, 0.0, None))

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((q, n_draws))
    z = root @ g
    a = np.eye(q) + (2.0 * c_star / q) * r
    v = np.linalg.solve(a, z)
    return (c_star / q) * np.einsum("ij,ij->j", z, v)


def sample_lrd_limit(alpha: float, p_surrogate: int = 2048,
                     n_draws: int = 10_000, seed=None,
                     c_star: float = 1.0) -> np.ndarray:
    """Draws of the strong-LRD limit via its Gaussian quadratic-form surrogate.

    Each draw is c* p^(alpha-1) sum_{j=1}^p (Z_j^2 - 1) with Z a stationary
    Gaussian vector of length p = p_surrogate and correlation rho_alpha;
    the law converges to the scale-p^alpha limit as p_surrogate grows.
    """
    if not 0 < alpha < 0.5:
        raise DomainError(f"alpha must lie in (0, 1/2), got {alpha}")
    if p_surrogate < 2:
        raise DimensionError("p_surrogate must be >= 2")
    if n_draws < 1:
        raise DimensionError(f"n_draws must be >= 1, got {n_draws}")
    u = lrd_correlation(p_surrogate, alpha).chol_upper
    rng = np.random.default_rng(seed)
    scale = c_star * p_surrogate ** (alpha - 1.0)
    out = np.empty(n_draws)
    batch = max(1, min(n_draws, 2_000_000 // p_surrogate))
    done = 0
    while done < n_draws:
        b = min(batch, n_draws - done)
        z = rng.standard_normal((b, p_surrogate)) @ u
        out[done:done + b] = scale * (np.sum(z**2, axis=1) - p_surrogate)
        done += b
    return out
