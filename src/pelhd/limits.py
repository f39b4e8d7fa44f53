"""Reference asymptotic laws for the centered/scaled PEL statistic.

Covers the four regimes of the statistic's limit:

* short-range / weak long-range dependence (alpha > 1/2): Normal with
  variance kappa^2 = 2 c*^2 sum_k rho(k)^2 after centering at c_star and
  scaling by sqrt(p);
* boundary alpha = 1/2: Normal(0, c*^2) at scale sqrt(p log p);
* strong long-range dependence (alpha < 1/2): a non-Normal law at scale
  p^alpha, sampled through the Gaussian quadratic-form surrogate
  c* p^(alpha-1) sum_j (Z_j^2 - 1);
* non-ergodic: the raw statistic converges to a Gaussian quadratic
  functional, sampled by discretizing the inverse-operator form
  (c*/q) Z' (I + (2 c*/q) R0)^{-1} Z on a q-point grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .simulate import lrd_correlation

__all__ = [
    "LimitRegime",
    "classify_regime",
    "normal_limit_cdf",
    "kappa_squared",
    "sample_ne_limit",
    "sample_lrd_limit",
]


@dataclass(frozen=True)
class LimitRegime:
    """Centering/scaling regime of the statistic for a given decay exponent."""

    kind: str  # "ne" | "lrd" | "boundary" | "normal"
    center: float
    scale: float


def classify_regime(alpha: float, p: int, c_star: float) -> LimitRegime:
    """Map a correlation-decay exponent to its (center, scale) pair.

    alpha > 1/2 (including infinity) -> Normal regime at sqrt(p);
    alpha = 1/2 -> boundary at sqrt(p log p); 0 < alpha < 1/2 -> non-Normal
    at p^alpha; alpha = 0 -> non-ergodic, untransformed statistic.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0:
        return LimitRegime("ne", 0.0, 1.0)
    if alpha < 0.5:
        return LimitRegime("lrd", c_star, p**alpha)
    if alpha == 0.5:
        return LimitRegime("boundary", c_star, math.sqrt(p * math.log(p)))
    return LimitRegime("normal", c_star, math.sqrt(p))


def normal_limit_cdf(x: float, kappa_sq: float) -> float:
    """CDF of the N(0, kappa^2) limit at x."""
    if not kappa_sq > 0:
        raise DomainError(f"kappa_sq must be positive, got {kappa_sq}")
    return 0.5 * math.erfc(-x / math.sqrt(2.0 * kappa_sq))


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
