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

Both samplers cost what their draws need: O(rank R0) per non-ergodic
draw after one eigendecomposition, and one real FFT of length 2p per LRD
draw, since the surrogate's sum of squares is a quadratic form in
N(0, I_p) normals with the Toeplitz matrix of ``simulate.lrd_correlation``,
evaluated through the circulant spectrum the LRD data are drawn from; no
p x p matrix is formed.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .simulate import _lrd_spectrum

__all__ = [
    "kappa_squared",
    "sample_ne_limit",
    "sample_lrd_limit",
]


def kappa_squared(rho, c_star: float) -> float:
    """Limiting Normal variance 2 c*^2 sum_{k>=0} rho(k)^2 from rho(0..K)."""
    rho = np.asarray(rho, dtype=float)
    return float(2.0 * c_star**2 * np.sum(rho**2))


# elements of the normals drawn per batch in sample_lrd_limit; the FFT adds
# a zero-padded copy and a complex output of twice that, so a batch takes
# 40 bytes an element and this one (16 draws at p=2048) stays in a 2 MB L2
# cache.  On a 2-core Xeon with 2 MB L2 a core, 1000 draws at p=2048 took
# 48 ms at this size (49 at 8 192, 53 at 131 072) and 57 ms at 500 000,
# whose batch does not fit; the call peaks at 1.3 MB under tracemalloc
# (19.1 MB at 500 000)
_LRD_BATCH_ELEMENTS = 32_768


def _count(value, name: str, least: int) -> int:
    """value as an int >= least; DimensionError for a non-integer or less."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DimensionError(
            f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DimensionError(f"{name} must be >= {least}, got {value}")
    return value


def sample_ne_limit(rho0_grid, c_star: float, n_draws: int, seed) -> np.ndarray:
    """Draws of the non-ergodic limit, discretized on a q-point grid.

    Each draw is (c*/q) Z' (I_q + (2 c*/q) R0)^{-1} Z with Z ~ N(0, R0):
    the Riemann discretization of the limiting quadratic functional (the
    inverse form resums the alternating kernel series).  With R0 = Q L Q'
    and Z = Q L^(1/2) G, G ~ N(0, I_q), the operator is diagonal in the
    same basis, so a draw is (c*/q) sum_k w_k G_k^2 with weights
    w_k = l_k / (1 + 2 c* l_k / q).  Under the spectral condition every
    denominator lies in (0, 2), so each w_k is finite and >= 0 and the
    draws are >= 0.

    Only the eigenvalues above the numerical-rank tolerance q eps l_max
    get a weight, so G holds one row of n_draws normals per such
    eigenvalue, in ascending order, from the seed's generator:
    O(rank R0) per draw, 31 normals for the 31-term basis of
    ``simulate.ne_correlation`` at any q >= 31.  A grid whose eigenvalues
    all clear the tolerance gets the draws of the full q-row form bit
    for bit; a rank-deficient one gets another realization of the same
    law, less dropped weights of at most q eps l_max each.

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
    n_draws = _count(n_draws, "n_draws", 1)
    if not np.allclose(r, r.T, atol=1e-10):
        raise DomainError("rho0_grid must be symmetric")
    if not np.allclose(np.diag(r), 1.0, atol=1e-8):
        raise DomainError("rho0_grid must have unit diagonal")
    if not 0 <= c_star < math.inf:
        raise DomainError(f"c_star must be >= 0 and finite, got {c_star}")
    if 4.0 * c_star**2 * float(np.mean(r**2)) >= 1.0:
        raise DomainError(
            "spectral condition 4 c*^2 mean(rho0^2) < 1 violated; "
            "the limit series may diverge")

    # R0 may be rank deficient (finite basis): a rounding negative passes
    # the PSD tolerance, and only the eigenvalues above the numerical-rank
    # tolerance q eps l_max of np.linalg.matrix_rank get normals
    evals = np.linalg.eigvalsh(r)
    if evals[0] < -1e-8 * max(1.0, evals[-1]):
        raise NumericError(
            f"rho0_grid is not PSD (min eigenvalue {evals[0]:.3e})")
    evals = evals[evals > q * np.finfo(float).eps * evals[-1]]
    w = evals / (1.0 + (2.0 * c_star / q) * evals)

    g = np.random.default_rng(seed).standard_normal((len(w), n_draws))
    return (c_star / q) * (w @ np.square(g, out=g))


def sample_lrd_limit(alpha: float, p_surrogate: int = 2048,
                     n_draws: int = 10_000, seed=None,
                     c_star: float = 1.0) -> np.ndarray:
    """Draws of the strong-LRD limit via its Gaussian quadratic-form surrogate.

    Each draw is c* p^(alpha-1) sum_{j=1}^p (Z_j^2 - 1) with Z a stationary
    Gaussian vector of length p = p_surrogate and correlation rho_alpha;
    the law converges to the scale-p^alpha limit as p_surrogate grows.
    With R = U'U the p x p Toeplitz correlation and g ~ N(0, I_p),
    |Z|^2 = |g U|^2 = g UU' g' has the law of g R g' (UU' and U'U share
    their eigenvalues), so a draw is c* p^(alpha-1) (g R g' - p).

    R is the leading block of the symmetric circulant C of
    ``simulate._lrd_spectrum``, with first column [rho(0..p), rho(p-1..1)]
    and eigenvalues lambda, the spectrum the LRD data are drawn from.  The
    zero-padded g sees only that block, so the form is
    sum_k lambda_k |fft(g, 2p)_k|^2 / (2p): one real FFT of length 2p per
    draw (Davies & Harte 1987; Wood & Chan 1994).  This is exact for any
    symmetric circulant extension, so negative lambda_k need no clipping.
    g holds p normals per draw, drawn row by row from the seed's generator
    in batches that change neither the stream nor the draws: each row's FFT
    and weighted sum are computed by themselves, without BLAS, so a draw
    depends neither on the batch size nor on the BLAS thread count.

    The draws have the law of the product Z = g U with U the upper
    Cholesky factor of ``toeplitz(lrd_correlation(p, alpha))``, but not
    its realization: the same seed and normals give other draws than that
    product does.
    """
    if not 0 < alpha < 0.5:
        raise DomainError(f"alpha must lie in (0, 1/2), got {alpha}")
    p = _count(p_surrogate, "p_surrogate", 2)
    n_draws = _count(n_draws, "n_draws", 1)
    if not 0 <= c_star < math.inf:
        raise DomainError(f"c_star must be >= 0 and finite, got {c_star}")
    lam = _lrd_spectrum(p, alpha)[:p + 1] / (2 * p)
    # the half spectrum stands for bins k and 2p-k, except k = 0 and k = p
    lam[1:p] *= 2.0
    # weights of the squared real and imaginary parts in the float view
    weights = np.repeat(lam, 2)
    rng = np.random.default_rng(seed)
    scale = c_star * p ** (alpha - 1.0)
    out = np.empty(n_draws)
    batch = max(1, min(n_draws, _LRD_BATCH_ELEMENTS // p))
    for done in range(0, n_draws, batch):
        g = rng.standard_normal((min(batch, n_draws - done), p))
        f = np.fft.rfft(g, n=2 * p).view(float)
        # not f @ weights: BLAS gemv sums a row in an order that depends on
        # the rows in the batch and the thread count
        quad = np.einsum("ij,j->i", np.square(f, out=f), weights)
        out[done:done + len(f)] = scale * (quad - p)
    return out
