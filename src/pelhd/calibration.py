"""Subsampling calibration of the PEL statistic and dependence estimators.

The null distribution of the statistic (raw in the non-ergodic regime,
centered at c_star and scaled by p^(alpha_hat ^ 1/2) in the ergodic one) is
estimated from its values on all n-m+1 overlapping index blocks of size m.
The module also provides the subsample-size rules, two estimators of the
correlation-decay exponent alpha, and two estimators of the limiting
Normal variance kappa^2.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import DataMatrix, PelConfig, _checked_mu, _moments, _solve_blocks
from .errors import (
    DegenerateDataError,
    DimensionError,
    DomainError,
    NumericError,
)
from .limits import kappa_squared

__all__ = [
    "CalibrationCurve",
    "TestReport",
    "subsample_size",
    "build_curve_ne",
    "build_curve_ergodic",
    "ergodic_scale",
    "quantile",
    "estimate_alpha_invariant",
    "estimate_alpha_hurst",
    "estimate_kappa_sq_invariant",
    "estimate_kappa_sq_plugin",
    "decide",
    "conservative_reject",
]

logger = logging.getLogger(__name__)

# Fraction of failed block solves at which the whole curve is rejected.
MAX_BLOCK_FAILURE_RATE = 0.01


@dataclass(frozen=True)
class CalibrationCurve:
    """Subsample statistics approximating the null law.

    ``block_stats`` holds one value per block, in block order (block i
    starts at row i; the exported CSV layout), NaN for a failed block;
    ``n_failed`` counts those.  ``sorted_values`` is the other values
    ascending, the order statistics that ``quantile`` reads.
    """

    block_stats: np.ndarray
    regime: str
    n_failed: int = 0

    @cached_property
    def sorted_values(self) -> np.ndarray:
        return np.sort(self.block_stats[~np.isnan(self.block_stats)])

    def __len__(self) -> int:
        return self.sorted_values.size


@dataclass(frozen=True)
class TestReport:
    """Outcome of one calibrated test."""

    threshold: float
    rejected: bool


def subsample_size(n: int, p: int, alpha0: float = 0.5, c0: float = 1.0,
                   rule: str = "ergodic") -> int:
    """Subsample size m for the overlapping-block calibration.

    rule="ergodic": m = round(c0 * max((n p)^(a/(1+a)), n^(1/3))) with
    a = min(alpha0, 1/2); a = 1/2 reduces to the short-range choice
    c0 * (n p)^(1/3).  rule="ne-cuberoot" / "ne-sqrt": m = round(c0 * n^(1/3))
    or round(c0 * sqrt(n)).  The result is clamped to [2, n-1], so n must
    be at least 3.  This is the one check of the rule name and of c0
    (finite and positive).
    """
    if n < 3 or p < 2:
        raise DimensionError(f"need n >= 3 and p >= 2, got n={n}, p={p}")
    if not 0 < c0 < math.inf:
        raise DomainError(f"c0 must be positive and finite, got {c0}")
    if rule == "ergodic":
        if not alpha0 > 0:
            raise DomainError(f"alpha0 must be positive, got {alpha0}")
        a = min(alpha0, 0.5)
        m = c0 * max((n * p) ** (a / (1.0 + a)), n ** (1.0 / 3.0))
    elif rule == "ne-cuberoot":
        m = c0 * n ** (1.0 / 3.0)
    elif rule == "ne-sqrt":
        m = c0 * math.sqrt(n)
    else:
        raise DomainError(f"unknown subsample-size rule {rule!r}")
    return int(round(min(max(m, 2.0), n - 1)))


def _block_ytil(windows, centred, out):
    """Ytil = (X - mu0) sqrt(delta) of a (B, m, p) stack of blocks, each
    with its own column stats (the two-pass formula of
    compute_column_stats).

    ``windows`` are the blocks of X and ``centred`` the same blocks of
    X - mu0.  ``out``, of their shape, is scratch for the centred squares
    of the moments and then holds Ytil, which is returned.
    """
    _, _, delta = _moments(windows, out=out)
    return np.multiply(centred, np.sqrt(delta)[:, None, :], out=out)


def _block_statistics(data: DataMatrix, mu0, m: int, cfg: PelConfig):
    """-log R*_m(mu0; I) on every overlapping block.

    Each block's penalty is ``cfg.penalty(m, p)``, c* m/p; a ``cfg`` with
    an explicit ``lam`` is a DomainError, since one lambda for every block
    size would not be the statistic's.

    The blocks are solved by ``core._solve_blocks``, the builder that also
    serves ``solve_pel``; it cuts them into Newton stacks under the element
    budget ``core.BLOCK_CHUNK_ELEMENTS``, has ``_block_ytil`` write the
    standardized data of a slice of blocks at a time into the one scratch
    buffer it allocates for the curve, and logs the curve's one DEBUG
    record on the ``pelhd.core`` logger.  X - mu0 is formed once for the
    curve.
    Failed block solves are recorded as NaN, each with a WARNING;
    NumericError above the 1% tolerance (isolated failures must not
    silently bias the quantiles).

    Returns (stats, failed): one statistic per block, block i starting at
    row i, and the number of failed blocks.
    """
    n, p = data.n, data.p
    if not 1 < m < n:
        raise DomainError(f"need 1 < m < n, got m={m}, n={n}")
    if cfg.lam is not None:
        raise DomainError(
            f"a curve sets lambda = c_star m/p per block; got lam={cfg.lam}")
    mu0 = _checked_mu(mu0, p)
    windows, centred = (
        sliding_window_view(x, m, axis=0).transpose(0, 2, 1)
        for x in (data.values, data.values - mu0))
    n_blocks = len(windows)
    stats, iters, ok, res, _, _ = _solve_blocks(
        lambda lo, hi, out: _block_ytil(windows[lo:hi], centred[lo:hi], out),
        n_blocks, m, p, cfg.penalty(m, p), cfg)
    failed = np.flatnonzero(~ok)
    for b in failed:
        logger.warning("block %d/%d failed: residual %.3e after %d iterations",
                       b, n_blocks, res[b], iters[b])
    stats[failed] = np.nan
    if failed.size > MAX_BLOCK_FAILURE_RATE * n_blocks:
        raise NumericError(
            f"{failed.size}/{n_blocks} subsample blocks failed to converge")
    return stats, failed.size


def build_curve_ne(data: DataMatrix, mu0, m: int,
                   cfg: PelConfig) -> CalibrationCurve:
    """Subsampling estimate of the null law of the raw statistic (NE regime)."""
    stats, failed = _block_statistics(data, mu0, m, cfg)
    return CalibrationCurve(stats, "ne", failed)


def ergodic_scale(p: int, alpha_hat: float) -> float:
    """The scale b_hat = p^min(alpha_hat, 1/2) of the ergodic statistic.

    The centered statistic and every value of its curve carry this same
    factor, so the decision of ``decide`` does not depend on it beyond
    rounding; it sets the units of the curve.  From alpha_hat = 1/2 on the
    calibration uses sqrt(p), not the sqrt(p log p) of the Normal limit
    at the boundary alpha = 1/2.
    """
    return p ** min(alpha_hat, 0.5)


def build_curve_ergodic(data: DataMatrix, mu0, m: int, alpha_hat: float,
                        cfg: PelConfig) -> CalibrationCurve:
    """Centered/scaled subsample statistics V*_m = b_hat (stat - c*).

    b_hat = ergodic_scale(p, alpha_hat) uses the full-data dimension p
    (only the observation index is subsampled) and the full-data alpha_hat.
    """
    if not np.isfinite(alpha_hat):
        raise DomainError(f"alpha_hat must be finite, got {alpha_hat}")
    stats, failed = _block_statistics(data, mu0, m, cfg)
    v = ergodic_scale(data.p, alpha_hat) * (stats - cfg.c_star)
    return CalibrationCurve(v, "ergodic", failed)


def quantile(curve: CalibrationCurve, q: float) -> float:
    """Order-statistic quantile: the ceil(q N)-th smallest curve value."""
    if not 0 < q < 1:
        raise DomainError(f"q must lie in (0,1), got {q}")
    n = len(curve)
    if n == 0:
        raise DomainError("empty calibration curve")
    t = q * n
    # snap floating products like 0.1*30 = 3.0000000000000004 back to the integer
    k = round(t) if abs(t - round(t)) < 1e-9 else math.ceil(t)
    k = min(max(k, 1), n)
    return float(curve.sorted_values[k - 1])


def estimate_alpha_invariant(data: DataMatrix) -> float:
    """Permutation/affine-invariant estimator of the decay exponent alpha.

    alpha_hat = -log(e_n + mean_i {p^{-1} sum_j (X_ij - colmean_j)
    sqrt(delta_j)}^2) / log(p), where e_n = 1 only if every column is
    constant.  Not clamped; callers apply min(alpha_hat, 1/2) where needed.
    """
    if data.p < 2:
        raise DimensionError("need p >= 2")
    e_n = 1.0 if not np.any(data.delta > 0) else 0.0
    w = np.sqrt(data.delta)
    inner = (data.values - data.col_mean) @ w / data.p
    arg = e_n + float(np.mean(inner**2))
    if arg <= 0:
        raise NumericError("argument of log is nonpositive")
    return -math.log(arg) / math.log(data.p)


def _hurst_block_sizes(p: int) -> np.ndarray:
    """Geometric grid of block sizes in [2, p/4]: dyadic when that gives
    at least 3 sizes (p/4 >= 8), with ratio sqrt(2) below that."""
    top = p // 4
    exponents = np.arange(1.0, math.log2(top) + 1e-9, 1.0 if top >= 8 else 0.5)
    return np.round(2.0 ** exponents).astype(int)


def estimate_alpha_hurst(data: DataMatrix) -> float:
    """alpha_hat = 2 - 2*H_hat with H_hat the aggregated-variance Hurst estimate.

    Each row is treated as one p-long series: for block sizes s on a
    geometric grid, the variance of the s-block means is regressed (log-log)
    on s; the slope beta gives H = 1 + beta/2, and the row estimates are
    averaged.  Rows with a vanishing block variance are skipped as
    degenerate; DegenerateDataError if none survive.
    """
    n, p = data.n, data.p
    if p < 16:
        raise DimensionError(f"need p >= 16 for the Hurst grid, got {p}")
    sizes = _hurst_block_sizes(p)
    log_var = np.empty((n, sizes.size))
    for col, s in enumerate(sizes):
        nb = p // s
        means = data.values[:, : nb * s].reshape(n, nb, s).mean(axis=2)
        log_var[:, col] = np.var(means, axis=1)
    valid = np.all(log_var > 0, axis=1)
    if not np.any(valid):
        raise DegenerateDataError(
            "every row is degenerate (zero block-mean variance)")
    if not np.all(valid):
        logger.debug("skipping %d degenerate rows in Hurst estimation",
                     int(np.sum(~valid)))
    log_var = np.log(log_var[valid])
    x = np.log(sizes.astype(float))
    xc = x - x.mean()
    slopes = (log_var - log_var.mean(axis=1, keepdims=True)) @ xc / (xc @ xc)
    h_hat = float(np.mean(1.0 + slopes / 2.0))
    return 2.0 - 2.0 * h_hat


def estimate_kappa_sq_invariant(data: DataMatrix, c_star: float) -> float:
    """Thresholded sum of squared component correlations, symmetrized.

    Pairwise correlations c(a,j) (delta^(1/2)-weighted cross moments, zero
    when either column is constant) enter only if |c(a,j)| exceeds
    2 n^{-1/2} log n; the squared survivors are averaged over anchor
    components a and scaled so that p perfectly duplicated unit-variance
    columns yield exactly 2 c*^2 (p-2).  Always >= 0.
    """
    n, p = data.n, data.p
    if n < 3 or p < 3:
        raise DimensionError("need n >= 3 and p >= 3")
    w = np.sqrt(data.delta)
    xc = (data.values - data.col_mean) * w
    corr = (xc.T @ xc) / n
    np.fill_diagonal(corr, 0.0)
    thr = 2.0 * math.log(n) / math.sqrt(n)
    surv = np.where(np.abs(corr) > thr, corr**2, 0.0)
    total = float(surv.sum())  # ordered pairs a != j
    return 2.0 * c_star**2 * (p - 2) / (p - 1) * total / p


def estimate_kappa_sq_plugin(data: DataMatrix, c_star: float) -> float:
    """Plug-in estimate ``kappa_squared(rho_hat, c_star)``, K = min(p/2, sqrt(p)).

    rho_hat(k), k = 1..K, averages over rows the lag-k autocorrelation of
    the row series centered at the column means (lag-k products normalized
    by p-k); rho_hat(0) = 1 is the exact k = 0 term of the target series.
    Rows with no variation around the column means are skipped.
    """
    n, p = data.n, data.p
    if p < 4:
        raise DimensionError("need p >= 4")
    k_max = int(min(p / 2, math.sqrt(p)))
    y = data.values - data.col_mean
    denom = np.sum(y**2, axis=1) / p
    valid = denom > 0
    if not np.any(valid):
        raise DegenerateDataError("every row equals the column means")
    y = y[valid]
    denom = denom[valid]
    rho_hat = np.ones(k_max + 1)
    for k in range(1, k_max + 1):
        num = np.sum(y[:, :-k] * y[:, k:], axis=1) / (p - k)
        rho_hat[k] = np.mean(num / denom)
    return kappa_squared(rho_hat, c_star)


def decide(statistic: float, curve: CalibrationCurve, level: float) -> TestReport:
    """One-sided calibrated test: reject iff statistic > (1-level)-quantile."""
    if not 0 < level < 1:
        raise DomainError(f"level must lie in (0,1), got {level}")
    threshold = quantile(curve, 1.0 - level)
    return TestReport(threshold=threshold, rejected=bool(statistic > threshold))


def conservative_reject(statistic: float, c_star: float, n: int) -> bool:
    """Scale-free conservative rule: reject iff |statistic - c*| > log(n)/n.

    Valid for arbitrarily fast dimension growth in the ergodic regime; the
    attained level shrinks to 0 as n grows.
    """
    if n < 2:
        raise DimensionError("need n >= 2")
    return abs(statistic - c_star) > math.log(n) / n
