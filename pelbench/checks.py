"""Output checks of the benchmark, computed apart from the package.

Every function returns a list of failure messages; an empty list means the
output passed.  The checks use numpy and the standard library only, so that
each quantity is recomputed here rather than read back from ``pelhd``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Rounding allowance for quantities that are sums of n terms of size O(1).
REL_TOL = 1e-9
# Monte Carlo checks accept |estimate - target| <= Z_LIMIT standard errors.
Z_LIMIT = 5.0


def kkt_residual(values, delta, mu, lam, pi) -> float:
    """Max-norm of the PEL gradient projected onto {x : sum x = 0}.

    The gradient of -sum log(n pi) + lam sum_j delta_j M_j(pi)^2 is
    -1/pi + 2 lam Y (Y' pi) with Y = (X - mu) sqrt(delta).
    """
    y = (np.asarray(values) - mu) * np.sqrt(delta)
    g = -1.0 / pi + 2.0 * lam * (y @ (y.T @ pi))
    return float(np.max(np.abs(g - g.mean())))


def pel_objective(values, delta, mu, lam, pi) -> float:
    """-sum_i log(n pi_i) + lam sum_j delta_j [sum_i pi_i (X_ij - mu_j)]^2."""
    n = pi.size
    m = (np.asarray(values) - mu).T @ pi
    return float(-np.sum(np.log(n * pi)) + lam * np.dot(delta, m * m))


def check_pel_solution(values, delta, mu, lam, tol, pi, stat) -> list[str]:
    """pi > 0, sum pi = 1, KKT residual < tol, K_n = objective(pi),
    and 0 <= K_n <= lam sum_j delta_j (xbar_j - mu_j)^2."""
    values = np.asarray(values, dtype=float)
    mu = np.asarray(mu, dtype=float)
    pi = np.asarray(pi, dtype=float)
    n = values.shape[0]
    errs = []
    if pi.shape != (n,):
        return [f"pi has shape {pi.shape}, expected ({n},)"]
    if not np.all(pi > 0):
        errs.append("pi has a non-positive weight")
        return errs
    if abs(pi.sum() - 1.0) > 64 * n * np.finfo(float).eps:
        errs.append(f"sum(pi) - 1 = {pi.sum() - 1.0:.3e}")
    res = kkt_residual(values, delta, mu, lam, pi)
    if not res < tol:
        errs.append(f"recomputed KKT residual {res:.3e} >= tol {tol:.1e}")
    direct = pel_objective(values, delta, mu, lam, pi)
    if abs(direct - stat) > REL_TOL * max(1.0, abs(direct)):
        errs.append(f"K_n {stat!r} differs from the objective at pi {direct!r}")
    upper = lam * float(np.dot(delta, (values.mean(axis=0) - mu) ** 2))
    if stat < 0 or stat > upper * (1 + REL_TOL) + REL_TOL:
        errs.append(f"K_n {stat!r} outside [0, {upper!r}]")
    return errs


def check_zero_at_mean(stat) -> list[str]:
    """K_n at mu = xbar must vanish: the uniform weights are optimal there."""
    return [] if abs(stat) <= 1e-12 else [f"K_n at the sample mean is {stat!r}"]


def expected_subsample_size(n, p, rule, c0, decay) -> int:
    """The subsample size of the paper's rules, clamped to [2, n-1].

    ergodic: c0 max((n p)^(a/(1+a)), n^(1/3)) with a = min(decay, 1/2)
    (a = 1/2 for short-range dependence, decay = inf); ne-cuberoot:
    c0 n^(1/3); ne-sqrt: c0 n^(1/2).
    """
    if rule == "ergodic":
        a = min(decay, 0.5) if decay > 0 else 0.5
        m = c0 * max((n * p) ** (a / (1 + a)), n ** (1 / 3))
    elif rule == "ne-cuberoot":
        m = c0 * n ** (1 / 3)
    elif rule == "ne-sqrt":
        m = c0 * math.sqrt(n)
    else:
        raise ValueError(f"unknown rule {rule!r}")
    return min(max(round(m), 2), n - 1)


def check_curve(block_stats, sorted_values, n, m, m_expected, regime,
                p, alpha_hat, c_star) -> list[str]:
    """n-m+1 blocks, m from the rule, sorted values = sorted finite blocks,
    and ergodic values >= -p^min(alpha_hat, 1/2) c* (block K_m >= 0)."""
    block_stats = np.asarray(block_stats, dtype=float)
    sorted_values = np.asarray(sorted_values, dtype=float)
    errs = []
    if m != m_expected:
        errs.append(f"m = {m}, the subsample-size rule gives {m_expected}")
    if block_stats.size != n - m + 1:
        errs.append(f"{block_stats.size} blocks, expected n-m+1 = {n - m + 1}")
    finite = np.sort(block_stats[~np.isnan(block_stats)])
    if not np.array_equal(finite, sorted_values):
        errs.append("sorted curve values are not the sorted block statistics")
    if regime == "ergodic":
        floor = -(p ** min(alpha_hat, 0.5)) * c_star
        if finite.size and finite[0] < floor * (1 + REL_TOL):
            errs.append(f"ergodic curve value {finite[0]!r} below {floor!r}")
    return errs


def order_statistic_index(level, count) -> int:
    """ceil((1 - level) N), computed exactly for decimal levels."""
    k = math.ceil((1 - Fraction(str(level))) * count)
    return min(max(k, 1), count)


def expected_decision(statistic, sorted_values, level) -> bool:
    """Reject iff the statistic exceeds the ceil((1-level)N)-th curve value."""
    k = order_statistic_index(level, len(sorted_values))
    return bool(statistic > sorted_values[k - 1])


def check_rows(rows, attempted) -> list[str]:
    """Each result row counts every attempted replicate, and a_hat n_reps
    is an integer number of rejections in [0, n_reps]."""
    errs = []
    for row in rows:
        n_reps, a_hat = row["n_reps"], row["a_hat"]
        if n_reps != attempted:
            errs.append(f"row {row['m_rule']}/{row['level']}: n_reps "
                        f"{n_reps} != {attempted} attempted")
        k = a_hat * n_reps
        if not (0 <= k <= n_reps and abs(k - round(k)) < 1e-9):
            errs.append(f"row {row['m_rule']}/{row['level']}: a_hat {a_hat!r}"
                        f" is not a count out of {n_reps}")
    return errs


def lrd_rho(p, alpha) -> np.ndarray:
    """rho(d) = ((d+1)^2H + (d-1)^2H - 2 d^2H)/2, 2H = 2 - alpha, d < p."""
    two_h = 2.0 - alpha
    d = np.arange(1, p, dtype=float)
    rho = np.empty(p)
    rho[0] = 1.0
    rho[1:] = 0.5 * ((d + 1) ** two_h + (d - 1) ** two_h - 2 * d ** two_h)
    return rho


def lrd_limit_variance(alpha, p, c_star) -> float:
    """Var of c* p^(alpha-1) sum_j (Z_j^2 - 1), Z ~ N(0, Toeplitz(rho)):
    2 c*^2 p^(2 alpha - 2) [p + 2 sum_d (p - d) rho(d)^2]."""
    rho = lrd_rho(p, alpha)
    d = np.arange(1, p)
    tr_r2 = p + 2.0 * float(np.sum((p - d) * rho[1:] ** 2))
    return 2.0 * c_star**2 * p ** (2 * alpha - 2) * tr_r2


def ne_limit_mean(r, c_star) -> float:
    """E (c*/q) Z'(I + (2c*/q) R)^{-1} Z = (c*/q) tr(R (I + (2c*/q) R)^{-1})."""
    q = r.shape[0]
    a = np.eye(q) + (2.0 * c_star / q) * r
    return float(c_star / q * np.trace(np.linalg.solve(a, r)))


def _mean_error(draws, target, label) -> list[str]:
    se = float(np.std(draws, ddof=1)) / math.sqrt(draws.size)
    z = (float(np.mean(draws)) - target) / se
    if abs(z) > Z_LIMIT:
        return [f"{label} mean {np.mean(draws)!r} is {z:+.1f} SE from {target!r}"]
    return []


def check_lrd_draws(draws, alpha, p, c_star) -> list[str]:
    """Draw mean near 0 and draw variance near lrd_limit_variance, each
    within Z_LIMIT Monte Carlo standard errors (the variance SE uses the
    sample fourth central moment)."""
    draws = np.asarray(draws, dtype=float)
    errs = _mean_error(draws, 0.0, f"LRD(alpha={alpha})")
    c = draws - draws.mean()
    var = float(np.mean(c * c))
    se = math.sqrt(max(float(np.mean(c**4)) - var * var, 0.0) / draws.size)
    target = lrd_limit_variance(alpha, p, c_star)
    if abs(var - target) > Z_LIMIT * se:
        errs.append(f"LRD(alpha={alpha}) variance {var!r} is "
                    f"{(var - target) / se:+.1f} SE from {target!r}")
    return errs


def check_ne_draws(draws, r, c_star) -> list[str]:
    """Draw mean near (c*/q) tr(R (I + (2c*/q) R)^{-1}) within Z_LIMIT SE."""
    draws = np.asarray(draws, dtype=float)
    return _mean_error(draws, ne_limit_mean(np.asarray(r), c_star), "NE limit")
