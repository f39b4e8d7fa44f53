"""Independent oracles used by the tests.

Everything here recomputes expected values from first principles (grid
search, direct summation, closed-form moments) without touching the
library's solution paths, so solver/estimator bugs cannot cancel out.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


def objective_direct(pi, y, delta, lam):
    """-sum log(n pi) + lam sum_j delta_j (pi' y_j)^2, evaluated directly."""
    pi = np.asarray(pi, dtype=float)
    n = y.shape[0]
    m = pi @ y
    return float(-np.sum(np.log(n * pi)) + lam * np.dot(delta, m**2))


def dense_newton(y, delta, lam, tol=1e-10, max_iters=100):
    """Reference PEL solve of one problem: Newton on the dense bordered KKT.

    Restates the library's start, step and stopping rules with the n x n
    Hessian diag(1/pi^2) + G, G = 2 lam (y delta y'), formed explicitly.
    Start: from the uniform weights, up to 12 predictor steps
    x' = x - M (g + nu 1) with the explicit n x n matrix
    M = P (I - P G P) P, P = diag(x), and nu making sum x' = sum x (then
    renormalized); a step is kept only if x' > 0 and its residual is at
    most 0.5 times x's, and the predictor stops at its first rejected
    step or once the residual is below tol.  Newton steps: a full step
    below a squared Newton decrement of 1/16 (when it stays inside the
    simplex), otherwise backtracking from 0.99 of the largest feasible
    step until the direct objective decreases by 1e-4 t times the
    decrement; stop once the projected gradient's max-norm is below tol.
    Returns (K_n, iterations, predictor steps), the iterations counting
    Newton steps only; raises RuntimeError if not certified.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    gram = 2.0 * lam * (y * delta) @ y.T
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, n] = kkt[n, :n] = 1.0

    def residual(pi):
        grad = -1.0 / pi + gram @ pi
        return grad, np.max(np.abs(grad - grad.mean()))

    pi = np.full(n, 1.0 / n)
    grad, res = residual(pi)
    steps = 0
    while steps < 12 and res >= tol:
        scale = np.diag(pi)
        m_inv = scale @ (np.eye(n) - scale @ gram @ scale) @ scale
        v, w = m_inv @ grad, m_inv @ np.ones(n)
        x1 = pi - (v - v.sum() / w.sum() * w)
        x1 /= x1.sum()
        if not np.all(x1 > 0):
            break
        grad1, res1 = residual(x1)
        if not res1 <= 0.5 * res:
            break
        pi, grad, res = x1, grad1, res1
        steps += 1
    for it in range(max_iters + 1):
        grad, res = residual(pi)
        if res < tol:
            return objective_direct(pi, y, delta, lam), it, steps
        kkt[:n, :n] = gram + np.diag(pi ** -2)
        d = np.linalg.solve(kkt, np.append(-grad, 0.0))[:n]
        dec = -grad @ d
        t = 1.0
        if dec >= 1.0 / 16.0 or np.any(pi + d <= 0):
            if np.any(d < 0):
                t = min(1.0, 0.99 * np.min(-pi[d < 0] / d[d < 0]))
            f0 = objective_direct(pi, y, delta, lam)
            while (t > 1e-14 and objective_direct(pi + t * d, y, delta, lam)
                   > f0 - 1e-4 * t * dec):
                t /= 2.0
        pi = pi + t * d
        pi /= pi.sum()
    raise RuntimeError(f"dense Newton did not reach tol={tol:g}")


def _grid_points_2(step):
    t = np.arange(step, 1.0, step)
    return np.column_stack([t, 1.0 - t])


def _grid_points_3(step):
    k = int(round(1.0 / step))
    i, j = np.meshgrid(np.arange(1, k), np.arange(1, k), indexing="ij")
    keep = (i + j) < k
    a = i[keep] / k
    b = j[keep] / k
    return np.column_stack([a, b, 1.0 - a - b])


def _grid_points_4(step):
    k = int(round(1.0 / step))
    i, j, l = np.meshgrid(
        np.arange(1, k), np.arange(1, k), np.arange(1, k), indexing="ij")
    keep = (i + j + l) < k
    a = i[keep] / k
    b = j[keep] / k
    c = l[keep] / k
    return np.column_stack([a, b, c, 1.0 - a - b - c])


def _eval_batch(points, y, delta, lam):
    n = y.shape[0]
    vals = -np.sum(np.log(n * points), axis=1)
    m = points @ y
    vals += lam * (m**2 @ delta)
    return vals


def _zoom(best, y, delta, lam, width, r=6, floor=1e-12, max_passes=200):
    """Pattern-search refinement around ``best`` on the open simplex.

    Re-centers a local grid on the incumbent; the window only shrinks when
    the incumbent is interior to it, which guarantees progress toward the
    (unique, convex) minimizer even if an early window misses it.
    """
    n = best.size
    axes_idx = np.arange(n - 1)
    x = best[:-1].copy()
    fbest = _eval_batch(best[None, :], y, delta, lam)[0]
    for _ in range(max_passes):
        if width < 1e-8:
            break
        grids = [np.linspace(x[d] - width, x[d] + width, 2 * r + 1)
                 for d in axes_idx]
        mesh = np.meshgrid(*grids, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        last = 1.0 - pts.sum(axis=1)
        pts = np.column_stack([pts, last])
        ok = np.all(pts > floor, axis=1)
        pts = pts[ok]
        if pts.shape[0] == 0:
            width /= 2.0
            continue
        vals = _eval_batch(pts, y, delta, lam)
        k = int(np.argmin(vals))
        on_boundary = np.any(
            np.abs(pts[k, :-1] - (x - width)) < width / (2 * r)) or np.any(
            np.abs(pts[k, :-1] - (x + width)) < width / (2 * r))
        if vals[k] < fbest:
            fbest = vals[k]
            x = pts[k, :-1].copy()
        if not on_boundary:
            width /= 2.0
    return fbest


def simplex_grid_minimum(y, delta, lam, step=1e-3):
    """Global minimum of the penalized criterion by grid search + refinement.

    Full simplex grid at ``step`` for n in {2, 3} (coarser 1e-2 base grid
    for n = 4, where a 1e-3 lattice would need ~1.7e8 points), followed by
    a pattern-search zoom down to ~1e-8 window width.  Pure function
    evaluations throughout.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n == 2:
        pts = _grid_points_2(step)
    elif n == 3:
        pts = _grid_points_3(step)
    elif n == 4:
        pts = _grid_points_4(max(step, 1e-2))
    else:
        raise ValueError("grid oracle supports n in {2, 3, 4}")
    vals = _eval_batch(pts, y, delta, lam)
    k = int(np.argmin(vals))
    best = pts[k]
    return _zoom(best, y, delta, lam, width=4.0 * max(step, 1e-2 if n == 4 else step))


def arma_psi_weights(ar, ma, n_terms=4000):
    """Moving-average weights of an ARMA recursion by direct unrolling."""
    a1, a2 = ar
    b = list(ma)
    psi = [1.0]
    for j in range(1, n_terms):
        val = b[j - 1] if j - 1 < len(b) else 0.0
        val += a1 * psi[j - 1]
        if j >= 2:
            val += a2 * psi[j - 2]
        psi.append(val)
    return np.asarray(psi)


def arma_autocovariance(ar, ma, nlags, n_terms=4000):
    """gamma(0..nlags) for unit-variance innovations, from the psi weights."""
    psi = arma_psi_weights(ar, ma, n_terms)
    return np.array([psi[: n_terms - k] @ psi[k:] for k in range(nlags + 1)])


def arma_autocorrelation(ar, ma, nlags, n_terms=4096):
    """rho(0..nlags) = gamma(k) / gamma(0), from 4096 psi weights by default."""
    gamma = arma_autocovariance(ar, ma, nlags, n_terms)
    return gamma / gamma[0]


def lrd_rho(alpha, nlags):
    """Increment correlations of a self-similar process, H = (2-alpha)/2."""
    two_h = 2.0 - alpha
    k = np.arange(nlags + 1, dtype=float)
    rho = np.empty(nlags + 1)
    rho[0] = 1.0
    kk = k[1:]
    rho[1:] = 0.5 * ((kk + 1) ** two_h + (kk - 1) ** two_h - 2 * kk**two_h)
    return rho


def lrd_cholesky(alpha, p):
    """Upper Cholesky factor U of the p x p Toeplitz matrix R = U'U of
    lrd_rho, by scipy: z U with z ~ N(0, I_p) has the law of an LRD row."""
    return scipy.linalg.cholesky(
        scipy.linalg.toeplitz(lrd_rho(alpha, p - 1)), lower=False)


def gaussian_quadratic_center_sum_variance(rho_row, p):
    """Var of sum_j (Z_j^2 - 1) for stationary Gaussian Z with correlation rho.

    Cov(Z_j^2, Z_l^2) = 2 rho(j-l)^2, so the variance is the Toeplitz double
    sum 2 [p + 2 sum_{d>=1} (p-d) rho(d)^2].
    """
    rho_row = np.asarray(rho_row, dtype=float)
    d = np.arange(1, p)
    rr = rho_row[d] ** 2 if rho_row.size >= p else np.zeros(p - 1)
    return float(2.0 * (p + 2.0 * np.sum((p - d) * rr)))


def ne_basis_covariance(points):
    """Closed-form covariance of the 31-term trigonometric expansion."""
    t = np.asarray(points, dtype=float)
    weight = math.e + 1.0
    phi = [np.ones_like(t)]
    for j in range(1, 16):
        phi.append(np.sin(2 * np.pi * j * t) / math.sqrt(2.0))
    for j in range(1, 16):
        phi.append(np.cos(2 * np.pi * j * t) / math.sqrt(2.0))
    phi = np.asarray(phi)
    return weight**2 * (phi.T @ phi)


def ne_limit_inverse_form(r, c_star, n_draws, seed):
    """Non-ergodic limit draws by the inverse-operator form, solved directly.

    From eigh(R0) = Q L Q' keeps the eigenpairs above the numerical-rank
    tolerance q eps l_max, draws G ~ N(0, I) of shape (kept, n_draws), the
    stream the library reads, sets Z = Q L^(1/2) G over the kept pairs,
    and returns (c*/q) Z' (I + (2 c*/q) R0)^{-1} Z per column by an LU
    solve of the full q x q operator.
    """
    r = np.asarray(r, dtype=float)
    q = r.shape[0]
    evals, evecs = np.linalg.eigh(r)
    keep = evals > q * np.finfo(float).eps * evals[-1]
    root = evecs[:, keep] * np.sqrt(evals[keep])
    g = np.random.default_rng(seed).standard_normal((int(keep.sum()), n_draws))
    z = root @ g
    v = np.linalg.solve(np.eye(q) + (2.0 * c_star / q) * r, z)
    return (c_star / q) * np.einsum("ij,ij->j", z, v)


def lrd_limit_dense(alpha, p, n_draws, seed, c_star=1.0):
    """LRD surrogate draws c* p^(alpha-1) (g R g' - p) by a dense product.

    R is the p x p Toeplitz matrix of lrd_rho; all n_draws rows of
    g ~ N(0, I_p) are drawn at once, from the stream the library draws in
    batches.
    """
    rho = lrd_rho(alpha, p - 1)
    r = rho[np.abs(np.subtract.outer(np.arange(p), np.arange(p)))]
    g = np.random.default_rng(seed).standard_normal((n_draws, p))
    return c_star * p ** (alpha - 1.0) * (np.einsum("ij,ij->i", g @ r, g) - p)


def lrd_limit_cholesky(u, alpha, n_draws, seed, c_star=1.0):
    """LRD surrogate draws c* p^(alpha-1) (||G U||^2 - p), Z = G U.

    u is the p x p upper Cholesky factor of R: the same law as
    lrd_limit_dense, another realization.  G is drawn in batches of
    2 000 000 // p rows, which bounds the memory and leaves the stream as
    it is.
    """
    p = u.shape[0]
    rng = np.random.default_rng(seed)
    scale = c_star * p ** (alpha - 1.0)
    out = np.empty(n_draws)
    batch = max(1, min(n_draws, 2_000_000 // p))
    done = 0
    while done < n_draws:
        b = min(batch, n_draws - done)
        z = rng.standard_normal((b, p)) @ u
        out[done:done + b] = scale * (np.sum(z**2, axis=1) - p)
        done += b
    return out
