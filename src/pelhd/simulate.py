"""Samplers for the three component-dependence regimes.

Each generator returns an n x p matrix of i.i.d. rows, reproducibly from a
seed:

* non-ergodic: rows are a fixed 31-term trigonometric expansion
  ``W(t) = sum_j Z_j phi_j(t) * (e+1)`` evaluated at t = j/p;
* long-range dependent: rows are N(0, R) with Toeplitz correlation
  ``rho(k) = ((k+1)^{2H} + (k-1)^{2H} - 2 k^{2H}) / 2``, H = (2-alpha)/2,
  drawn through an upper Cholesky factor R = U'U;
* short-range dependent: each row is a stationary stretch of an ARMA(2,3)
  recursion with N(0,1) innovations after a burn-in.

Seeds may be ints or numpy SeedSequence/Generator objects; identical
(spec, n, p, seed) produce bit-identical matrices.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.signal

from .errors import DimensionError, DomainError, NumericError, ParameterError

__all__ = [
    "DependenceSpec",
    "LrdCorrelation",
    "gen_non_ergodic",
    "lrd_correlation",
    "gen_lrd",
    "gen_srd_arma",
    "generate",
    "ne_basis",
    "ne_correlation",
    "arma_autocorrelations",
    "write_matrix_csv",
    "read_matrix_csv",
]

DEFAULT_AR = (-0.4, 0.1)
DEFAULT_MA = (0.3, 0.5, 0.1)

# Basis weight exp(1)+1, identical for every term of the expansion.
_NE_WEIGHT = math.e + 1.0
_NE_TERMS = 31


@dataclass(frozen=True)
class DependenceSpec:
    """Tagged description of a generating process: NE | LRD(alpha) | SRD(arma).

    ``sigma`` holds optional per-component scales (default all 1); it is
    applied by ``generate`` after the unit-scale draw.
    """

    kind: str
    alpha: float | None = None
    ar: tuple[float, float] = DEFAULT_AR
    ma: tuple[float, float, float] = DEFAULT_MA
    burn_in: int = 500
    sigma: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("ne", "lrd", "srd"):
            raise ParameterError(f"unknown dependence kind {self.kind!r}")
        if self.kind == "lrd":
            if self.alpha is None or not 0 < self.alpha < 1:
                raise ParameterError(
                    f"LRD requires alpha in (0,1), got {self.alpha}")
        if self.kind == "srd":
            _check_causal(self.ar)
            if self.burn_in < 0:
                raise ParameterError("burn_in must be >= 0")
        if self.sigma is not None and any(s <= 0 for s in self.sigma):
            raise ParameterError("sigma entries must be positive")

    @classmethod
    def non_ergodic(cls, sigma=None) -> "DependenceSpec":
        return cls(kind="ne", sigma=_as_sigma(sigma))

    @classmethod
    def long_range(cls, alpha: float, sigma=None) -> "DependenceSpec":
        return cls(kind="lrd", alpha=alpha, sigma=_as_sigma(sigma))

    @classmethod
    def short_range_arma(cls, ar=DEFAULT_AR, ma=DEFAULT_MA, burn_in=500,
                         sigma=None) -> "DependenceSpec":
        return cls(kind="srd", ar=tuple(ar), ma=tuple(ma), burn_in=burn_in,
                   sigma=_as_sigma(sigma))

    @property
    def hurst(self) -> float:
        """H = (2 - alpha)/2 for the LRD regime."""
        if self.kind != "lrd":
            raise DomainError("Hurst parameter is defined for LRD only")
        return 0.5 * (2.0 - self.alpha)

    @property
    def decay_exponent(self) -> float:
        """Correlation decay exponent: 0 for NE, alpha for LRD, inf for SRD."""
        if self.kind == "ne":
            return 0.0
        if self.kind == "srd":
            return math.inf
        return self.alpha


def _as_sigma(sigma):
    return None if sigma is None else tuple(float(s) for s in sigma)


def _check_causal(ar):
    if len(ar) != 2:
        raise ParameterError(f"ar must hold 2 coefficients, got {ar}")
    a1, a2 = ar
    # 1 - a1 z - a2 z^2 must have all roots outside the unit disk.
    if a2 == 0:
        roots = [] if a1 == 0 else [1.0 / a1]
    else:
        roots = np.roots([-a2, -a1, 1.0])
    if any(abs(r) <= 1.0 for r in np.atleast_1d(roots)):
        raise ParameterError(f"AR polynomial is not causal for ar={ar}")


@dataclass(frozen=True)
class LrdCorrelation:
    """Toeplitz correlation of fGn increments and its upper Cholesky factor."""

    rho: np.ndarray
    chol_upper: np.ndarray


def ne_basis(t) -> np.ndarray:
    """Basis values phi_j(t) for j = 0..30 as a (31, len(t)) matrix.

    phi_0 = 1, phi_j = sin(2 pi j t)/sqrt(2) for j = 1..15 and
    phi_j = cos(2 pi (j-15) t)/sqrt(2) for j = 16..30.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    phi = np.empty((_NE_TERMS, t.size))
    phi[0] = 1.0
    js = np.arange(1, 16)[:, None]
    phi[1:16] = np.sin(2 * np.pi * js * t) / np.sqrt(2.0)
    phi[16:31] = np.cos(2 * np.pi * js * t) / np.sqrt(2.0)
    return phi


def gen_non_ergodic(n: int, p: int, seed, sigma=None) -> np.ndarray:
    """Rows X_i = (sigma_j * W(j/p))_j with W the 31-term basis expansion."""
    if n < 1 or p < 1:
        raise DimensionError("n and p must be >= 1")
    phi = ne_basis(np.arange(1, p + 1) / p)
    z = np.random.default_rng(seed).standard_normal((n, _NE_TERMS))
    x = _NE_WEIGHT * (z @ phi)
    if sigma is not None:
        x *= np.asarray(sigma, dtype=float)
    return x


def ne_correlation(q: int) -> np.ndarray:
    """Correlation of (W(1/q), ..., W(q/q)) under the basis expansion.

    The variance sum_j phi_j(t)^2 = 1 + 15/2 is constant in t, so this is
    the covariance grid rescaled by a scalar.
    """
    phi = ne_basis(np.arange(1, q + 1) / q)
    cov = phi.T @ phi
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


@functools.lru_cache(maxsize=3)
def lrd_correlation(p: int, alpha: float) -> LrdCorrelation:
    """Correlation sequence rho_alpha(k), k < p, and Cholesky of its Toeplitz.

    rho(k) ~ C k^{-alpha}; the matrix is positive definite for
    H = (2-alpha)/2 in (1/2, 1).  A 1e-12 diagonal jitter is retried once
    if rounding spoils the factorization; NumericError otherwise.  The
    three most recently used (p, alpha) pairs are cached.
    """
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    if p < 1:
        raise DimensionError("p must be >= 1")
    two_h = 2.0 - alpha
    k = np.arange(p, dtype=float)
    rho = np.empty(p)
    rho[0] = 1.0
    if p > 1:
        kk = k[1:]
        rho[1:] = 0.5 * ((kk + 1) ** two_h + (kk - 1) ** two_h - 2 * kk**two_h)
    r = scipy.linalg.toeplitz(rho)
    try:
        u = scipy.linalg.cholesky(r, lower=False)
    except np.linalg.LinAlgError:
        try:
            u = scipy.linalg.cholesky(r + 1e-12 * np.eye(p), lower=False)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                "Cholesky factorization of the LRD correlation failed even "
                "with 1e-12 diagonal jitter; matrix is numerically indefinite"
            ) from exc
    rho.setflags(write=False)
    u.setflags(write=False)
    return LrdCorrelation(rho=rho, chol_upper=u)


def gen_lrd(n: int, p: int, alpha: float, seed) -> np.ndarray:
    """Rows are N(0, Toeplitz(rho_alpha)) via U'z with R = U'U."""
    if n < 1:
        raise DimensionError("n must be >= 1")
    u = lrd_correlation(p, alpha).chol_upper
    z = np.random.default_rng(seed).standard_normal((n, p))
    return z @ u


def gen_srd_arma(n: int, p: int, spec: DependenceSpec, seed) -> np.ndarray:
    """Rows are independent length-p stretches of a stationary ARMA(2,3).

    X_t = a1 X_{t-1} + a2 X_{t-2} + eps_t + b1 eps_{t-1} + b2 eps_{t-2}
    + b3 eps_{t-3} with N(0,1) innovations; the first ``burn_in`` values
    are discarded to wash out the zero initial state.
    """
    if n < 1 or p < 1:
        raise DimensionError("n and p must be >= 1")
    _check_causal(spec.ar)
    a1, a2 = spec.ar
    eps = np.random.default_rng(seed).standard_normal((n, spec.burn_in + p))
    series = scipy.signal.lfilter([1.0, *spec.ma], [1.0, -a1, -a2], eps, axis=1)
    return np.ascontiguousarray(series[:, spec.burn_in:])


def generate(spec: DependenceSpec, n: int, p: int, seed) -> np.ndarray:
    """Dispatch to the generator for ``spec`` and apply component scales."""
    if spec.kind == "ne":
        x = gen_non_ergodic(n, p, seed)
    elif spec.kind == "lrd":
        x = gen_lrd(n, p, spec.alpha, seed)
    else:
        x = gen_srd_arma(n, p, spec, seed)
    if spec.sigma is not None:
        sig = np.asarray(spec.sigma, dtype=float)
        if sig.shape != (p,):
            raise DimensionError(f"sigma must have length p={p}")
        x = x * sig
    return x


def arma_autocorrelations(ar, ma, nlags: int, n_psi: int = 4096) -> np.ndarray:
    """Autocorrelations rho(0..nlags) of an ARMA process, via its MA(inf) weights.

    psi_0 = 1, psi_j = b_j + a1 psi_{j-1} + a2 psi_{j-2} (b_j = 0 beyond the
    MA order); gamma(k) = sum_j psi_j psi_{j+k}.  The psi sequence decays
    geometrically for causal AR parts, so truncation at ``n_psi`` terms is
    far below rounding error at the default.
    """
    _check_causal(ar)
    impulse = np.zeros(n_psi)
    impulse[0] = 1.0
    psi = scipy.signal.lfilter([1.0, *ma], [1.0, *(-a for a in ar)], impulse)
    gamma = np.array(
        [psi[: n_psi - k] @ psi[k:] for k in range(nlags + 1)]
    )
    return gamma / gamma[0]


def _format_matrix_csv(x: np.ndarray, kind: str = "", seed=None) -> str:
    """A data matrix as CSV text with a one-line ``#`` metadata header."""
    n, p = x.shape
    lines = [f"# n={n} p={p} kind={kind} seed={seed}"]
    lines += [",".join(repr(float(v)) for v in row) for row in x]
    return "\n".join(lines) + "\n"


def write_matrix_csv(path, x: np.ndarray, kind: str = "", seed=None) -> None:
    """Dump a data matrix as CSV with a one-line ``#`` metadata header."""
    with open(path, "w") as fh:
        fh.write(_format_matrix_csv(x, kind, seed))


def read_matrix_csv(path) -> np.ndarray:
    """Read a data matrix written by ``write_matrix_csv`` (``#`` lines skipped)."""
    with warnings.catch_warnings():
        # an empty file is reported below, not as a loadtxt warning
        warnings.simplefilter("ignore", UserWarning)
        try:
            x = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        except ValueError as exc:
            raise DimensionError(f"malformed data in {path}: {exc}") from exc
    if x.shape[0] == 0:
        raise DimensionError(f"no data rows in {path}")
    return x
