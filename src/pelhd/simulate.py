"""Samplers for the three component-dependence regimes.

``generate`` returns an n x p matrix of i.i.d. rows of a regime,
reproducibly from a seed:

* non-ergodic: rows are a fixed 31-term trigonometric expansion
  ``W(t) = sum_j Z_j phi_j(t) * (e+1)`` evaluated at t = j/p;
* long-range dependent: rows are N(0, R) with Toeplitz correlation
  ``rho(k) = ((k+1)^{2H} + (k-1)^{2H} - 2 k^{2H}) / 2``, H = (2-alpha)/2,
  drawn through an upper Cholesky factor R = U'U;
* short-range dependent: each row is a stationary stretch of an ARMA(2,3)
  recursion with N(0,1) innovations after a burn-in, computed by a blocked
  state-space filter (two matrix products per block of 32 steps, so the
  Python loop runs over blocks, not time steps).

Only numpy is used: the SRD filter agrees with a direct recursion to a few
units of rounding, and the LRD Toeplitz matrix and its Cholesky factor are
numpy's.

Seeds may be ints or numpy SeedSequence/Generator objects; identical
(spec, n, p, seed) produce bit-identical matrices.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, DomainError, NumericError, ParameterError

__all__ = [
    "DependenceSpec",
    "lrd_correlation",
    "generate",
    "ne_correlation",
    "read_matrix_csv",
]

# Basis weight exp(1)+1, identical for every term of the expansion.
_NE_WEIGHT = math.e + 1.0
_NE_TERMS = 31
# Time steps per block of the SRD filter (see _arma_filter).
_FILTER_BLOCK = 32


@dataclass(frozen=True)
class DependenceSpec:
    """Tagged description of a generating process: NE | LRD(alpha) | SRD(arma).

    ``alpha`` is read for LRD only; ``ar``, ``ma`` and ``burn_in`` for SRD
    only.  Every regime draws unit-scale components.
    """

    kind: str
    alpha: float | None = None
    ar: tuple[float, float] = (-0.4, 0.1)
    ma: tuple[float, float, float] = (0.3, 0.5, 0.1)
    burn_in: int = 500

    def __post_init__(self):
        if self.kind not in ("ne", "lrd", "srd"):
            raise ParameterError(f"unknown dependence kind {self.kind!r}")
        if self.kind == "lrd":
            if self.alpha is None or not 0 < self.alpha < 1:
                raise ParameterError(
                    f"LRD requires alpha in (0,1), got {self.alpha}")
        if self.kind == "srd":
            _check_causal(self.ar)
            if not all(math.isfinite(b) for b in self.ma):
                raise ParameterError(f"ma coefficients must be finite, got {self.ma}")
            if self.burn_in < 0:
                raise ParameterError("burn_in must be >= 0")

    @classmethod
    def non_ergodic(cls) -> "DependenceSpec":
        return cls(kind="ne")

    @classmethod
    def long_range(cls, alpha: float) -> "DependenceSpec":
        return cls(kind="lrd", alpha=alpha)

    @classmethod
    def short_range_arma(cls, ar=None, ma=None,
                         burn_in=None) -> "DependenceSpec":
        """SRD with the ``ar``, ``ma`` and ``burn_in`` given; one left None
        keeps its field default.  ``ar`` and ``ma`` are stored as tuples."""
        given = {"ar": ar, "ma": ma, "burn_in": burn_in}
        return cls(kind="srd", **{k: v if k == "burn_in" else tuple(v)
                                  for k, v in given.items() if v is not None})

    @property
    def decay_exponent(self) -> float:
        """Correlation decay exponent: 0 for NE, alpha for LRD, inf for SRD."""
        if self.kind == "ne":
            return 0.0
        if self.kind == "srd":
            return math.inf
        return self.alpha


def _check_causal(ar):
    if len(ar) != 2:
        raise ParameterError(f"ar must hold 2 coefficients, got {ar}")
    a1, a2 = ar
    # 1 - a1 z - a2 z^2 has no root in |z| <= 1 iff (a1, a2) is in this triangle
    if not (abs(a2) < 1 and a1 + a2 < 1 and a2 - a1 < 1):
        raise ParameterError(f"AR polynomial is not causal for ar={ar}")


def _ne_basis(t) -> np.ndarray:
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


def ne_correlation(q: int) -> np.ndarray:
    """Correlation of (W(1/q), ..., W(q/q)) under the basis expansion.

    The variance sum_j phi_j(t)^2 = 1 + 15/2 is constant in t, so this is
    the covariance grid rescaled by a scalar.
    """
    phi = _ne_basis(np.arange(1, q + 1) / q)
    cov = phi.T @ phi
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


@functools.lru_cache(maxsize=6)
def lrd_correlation(p: int, alpha: float) -> np.ndarray:
    """Upper Cholesky factor U, read-only, of the p x p Toeplitz correlation
    R = U'U of the sequence rho_alpha(k), k < p.

    rho(k) ~ C k^{-alpha}; the matrix is positive definite for
    H = (2-alpha)/2 in (1/2, 1).  A 1e-12 diagonal jitter is retried once
    if rounding spoils the factorization; NumericError otherwise.  The six
    most recently used (p, alpha) pairs are cached: the two LRD level
    configs at their three p values each, which a run cycles through.
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
    # row i of the Toeplitz matrix is the window of [rho reversed, rho]
    # that starts at p-1-i: a read-only view, copied once by the factorization
    r = sliding_window_view(np.concatenate((rho[:0:-1], rho)), p)[::-1]
    try:
        u = np.linalg.cholesky(r, upper=True)
    except np.linalg.LinAlgError:
        try:
            u = np.linalg.cholesky(r + 1e-12 * np.eye(p), upper=True)
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                "Cholesky factorization of the LRD correlation failed even "
                "with 1e-12 diagonal jitter; matrix is numerically indefinite"
            ) from exc
    # Fortran order, the layout LAPACK writes: the layout of u picks the
    # BLAS kernel of z @ u in generate, and with it the last bits of the data
    u = np.asfortranarray(u)
    u.setflags(write=False)
    return u


@functools.lru_cache(maxsize=8)
def _arma_block_operators(ar, ma, n_lead: int):
    """Block operators of the filter y_t = sum_k ar_k y_(t-k) + eps_t
    + sum_k ma_k eps_(t-k), as right factors of row vectors.

    State-space form with a state z of dimension r = max(len(ar), len(ma)):
    y_t = eps_t + z_t[0] and z_(t+1) = A z_t + beta eps_t, where A holds
    ``ar`` in its first column and ones on its superdiagonal, and
    beta = ar + ma (both zero-padded to r).  With L = _FILTER_BLOCK,
    returns, read-only:

    * ``lead`` (n_lead, r): eps_lead @ lead is the state after n_lead
      inputs from a zero state (row k is (A^(n_lead-1-k) beta)');
    * ``carry`` (r, r) and ``drive`` (L, r): z @ carry + eps_block @
      drive is the state one block later;
    * ``observe`` (r, L) and ``response`` (L, L): z @ observe
      + eps_block @ response are the block's outputs; ``response`` is the
      upper-triangular Toeplitz matrix of the impulse response.
    """
    r = max(len(ar), len(ma))
    block = _FILTER_BLOCK
    a = np.zeros(r)
    a[:len(ar)] = ar
    beta = a.copy()
    beta[:len(ma)] += ma
    trans = np.zeros((r, r))
    trans[:, 0] = a
    trans[np.arange(r - 1), np.arange(1, r)] = 1.0
    powers = np.empty((max(n_lead, block), r))  # row j is A^j beta
    powers[0] = beta
    for j in range(1, len(powers)):
        powers[j] = trans @ powers[j - 1]
    observe = np.zeros((r, block))  # column i is the first row of A^i
    observe[0, 0] = 1.0
    for i in range(1, block):
        observe[:, i] = observe[:, i - 1] @ trans
    impulse = np.concatenate(([1.0], powers[:block - 1, 0]))
    lag = np.arange(block)
    ops = (
        np.ascontiguousarray(powers[:n_lead][::-1]),
        np.linalg.matrix_power(trans, block).T.copy(),
        np.ascontiguousarray(powers[:block][::-1]),
        observe,
        np.triu(impulse[np.abs(lag[:, None] - lag)]),
    )
    for op in ops:
        op.setflags(write=False)
    return ops


def _arma_filter(eps: np.ndarray, ar, ma, n_keep: int) -> np.ndarray:
    """Last n_keep outputs of the ARMA filter of each row of eps, zero start.

    Equal up to rounding to ``scipy.signal.lfilter([1, *ma], [1, *-ar],
    eps)[:, -n_keep:]``.  The kept outputs are formed in blocks of
    ``_FILTER_BLOCK`` steps aligned to the end of the rows: one gemm gives
    each block's response to its own inputs, another its response to the
    state carried into it, and a Python loop carries only the (n, r) state
    from block to block.  The inputs before the first kept block enter
    through one gemm for its starting state; no output is formed for them.
    """
    n, total = eps.shape
    n_blocks = -(-n_keep // _FILTER_BLOCK)
    n_lead = total - n_blocks * _FILTER_BLOCK
    if n_lead < 0:
        # zero inputs ahead of a zero state change no output
        eps = np.pad(eps, ((0, 0), (-n_lead, 0)))
        n_lead = 0
    lead, carry, drive, observe, response = _arma_block_operators(
        tuple(ar), tuple(ma), n_lead)
    blocks = eps[:, n_lead:].reshape(n, n_blocks, _FILTER_BLOCK)
    inflow = blocks.transpose(1, 0, 2) @ drive  # block-major: (n_blocks, n, r)
    states = np.empty_like(inflow)
    states[0] = eps[:, :n_lead] @ lead
    for c in range(1, n_blocks):
        states[c] = states[c - 1] @ carry + inflow[c - 1]
    y = blocks @ response
    y += states.transpose(1, 0, 2) @ observe
    return np.ascontiguousarray(y.reshape(n, -1)[:, -n_keep:])


def generate(spec: DependenceSpec, n: int, p: int, seed) -> np.ndarray:
    """An n x p sample of ``spec``'s regime, one i.i.d. row per observation.

    * NE: X_i = (W(j/p))_j, j = 1..p, with W the 31-term basis expansion.
    * LRD: rows are N(0, Toeplitz(rho_alpha)), drawn as z U with R = U'U.
    * SRD: rows are independent length-p stretches of a stationary
      ARMA(2,q), X_t = a1 X_{t-1} + a2 X_{t-2} + eps_t + b1 eps_{t-1} + ...
      + bq eps_{t-q} with N(0,1) innovations (q = 3 by default), filtered
      from a zero state; the first ``burn_in`` values are discarded to
      wash out that state.
    """
    if n < 1 or p < 1:
        raise DimensionError("n and p must be >= 1")
    rng = np.random.default_rng(seed)
    if spec.kind == "ne":
        phi = _ne_basis(np.arange(1, p + 1) / p)
        return _NE_WEIGHT * (rng.standard_normal((n, _NE_TERMS)) @ phi)
    if spec.kind == "lrd":
        u = lrd_correlation(p, spec.alpha)
        return rng.standard_normal((n, p)) @ u
    eps = rng.standard_normal((n, spec.burn_in + p))
    return _arma_filter(eps, spec.ar, spec.ma, p)


def _format_matrix_csv(x: np.ndarray, kind: str = "", seed=None) -> str:
    """A data matrix as CSV text with a one-line ``#`` metadata header."""
    n, p = x.shape
    lines = [f"# n={n} p={p} kind={kind} seed={seed}"]
    lines += [",".join(repr(float(v)) for v in row) for row in x]
    return "\n".join(lines) + "\n"


def read_matrix_csv(path) -> np.ndarray:
    """Read a data matrix as ``pelhd simulate`` writes it (``#`` lines skipped)."""
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
