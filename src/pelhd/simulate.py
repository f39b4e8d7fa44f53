"""Samplers for the three component-dependence regimes.

``generate`` returns an n x p matrix of i.i.d. rows of a regime,
reproducibly from a seed:

* non-ergodic: rows are a fixed 31-term trigonometric expansion
  ``W(t) = sum_j Z_j phi_j(t) * (e+1)`` evaluated at t = j/p;
* long-range dependent: rows are N(0, R) with Toeplitz correlation
  ``rho(k) = ((k+1)^{2H} + (k-1)^{2H} - 2 k^{2H}) / 2``, H = (2-alpha)/2
  (``lrd_correlation``), drawn by circulant embedding: R is the leading
  block of a length-2p circulant, and one FFT of complex normals scaled
  by the root of its spectrum gives two rows, so no p x p matrix is
  formed.  The rows have the law of z U with U the upper Cholesky factor
  of ``toeplitz(lrd_correlation(p, alpha))``, not its realization;
* short-range dependent: each row is a stationary stretch of an ARMA(2,3)
  recursion with N(0,1) innovations after a burn-in, computed by a blocked
  state-space filter (two matrix products per block of 32 steps, so the
  Python loop runs over blocks, not time steps).

Only numpy is used: the SRD filter agrees with a direct recursion to a few
units of rounding, and the LRD rows take numpy's FFT, so no regime's data
depend on the BLAS thread count.

Seeds may be ints or numpy SeedSequence/Generator objects; identical
(spec, n, p, seed) produce bit-identical matrices.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

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
# The DependenceSpec fields each regime reads; a spec resets the others to
# their defaults, so another regime's settings leave a spec unchanged.
_REGIME_FIELDS = {"ne": (), "lrd": ("alpha",), "srd": ("ar", "ma", "burn_in")}


@dataclass(frozen=True)
class DependenceSpec:
    """Tagged description of a generating process: NE | LRD(alpha) | SRD(arma).

    ``alpha`` is read for LRD only; ``ar``, ``ma`` and ``burn_in`` for SRD
    only, and ``ar`` and ``ma`` are stored as tuples of floats.  The fields
    the kind does not read are reset to their defaults, so two specs of a
    regime that draw the same data compare equal.  ``of`` builds a spec
    from the settings of any regime.  Every regime draws
    unit-scale components.
    """

    kind: str
    alpha: float | None = None
    ar: tuple[float, float] = (-0.4, 0.1)
    ma: tuple[float, float, float] = (0.3, 0.5, 0.1)
    burn_in: int = 500

    def __post_init__(self):
        if self.kind not in _REGIME_FIELDS:
            raise ParameterError(f"unknown dependence kind {self.kind!r}")
        for f in fields(self)[1:]:
            # another regime's setting would change equality and the
            # config hash, not the data
            if f.name not in _REGIME_FIELDS[self.kind]:
                object.__setattr__(self, f.name, f.default)
        for name in ("ar", "ma"):
            # a list would leave the spec unhashable and unequal to its tuple
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
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
    def of(cls, kind, /, **settings) -> "DependenceSpec":
        """The spec of regime ``kind``.  A setting of that regime that is
        absent or None keeps its field default; the settings of the other
        regimes are ignored."""
        return cls(kind, **{k: settings[k] for k in _REGIME_FIELDS.get(kind, ())
                            if settings.get(k) is not None})

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
        keeps its field default."""
        return cls.of("srd", ar=ar, ma=ma, burn_in=burn_in)

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


def lrd_correlation(p: int, alpha: float) -> np.ndarray:
    """The LRD correlation sequence rho_alpha(0..p-1), read-only:
    rho(k) = ((k+1)^{2H} + (k-1)^{2H} - 2 k^{2H}) / 2 with H = (2-alpha)/2,
    the first row of the p x p Toeplitz correlation of an LRD row.

    rho(k) ~ C k^{-alpha}; the Toeplitz matrix is positive definite for
    H in (1/2, 1).
    """
    if not 0 < alpha < 1:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    if p < 1:
        raise DimensionError("p must be >= 1")
    two_h = 2.0 - alpha
    k = np.arange(1, p, dtype=float)
    rho = np.concatenate(
        ([1.0], 0.5 * ((k + 1) ** two_h + (k - 1) ** two_h - 2 * k**two_h)))
    rho.setflags(write=False)
    return rho


def _lrd_spectrum(p: int, alpha: float) -> np.ndarray:
    """Eigenvalues lambda (length 2p) of the symmetric circulant C with first
    column [rho(0..p), rho(p-1..1)], rho = ``lrd_correlation``.

    The leading p x p block of C is the LRD Toeplitz correlation R, and
    C = F diag(lambda) F^H / (2p) with F the DFT matrix (Davies & Harte
    1987; Wood & Chan 1994).
    """
    rho = lrd_correlation(p + 1, alpha)
    return np.fft.fft(np.concatenate((rho, rho[-2:0:-1]))).real


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
    * LRD: rows are N(0, Toeplitz(rho_alpha)), drawn by circulant
      embedding from ``_lrd_spectrum``: the first p entries of the real
      and the imaginary part of fft(sqrt(lambda / 2p) (z0 + i z1)) for
      2p-vectors z0, z1 of N(0,1) normals, the real parts first, so
      ceil(n/2) FFTs give the n rows.  NumericError if the embedding is
      indefinite beyond rounding.
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
        lam = _lrd_spectrum(p, spec.alpha)
        # Rounding puts lambda as low as -1.7e-7 max(lambda) at p = 2^20
        # (alpha = 0.03); on alpha in {0.01, ..., 0.99} x p in [2, 65536]
        # the smallest min/max ratio is +7e-8.  Down to -1e-6 max(lambda)
        # is rounding and clipped; below that C is not PSD.
        if lam.min() < -1e-6 * lam.max():
            raise NumericError(
                f"LRD circulant embedding is indefinite at p={p}, "
                f"alpha={spec.alpha} (min eigenvalue {lam.min():.3e})")
        root = np.sqrt(np.clip(lam, 0.0, None) / (2 * p))
        z = rng.standard_normal((2, -(-n // 2), 2 * p))
        # the real and imaginary parts of F diag(root) (z0 + i z1) are two
        # independent N(0, C) draws; their first p entries are N(0, R)
        y = np.fft.fft(root * (z[0] + 1j * z[1]))[:, :p]
        return np.concatenate((y.real, y.imag))[:n]
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
