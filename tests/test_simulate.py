import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from scipy.stats import ks_2samp

from pelhd import simulate
from pelhd.errors import (
    DimensionError,
    DomainError,
    NumericError,
    ParameterError,
)
from pelhd.simulate import (
    DependenceSpec,
    _format_matrix_csv,
    _lrd_spectrum,
    generate,
    lrd_correlation,
    ne_correlation,
    read_matrix_csv,
)

from conftest import rng_for
from oracles import (
    arma_autocovariance,
    lrd_cholesky,
    lrd_rho,
    ne_basis_covariance,
)

E1 = math.e + 1.0
NE = DependenceSpec.non_ergodic()


class TestNonErgodic:
    def test_single_point_variance(self):
        # at t = 1 all sine terms vanish and all cosine terms equal 1/sqrt(2),
        # so the draw is N(0, (e+1)^2 (1 + 15/2))
        x = generate(NE, 100_000, 1, rng_for("ne", 0))
        target = E1**2 * (1 + 15 / 2)
        assert x.var() == pytest.approx(target, rel=0.02)

    def test_rows_iid(self):
        x = generate(NE, 4000, 3, rng_for("ne", 1))
        for j in range(3):
            stat = ks_2samp(x[:2000, j], x[2000:, j])
            assert stat.pvalue > 0.01

    def test_covariance_matches_basis_expansion(self):
        p = 6
        x = generate(NE, 100_000, p, rng_for("ne", 2))
        emp = np.cov(x, rowvar=False, bias=True)
        expect = ne_basis_covariance(np.arange(1, p + 1) / p)
        scale = E1**2 * (1 + 15 / 2)  # common variance of every coordinate
        assert np.max(np.abs(emp - expect)) < 0.05 * scale

    def test_variance_constant_across_coordinates(self):
        expect = ne_basis_covariance(np.arange(1, 40) / 39.0)
        np.testing.assert_allclose(np.diag(expect), E1**2 * 8.5, rtol=1e-12)

    def test_row_permutation_keeps_column_law(self):
        x = generate(NE, 500, 4, rng_for("ne", 4))
        shuffled = x[rng_for("ne", 5).permutation(500)]
        np.testing.assert_array_equal(
            np.sort(x, axis=0), np.sort(shuffled, axis=0))


# the shipped LRD level configs' (p, alpha) pairs and the limit sampler's
# surrogate size
LRD_PAIRS = [
    (20, 0.1), (100, 0.1), (400, 0.1), (20, 0.8), (100, 0.8), (400, 0.8),
    (2048, 0.1), (2048, 0.3),
]


class TestLrdCorrelation:
    def test_lag_one_value(self):
        rho = lrd_correlation(10, 0.8)
        assert rho[0] == 1.0
        assert rho[1] == pytest.approx(0.5 * (2**1.2 - 2), abs=1e-12)

    def test_matches_direct_formula(self):
        rho = lrd_correlation(64, 0.3)
        np.testing.assert_allclose(rho, lrd_rho(0.3, 63), rtol=1e-12)

    def test_vanishes_as_alpha_approaches_one(self):
        rho = lrd_correlation(6, 1.0 - 1e-9)
        assert np.max(np.abs(rho - np.eye(6)[0])) < 1e-6

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            lrd_correlation(10, 1.0)
        with pytest.raises(DomainError):
            lrd_correlation(10, 0.0)
        with pytest.raises(DimensionError):
            lrd_correlation(0, 0.5)

    def test_read_only(self):
        assert not lrd_correlation(32, 0.4).flags.writeable

    @pytest.mark.parametrize("p, alpha", LRD_PAIRS)
    def test_spectrum_embeds_the_correlation(self, p, alpha):
        # the circulant with eigenvalues lambda has first column ifft(lambda),
        # whose first p entries are the first row of R
        lam = _lrd_spectrum(p, alpha)
        assert lam.shape == (2 * p,)
        np.testing.assert_allclose(np.fft.ifft(lam)[:p].real,
                                   lrd_rho(alpha, p - 1), rtol=0, atol=1e-13)
        assert lam.min() >= -1e-6 * lam.max()

    @pytest.mark.parametrize("p, alpha", LRD_PAIRS)
    def test_rows_have_the_law_of_the_cholesky_product(self, p, alpha):
        # row sums and squared norms of 2000 rows each side, from unrelated
        # streams, against z U with the scipy factor R = U'U
        n = 2000
        x = generate(DependenceSpec.long_range(alpha), n, p,
                     rng_for("lrdlaw", p, 0))
        z = (rng_for("lrdlaw", p, 1).standard_normal((n, p))
             @ lrd_cholesky(alpha, p))
        assert ks_2samp(x.sum(axis=1), z.sum(axis=1)).pvalue >= 0.01
        assert ks_2samp(np.sum(x**2, axis=1),
                        np.sum(z**2, axis=1)).pvalue >= 0.01

    def test_power_law_decay(self):
        alpha = 0.8
        rho = lrd_correlation(500, alpha)
        k = np.arange(50, 500)
        scaled = rho[50:] * k**alpha
        assert np.all(scaled > 0)
        mid = np.median(scaled)
        assert np.max(np.abs(scaled / mid - 1)) < 0.10


class TestGenLrd:
    def test_lag_one_correlation(self):
        x = generate(DependenceSpec.long_range(0.8), 10_000, 50, rng_for("lrd", 0))
        xc = x - x.mean(axis=0)
        num = np.mean(xc[:, :-1] * xc[:, 1:])
        corr = num / x.var()
        assert corr == pytest.approx(0.5 * (2**1.2 - 2), abs=0.03)

    def test_unit_marginals(self):
        x = generate(DependenceSpec.long_range(0.8), 10_000, 50, rng_for("lrd", 1))
        assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.05)
        assert np.all(np.abs(x.mean(axis=0)) < 4 / math.sqrt(10_000))

    def test_near_iid_limit(self):
        x = generate(DependenceSpec.long_range(1.0 - 1e-9), 10_000, 12,
                     rng_for("lrd", 2))
        emp = np.corrcoef(x, rowvar=False)
        np.fill_diagonal(emp, 0.0)
        assert np.max(np.abs(emp)) < 0.05

    def test_memory(self):
        # 2p normals and a complex FFT of length 2p per two rows; the
        # product with a Cholesky factor, a p x p matrix, peaked at 245 MB
        tracemalloc.start()
        try:
            generate(DependenceSpec.long_range(0.1), 200, 4000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_indefinite_embedding_raises_numeric_error(self, monkeypatch):
        # rho(1) = 0.9, rho(2) = -0.9: the length-4 circulant [1, .9, -.9, .9]
        # has eigenvalues 1.9, 1.9, 1.9 and -1.7
        monkeypatch.setattr(
            simulate, "lrd_correlation",
            lambda p, alpha: np.array([1.0, 0.9, -0.9])[:p])
        with pytest.raises(NumericError, match="indefinite"):
            generate(DependenceSpec.long_range(0.5), 4, 2, 0)

    def test_same_bits_on_one_and_two_blas_threads(self):
        # the six shipped LRD (p, alpha) pairs; the FFT draws call no BLAS
        # kernel, whose choice, and last bits, follow the thread count
        code = (
            "import sys; from pelhd.simulate import DependenceSpec, generate\n"
            "for alpha in (0.1, 0.8):\n"
            "    for p in (20, 100, 400):\n"
            "        spec = DependenceSpec.long_range(alpha)\n"
            "        x = generate(spec, 200, p, p)\n"
            "        sys.stdout.buffer.write(x.tobytes())\n")
        out = [subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            cwd=Path(simulate.__file__).resolve().parents[1]).stdout
            for threads in ("1", "2")]
        assert len(out[0]) == 8 * 200 * 2 * (20 + 100 + 400)
        assert out[0] == out[1]

    def test_row_covariance_exact(self):
        # entrywise 3/sqrt(n) is a ~2 sigma band per entry, so the seed is
        # fixed at a representative draw rather than maxed over reruns
        n, p, alpha = 10_000, 8, 0.4
        x = generate(DependenceSpec.long_range(alpha), n, p, rng_for("lrd", 101))
        emp = np.cov(x, rowvar=False, bias=True)
        expect = scipy.linalg.toeplitz(lrd_rho(alpha, p - 1))
        assert np.max(np.abs(emp - expect)) < 3 / math.sqrt(n)


class TestGenSrdArma:
    def test_acf_matches_recursion_oracle(self):
        spec = DependenceSpec.short_range_arma()
        x = generate(spec, 10_000, 40, rng_for("srd", 0))
        gamma = arma_autocovariance(spec.ar, spec.ma, 6)
        xc = x - x.mean(axis=0)
        emp_var = x.var()
        assert emp_var == pytest.approx(gamma[0], rel=0.05)
        for k in range(1, 6):
            emp = np.mean(xc[:, :-k] * xc[:, k:]) / emp_var
            assert emp == pytest.approx(gamma[k] / gamma[0], abs=0.03)

    @pytest.mark.parametrize("ar, ma", [
        ((-0.4, 0.1), (0.3, 0.5, 0.1)),
        ((0.5, -0.3), (0.0, 0.0, 0.0)),
        ((0.9, 0.0), (0.2,)),
        ((0.0, 0.0), (0.3, 0.5, 0.1)),
    ])
    @pytest.mark.parametrize("n, p, burn_in", [
        (40, 100, 500), (5, 64, 500), (7, 40, 0), (9, 1, 500), (1, 33, 20),
    ])
    def test_matches_scipy_lfilter(self, ar, ma, n, p, burn_in):
        spec = DependenceSpec.short_range_arma(ar=ar, ma=ma, burn_in=burn_in)
        x = generate(spec, n, p, 11)
        eps = np.random.default_rng(11).standard_normal((n, burn_in + p))
        expect = scipy.signal.lfilter(
            [1.0, *ma], [1.0, -ar[0], -ar[1]], eps, axis=1)[:, burn_in:]
        assert x.shape == (n, p) and x.flags.c_contiguous
        assert np.max(np.abs(x - expect)) <= 1e-14 * np.max(np.abs(expect))

    def test_correlations_die_out(self):
        spec = DependenceSpec.short_range_arma()
        x = generate(spec, 10_000, 40, rng_for("srd", 1))
        xc = x - x.mean(axis=0)
        for k in range(10, 15):
            emp = np.mean(xc[:, :-k] * xc[:, k:]) / x.var()
            assert abs(emp) < 0.05

    def test_zero_coefficients_give_white_noise(self):
        spec = DependenceSpec.short_range_arma(ar=(0.0, 0.0), ma=(0.0, 0.0, 0.0))
        x = generate(spec, 20_000, 10, rng_for("srd", 2))
        assert x.var() == pytest.approx(1.0, rel=0.03)
        emp = np.corrcoef(x, rowvar=False)
        np.fill_diagonal(emp, 0.0)
        assert np.max(np.abs(emp)) < 0.04

    @pytest.mark.parametrize("ar", [(1.5, 0.0), (0.5, 0.5), (0.9, 0.2),
                                    (-1.75, -1.0)])
    def test_non_causal_rejected(self, ar):
        with pytest.raises(ParameterError):
            DependenceSpec.short_range_arma(ar=ar)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_ma_rejected(self, bad):
        # a NaN or infinite MA coefficient makes every generated entry NaN
        with pytest.raises(ParameterError, match="ma"):
            DependenceSpec.short_range_arma(ma=(0.3, bad, 0.1))

    def test_causality_agrees_with_the_roots(self):
        # off the unit circle, the stationarity triangle and the roots of
        # 1 - a1 z - a2 z^2 give the same verdict
        for a1, a2 in rng_for("causal", 0).uniform(-2.5, 2.5, size=(2000, 2)):
            moduli = np.abs(np.roots([-a2, -a1, 1.0]))
            if np.any(np.abs(moduli - 1.0) < 1e-9):
                continue
            try:
                DependenceSpec.short_range_arma(ar=(a1, a2))
                causal = True
            except ParameterError:
                causal = False
            assert causal == bool(np.all(moduli > 1.0)), (a1, a2)

    def test_column_means_near_zero(self):
        spec = DependenceSpec.short_range_arma()
        x = generate(spec, 10_000, 20, rng_for("srd", 3))
        assert np.all(np.abs(x.mean(axis=0)) < 4 * math.sqrt(x.var()) / 100)


class TestDeterminismAndDispatch:
    @pytest.mark.parametrize("spec", [
        DependenceSpec.non_ergodic(),
        DependenceSpec.long_range(0.8),
        DependenceSpec.short_range_arma(),
    ])
    def test_bit_identical_regeneration(self, spec):
        a = generate(spec, 30, 12, 991)
        b = generate(spec, 30, 12, 991)
        np.testing.assert_array_equal(a, b)
        c = generate(spec, 30, 12, 992)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n, p", [(0, 5), (5, 0)])
    def test_empty_sample_rejected(self, n, p):
        with pytest.raises(DimensionError):
            generate(NE, n, p, 0)

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            DependenceSpec.long_range(1.2)
        with pytest.raises(ParameterError):
            DependenceSpec(kind="weird")
        for ar in ((0.1,), (0.1, 0.1, 0.1)):
            with pytest.raises(ParameterError):
                DependenceSpec.short_range_arma(ar=ar)
        with pytest.raises(ParameterError, match="burn_in"):
            DependenceSpec.short_range_arma(burn_in=-1)
        assert DependenceSpec.non_ergodic().decay_exponent == 0.0
        assert DependenceSpec.short_range_arma().decay_exponent == math.inf

    def test_short_range_defaults_are_the_field_defaults(self):
        assert DependenceSpec.short_range_arma() == DependenceSpec(kind="srd")
        spec = DependenceSpec.short_range_arma(ar=[0.5, -0.3], ma=[0.2])
        assert spec == DependenceSpec(kind="srd", ar=(0.5, -0.3), ma=(0.2,))
        assert spec.burn_in == DependenceSpec(kind="srd").burn_in

    def test_coefficient_lists_are_stored_as_tuples(self):
        # a list would leave the spec unequal to its tuple and unhashable
        spec = DependenceSpec(kind="srd", ar=[-0.4, 0.1], ma=[0.3, 0.5, 0.1])
        assert spec == DependenceSpec.short_range_arma()
        assert hash(spec) == hash(DependenceSpec.short_range_arma())
        assert spec.ar == (-0.4, 0.1) and spec.ma == (0.3, 0.5, 0.1)
        ints = DependenceSpec(kind="srd", ar=(0, 0), ma=[1])
        assert type(ints.ar[0]) is float and type(ints.ma[0]) is float

    @pytest.mark.parametrize("kind, settings, expect", [
        ("ne", {"alpha": 0.3, "ar": (0.5, 0.2), "burn_in": 7},
         DependenceSpec(kind="ne")),
        ("lrd", {"alpha": 0.3, "ma": (0.1,), "burn_in": None},
         DependenceSpec(kind="lrd", alpha=0.3)),
        ("srd", {"alpha": 0.3, "ar": None, "ma": [0.2], "burn_in": 20},
         DependenceSpec(kind="srd", ma=(0.2,), burn_in=20)),
        ("srd", {}, DependenceSpec(kind="srd")),
    ], ids=["ne", "lrd", "srd", "srd-defaults"])
    def test_of_reads_only_the_regimes_settings(self, kind, settings, expect):
        # a setting left None keeps its default; another regime's is dropped
        assert DependenceSpec.of(kind, **settings) == expect

    @pytest.mark.parametrize("kind, settings", [
        ("weird", {}), (None, {"alpha": 0.3}), ("lrd", {"alpha": None}),
        ("lrd", {"ar": (0.5, 0.2)}), ("srd", {"burn_in": -1}),
    ])
    def test_of_rejects_what_the_spec_rejects(self, kind, settings):
        with pytest.raises(ParameterError):
            DependenceSpec.of(kind, **settings)


class TestNeCorrelationGrid:
    def test_unit_diagonal_and_rank(self):
        r = ne_correlation(120)
        np.testing.assert_allclose(np.diag(r), 1.0, atol=1e-12)
        evals = np.linalg.eigvalsh(r)
        assert evals.min() > -1e-10
        assert np.sum(evals > 1e-9) == 31  # finite basis rank


class TestCsvRoundTrip:
    def test_write_and_read(self, tmp_path):
        x = rng_for("csv", 0).normal(size=(7, 3))
        path = tmp_path / "data.csv"
        path.write_text(_format_matrix_csv(x, kind="srd", seed=42))
        first = path.read_text().splitlines()[0]
        assert first == "# n=7 p=3 kind=srd seed=42"
        back = read_matrix_csv(path)
        np.testing.assert_array_equal(back, x)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# n=0 p=0 kind= seed=None\n")
        with pytest.raises(DimensionError):
            read_matrix_csv(path)
