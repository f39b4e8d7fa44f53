import math

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from scipy.stats import ks_2samp

from pelhd.errors import (
    DimensionError,
    DomainError,
    NumericError,
    ParameterError,
)
from pelhd.simulate import (
    DependenceSpec,
    _format_matrix_csv,
    generate,
    lrd_correlation,
    ne_correlation,
    read_matrix_csv,
)

from conftest import rng_for
from oracles import arma_autocovariance, lrd_rho, ne_basis_covariance

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


class TestLrdCorrelation:
    # R = U'U has unit diagonal, so U[0, 0] = 1 and the first row of U is
    # the first row of R: the correlation sequence rho(0..p-1)
    def test_lag_one_value(self):
        u = lrd_correlation(10, 0.8)
        assert u[0, 0] == 1.0
        assert u[0, 1] == pytest.approx(0.5 * (2**1.2 - 2), abs=1e-12)

    def test_matches_direct_formula(self):
        u = lrd_correlation(64, 0.3)
        np.testing.assert_allclose(u[0], lrd_rho(0.3, 63), rtol=1e-12)

    def test_vanishes_as_alpha_approaches_one(self):
        u = lrd_correlation(6, 1.0 - 1e-9)
        assert np.max(np.abs(u - np.eye(6))) < 1e-6

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            lrd_correlation(10, 1.0)
        with pytest.raises(DomainError):
            lrd_correlation(10, 0.0)

    def test_cached_and_read_only(self):
        u = lrd_correlation(32, 0.4)
        assert lrd_correlation(32, 0.4) is u
        assert not u.flags.writeable

    def test_cache_holds_the_lrd_level_configs(self):
        # the two LRD level configs at p = 20, 100 and 400, cycled as a
        # Monte Carlo run over them cycles: the second pass only hits
        pairs = [(p, alpha) for alpha in (0.1, 0.8) for p in (20, 100, 400)]
        lrd_correlation.cache_clear()
        try:
            for _ in range(2):
                for p, alpha in pairs:
                    lrd_correlation(p, alpha)
            assert lrd_correlation.cache_info().hits == 6
        finally:
            lrd_correlation.cache_clear()

    def test_cholesky_reconstructs(self):
        u = lrd_correlation(80, 0.5)
        r = scipy.linalg.toeplitz(lrd_rho(0.5, 79))
        np.testing.assert_allclose(u.T @ u, r, atol=1e-8)
        assert np.allclose(np.tril(u, -1), 0.0)

    @pytest.mark.parametrize("p, alpha", [
        (20, 0.1), (100, 0.1), (400, 0.1), (20, 0.8), (100, 0.8), (400, 0.8),
        (2048, 0.1), (2048, 0.3),
    ])
    def test_cholesky_equals_scipy_bit_for_bit(self, p, alpha):
        # the shipped configs' pairs and the limit samplers' surrogate size
        expect = scipy.linalg.cholesky(
            scipy.linalg.toeplitz(lrd_rho(alpha, p - 1)), lower=False)
        np.testing.assert_array_equal(lrd_correlation(p, alpha), expect)
        z = np.random.default_rng(5).standard_normal((50, p))
        np.testing.assert_array_equal(
            generate(DependenceSpec.long_range(alpha), 50, p, 5), z @ expect)

    def test_power_law_decay(self):
        alpha = 0.8
        rho = lrd_correlation(500, alpha)[0]
        k = np.arange(50, 500)
        scaled = rho[50:] * k**alpha
        assert np.all(scaled > 0)
        mid = np.median(scaled)
        assert np.max(np.abs(scaled / mid - 1)) < 0.10


@pytest.fixture
def failing_cholesky(monkeypatch):
    """Install an np.linalg.cholesky whose first ``k`` calls raise
    LinAlgError: ``failing_cholesky(k)`` returns the list of matrices it is
    called with.  lrd_correlation's cache is cleared around the test."""
    real = np.linalg.cholesky

    def install(k):
        calls = []

        def cholesky(a, *args, **kwargs):
            calls.append(np.array(a))
            if len(calls) <= k:
                raise np.linalg.LinAlgError("not positive definite")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        return calls

    lrd_correlation.cache_clear()
    yield install
    lrd_correlation.cache_clear()


class TestLrdCholeskyFailure:
    def test_jitter_retry_factors_the_jittered_matrix(self, failing_cholesky):
        calls = failing_cholesky(1)
        u = lrd_correlation(12, 0.3)
        first, retried = calls
        np.testing.assert_array_equal(retried, first + 1e-12 * np.eye(12))
        np.testing.assert_allclose(u.T @ u, retried, atol=1e-12)

    def test_second_failure_raises_numeric_error(self, failing_cholesky):
        calls = failing_cholesky(2)
        with pytest.raises(NumericError, match="jitter"):
            lrd_correlation(12, 0.3)
        assert len(calls) == 2


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

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            DependenceSpec.long_range(1.2)
        with pytest.raises(ParameterError):
            DependenceSpec(kind="weird")
        for ar in ((0.1,), (0.1, 0.1, 0.1)):
            with pytest.raises(ParameterError):
                DependenceSpec.short_range_arma(ar=ar)
        assert DependenceSpec.non_ergodic().decay_exponent == 0.0
        assert DependenceSpec.short_range_arma().decay_exponent == math.inf

    def test_short_range_defaults_are_the_field_defaults(self):
        assert DependenceSpec.short_range_arma() == DependenceSpec(kind="srd")
        spec = DependenceSpec.short_range_arma(ar=[0.5, -0.3], ma=[0.2])
        assert spec == DependenceSpec(kind="srd", ar=(0.5, -0.3), ma=(0.2,))
        assert spec.burn_in == DependenceSpec(kind="srd").burn_in


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
