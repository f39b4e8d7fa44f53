import math
import time

import numpy as np
import pytest
from scipy.stats import skew

from pelhd.errors import DimensionError, DomainError
from pelhd.limits import (
    _LRD_PANEL,
    kappa_squared,
    sample_lrd_limit,
    sample_ne_limit,
)
from pelhd.simulate import lrd_correlation, ne_correlation

from conftest import rng_for
from oracles import (
    gaussian_quadratic_center_sum_variance,
    lrd_limit_dense,
    lrd_rho,
    ne_limit_inverse_form,
)


def assert_draws_agree(draws, reference):
    # relative to the largest |draw|: LRD draws near 0 are differences of
    # two sums near p, so an elementwise relative bound cannot hold there
    assert draws.shape == reference.shape
    assert np.max(np.abs(draws - reference)) <= 1e-12 * np.max(np.abs(reference))


def rank_two_grid(q):
    """Unit-diagonal correlation cos(t_i - t_j) of rank 2 (mean square 1/2)."""
    t = np.pi * np.arange(q) / q
    x = np.column_stack((np.cos(t), np.sin(t)))
    return x @ x.T


class TestRegimeDispatch:
    def test_kappa_squared_sum(self):
        rho = np.array([1.0, 0.5, 0.25])
        assert kappa_squared(rho, 2.0) == pytest.approx(8 * (1 + 0.25 + 0.0625))


class TestNeLimitSampler:
    def test_uncorrelated_grid_mean(self):
        # with identity correlation the draw is a scaled chi-squared:
        # mean = c*/(1 + 2 c*/q) -> c*
        q = 200
        draws = sample_ne_limit(np.eye(q), 1.0, 10_000, rng_for("nelim", 0))
        assert draws.mean() == pytest.approx(1.0 / (1 + 2.0 / q), rel=0.02)

    def test_zero_penalty_scale(self):
        draws = sample_ne_limit(np.eye(50), 0.0, 100, rng_for("nelim", 1))
        np.testing.assert_array_equal(draws, 0.0)

    def test_nonnegative_for_psd_operator(self):
        r = ne_correlation(150)
        draws = sample_ne_limit(r, 1.0, 5_000, rng_for("nelim", 2))
        assert draws.min() >= 0.0

    def test_deterministic(self):
        r = ne_correlation(60)
        a = sample_ne_limit(r, 1.0, 500, 77)
        b = sample_ne_limit(r, 1.0, 500, 77)
        np.testing.assert_array_equal(a, b)

    def test_neumann_series_agrees_with_inverse(self):
        q, c = 50, 1.0
        r = ne_correlation(q)
        a = np.eye(q) + (2 * c / q) * r
        m = (2 * c / q) * r
        norm = np.linalg.norm(m, 2)
        n_terms = int(math.ceil(math.log(1e-8) / math.log(norm)))
        series = np.zeros((q, q))
        term = np.eye(q)
        for _ in range(n_terms + 1):
            series += term
            term = term @ (-m)
        assert np.max(np.abs(series - np.linalg.inv(a))) < 1e-8

    @pytest.mark.parametrize("grid,c_star", [
        (ne_correlation(200), 1.0),
        (np.eye(50), 1.0),
        (rank_two_grid(80), 0.5),
        (ne_correlation(60), 0.0),
    ], ids=["ne_correlation_200", "identity_50", "rank_two_80", "c_star_0"])
    def test_matches_inverse_form(self, grid, c_star):
        draws = sample_ne_limit(grid, c_star, 3_000, 91)
        assert_draws_agree(draws, ne_limit_inverse_form(grid, c_star, 3_000, 91))

    def test_spectral_condition_enforced(self):
        # a nearly-constant process: mean(rho^2) ~ 1 makes the series diverge
        q = 40
        r = np.full((q, q), 0.999)
        np.fill_diagonal(r, 1.0)
        with pytest.raises(DomainError):
            sample_ne_limit(r, 1.0, 10, 0)

    def test_input_validation(self):
        with pytest.raises(DimensionError):
            sample_ne_limit(np.ones((3, 4)), 1.0, 10, 0)
        bad = np.eye(4)
        bad[0, 1] = 0.5  # asymmetric
        with pytest.raises(DomainError):
            sample_ne_limit(bad, 1.0, 10, 0)
        with pytest.raises(DomainError):
            sample_ne_limit(2 * np.eye(4), 1.0, 10, 0)  # diagonal != 1
        with pytest.raises(DimensionError):
            sample_ne_limit(np.empty((0, 0)), 1.0, 10, 0)
        for c_star in (-1.0, math.nan):
            with pytest.raises(DomainError):
                sample_ne_limit(np.eye(4), c_star, 10, 0)
        for n_draws in (0, -5):
            with pytest.raises(DimensionError):
                sample_ne_limit(np.eye(4), 0.1, n_draws, 0)


class TestLrdLimitSampler:
    def test_centered(self):
        draws = sample_lrd_limit(0.1, 2048, 10_000, rng_for("lrdlim", 0))
        assert abs(draws.mean()) <= 3.0 * draws.std() / 100.0

    def test_variance_matches_quadratic_form_sum(self):
        p = 2048
        alpha = 0.1
        draws = sample_lrd_limit(alpha, p, 4_000, rng_for("lrdlim", 1))
        exact = p ** (2 * alpha - 2) * gaussian_quadratic_center_sum_variance(
            lrd_rho(alpha, p - 1), p)
        assert draws.var() == pytest.approx(exact, rel=0.10)

    def test_positive_skew(self):
        for rep in range(3):
            draws = sample_lrd_limit(0.2, 1024, 4_000, rng_for("lrdlim", 2, rep))
            assert skew(draws) > 0

    def test_c_star_scales_linearly(self):
        a = sample_lrd_limit(0.1, 512, 100, 42, c_star=1.0)
        b = sample_lrd_limit(0.1, 512, 100, 42, c_star=2.5)
        np.testing.assert_allclose(b, 2.5 * a, rtol=1e-12)

    # p a multiple of the panel width and not; n_draws at the batch size
    # 2 000 000 // p and one past it, so the second case runs two batches
    @pytest.mark.parametrize("p,n_draws", [
        (2 * _LRD_PANEL, 2_000_000 // (2 * _LRD_PANEL)),
        (2 * _LRD_PANEL, 2_000_000 // (2 * _LRD_PANEL) + 1),
        (700, 2_000_000 // 700),
        (700, 2_000_000 // 700 + 1),
        (2, 7),
    ])
    def test_matches_dense_product(self, p, n_draws):
        alpha, c_star = 0.2, 1.5
        draws = sample_lrd_limit(alpha, p, n_draws, 17, c_star)
        reference = lrd_limit_dense(lrd_correlation(p, alpha),
                                    alpha, n_draws, 17, c_star)
        assert_draws_agree(draws, reference)

    def test_alpha_domain(self):
        for alpha in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(DomainError):
                sample_lrd_limit(alpha, 256, 10, 0)

    @pytest.mark.parametrize("c_star", [-1.0, math.nan])
    def test_bad_c_star_rejected(self, c_star):
        with pytest.raises(DomainError):
            sample_lrd_limit(0.1, 256, 10, 0, c_star=c_star)

    def test_draw_count_checked(self):
        for n_draws in (0, -5):
            with pytest.raises(DimensionError):
                sample_lrd_limit(0.1, 256, n_draws, 0)

    @pytest.mark.slow
    def test_surrogate_length_self_convergence(self):
        """Doubling the surrogate length moves the 95th percentile < 2%.

        Uses common random numbers: the upper Cholesky factor of the
        nested Toeplitz correlation is itself nested, so the first 2048
        coordinates of a 4096-length draw reproduce the 2048-length draw
        exactly, which removes most Monte Carlo noise from the comparison.
        """
        alpha = 0.1
        p2, p4 = 2048, 4096
        u4 = lrd_correlation(p4, alpha)
        u2 = lrd_correlation(p2, alpha)
        np.testing.assert_allclose(u4[:p2, :p2], u2, atol=1e-10)
        rng = rng_for("lrdlim", 3)
        q2_parts, q4_parts = [], []
        for _ in range(30):
            g = rng.standard_normal((1000, p4))
            z4 = g @ u4
            z2 = z4[:, :p2]
            q2_parts.append(p2 ** (alpha - 1) * (np.sum(z2**2, axis=1) - p2))
            q4_parts.append(p4 ** (alpha - 1) * (np.sum(z4**2, axis=1) - p4))
        q95_2 = np.quantile(np.concatenate(q2_parts), 0.95)
        q95_4 = np.quantile(np.concatenate(q4_parts), 0.95)
        assert abs(q95_4 / q95_2 - 1.0) < 0.02


def agreement_table(rounds=5):
    """Print the benchmark's three limit operations against their references.

    One line per operation (LRD at alpha 0.1 and 0.3 with p=2048 and 1000
    draws, NE on ne_correlation(200) with 10 000 draws, c* = 1): the
    largest |difference| over the largest |draw|, and the best-of-`rounds`
    times in ms of the library sampler and of its reference in oracles.py.
    Run as ``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python
    tests/test_limits.py`` to time one BLAS thread, as the benchmark does.
    """
    def best_ms(fn):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return 1e3 * min(times)

    grid = ne_correlation(200)
    cases = [(f"lrd:alpha={a}",
              lambda a=a: sample_lrd_limit(a, 2048, 1000, 5, 1.0),
              lambda a=a: lrd_limit_dense(lrd_correlation(2048, a),
                                          a, 1000, 5, 1.0))
             for a in (0.1, 0.3)]
    cases.append(("ne:q=200", lambda: sample_ne_limit(grid, 1.0, 10_000, 5),
                  lambda: ne_limit_inverse_form(grid, 1.0, 10_000, 5)))
    print("op max_diff_over_max_draw sampler_ms reference_ms")
    for name, sampler, reference in cases:
        draws, ref = sampler(), reference()
        diff = np.max(np.abs(draws - ref)) / np.max(np.abs(ref))
        print(f"{name} {diff:.1e} {best_ms(sampler):.1f} "
              f"{best_ms(reference):.1f}")


if __name__ == "__main__":
    agreement_table()
