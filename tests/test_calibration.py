import logging
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pelhd import calibration, core, experiments

from pelhd.calibration import (
    CalibrationCurve,
    build_curve_ergodic,
    build_curve_ne,
    conservative_reject,
    decide,
    estimate_alpha_hurst,
    estimate_alpha_invariant,
    estimate_kappa_sq_invariant,
    estimate_kappa_sq_plugin,
    quantile,
    subsample_size,
)
from pelhd.core import (
    BLOCK_CHUNK_ELEMENTS,
    PelConfig,
    compute_column_stats,
    solve_pel,
)
from pelhd.errors import (
    ConvergenceError,
    DegenerateDataError,
    DimensionError,
    DomainError,
    NumericError,
)
from pelhd.experiments import ExperimentConfig, load_experiment_configs
from pelhd.simulate import DependenceSpec, generate

from conftest import rng_for
from oracles import arma_autocorrelation

CFG = PelConfig(c_star=1.0)
SPEC_SRD = DependenceSpec.short_range_arma()
SPEC_NE = DependenceSpec.non_ergodic()
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# A Newton budget of 1: any block that is not solved at the uniform start
# fails.
TIGHT = PelConfig(c_star=1.0, max_newton_iters=1)


def _curve(values):
    return CalibrationCurve(np.asarray(values, dtype=float), "ne")


class TestSubsampleSize:
    def test_short_range_rule(self):
        assert subsample_size(200, 100, 0.5, 1.0, "ergodic") == 27
        assert subsample_size(200, 100, 0.5, 0.5, "ergodic") == 14
        assert subsample_size(200, 100, 0.5, 2.0, "ergodic") == 54

    def test_strong_dependence_keeps_cuberoot_floor(self):
        # (np)^(a/(1+a)) = 80000^(1/11) ~ 2.79 loses to n^(1/3) ~ 5.85
        assert subsample_size(200, 400, 0.1, 1.0, "ergodic") == round(200 ** (1 / 3))

    def test_ne_rules(self):
        assert subsample_size(200, 100, c0=2.0, rule="ne-sqrt") == 28
        assert subsample_size(200, 100, c0=1.0, rule="ne-cuberoot") == round(200 ** (1 / 3))

    def test_clamped_to_feasible_range(self):
        assert subsample_size(10, 2, c0=50.0, rule="ne-sqrt") == 9
        assert subsample_size(10, 2, c0=1e-6, rule="ne-sqrt") == 2

    @pytest.mark.parametrize("rule", ["ergodic", "ne-cuberoot", "ne-sqrt"])
    def test_huge_constant_clamps_to_n_minus_1(self, rule):
        # c0 n^(1/3) overflows to inf, which must clamp like any large m
        assert subsample_size(200, 20, c0=1e308, rule=rule) == 199

    @pytest.mark.parametrize("c0", [math.nan, math.inf])
    @pytest.mark.parametrize("rule", ["ergodic", "ne-cuberoot", "ne-sqrt"])
    def test_non_finite_constant_rejected(self, rule, c0):
        with pytest.raises(DomainError):
            subsample_size(200, 20, c0=c0, rule=rule)

    def test_validation(self):
        with pytest.raises(DimensionError):
            subsample_size(1, 10)
        # no m in [2, n - 1] for n = 2
        with pytest.raises(DimensionError):
            subsample_size(2, 10)
        with pytest.raises(DomainError):
            subsample_size(20, 10, c0=-1.0)
        with pytest.raises(DomainError):
            subsample_size(20, 10, alpha0=0.0)
        with pytest.raises(DomainError):
            subsample_size(20, 10, rule="bogus")


class TestCurves:
    def test_block_count(self):
        x = rng_for("curve", 0).normal(size=(12, 4))
        dm = compute_column_stats(x)
        for m in (2, 5, 11):
            curve = build_curve_ne(dm, np.zeros(4), m, CFG)
            assert len(curve) == 12 - m + 1
        assert len(build_curve_ne(dm, np.zeros(4), 11, CFG)) == 2

    def test_block_size_outside_1_n_rejected(self):
        dm = compute_column_stats(rng_for("curve", 0).normal(size=(12, 4)))
        for m in (1, 12):
            with pytest.raises(DomainError):
                build_curve_ne(dm, np.zeros(4), m, CFG)
            with pytest.raises(DomainError):
                build_curve_ergodic(dm, np.zeros(4), m, 0.5, CFG)

    def test_explicit_lam_rejected(self):
        # a curve's penalty is c* m/p; one fixed lambda would be silently
        # replaced by it
        dm = compute_column_stats(generate(SPEC_SRD, 40, 16, rng_for("lam", 0)))
        cfg = PelConfig(lam=50.0)
        with pytest.raises(DomainError, match="lam"):
            build_curve_ne(dm, np.zeros(16), 10, cfg)
        with pytest.raises(DomainError, match="lam"):
            build_curve_ergodic(dm, np.zeros(16), 10, 0.5, cfg)

    def test_non_finite_mu_rejected(self):
        dm = compute_column_stats(rng_for("curve", 0).normal(size=(12, 4)))
        mu0 = np.array([0.0, math.nan, 0.0, 0.0])
        with pytest.raises(DomainError):
            build_curve_ne(dm, mu0, 5, CFG)
        with pytest.raises(DomainError):
            build_curve_ergodic(dm, mu0, 5, 0.5, CFG)

    def test_identical_rows_give_zero_statistics(self):
        x = np.tile([1.0, 2.0, 3.0], (10, 1))
        dm = compute_column_stats(x)
        curve = build_curve_ne(dm, np.array([1.0, 2.0, 3.0]), 5, CFG)
        np.testing.assert_allclose(curve.sorted_values, 0.0, atol=1e-12)

    def test_sorted_ascending(self):
        x = generate(SPEC_SRD, 60, 10, rng_for("curve", 1))
        curve = build_curve_ne(compute_column_stats(x), np.zeros(10), 20, CFG)
        assert np.all(np.diff(curve.sorted_values) >= 0)

    def test_ergodic_centering_and_scale(self):
        x = generate(SPEC_SRD, 60, 20, rng_for("curve", 2))
        dm = compute_column_stats(x)
        raw = build_curve_ne(dm, np.zeros(20), 25, CFG)
        for alpha_hat in (0.3, 0.8, 2.0):
            scaled = build_curve_ergodic(dm, np.zeros(20), 25, alpha_hat, CFG)
            b = 20 ** min(alpha_hat, 0.5)
            np.testing.assert_allclose(
                scaled.block_stats, b * (raw.block_stats - 1.0), rtol=1e-12)
        with pytest.raises(DomainError):
            build_curve_ergodic(dm, np.zeros(20), 25, math.nan, CFG)

    def test_memory_does_not_grow_with_n(self):
        # m = 74: all 3927 blocks in one chunk would take about 740 MB
        n, p = 4000, 100
        dm = compute_column_stats(
            generate(SPEC_SRD, n, p, rng_for("curve", "memory")))
        m = subsample_size(n, p)
        tracemalloc.start()
        try:
            build_curve_ergodic(dm, np.zeros(p), m, 0.5, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * BLOCK_CHUNK_ELEMENTS

    def test_memory_does_not_grow_with_n_gram_path(self):
        # p >> m = 93: the Gram path, whose Newton stacks hold one m x m
        # Gram matrix a block but no m x p Ytil
        n, p = 2000, 400
        dm = compute_column_stats(
            generate(SPEC_SRD, n, p, rng_for("curve", "memory", p)))
        m = subsample_size(n, p)
        tracemalloc.start()
        try:
            build_curve_ergodic(dm, np.zeros(p), m, 0.5, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 8 * BLOCK_CHUNK_ELEMENTS

    def test_ergodic_curve_variance_tracks_limit_variance(self):
        # single-dataset block variances are noisy (overlapping blocks),
        # so compare the mean over five independent data sets
        rho = arma_autocorrelation(SPEC_SRD.ar, SPEC_SRD.ma, 60)
        kappa_sq = 2.0 * np.sum(rho**2)
        ratios = []
        for d in range(5):
            x = generate(SPEC_SRD, 200, 100, rng_for("curvevar", d))
            dm = compute_column_stats(x)
            alpha_hat = estimate_alpha_hurst(dm)
            curve = build_curve_ergodic(dm, np.zeros(100), 27, alpha_hat, CFG)
            ratios.append(curve.sorted_values.var() / kappa_sq)
        assert 0.5 < np.mean(ratios) < 2.0

    def test_ne_curve_vs_resampling_oracle(self):
        """Distribution match between one curve and the full-statistic law.

        The block statistics at subsample size m = 14 carry an upward
        finite-m bias of roughly 3 c*/(m-3) from the inverse-variance
        weights (each block re-estimates its column variances), so the
        distance stays near 0.35 at n = 200 rather than under the 0.15
        that would hold if subsample and full-sample laws already agreed.
        Asserted at the observed level; the decrease of this distance with
        n is covered by the consistency acceptance test.
        """
        from scipy.stats import ks_2samp

        oracle = []
        for rep in range(300):
            x = generate(SPEC_NE, 200, 100, rng_for("necurve", rep))
            oracle.append(
                solve_pel(compute_column_stats(x), np.zeros(100), CFG).stat)
        x = generate(SPEC_NE, 200, 100, rng_for("necurve", 9999))
        curve = build_curve_ne(compute_column_stats(x), np.zeros(100), 14, CFG)
        ks = ks_2samp(curve.sorted_values, oracle).statistic
        assert ks < 0.55


class TestQuantile:
    def test_order_statistic_rule(self):
        curve = _curve([1.0, 2.0, 3.0, 4.0])
        assert quantile(curve, 0.5) == 2.0
        assert quantile(curve, 0.75) == 3.0
        assert quantile(curve, 1e-9) == 1.0
        assert quantile(curve, 0.999) == 4.0

    def test_float_products_snap_to_integers(self):
        curve = _curve(np.arange(1.0, 31.0))
        # 0.1 * 30 = 3.0000000000000004 must still select the 3rd value
        assert quantile(curve, 0.1) == 3.0

    def test_monotone_in_q(self):
        curve = _curve(rng_for("q", 0).normal(size=37))
        qs = np.linspace(0.01, 0.99, 23)
        vals = [quantile(curve, q) for q in qs]
        assert np.all(np.diff(vals) >= 0)

    def test_empty_and_domain_errors(self):
        with pytest.raises(DomainError):
            quantile(_curve([]), 0.5)
        with pytest.raises(DomainError):
            quantile(_curve([1.0]), 0.0)
        with pytest.raises(DomainError):
            quantile(_curve([1.0]), 1.0)


class TestAlphaInvariant:
    def test_all_constant_columns(self):
        dm = compute_column_stats(np.tile([3.0, -2.0], (6, 1)))
        assert estimate_alpha_invariant(dm) == 0.0

    def test_concentrates_near_one_for_independent_columns(self):
        hits = 0
        for rep in range(200):
            x = rng_for("ainv", rep).normal(size=(200, 400))
            a = estimate_alpha_invariant(compute_column_stats(x))
            hits += 0.8 <= a <= 1.2
        assert hits >= 0.90 * 200

    def test_strong_dependence_lowers_estimate(self):
        wins = 0
        for rep in range(200):
            x_dep = generate(DependenceSpec.long_range(0.1), 200, 400,
                             rng_for("apair", rep, 0))
            x_ind = rng_for("apair", rep, 1).normal(size=(200, 400))
            a_dep = estimate_alpha_invariant(compute_column_stats(x_dep))
            a_ind = estimate_alpha_invariant(compute_column_stats(x_ind))
            wins += a_dep < a_ind
        assert wins >= 0.95 * 200

    def test_permutation_and_affine_invariance(self):
        rng = rng_for("ainv-inv", 0)
        x = generate(SPEC_SRD, 50, 24, rng)
        base = estimate_alpha_invariant(compute_column_stats(x))
        perm = rng.permutation(24)
        assert abs(estimate_alpha_invariant(
            compute_column_stats(x[:, perm])) - base) < 1e-10
        scale = rng.uniform(0.2, 3.0, size=24)
        shift = rng.normal(size=24) * 4
        assert abs(estimate_alpha_invariant(
            compute_column_stats(x * scale + shift)) - base) < 1e-10

    def test_needs_two_columns(self):
        with pytest.raises(DimensionError):
            estimate_alpha_invariant(compute_column_stats([[1.0], [2.0]]))


class TestAlphaHurst:
    def test_white_noise_scaling_law(self):
        # block-mean variance ~ 1/s gives slope -1, H = 1/2, alpha = 1;
        # the aggregated-variance estimator carries a small upward bias
        # from the few-block variances at the largest scales
        vals = [
            estimate_alpha_hurst(
                compute_column_stats(rng_for("h1", r).normal(size=(200, 400))))
            for r in range(100)
        ]
        assert 0.9 <= np.mean(vals) <= 1.25

    def test_long_range_dependence_detected(self):
        vals = [
            estimate_alpha_hurst(
                compute_column_stats(generate(DependenceSpec.long_range(0.8),
                                              200, 400, rng_for("h2", r))))
            for r in range(100)
        ]
        assert 0.6 <= np.mean(vals) <= 1.0

    def test_short_series_supported_by_grid_refinement(self):
        x = rng_for("h3", 0).normal(size=(50, 20))
        a = estimate_alpha_hurst(compute_column_stats(x))
        assert np.isfinite(a)

    def test_too_short_rejected(self):
        with pytest.raises(DimensionError):
            estimate_alpha_hurst(
                compute_column_stats(rng_for("h4", 0).normal(size=(20, 12))))

    def test_constant_rows_degenerate(self):
        x = np.tile(rng_for("h5", 0).normal(size=(30, 1)), (1, 64))
        with pytest.raises(DegenerateDataError):
            estimate_alpha_hurst(compute_column_stats(x))

    def test_degenerate_rows_skipped_with_a_debug_record(self, caplog):
        x = rng_for("h6", 0).normal(size=(30, 64))
        x[[3, 7]] = 1.5  # constant rows: zero block-mean variance
        caplog.set_level(logging.DEBUG, logger="pelhd.calibration")
        a = estimate_alpha_hurst(compute_column_stats(x))
        assert caplog.messages == [
            "skipping 2 degenerate rows in Hurst estimation"]
        rest = estimate_alpha_hurst(
            compute_column_stats(np.delete(x, [3, 7], axis=0)))
        assert a == pytest.approx(rest, rel=1e-12)

    @pytest.mark.parametrize("p, sizes", [
        (16, [2, 3, 4]), (20, [2, 3, 4]), (24, [2, 3, 4, 6]),
        (31, [2, 3, 4, 6]), (32, [2, 4, 8]), (100, [2, 4, 8, 16]),
        (400, [2, 4, 8, 16, 32, 64]),
        (4096, [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]),
    ])
    def test_block_size_grid(self, p, sizes):
        # dyadic up to p/4 once that gives 3 sizes, ratio sqrt(2) below
        grid = calibration._hurst_block_sizes(p)
        assert grid.dtype.kind == "i" and grid.tolist() == sizes


class TestKappaSqInvariant:
    def test_independent_columns_thresholded_to_zero(self):
        zeros = 0
        for rep in range(200):
            x = rng_for("kinv", rep).normal(size=(200, 50))
            zeros += estimate_kappa_sq_invariant(
                compute_column_stats(x), 1.0) == 0.0
        assert zeros >= 0.95 * 200

    def test_duplicated_columns_exact_value(self):
        p = 10
        base = rng_for("kdup", 0).normal(size=(200, 1))
        x = np.tile(base, (1, p))
        k2 = estimate_kappa_sq_invariant(compute_column_stats(x), 1.0)
        assert k2 == pytest.approx(2.0 * (p - 2), rel=1e-9)
        k2 = estimate_kappa_sq_invariant(compute_column_stats(x), 1.5)
        assert k2 == pytest.approx(2.0 * 1.5**2 * (p - 2), rel=1e-9)

    def test_zero_prefactor(self):
        x = rng_for("kzero", 0).normal(size=(30, 8))
        assert estimate_kappa_sq_invariant(compute_column_stats(x), 0.0) == 0.0

    def test_permutation_and_affine_invariance(self):
        # threshold is 2 log(n)/sqrt(n) = 0.749 at n = 200; correlation
        # 1/1.09 = 0.92 between these columns survives it
        rng = rng_for("kinv-inv", 0)
        base_col = rng.normal(size=(200, 1))
        x = np.hstack([base_col + 0.3 * rng.normal(size=(200, 1))
                       for _ in range(12)])
        dm = compute_column_stats(x)
        base = estimate_kappa_sq_invariant(dm, 1.0)
        assert base > 0  # correlated columns survive the threshold
        perm = rng.permutation(12)
        assert abs(estimate_kappa_sq_invariant(
            compute_column_stats(x[:, perm]), 1.0) - base) < 1e-10
        scale = rng.uniform(0.3, 2.5, size=12)
        shift = rng.normal(size=12)
        assert abs(estimate_kappa_sq_invariant(
            compute_column_stats(x * scale + shift), 1.0) - base) < 1e-10

    def test_nonnegative(self):
        for rep in range(10):
            x = rng_for("knn", rep).normal(size=(40, 6))
            assert estimate_kappa_sq_invariant(
                compute_column_stats(x), 2.0) >= 0.0

    @pytest.mark.parametrize("n, p", [(2, 6), (40, 2)])
    def test_needs_three_rows_and_columns(self, n, p):
        x = rng_for("kinv-dim", 0).normal(size=(n, p))
        with pytest.raises(DimensionError):
            estimate_kappa_sq_invariant(compute_column_stats(x), 1.0)


class TestKappaSqPlugin:
    def test_independent_columns(self):
        x = rng_for("kplug", 0).normal(size=(200, 100))
        k2 = estimate_kappa_sq_plugin(compute_column_stats(x), 1.0)
        assert k2 == pytest.approx(2.0, rel=0.02)

    def test_short_range_matches_recursion_oracle(self):
        rho = arma_autocorrelation(SPEC_SRD.ar, SPEC_SRD.ma, 400)
        exact = 2.0 * np.sum(rho**2)
        vals = [
            estimate_kappa_sq_plugin(
                compute_column_stats(
                    generate(SPEC_SRD, 200, 100, rng_for("kplug2", r))),
                1.0)
            for r in range(100)
        ]
        assert np.mean(vals) == pytest.approx(exact, rel=0.15)

    def test_duplicated_columns(self):
        p = 100
        x = np.tile(rng_for("kplug3", 0).normal(size=(200, 1)), (1, p))
        k_lags = int(min(p / 2, math.sqrt(p)))
        k2 = estimate_kappa_sq_plugin(compute_column_stats(x), 1.0)
        assert k2 == pytest.approx(2.0 * (1 + k_lags), rel=1e-9)

    def test_all_rows_degenerate(self):
        with pytest.raises(DegenerateDataError):
            estimate_kappa_sq_plugin(
                compute_column_stats(np.tile([1.0, 2.0, 3.0, 4.0], (5, 1))), 1.0)

    def test_needs_four_columns(self):
        with pytest.raises(DimensionError):
            estimate_kappa_sq_plugin(
                compute_column_stats(rng_for("kplug4", 0).normal(size=(10, 3))), 1.0)


class TestDecide:
    def test_below_minimum_accepts(self):
        rep = decide(0.5, _curve([1.0, 2.0, 3.0, 4.0]), 0.1)
        assert not rep.rejected

    def test_above_maximum_rejects_at_any_level(self):
        curve = _curve([1.0, 2.0, 3.0, 4.0])
        for level in (0.01, 0.05, 0.5, 0.99):
            assert decide(10.0, curve, level).rejected

    def test_report_consistency(self):
        curve = _curve(np.linspace(0, 1, 20))
        rep = decide(0.97, curve, 0.1)
        assert rep.rejected == (0.97 > rep.threshold)
        assert rep.threshold == quantile(curve, 0.9)

    def test_level_domain(self):
        with pytest.raises(DomainError):
            decide(1.0, _curve([1.0, 2.0]), 0.0)
        with pytest.raises(DomainError):
            decide(1.0, _curve([1.0, 2.0]), 1.0)


class TestConservativeRule:
    def test_threshold_algebra(self):
        n = 200
        tau = math.log(n) / n
        assert not conservative_reject(1.0 + tau / 2, 1.0, n)
        assert conservative_reject(1.0 + 2 * tau, 1.0, n)
        assert conservative_reject(1.0 - 2 * tau, 1.0, n)
        with pytest.raises(DimensionError):
            conservative_reject(1.0, 1.0, 1)

    def test_short_range_null_rates(self):
        """Rejection rates of the deviation rule at fixed dimension.

        The rule compares |K_n - c*| with log(n)/n.  At fixed p the
        statistic's spread is order 1/sqrt(p) and does not shrink with n,
        while the threshold does, so the rate grows toward 1 as n rises;
        the rate only collapses to 0 when p grows much faster than n^2.
        Frozen from a direct Monte Carlo run at p = 400 (rates 0.72, 0.75,
        0.91 for n = 100, 200, 400 with these seeds).
        """
        rates = []
        for n in (100, 200, 400):
            hits = 0
            for rep in range(100):
                x = generate(SPEC_SRD, n, 400, rng_for("cons", n, rep))
                kn = solve_pel(
                    compute_column_stats(x), np.zeros(400), CFG).stat
                hits += conservative_reject(kn, 1.0, n)
            rates.append(hits / 100)
        assert rates[0] > 0  # fires under the null at these sizes
        assert rates[0] <= rates[1] + 0.02 <= rates[2] + 0.04
        np.testing.assert_allclose(rates, [0.72, 0.75, 0.91], atol=0.12)


class TestStackedBlockSolves:
    def test_power_replicate_blocks_do_not_stall(self):
        """Every block of a table3 power replicate converges by Newton.

        Replicate 0 of the p = 20 cell: with a line search that compared
        objective values differing by less than their rounding, 24 of its
        547 block solves ran Newton to its 100-iteration cap.  Each block,
        re-solved alone, must take fewer than 20 iterations and reproduce
        the value the stacked curve holds.
        """
        cfgs = load_experiment_configs(
            (CONFIGS / "table3_power_srd.ini").read_text())
        cfg = next(c for c in cfgs if c.p == 20)
        x = generate(cfg.dependence, cfg.n, cfg.p,
                     experiments._replicate_seed(cfg, 0))
        data = compute_column_stats(x + experiments._mu1(cfg))
        mu0 = np.zeros(cfg.p)
        blocks = 0
        for m in cfg.subsample_sizes():
            curve = build_curve_ne(data, mu0, m, cfg.pel_config())
            for i, value in enumerate(curve.block_stats):
                sol = solve_pel(compute_column_stats(data.values[i:i + m]),
                                mu0, cfg.pel_config())
                assert sol.iterations < 20
                assert sol.stat == pytest.approx(value, rel=1e-12, abs=0)
                blocks += 1
        assert blocks == sum(cfg.n - m + 1 for m in cfg.subsample_sizes())

    def test_tight_budgets_fail_the_curve_and_the_replicate(self, monkeypatch):
        x = generate(SPEC_NE, 60, 16, rng_for("tight", 0))
        data = compute_column_stats(x)
        with pytest.raises(NumericError):
            build_curve_ne(data, np.zeros(16), 8, TIGHT)

        real = experiments.build_curve_ne
        monkeypatch.setattr(
            experiments, "build_curve_ne",
            lambda data, mu0, m, cfg: real(
                data, mu0, m, replace(cfg, max_newton_iters=1)))
        cfg = ExperimentConfig(
            mode="level", n=60, p=16, dependence=DependenceSpec.non_ergodic(),
            levels=(0.05, 0.1), m_rules=(("ne-sqrt", 1.0), ("ne-sqrt", 2.0)),
            n_replicates=1, seed=3)
        out = experiments._replicate(cfg, 0)
        assert out.shape == (2, 2)
        assert np.all(np.isnan(out))

    @pytest.mark.parametrize("p,m", [(400, 86), (20, 32)])
    def test_stack_size_never_changes_a_bit(self, monkeypatch, p, m):
        """Block statistics do not depend on how the blocks are stacked.

        (400, 86) takes the Gram path, whose stacks are filled from several
        slices; (20, 32) the low-rank one.  With a budget of 1 every slice
        and every Newton stack holds one block.
        """
        x = generate(SPEC_SRD, 200, p, rng_for("stacks", p))
        data, mu0 = compute_column_stats(x), np.zeros(p)
        stacked = build_curve_ne(data, mu0, m, CFG).block_stats
        monkeypatch.setattr(core, "BLOCK_CHUNK_ELEMENTS", 1)
        alone = build_curve_ne(data, mu0, m, CFG).block_stats
        assert np.array_equal(stacked, alone)

    @pytest.mark.parametrize("p,m", [(400, 86), (20, 32)])
    def test_blocks_equal_stand_alone_solves(self, monkeypatch, p, m):
        """A curve's block solves are solve_pel's, bit for bit.

        The curve and solve_pel share one stack builder, so each block's
        statistic and iteration count equal those of solve_pel on the
        block alone, on the Gram path (400, 86) and the low-rank one
        (20, 32).
        """
        x = generate(SPEC_SRD, 200, p, rng_for("alone", p))
        mu0 = np.zeros(p)
        runs = []

        def recorded(*args):
            runs.append(core._solve_blocks(*args))
            return runs[-1]

        monkeypatch.setattr(calibration, "_solve_blocks", recorded)
        curve = build_curve_ne(compute_column_stats(x), mu0, m, CFG)
        (_, iters, *_), = runs
        for i, value in enumerate(curve.block_stats):
            sol = solve_pel(compute_column_stats(x[i:i + m]), mu0, CFG)
            assert (sol.stat, sol.iterations) == (value, iters[i]), i

    def test_one_failed_block_in_a_gram_stack(self, monkeypatch):
        """The Gram-path twin of test_one_failed_block_among_many.

        p >= m, and a budget of 9680 = 80 (m+1)^2 makes Newton stacks of
        80 blocks, each filled from slices of 17 = 9680 // ((m+1)(m+1+p)):
        the last stack holds blocks 80-100, and the failing block 100 sits
        in its second slice, 97-100.
        """
        n, m, p = 110, 10, 40
        monkeypatch.setattr(core, "BLOCK_CHUNK_ELEMENTS", 9680)
        base = rng_for("oneblock", "gram").normal(size=(m, p))
        base -= base.mean(axis=0)
        x = np.tile(base, (n // m + 1, 1))[:n]
        x[-1] += 3.0
        data = compute_column_stats(x)
        mu0 = np.zeros(p)
        curve = build_curve_ne(data, mu0, m, TIGHT)
        n_blocks = n - m + 1
        assert curve.n_failed == 1
        assert np.isnan(curve.block_stats[-1])
        assert not np.any(np.isnan(curve.block_stats[:-1]))
        with pytest.raises(ConvergenceError):
            solve_pel(compute_column_stats(x[-m:]), mu0, TIGHT)
        for i in range(n_blocks - 1):
            sol = solve_pel(compute_column_stats(x[i:i + m]), mu0, TIGHT)
            assert sol.stat == pytest.approx(
                curve.block_stats[i], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n,p,m,path,stacks", [
        (200, 400, 86, "gram", 6), (200, 20, 32, "lowrank", 2)])
    def test_debug_record_per_curve(self, caplog, n, p, m, path, stacks):
        # one record for the whole curve, on the core logger, whose counts
        # are those of the blocks solved one at a time
        x = generate(SPEC_SRD, n, p, rng_for("curvelog", p))
        caplog.set_level(logging.DEBUG, logger="pelhd.core")
        curve = build_curve_ne(compute_column_stats(x), np.zeros(p), m, CFG)
        records = caplog.messages
        sols = [solve_pel(compute_column_stats(x[i:i + m]), np.zeros(p), CFG)
                for i in range(n - m + 1)]
        iters = [sol.iterations for sol in sols]
        residual = max(sol.kkt_residual for sol in sols)
        assert records == [
            f"newton: path={path} n={m} p={p} problems={n - m + 1} "
            f"stacks={stacks} certified_without_solve={iters.count(0)} "
            f"iterations={sum(iters)} "
            f"max_iterations={max(iters)} failed={curve.n_failed} "
            f"max_residual={residual:.3e}"]

    def test_one_failed_block_among_many(self):
        """A single unsolved block becomes NaN and is left out of the curve.

        The rows repeat with period m and each period has column means 0,
        so every block mean equals mu0 = 0 and the uniform start is optimal
        - except in the last block, the only one holding the shifted last
        row.  With budgets of 1 that block alone fails.
        """
        n, m, p = 110, 10, 3
        base = rng_for("oneblock", 0).normal(size=(m, p))
        base -= base.mean(axis=0)
        x = np.tile(base, (n // m + 1, 1))[:n]
        x[-1] += 3.0
        data = compute_column_stats(x)
        mu0 = np.zeros(p)
        curve = build_curve_ne(data, mu0, m, TIGHT)
        n_blocks = n - m + 1
        assert n_blocks >= 100
        assert curve.n_failed == 1
        assert np.isnan(curve.block_stats[-1])
        assert not np.any(np.isnan(curve.block_stats[:-1]))
        np.testing.assert_array_equal(
            curve.sorted_values, np.sort(curve.block_stats[:-1]))

        # the same block fails alone through solve_pel, with diagnostics
        with pytest.raises(ConvergenceError) as err:
            solve_pel(compute_column_stats(x[-m:]), mu0, TIGHT)
        assert err.value.best_pi.shape == (m,)
        assert err.value.residual > TIGHT.newton_tol
        for i in (0, n_blocks // 2, n_blocks - 2):
            sol = solve_pel(compute_column_stats(x[i:i + m]), mu0, TIGHT)
            assert sol.stat == pytest.approx(
                curve.block_stats[i], rel=1e-12, abs=1e-12)
