"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Criteria 4 and 6 encode targets that the pinned test
pipeline measurably cannot attain at these sample sizes (upward bias of
subsample statistics from re-estimated inverse-variance weights, and an
order-p^(-1/2) centering gap of the full statistic); they are implemented
exactly as stated and left to report their measured values.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from pelhd import (
    DependenceSpec,
    ExperimentConfig,
    PelConfig,
    compute_column_stats,
    estimate_alpha_invariant,
    estimate_kappa_sq_invariant,
    generate,
    ne_correlation,
    rows_to_csv,
    run_experiment,
    sample_ne_limit,
    solve_pel,
    subsample_size,
)
from pelhd.calibration import build_curve_ne
from pelhd.limits import kappa_squared

from conftest import ACCEPT_SEED, rng_for
from oracles import arma_autocorrelation, lrd_rho, simplex_grid_minimum

SRD = DependenceSpec.short_range_arma()
NE = DependenceSpec.non_ergodic()
CFG1 = PelConfig(c_star=1.0)


def check(num, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_optimizer_matches_grid_oracle():
    start = time.time()
    rng = rng_for("accept", 1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 3))
        x = rng.normal(size=(n, p)) * rng.uniform(0.5, 2.0)
        mu = rng.normal(size=p)
        dm = compute_column_stats(x)
        cfg = PelConfig(c_star=float(rng.uniform(0.2, 2.0)))
        sol = solve_pel(dm, mu, cfg)
        oracle = simplex_grid_minimum(x - mu, dm.delta, cfg.penalty(n, p),
                                      step=1e-3)
        worst = max(worst, abs(sol.stat - oracle))
    elapsed = time.time() - start
    check(1, worst <= 1e-4 and elapsed < 60,
          f"max |objective gap| = {worst:.2e} (tol 1e-4), {elapsed:.1f}s (< 60s)")


def test_criterion_02_exact_zero_at_the_sample_mean():
    rng = rng_for("accept", 2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 60))
        p = int(rng.integers(1, 12))
        x = rng.normal(size=(n, p)) * rng.uniform(0.2, 5.0)
        dm = compute_column_stats(x)
        worst = max(worst, abs(solve_pel(dm, dm.col_mean, CFG1).stat))
    check(2, worst <= 1e-8, f"max |stat at mean| = {worst:.2e} (tol 1e-8)")


def test_criterion_03_invariance_suite():
    rng = rng_for("accept", 3)
    worst = 0.0
    for case in range(50):
        n = int(rng.integers(20, 60))
        p = int(rng.integers(6, 20))
        x = rng.normal(size=(n, p))
        if case % 2:
            # correlated columns so the thresholded estimator is nonzero
            x[:, 1:p // 2] = x[:, [0]] + 0.25 * x[:, 1:p // 2]
        mu = rng.normal(size=p) * 0.3
        perm = rng.permutation(p)
        scale = rng.uniform(0.2, 3.0, size=p)
        shift = rng.normal(size=p) * 2.0

        dm = compute_column_stats(x)
        base = (
            solve_pel(dm, mu, CFG1).stat,
            estimate_alpha_invariant(dm),
            estimate_kappa_sq_invariant(dm, 1.0),
        )
        dm_p = compute_column_stats(x[:, perm])
        permuted = (
            solve_pel(dm_p, mu[perm], CFG1).stat,
            estimate_alpha_invariant(dm_p),
            estimate_kappa_sq_invariant(dm_p, 1.0),
        )
        dm_a = compute_column_stats(x * scale + shift)
        affine = (
            solve_pel(dm_a, mu * scale + shift, CFG1).stat,
            estimate_alpha_invariant(dm_a),
            estimate_kappa_sq_invariant(dm_a, 1.0),
        )
        for b, q, a in zip(base, permuted, affine):
            worst = max(worst, abs(b - q), abs(b - a))
    check(3, worst <= 1e-10,
          f"max invariance defect over 50x3 cases = {worst:.2e} (tol 1e-10)")


@pytest.mark.slow
def test_criterion_04_short_range_null_level(srd_level_run):
    row = next(r for r in srd_level_run if r["level"] == 0.05)
    err = row["abs_err"]
    check(4, err <= 0.03,
          f"n=200 p=100 m=27 level 0.05: a_hat = {row['a_hat']:.4f}, "
          f"|0.05 - a_hat| = {err:.4f} (tol 0.03, {row['n_reps']} replicates)")


@pytest.mark.slow
def test_criterion_05_short_range_power():
    cfg = ExperimentConfig(
        mode="power", n=200, p=100, dependence=SRD, c_star=1.0,
        levels=(0.1,), m_rules=(("ergodic", 2.0),),
        n_replicates=300, seed=ACCEPT_SEED, mu1_scale=1.0)
    rows = run_experiment(cfg)
    power = rows[0]["a_hat"]
    check(5, power >= 0.90,
          f"n=200 p=100 level 0.1 m-rule c0=2: power = {power:.3f} (need >= 0.90)")


@pytest.mark.slow
def test_criterion_06_normal_limit_shape():
    rho = arma_autocorrelation(SRD.ar, SRD.ma, 60)
    kappa = math.sqrt(kappa_squared(rho, 1.0))
    passes = 0
    pvals = []
    for run in range(10):
        stats = np.empty(500)
        for rep in range(500):
            x = generate(SRD, 400, 100, rng_for("accept6", run, rep))
            stats[rep] = solve_pel(
                compute_column_stats(x), np.zeros(100), CFG1).stat
        z = math.sqrt(100) * (stats - 1.0) / kappa
        p = kstest(z, "norm").pvalue
        pvals.append(p)
        passes += p > 0.01
    check(6, passes >= 8,
          f"sqrt(p)(K_n - c*)/kappa vs N(0,1): {passes}/10 runs pass the 1% KS "
          f"(p-values {['%.4f' % p for p in pvals]})")


def test_criterion_07_nonergodic_limit_match():
    stats = np.empty(500)
    for rep in range(500):
        x = generate(NE, 200, 100, rng_for("accept7", rep))
        stats[rep] = solve_pel(
            compute_column_stats(x), np.zeros(100), CFG1).stat
    draws = sample_ne_limit(ne_correlation(200), 1.0, 20_000,
                            rng_for("accept7", 10_000))
    ks = ks_2samp(stats, draws).statistic
    check(7, ks < 0.12,
          f"KS(empirical K_n at n=200, sampled limit law) = {ks:.4f} (tol 0.12)")


def test_criterion_08_subsampling_consistency():
    distances = []
    for n in (100, 200, 400):
        m = subsample_size(n, 100, c0=1.0, rule="ne-sqrt")
        oracle = np.empty(250)
        for rep in range(250):
            x = generate(NE, n, 100, rng_for("accept8", n, rep))
            oracle[rep] = solve_pel(
                compute_column_stats(x), np.zeros(100), CFG1).stat
        ks_vals = []
        for d in range(8):
            x = generate(NE, n, 100, rng_for("accept8", n, 10_000 + d))
            curve = build_curve_ne(compute_column_stats(x), np.zeros(100), m,
                                   CFG1)
            ks_vals.append(ks_2samp(curve.sorted_values, oracle).statistic)
        distances.append(float(np.mean(ks_vals)))
    ok = (distances[1] <= distances[0] + 0.02
          and distances[2] <= distances[1] + 0.02)
    check(8, ok,
          "mean KS(curve, full-statistic law) over n=100,200,400 with "
          f"m=sqrt(n): {['%.3f' % d for d in distances]} (decreasing, 0.02 slack)")


@pytest.mark.slow
def test_criterion_09_subsampling_vs_normal_calibration():
    cfg = ExperimentConfig(
        mode="calibration-compare", n=200, p=80, dependence=SRD, c_star=1.0,
        levels=(0.1,),
        m_rules=(("ergodic", 0.5), ("ergodic", 1.0), ("ergodic", 2.0)),
        n_replicates=500, seed=ACCEPT_SEED)
    rows = run_experiment(cfg)
    g_err = next(r["abs_err"] for r in rows if r["m_rule"] == "normal")
    ss_err = min(r["abs_err"] for r in rows if r["m_rule"] != "normal")
    ok = ss_err <= 0.25 and g_err <= 0.25 and ss_err <= g_err + 0.05
    check(9, ok,
          f"level errors at n=200 p=80 a=0.1: subsampling (best m) = "
          f"{ss_err:.4f}, Normal = {g_err:.4f} (both <= 0.25, SS <= G + 0.05)")


def test_criterion_10_lrd_generator_fidelity():
    x = generate(DependenceSpec.long_range(0.8), 10_000, 50,
                 rng_for("accept10", 0))
    xc = x - x.mean(axis=0)
    lag1 = float(np.mean(xc[:, :-1] * xc[:, 1:]) / x.var())
    target = 0.5 * (2**1.2 - 2)
    ok_corr = abs(lag1 - target) <= 0.03

    rho = lrd_rho(0.8, 399)
    k = np.arange(50, 400)
    scaled = rho[50:] * k**0.8
    mid = float(np.median(scaled))
    ok_decay = bool(np.all(scaled > 0)
                    and np.max(np.abs(scaled / mid - 1)) < 0.10)
    check(10, ok_corr and ok_decay,
          f"lag-1 corr = {lag1:.4f} (target {target:.4f} +- 0.03); "
          f"rho(k) k^0.8 within {np.max(np.abs(scaled / mid - 1)):.3f} of "
          "its plateau on k in [50, 400) (tol 0.10)")


def test_criterion_11_thread_count_determinism():
    cfg = ExperimentConfig(
        mode="level", n=60, p=16, dependence=SRD, c_star=1.0,
        levels=(0.05, 0.1), m_rules=(("ergodic", 1.0), ("ergodic", 2.0)),
        n_replicates=30, seed=ACCEPT_SEED)
    serial = rows_to_csv(run_experiment(cfg, threads=1))
    pooled = rows_to_csv(run_experiment(cfg, threads=2))
    again = rows_to_csv(run_experiment(cfg, threads=1))
    ok = serial == pooled == again
    check(11, ok, "results CSV byte-identical for thread counts 1 and 2")
