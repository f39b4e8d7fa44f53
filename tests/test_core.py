import logging
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pelhd import core
from pelhd.calibration import build_curve_ne
from pelhd.core import (
    PelConfig,
    _GramStep,
    _LowRankStep,
    _kkt_solve,
    _newton,
    _solve_blocks,
    compute_column_stats,
    solve_pel,
)
from pelhd.errors import ConvergenceError, DimensionError, DomainError
from pelhd.experiments import _replicate_seed, load_experiment_configs
from pelhd.simulate import DependenceSpec, generate

from conftest import rng_for
from oracles import dense_newton, objective_direct, simplex_grid_minimum


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STRESS_KINDS = ("lambda", "far_mu", "near_dup", "cauchy", "constant")

# K_n of stress_instance(k), k = 0..39, recorded with the one-problem-at-a-
# time Newton solver that the stacked kernel replaced; None where that
# solver raised ConvergenceError.  Instance 34 is the exception: its
# constant columns had a rounding-size variance and delta near 1e30 then,
# and its entry is the value with those columns dropped from the penalty.
STRESS_REFERENCE = (
    0.0006923436048483932, None, 66.05737597786303, 221.11211197965898,
    6.038615366311432, 0.011834829689761175, 234.85103123867881,
    9.424444165561674, 62.43786808075029, None, 1.149861257867365,
    370.25887187667973, 144.27319891472888, 13.567405681299876, None,
    0.007075429629013789, 315473.42745859193, 18.364793816692302,
    34.06421688040392, 0.921916455492114, None, 84169.27551774938,
    39.87938964780394, 584.0043576892618, 0.4572056062724195,
    464.8770694092247, 111240.0141850745, 0.10291088927165078,
    78.30968172902566, None, 4542.021971517942, None, 2915367262.0492396,
    59.16785775396417, 3.0849298498527604, 0.04052693506614934,
    2850.9448856164036, 38.481062777043235, 84.07140869533134, None,
)


def stress_instance(k):
    """(values, mu, c_star, lam) of the k-th stress instance.

    Kinds rotate through extreme lambda (1e-6 to 1e6), mu far from the
    data, near-duplicate rows, Cauchy data and constant columns; every
    eighth instance has n = 2.
    """
    rng = np.random.default_rng(np.random.SeedSequence((20260810, 7, k)))
    kind = STRESS_KINDS[k % 5]
    n = 2 if k % 8 == 0 else int(rng.integers(3, 40))
    p = int(rng.integers(1, 30))
    c_star = float(rng.uniform(0.2, 3.0))
    lam = None
    mu = rng.normal(size=p) * 0.5
    if kind == "lambda":
        x = rng.normal(size=(n, p))
        lam = float(10 ** rng.uniform(-6, 6))
    elif kind == "far_mu":
        x = rng.normal(size=(n, p))
        mu = rng.normal(size=p) * 10 ** rng.uniform(0, 3)
    elif kind == "near_dup":
        base = rng.normal(size=(max(1, n // 4), p))
        x = base[rng.integers(0, len(base), n)]
        x = x + 10 ** rng.uniform(-12, -4) * rng.normal(size=(n, p))
    elif kind == "cauchy":
        x = rng.standard_cauchy(size=(n, p))
        mu = rng.standard_cauchy(size=p)
    else:
        x = rng.normal(size=(n, p))
        x[:, rng.random(p) < 0.5] = rng.normal()
    return x, mu, c_star, lam


def stress_table(start, stop):
    """Print one line per stress instance k in [start, stop).

    Columns: outcome (solved or raised), K_n (nan if raised), Newton
    iterations, the KKT residual, eps * max|gradient| at the returned
    weights, eps * max(1/pi + 2 lambda |Ytil| |Ytil|' pi), a bound on
    the rounding error of the gradient itself (a residual below
    ``newton_tol`` is decided by rounding where that floor exceeds it),
    and the predictor steps taken before Newton.
    """
    eps = np.finfo(float).eps
    print("k kind n p outcome K_n iterations residual eps_max_grad floor "
          "predictor_steps")
    for k in range(start, stop):
        x, mu, c_star, lam = stress_instance(k)
        cfg = PelConfig(c_star=c_star, lam=lam)
        lam = cfg.penalty(*x.shape)
        root_delta = np.sqrt(compute_column_stats(x).delta)
        ytil = (x - mu) * root_delta
        stat, iters, ok, res, steps, pi = _solve_blocks(
            lambda lo, hi, out: np.multiply(x - mu, root_delta, out=out),
            1, *x.shape, lam, cfg)
        grad = -1.0 / pi + 2.0 * lam * (ytil @ (ytil.T @ pi))
        floor = 1.0 / pi + 2.0 * lam * (np.abs(ytil) @ (np.abs(ytil).T @ pi))
        print(f"{k} {STRESS_KINDS[k % 5]} {x.shape[0]} {x.shape[1]} "
              f"{'solved' if ok[0] else 'raised'} "
              f"{float(stat[0]) if ok[0] else float('nan')!r} {iters[0]} "
              f"{res[0]:.3e} {eps * np.max(np.abs(grad)):.3e} "
              f"{eps * np.max(floor):.3e} {steps[0]}")


def random_instance(rng, n=None, p=None):
    n = n or int(rng.integers(2, 9))
    p = p or int(rng.integers(1, 4))
    x = rng.normal(size=(n, p)) * rng.uniform(0.5, 2.0)
    mu = rng.normal(size=p) * 0.7
    return compute_column_stats(x), mu


class TestColumnStats:
    def test_constant_column(self):
        dm = compute_column_stats([[1.0], [1.0], [1.0]])
        assert dm.col_mean[0] == 1.0
        assert dm.delta[0] == 0.0

    def test_two_point_column(self):
        dm = compute_column_stats([[0.0], [2.0]])
        assert dm.col_mean[0] == 1.0
        assert dm.delta[0] == 1.0  # variance 1 with divisor n = 2

    def test_divisor_n_variance(self):
        dm = compute_column_stats([[1.0], [2.0], [3.0], [4.0]])
        assert 1.0 / dm.delta[0] == pytest.approx(1.25, abs=0)
        assert dm.delta[0] == pytest.approx(0.8, abs=0)

    def test_single_row_rejected(self):
        with pytest.raises(DimensionError):
            compute_column_stats([[1.0, 2.0]])

    def test_non_2d_rejected(self):
        with pytest.raises(DimensionError):
            compute_column_stats([1.0, 2.0, 3.0])

    def test_no_column_rejected(self):
        with pytest.raises(DimensionError, match="column"):
            compute_column_stats(np.empty((3, 0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, bad):
        x = np.arange(12.0).reshape(4, 3)
        x[2, 1] = bad
        with pytest.raises(DomainError, match="column 1"):
            compute_column_stats(x)


class TestSolvePel:
    def test_optimum_at_mean(self):
        dm, _ = random_instance(rng_for("solve", 0), n=20, p=3)
        sol = solve_pel(dm, dm.col_mean, PelConfig(c_star=1.0))
        np.testing.assert_allclose(sol.pi, 1.0 / 20, rtol=1e-12)
        assert abs(sol.stat) < 1e-10

    def test_penalty_off_short_circuit(self):
        dm, mu = random_instance(rng_for("solve", 1), n=10, p=2)
        sol = solve_pel(dm, mu, PelConfig(c_star=1.0, lam=0.0))
        assert sol.stat == 0.0
        assert sol.iterations == 0
        np.testing.assert_array_equal(sol.pi, np.full(10, 0.1))

    def test_all_constant_columns_short_circuit(self):
        # every delta is 0, so the penalty vanishes for any weights
        dm = compute_column_stats(np.tile([2.0, -1.0], (8, 1)))
        sol = solve_pel(dm, np.array([0.5, 0.5]), PelConfig(c_star=1.0))
        assert sol.stat == 0.0

    def test_grid_oracle_example(self):
        dm = compute_column_stats([[-1.0], [0.0], [1.0]])
        cfg = PelConfig(c_star=1.0)  # lam = 3
        sol = solve_pel(dm, [0.3], cfg)
        oracle = simplex_grid_minimum(dm.values - 0.3, dm.delta, 3.0, step=1e-3)
        assert sol.stat == pytest.approx(oracle, abs=1e-4)

    def test_grid_oracle_random_instances(self):
        rng = rng_for("solve", 2)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            p = int(rng.integers(1, 3))
            dm, mu = random_instance(rng, n=n, p=p)
            cfg = PelConfig(c_star=float(rng.uniform(0.2, 2.0)))
            sol = solve_pel(dm, mu, cfg)
            oracle = simplex_grid_minimum(
                dm.values - mu, dm.delta, cfg.penalty(n, p))
            assert abs(sol.stat - oracle) < 1e-4

    def test_kkt_certificate(self):
        rng = rng_for("solve", 3)
        cfg = PelConfig(c_star=1.0)
        for _ in range(15):
            dm, mu = random_instance(rng, n=int(rng.integers(5, 40)))
            sol = solve_pel(dm, mu, cfg)
            assert sol.kkt_residual < cfg.newton_tol
            assert abs(sol.pi.sum() - 1.0) < 1e-12
            assert np.all(sol.pi > 0)

    def test_solution_consistency(self):
        # recomputing the criterion from the returned weights matches stat
        rng = rng_for("solve", 4)
        for _ in range(10):
            dm, mu = random_instance(rng)
            cfg = PelConfig(c_star=float(rng.uniform(0.3, 1.5)))
            sol = solve_pel(dm, mu, cfg)
            lam = cfg.penalty(dm.n, dm.p)
            recomputed = objective_direct(sol.pi, dm.values - mu, dm.delta, lam)
            assert sol.stat == pytest.approx(recomputed, rel=1e-10, abs=1e-12)

    def test_mu_shape_checked(self):
        dm, _ = random_instance(rng_for("solve", 5), n=4, p=2)
        with pytest.raises(DimensionError):
            solve_pel(dm, np.zeros(3), PelConfig(c_star=1.0))
        # a length-1 mu is not broadcast, and a (1, p) one is not flattened
        for mu in ([0.0], [[0.0, 0.0]]):
            with pytest.raises(DimensionError):
                solve_pel(dm, mu, PelConfig(c_star=1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mu_rejected(self, bad):
        dm, _ = random_instance(rng_for("solve", 5), n=4, p=2)
        with pytest.raises(DomainError):
            solve_pel(dm, np.array([0.0, bad]), PelConfig(c_star=1.0))

    def test_budget_exhaustion_raises_with_diagnostics(self):
        dm, mu = random_instance(rng_for("solve", 6), n=8, p=2)
        cfg = PelConfig(c_star=2.0, max_newton_iters=1)
        with pytest.raises(ConvergenceError) as err:
            solve_pel(dm, mu + 5.0, cfg)
        assert err.value.best_pi.shape == (8,)
        assert err.value.residual > 0

    def test_uncertified_instance_raises_after_newton(self):
        """Newton's best iterate and residual come back at once when it
        cannot certify an instance within max_newton_iters; no second
        solver runs after it.  Stress instance 1531 (n = 38 > p = 18, so
        the low-rank step) has a gradient rounding floor near 1e-8, far
        above newton_tol."""
        x, mu, c_star, lam = stress_instance(1531)
        cfg = PelConfig(c_star=c_star, lam=lam)
        with pytest.raises(ConvergenceError) as err:
            solve_pel(compute_column_stats(x), mu, cfg)
        assert f"after {cfg.max_newton_iters} iterations" in str(err.value)
        best = err.value.best_pi
        assert best.shape == (x.shape[0],)
        assert np.all(best > 0) and abs(best.sum() - 1.0) < 1e-12
        assert err.value.residual > cfg.newton_tol

    @pytest.mark.parametrize("n,p", [(10, 4), (4, 10), (200, 400)])
    def test_huge_mu_raises_without_warnings(self, n, p):
        """A finite mu so far from the data that G overflows, on the
        low-rank path (10, 4) and the Gram path: ConvergenceError, and no
        numpy RuntimeWarning on the way."""
        dm, _ = random_instance(rng_for("solve", 7), n=n, p=p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                solve_pel(dm, np.full(p, 1e200), PelConfig())

    def test_singular_kkt_system_fails_its_row_only(self):
        eye = np.eye(2)
        out = _kkt_solve(np.stack([eye, 0.0 * eye, 2.0 * eye]),
                         np.ones((3, 2, 1)))
        np.testing.assert_array_equal(out[0], 1.0)
        assert np.all(np.isnan(out[1]))
        np.testing.assert_array_equal(out[2], 0.5)

    def test_nonfinite_capacitance_fails_its_row_only(self):
        # n > p: the low-rank step, whose capacitance system turns NaN for
        # the row with an infinite entry; the other rows still solve
        ytil = rng_for("lowrank", 0).normal(size=(3, 30, 4))
        ytil[1, 0, 0] = np.inf
        cfg = PelConfig()
        with np.errstate(invalid="ignore"):
            _, stat, _, ok, _, _ = _newton(lowrank_step(ytil, 2.0), cfg)
        assert ok.tolist() == [True, False, True]
        alone = _newton(lowrank_step(ytil[[0, 2]], 2.0), cfg)[1]
        np.testing.assert_allclose(stat[[0, 2]], alone, rtol=1e-12)
        # an infinite entry in every row: every row fails on the first
        # step, and Newton ends on the retirement of the failed rows
        ytil[:, 0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            pi, _, iters, ok, _, _ = _newton(lowrank_step(ytil, 2.0), cfg)
        assert ok.tolist() == [False, False, False]
        assert iters.tolist() == [0, 0, 0]
        np.testing.assert_array_equal(pi, 1.0 / 30)

    def test_stress_corpus_keeps_reference_solutions(self):
        """Every stress instance the reference solver solved is still
        solved, with the same statistic to 1e-9 relative."""
        solved = 0
        for k, want in enumerate(STRESS_REFERENCE):
            if want is None:
                continue
            x, mu, c_star, lam = stress_instance(k)
            cfg = PelConfig(c_star=c_star, lam=lam)
            sol = solve_pel(compute_column_stats(x), mu, cfg)
            assert sol.kkt_residual < cfg.newton_tol
            assert sol.stat == pytest.approx(want, rel=1e-9, abs=0), k
            solved += 1
        assert solved == 33

    def test_constant_columns_drop_out_of_the_penalty(self):
        """A constant column gets variance and delta exactly 0, so every
        constant-kind stress instance solves like the same instance with
        those columns removed and the full-p lambda kept."""
        kind = STRESS_KINDS.index("constant")
        for k in range(kind, 400, len(STRESS_KINDS)):
            x, mu, c_star, _ = stress_instance(k)
            n, p = x.shape
            const = np.all(x == x[0], axis=0)
            data = compute_column_stats(x)
            assert np.all(data.delta[const] == 0.0), k
            stat = solve_pel(data, mu, PelConfig(c_star=c_star)).stat
            if const.all():
                assert stat == 0.0, k
                continue
            reduced = solve_pel(
                compute_column_stats(x[:, ~const]), mu[~const],
                PelConfig(c_star=c_star, lam=c_star * n / p)).stat
            assert stat == pytest.approx(reduced, rel=1e-9, abs=0), k

    def test_constant_columns_drop_out_of_block_windows(self):
        x, mu, c_star, _ = stress_instance(34)
        n, p = x.shape
        m = 9
        const = np.all(x == x[0], axis=0)
        curve = build_curve_ne(compute_column_stats(x), mu, m,
                               PelConfig(c_star=c_star))
        lam = PelConfig(c_star=c_star, lam=c_star * m / p)
        for i in (0, n // 2, n - m):
            block = compute_column_stats(x[i:i + m, ~const])
            want = solve_pel(block, mu[~const], lam).stat
            assert curve.block_stats[i] == pytest.approx(want, rel=1e-9), i


def gram_step(ytil, lam):
    """The Gram path's stack of the (B, n, p) problems ``ytil``."""
    return _GramStep(np.matmul(ytil, ytil.transpose(0, 2, 1)), lam)


def lowrank_step(ytil, lam):
    """The low-rank path's stack of the (B, n, p) problems ``ytil``, which
    it scales in place, so it gets a copy."""
    return _LowRankStep(ytil.copy(), lam)


def solve_one(data, mu, cfg):
    """(K_n, Newton iterations, predictor steps) of one problem, solved as
    ``solve_pel`` solves it; the solve must be certified."""
    n, p = data.n, data.p
    stat, iters, ok, _, steps, _ = _solve_blocks(
        lambda lo, hi, out: np.multiply(data.values - mu,
                                        np.sqrt(data.delta), out=out),
        1, n, p, cfg.penalty(n, p), cfg)
    assert ok[0]
    return stat[0], iters[0], steps[0]


def shifted_rows(x, shift):
    """The (B, n, p) problems ``x``, each column standardized over its n
    rows and then shifted by the problem's entry of ``shift``: 0.02 gives a
    row the predictor certifies, 0.5 one that keeps all PREDICTOR_STEPS
    steps and then needs Newton, 30 a far-mu row whose first predictor
    step is rejected."""
    return ((x - x.mean(axis=1, keepdims=True))
            / x.std(axis=1, keepdims=True) - shift[:, None, None])


def srd_instance(key, n, p):
    x = generate(DependenceSpec.short_range_arma(), n, p, rng_for(*key))
    return compute_column_stats(x), np.full(p, 0.1)


class TestStepPaths:
    """The two Newton step paths: the n x p low-rank step against a dense
    reference, and the Gram step, whose stack holds G alone."""

    @pytest.mark.parametrize("n,p", [(30, 4), (200, 20), (300, 7), (400, 100)])
    def test_full_sample_matches_dense_reference(self, n, p):
        data, mu = srd_instance(("paths", n, p), n, p)
        cfg = PelConfig()
        stat, iters, steps = solve_one(data, mu, cfg)
        want, *counts = dense_newton(data.values - mu, data.delta,
                                     cfg.penalty(n, p))
        assert stat == pytest.approx(want, rel=1e-12, abs=0)
        assert [iters, steps] == counts

    def test_curve_blocks_match_dense_reference(self):
        # m = 32 > p = 20: every block of the curve takes the low-rank step
        n, p, m = 200, 20, 32
        data, mu = srd_instance(("paths", "curve"), n, p)
        cfg = PelConfig()
        curve = build_curve_ne(data, mu, m, cfg)
        for i in range(n - m + 1):
            block = compute_column_stats(data.values[i:i + m])
            want, *counts = dense_newton(block.values - mu, block.delta,
                                         cfg.penalty(m, p))
            assert curve.block_stats[i] == pytest.approx(want, rel=1e-12,
                                                         abs=0), i
            assert list(solve_one(block, mu, cfg)[1:]) == counts, i

    def test_memory_grows_with_n_times_p(self):
        # an (n+1)^2 KKT matrix alone would take 72 MB here
        n, p = 3000, 10
        data, mu = srd_instance(("paths", "memory"), n, p)
        tracemalloc.start()
        try:
            solve_pel(data, mu, PelConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * n * p

    def test_gram_step_and_retirement_keep_g(self):
        """A step adds 1/x^2 to G's diagonal in the KKT matrices it forms
        and must leave the stack of G as it found it; retiring a row, as
        _newton does, must drop its G alone."""
        b, n, p = 4, 6, 9
        rng = rng_for("gramstep", 0)
        ytil = rng.normal(size=(b, n, p))
        x = rng.uniform(0.5, 1.5, size=(b, n))
        x /= x.sum(axis=1, keepdims=True)
        grad, v = rng.normal(size=(2, b, n))
        keep = np.array([True, False, True, True])
        lin = gram_step(ytil, 2.0)
        gram, before = lin.mat.copy(), lin.matvec(v)
        lin.step(x, grad)
        lin.mat = lin.mat[keep]
        assert np.array_equal(lin.mat, gram[keep])
        assert np.array_equal(lin.matvec(v[keep]), before[keep])
        # the next step is that of a stack built from the kept rows alone
        assert np.array_equal(
            lin.step(x[keep], grad[keep]),
            gram_step(ytil[keep], 2.0).step(x[keep], grad[keep]))

    @pytest.mark.parametrize("path", [gram_step, lowrank_step],
                             ids=["gram", "lowrank"])
    def test_step_never_writes_its_stack(self, path):
        """Newton's stack is only read by a step: a read-only one steps,
        and to the same direction as a writable one."""
        b, n, p = 3, 6, 9
        rng = rng_for("readonly", 0)
        ytil = rng.normal(size=(b, n, p))
        x = rng.uniform(0.5, 1.5, size=(b, n))
        x /= x.sum(axis=1, keepdims=True)
        grad = rng.normal(size=(b, n))
        lin = path(ytil, 2.0)
        lin.mat.setflags(write=False)
        assert np.array_equal(lin.step(x, grad),
                              path(ytil, 2.0).step(x, grad))

    @pytest.mark.parametrize("n,p,path", [(30, 4, "lowrank"), (4, 30, "gram")])
    def test_debug_record_names_the_path(self, caplog, n, p, path):
        # a full-sample solve is a run of one problem in one stack
        data, mu = srd_instance(("paths", "log"), n, p)
        caplog.set_level(logging.DEBUG, logger="pelhd.core")
        sol = solve_pel(data, mu, PelConfig())
        assert caplog.messages == [
            f"newton: path={path} n={n} p={p} problems=1 stacks=1 "
            f"certified_without_solve={int(sol.iterations == 0)} "
            f"iterations={sol.iterations} max_iterations={sol.iterations} "
            f"failed=0 max_residual={sol.kkt_residual:.3e}"]


class TestPredictor:
    """The matvec-only predictor phase that Newton starts from."""

    @pytest.mark.parametrize("path", [gram_step, lowrank_step],
                             ids=["gram", "lowrank"])
    def test_rows_solve_as_they_do_alone(self, path):
        """One stack of three kinds of row: one the predictor certifies,
        one that leaves it after kept steps and needs Newton, and a far-mu
        row whose first predictor step is rejected.  Each row's statistic,
        Newton step count and predictor step count are those of the row
        solved alone."""
        n, p = 24, 12
        x = rng_for("predictor", 0).normal(size=(3, n, p))
        ytil = shifted_rows(x, np.array([0.02, 0.5, 30.0]))
        lam, cfg = n / p, PelConfig()
        _, stat, iters, ok, _, steps = _newton(path(ytil, lam), cfg)
        assert ok.all()
        assert steps[0] > 0 and iters[0] == 0
        assert steps[1] > 0 and iters[1] > 0
        assert steps[2] == 0 and iters[2] > 0
        for i in range(len(ytil)):
            _, alone, its, _, _, st = _newton(path(ytil[i:i + 1], lam), cfg)
            assert (stat[i], iters[i], steps[i]) == (alone[0], its[0],
                                                     st[0]), i

    @pytest.mark.parametrize("path", [gram_step, lowrank_step],
                             ids=["gram", "lowrank"])
    def test_rows_that_left_take_no_products(self, path, monkeypatch):
        """One row that keeps every predictor step, stacked with seven
        far-mu rows whose first step is rejected: after the first step the
        predictor's products with G cover the one row still in it, and
        each row's statistic, Newton step count and predictor step count
        are those of the row solved alone."""
        n, p = 24, 12
        x = rng_for("predictor", 0).normal(size=(8, n, p))
        shift = np.full(8, 30.0)
        shift[1] = 0.5
        ytil = shifted_rows(x, shift)
        lam, cfg = n / p, PelConfig()
        lin = path(ytil, lam)
        matvec, sizes = type(lin).matvec, []

        def counted(self, v):
            sizes.append(len(v))
            return matvec(self, v)

        monkeypatch.setattr(type(lin), "matvec", counted)
        steps = core._predictor(lin, cfg.newton_tol)[2]
        assert steps.tolist() == [0, core.PREDICTOR_STEPS] + [0] * 6
        # G x at 1/n and the first step's two products, then two a step
        assert sizes == [8] * 3 + [1] * 2 * (core.PREDICTOR_STEPS - 1)
        _, stat, iters, ok, _, steps = _newton(path(ytil, lam), cfg)
        assert ok.all()
        for i in range(len(ytil)):
            _, alone, its, _, _, st = _newton(path(ytil[i:i + 1], lam), cfg)
            assert (stat[i], iters[i], steps[i]) == (alone[0], its[0],
                                                     st[0]), i

    @staticmethod
    def table1_srd(p):
        """The table1_srd cell of dimension p and its replicate 0."""
        cfg = next(c for c in load_experiment_configs(
            (CONFIGS / "table1_srd.ini").read_text()) if c.p == p)
        x = generate(cfg.dependence, cfg.n, cfg.p, _replicate_seed(cfg, 0))
        return cfg, compute_column_stats(x)

    def test_srd_curve_takes_fewer_steps(self, caplog):
        """Block curve m = 27 of replicate 0 of the table1_srd cell p = 100
        (c0 = 1): started at the uniform weights, every block took 4
        Newton steps; after the predictor every block is certified without
        a Newton step."""
        cfg, data = self.table1_srd(100)
        m = cfg.subsample_sizes()[cfg.m_rules.index(("ergodic", 1.0))]
        assert (cfg.n, m) == (200, 27)
        caplog.set_level(logging.DEBUG, logger="pelhd.core")
        build_curve_ne(data, np.zeros(cfg.p), m, cfg.pel_config())
        (record,) = caplog.messages
        fields = dict(f.split("=") for f in record.split()[1:])
        assert int(fields["problems"]) == cfg.n - m + 1
        assert fields["certified_without_solve"] == fields["problems"]

    def test_srd_curves_solve_no_linear_system(self, monkeypatch):
        """The three curves (m = 22, 43, 86, all on the Gram path) of
        replicate 0 of the table1_srd cell p = 400 solve no KKT system:
        the predictor certifies every block."""
        cfg, data = self.table1_srd(400)
        solved = []

        def counted(kkt, rhs):
            solved.append(len(kkt))
            return _kkt_solve(kkt, rhs)

        monkeypatch.setattr(core, "_kkt_solve", counted)
        for m in cfg.subsample_sizes():
            curve = build_curve_ne(data, np.zeros(cfg.p), m, cfg.pel_config())
            assert curve.n_failed == 0, m
        assert solved == []


class TestStatisticProperties:
    def test_nonnegative_and_zero_only_at_mean(self):
        rng = rng_for("props", 0)
        cfg = PelConfig(c_star=1.0)
        for _ in range(15):
            dm, mu = random_instance(rng)
            stat = solve_pel(dm, mu, cfg).stat
            assert stat >= 0.0
            if np.any(dm.delta > 0) and not np.allclose(
                    mu[dm.delta > 0], dm.col_mean[dm.delta > 0], atol=1e-12):
                assert stat > 0.0
            assert solve_pel(dm, dm.col_mean, cfg).stat < 1e-10

    def test_upper_bound_at_uniform_weights(self):
        rng = rng_for("props", 1)
        cfg = PelConfig(c_star=1.0)
        for _ in range(10):
            dm, mu = random_instance(rng)
            lam = cfg.penalty(dm.n, dm.p)
            bound = lam * np.dot(dm.delta, (dm.col_mean - mu) ** 2)
            assert solve_pel(dm, mu, cfg).stat <= bound + 1e-12

    def test_translation_invariance(self):
        rng = rng_for("props", 2)
        cfg = PelConfig(c_star=1.0)
        dm, mu = random_instance(rng, n=12, p=3)
        shift = rng.normal(size=3) * 5
        dm2 = compute_column_stats(dm.values + shift)
        s1 = solve_pel(dm, mu, cfg).stat
        s2 = solve_pel(dm2, mu + shift, cfg).stat
        assert abs(s1 - s2) < 1e-10

    def test_scale_invariance_including_sign_flips(self):
        rng = rng_for("props", 3)
        cfg = PelConfig(c_star=1.0)
        dm, mu = random_instance(rng, n=12, p=3)
        scale = rng.uniform(0.2, 4.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        dm2 = compute_column_stats(dm.values * scale)
        s1 = solve_pel(dm, mu, cfg).stat
        s2 = solve_pel(dm2, mu * scale, cfg).stat
        assert abs(s1 - s2) < 1e-10

    def test_column_permutation_invariance(self):
        rng = rng_for("props", 4)
        cfg = PelConfig(c_star=1.0)
        dm, mu = random_instance(rng, n=15, p=4)
        perm = rng.permutation(4)
        dm2 = compute_column_stats(dm.values[:, perm])
        s1 = solve_pel(dm, mu, cfg).stat
        s2 = solve_pel(dm2, mu[perm], cfg).stat
        assert abs(s1 - s2) < 1e-10

    def test_quadratic_form_tracking(self):
        """The statistic stays close to its second-order approximation.

        For Gaussian rows with known Toeplitz correlation, the statistic is
        compared with n gamma ybar' (I + 2 gamma A)^(-1) ybar computed from
        the true correlation matrix; the median gap over 200 replicates at
        n = 200, p = 20 must be below 0.1.
        """
        import scipy.linalg

        from oracles import arma_autocorrelation, arma_autocovariance

        spec = DependenceSpec.short_range_arma()
        gamma0 = arma_autocovariance(spec.ar, spec.ma, 0)[0]
        corr = scipy.linalg.toeplitz(
            arma_autocorrelation(spec.ar, spec.ma, 19))
        cfg = PelConfig(c_star=1.0)
        n, p = 200, 20
        gam = cfg.penalty(n, p) / n
        eye_term = np.eye(p) + 2 * gam * corr
        gaps = []
        for rep in range(200):
            x = generate(spec, n, p, rng_for("quadform", rep))
            dm = compute_column_stats(x)
            kn = solve_pel(dm, np.zeros(p), cfg).stat
            ybar = x.mean(axis=0) / math.sqrt(gamma0)
            proxy = n * gam * ybar @ np.linalg.solve(eye_term, ybar)
            gaps.append(abs(kn - proxy))
        assert np.median(gaps) < 0.1


class TestPelConfig:
    def test_penalty_rule(self):
        cfg = PelConfig(c_star=1.5)
        assert cfg.penalty(200, 100) == pytest.approx(3.0)
        assert PelConfig(c_star=1.0, lam=7.0).penalty(200, 100) == 7.0

    def test_validation(self):
        with pytest.raises(DomainError):
            PelConfig(c_star=0.0)
        with pytest.raises(DomainError):
            PelConfig(c_star=1.0, lam=-1.0)
        with pytest.raises(DomainError):
            PelConfig(c_star=1.0, newton_tol=0.0)
        with pytest.raises(DomainError):
            PelConfig(c_star=1.0, max_newton_iters=0)

    def test_newton_budget_is_an_integer(self):
        with pytest.raises(DomainError, match="integer"):
            PelConfig(max_newton_iters=2.5)
        data, _ = random_instance(rng_for("budget", 0), n=6, p=3)
        for budget in (3, np.int64(3)):
            sol = solve_pel(data, data.col_mean,
                            PelConfig(max_newton_iters=budget))
            assert sol.iterations <= 3

    @pytest.mark.parametrize("setting", [
        {"c_star": math.nan}, {"c_star": math.inf}, {"lam": math.nan},
        {"lam": math.inf}, {"newton_tol": math.nan}, {"newton_tol": math.inf},
    ], ids=lambda s: "-".join(f"{k}={v}" for k, v in s.items()))
    def test_non_finite_settings_rejected(self, setting):
        with pytest.raises(DomainError):
            PelConfig(**setting)


if __name__ == "__main__":
    import sys

    stress_table(*map(int, sys.argv[1:3]))
