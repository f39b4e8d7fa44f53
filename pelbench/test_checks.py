"""Each output check of the benchmark passes on genuine output and rejects
a deliberately corrupted copy of it.  Run: python3 -m pytest pelbench
"""

import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pelhd  # noqa: E402
from checks import (  # noqa: E402
    check_curve,
    check_lrd_draws,
    check_ne_draws,
    check_pel_solution,
    check_rows,
    check_zero_at_mean,
    expected_decision,
    expected_subsample_size,
    order_statistic_index,
)
from spans import Recorder  # noqa: E402
from workloads import LimitDraws, McWorkload, StatLargeN  # noqa: E402

SRD = pelhd.DependenceSpec.short_range_arma()


@pytest.fixture(scope="module")
def solved():
    x = pelhd.generate(SRD, 30, 8, 11)
    data = pelhd.compute_column_stats(x)
    cfg = pelhd.PelConfig(c_star=1.0)
    mu = np.full(8, 0.2)
    return data, mu, cfg.c_star * 30 / 8, cfg, pelhd.solve_pel(data, mu, cfg)


def pel_errors(solved, pi=None, stat=None):
    data, mu, lam, cfg, sol = solved
    return check_pel_solution(data.values, data.delta, mu, lam, cfg.newton_tol,
                              sol.pi if pi is None else pi,
                              sol.stat if stat is None else stat)


class TestPelSolution:
    def test_genuine_solution_passes(self, solved):
        assert pel_errors(solved) == []

    def test_perturbed_pi_rejected(self, solved):
        pi = solved[4].pi.copy()
        pi[0] *= 1.001
        pi /= pi.sum()
        assert any("KKT" in e for e in pel_errors(solved, pi=pi))

    def test_unnormalised_pi_rejected(self, solved):
        pi = solved[4].pi * (1 + 1e-9)
        assert any("sum(pi)" in e for e in pel_errors(solved, pi=pi))

    def test_nonpositive_pi_rejected(self, solved):
        pi = solved[4].pi.copy()
        pi[3] = 0.0
        assert pel_errors(solved, pi=pi)

    def test_statistic_off_the_objective_rejected(self, solved):
        errs = pel_errors(solved, stat=solved[4].stat * (1 + 1e-6))
        assert any("objective" in e for e in errs)

    def test_statistic_outside_bounds_rejected(self, solved):
        data, mu, lam, cfg, sol = solved
        upper = lam * float(np.dot(data.delta, (data.col_mean - mu) ** 2))
        assert any("outside" in e for e in pel_errors(solved, stat=-1e-3))
        assert any("outside" in e for e in pel_errors(solved, stat=upper * 1.01))

    def test_zero_at_the_mean(self, solved):
        data, _, _, cfg, _ = solved
        at_mean = pelhd.solve_pel(data, data.col_mean, cfg)
        assert check_zero_at_mean(at_mean.stat) == []
        assert check_zero_at_mean(1e-9)


class TestCalibration:
    def test_rule_matches_the_package_on_the_shipped_configs(self):
        for path in sorted((HERE.parent / "configs").glob("*.ini")):
            for cfg in pelhd.load_experiment_configs(path.read_text()):
                mine = tuple(
                    expected_subsample_size(cfg.n, cfg.p, rule, c0,
                                            cfg.dependence.decay_exponent)
                    for rule, c0 in cfg.m_rules)
                assert mine == cfg.subsample_sizes(), path.name

    def test_order_statistic_index_is_exact(self):
        # 0.9 * 30 is 27.000000000000004 in floating point
        assert order_statistic_index(0.1, 30) == 27
        assert order_statistic_index(0.05, 190) == 181
        assert order_statistic_index(0.05, 1) == 1

    @pytest.fixture(scope="class")
    def curve(self):
        data = pelhd.compute_column_stats(pelhd.generate(SRD, 40, 16, 5))
        cfg = pelhd.PelConfig(c_star=1.0)
        return pelhd.build_curve_ergodic(data, np.zeros(16), 9, 0.5, cfg)

    def test_genuine_curve_passes(self, curve):
        assert check_curve(curve.block_stats, curve.sorted_values, 40, 9, 9,
                           "ergodic", 16, 0.5, 1.0) == []

    def test_wrong_subsample_size_rejected(self, curve):
        assert check_curve(curve.block_stats, curve.sorted_values, 40, 9, 10,
                           "ergodic", 16, 0.5, 1.0)

    def test_dropped_block_rejected(self, curve):
        errs = check_curve(curve.block_stats[1:], curve.sorted_values[1:], 40,
                           9, 9, "ergodic", 16, 0.5, 1.0)
        assert any("blocks" in e for e in errs)

    def test_unsorted_values_rejected(self, curve):
        shuffled = curve.sorted_values[::-1]
        assert check_curve(curve.block_stats, shuffled, 40, 9, 9,
                           "ergodic", 16, 0.5, 1.0)

    def test_value_below_the_ergodic_floor_rejected(self, curve):
        stats = curve.block_stats.copy()
        stats[0] = -4.0 * 1.0 - 1e-3   # floor is -16^0.5 c*
        assert any("below" in e for e in check_curve(
            stats, np.sort(stats), 40, 9, 9, "ergodic", 16, 0.5, 1.0))

    def test_decision_is_the_order_statistic_rule(self, curve):
        threshold = curve.sorted_values[order_statistic_index(0.1, len(curve)) - 1]
        assert expected_decision(threshold + 1e-9, curve.sorted_values, 0.1)
        assert not expected_decision(threshold, curve.sorted_values, 0.1)


def recorded_replicate(cfg):
    """Run one replicate with its calls recorded, as the first round does."""
    wl = McWorkload([cfg])
    rec = Recorder()
    rec.install()
    rec.keep, rec.op = True, 0
    try:
        rows = wl.ops()[0].run()
    finally:
        rec.uninstall()
    return wl, rows, rec.top(op=0)


@pytest.fixture(scope="module", params=["srd", "ne"])
def replicate(request):
    common = dict(n=40, p=16, c_star=1.0, levels=(0.05, 0.1),
                  n_replicates=1, seed=7)
    if request.param == "srd":
        cfg = pelhd.ExperimentConfig(
            mode="level", dependence=SRD,
            m_rules=(("ergodic", 1.0), ("ergodic", 2.0)), **common)
    else:
        cfg = pelhd.ExperimentConfig(
            mode="level", dependence=pelhd.DependenceSpec.non_ergodic(),
            m_rules=(("ne-cuberoot", 1.0), ("ne-sqrt", 1.0)), **common)
    return recorded_replicate(cfg)


class TestReplicate:
    def test_genuine_replicate_passes(self, replicate):
        wl, rows, spans = replicate
        assert not wl.failed(rows)
        assert wl.check(0, rows, spans) == []
        assert wl.resolve_blocks(0, spans)["errors"] == []

    def test_flipped_decision_rejected(self, replicate):
        wl, rows, spans = replicate
        flipped = [dict(r) for r in rows]
        flipped[1]["a_hat"] = 1.0 - flipped[1]["a_hat"]
        assert any("decision" in e for e in wl.check(0, flipped, spans))

    def test_miscounted_replicates_rejected(self, replicate):
        wl, rows, spans = replicate
        bad = [dict(r) for r in rows]
        bad[0]["n_reps"] = 2
        assert any("n_reps" in e for e in wl.check(0, bad, spans))

    def test_wrong_threshold_rejected(self, replicate):
        wl, rows, spans = replicate
        span = next(s for s in spans if s.name == "calibration.decide")
        bad = replace(span.result, threshold=span.result.threshold + 1e-6)
        swapped = [replace(s, result=bad) if s is span else s for s in spans]
        assert any("threshold" in e for e in wl.check(0, rows, swapped))

    def test_non_integer_rejection_count_rejected(self):
        rows = [{"m_rule": "ergodic", "level": 0.1, "n_reps": 4, "a_hat": 0.3}]
        assert check_rows(rows, 4)
        assert check_rows([dict(rows[0], a_hat=1.25)], 4)
        assert check_rows([dict(rows[0], a_hat=0.25)], 4) == []

    def test_corrupted_curve_value_rejected_on_re_solve(self, replicate):
        wl, rows, spans = replicate
        span = next(s for s in spans if s.name.startswith("calibration.build_curve"))
        curve = span.result
        stats = curve.block_stats.copy()
        stats[2] += 1e-3
        bad = replace(curve, block_stats=stats)
        swapped = [replace(s, result=bad) if s is span else s for s in spans]
        assert wl.resolve_blocks(0, swapped)["errors"]


class TestStatLargeN:
    def test_check_rejects_a_perturbed_weight(self):
        wl = StatLargeN()
        data = pelhd.compute_column_stats(pelhd.generate(SRD, 60, 10, 3))
        mu = np.zeros(10)
        sol = pelhd.solve_pel(data, mu, wl.cfg)
        assert wl.check(0, (data, mu, sol), []) == []
        pi = sol.pi.copy()
        pi[:2] = pi[1::-1] * np.array([1.01, 0.99])
        assert wl.check(0, (data, mu, replace(sol, pi=pi / pi.sum())), [])


class TestLimitDraws:
    ALPHA, P, C = 0.3, 256, 1.0

    @pytest.fixture(scope="class")
    def lrd(self):
        return pelhd.sample_lrd_limit(self.ALPHA, self.P, 4000, 17, self.C)

    @pytest.fixture(scope="class")
    def ne(self):
        r = pelhd.ne_correlation(60)
        return r, pelhd.sample_ne_limit(r, self.C, 4000, 19)

    def test_genuine_draws_pass(self, lrd, ne):
        assert check_lrd_draws(lrd, self.ALPHA, self.P, self.C) == []
        assert check_ne_draws(ne[1], ne[0], self.C) == []

    def test_shifted_lrd_draws_rejected(self, lrd):
        shift = 10 * np.std(lrd) / math.sqrt(lrd.size)
        errs = check_lrd_draws(lrd + shift, self.ALPHA, self.P, self.C)
        assert any("mean" in e for e in errs)

    def test_rescaled_lrd_draws_rejected(self, lrd):
        errs = check_lrd_draws(1.3 * lrd, self.ALPHA, self.P, self.C)
        assert any("variance" in e for e in errs)

    def test_shifted_ne_draws_rejected(self, ne):
        r, draws = ne
        shift = 10 * np.std(draws) / math.sqrt(draws.size)
        assert check_ne_draws(draws + shift, r, self.C)

    def test_workload_checks_its_own_draws(self):
        wl = LimitDraws()
        wl.warm([])
        for k, op in enumerate(wl.ops()):
            draws = op.run()
            assert wl.check(k, draws, []) == []
            assert wl.check(k, draws + 0.5, [])


def test_refuses_to_run_without_the_package(tmp_path):
    """In a tree holding only the benchmark, run.py fails without a result."""
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "mc_level", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout == ""
