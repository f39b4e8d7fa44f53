import math
import os
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import pelhd
from pelhd.cli import cli_main
from pelhd.core import PelConfig, compute_column_stats, solve_pel
from pelhd.errors import ConfigError, ConvergenceError, DegenerateDataError
from pelhd import experiments
from pelhd.experiments import (
    RESULT_COLUMNS,
    ExperimentConfig,
    load_experiment_configs,
    parse_flat_config,
    rows_to_csv,
    run_experiment,
)
from pelhd.calibration import estimate_kappa_sq_plugin
from pelhd.simulate import DependenceSpec, generate

from conftest import rng_for
from oracles import arma_autocorrelation

SRD = DependenceSpec.short_range_arma()
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_cfg(**overrides):
    base = dict(
        mode="level", n=40, p=16, dependence=SRD, c_star=1.0,
        levels=(0.1,), m_rules=(("ergodic", 1.0),),
        n_replicates=6, seed=31415,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_level_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError):
            small_cfg(levels=(1.0,))
        with pytest.raises(ConfigError):
            small_cfg(levels=(0.0,))

    def test_mode_and_rules_checked(self):
        with pytest.raises(ConfigError):
            small_cfg(mode="bogus")
        with pytest.raises(ConfigError):
            small_cfg(m_rules=(("bogus", 1.0),))
        with pytest.raises(ConfigError):
            small_cfg(m_rules=(("ergodic", 0.0),))
        for c0 in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                small_cfg(m_rules=(("ergodic", c0),))
            with pytest.raises(ConfigError):
                small_cfg(dependence=DependenceSpec.non_ergodic(),
                          m_rules=(("ne-sqrt", c0),))
        with pytest.raises(ConfigError):
            small_cfg(n_replicates=0)

    def test_two_observations_rejected(self):
        # no subsample block size m in [2, n - 1]: every curve would be empty
        with pytest.raises(ConfigError, match="need n >= 3"):
            small_cfg(n=2, p=4)
        small_cfg(n=3, p=4)

    def test_repeated_levels_or_m_rules_rejected(self):
        # a repeated entry would repeat its result rows
        with pytest.raises(ConfigError, match="levels"):
            small_cfg(levels=(0.05, 0.1, 0.05))
        with pytest.raises(ConfigError, match="m_rules"):
            small_cfg(m_rules=(("ergodic", 1.0), ("ergodic", 1.0)))
        small_cfg(levels=(0.05, 0.1), m_rules=(("ergodic", 1.0),
                                               ("ergodic", 2.0)))

    def test_negative_seed_rejected(self):
        # numpy's seeding takes only integers >= 0; the CLI's --seed
        # override goes through replace and so through this check
        with pytest.raises(ConfigError, match="seed"):
            small_cfg(seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            replace(small_cfg(), seed=-1)
        assert small_cfg(seed=0).seed == 0

    @pytest.mark.parametrize("setting", [
        {"c_star": math.inf}, {"c_star": math.nan}, {"c_star": 0.0},
        {"mode": "power", "mu1_scale": math.nan},
        {"mode": "power", "mu1_scale": math.inf},
        {"n": 1}, {"p": 1}, {"levels": ()}, {"m_rules": ()},
    ], ids=lambda s: "-".join(f"{k}={v}" for k, v in s.items()))
    def test_bad_pel_settings_rejected_when_built(self, setting):
        with pytest.raises(ConfigError):
            small_cfg(**setting)

    def test_compare_requires_weak_dependence(self):
        with pytest.raises(ConfigError):
            small_cfg(mode="calibration-compare",
                      dependence=DependenceSpec.non_ergodic())
        with pytest.raises(ConfigError):
            small_cfg(mode="calibration-compare",
                      dependence=DependenceSpec.long_range(0.3))
        # alpha > 1/2 is allowed
        small_cfg(mode="calibration-compare",
                  dependence=DependenceSpec.long_range(0.8))

    def test_runner_rejects_zero_threads(self):
        with pytest.raises(ConfigError):
            run_experiment(small_cfg(), threads=0)

    def test_subsample_sizes_follow_rules(self):
        cfg = small_cfg(n=200, p=100,
                        m_rules=(("ergodic", 0.5), ("ergodic", 1.0),
                                 ("ergodic", 2.0)))
        assert cfg.subsample_sizes() == (14, 27, 54)
        ne = small_cfg(dependence=DependenceSpec.non_ergodic(), n=200, p=100,
                       m_rules=(("ne-cuberoot", 1.0), ("ne-sqrt", 2.0)))
        assert ne.subsample_sizes() == (6, 28)


class TestFlatConfigParsing:
    def test_round_trip(self):
        text = """
        # comment line
        mode = level
        dependence = srd
        n = 60
        p = 16, 24
        levels = 0.05, 0.1
        m_rules = ergodic:0.5, ergodic:1
        n_replicates = 12
        seed = 99
        c_star = 0.5
        out = somewhere.csv
        """
        cfgs = load_experiment_configs(text)
        assert [c.p for c in cfgs] == [16, 24]
        for c in cfgs:
            assert c.mode == "level"
            assert c.n == 60
            assert c.levels == (0.05, 0.1)
            assert c.m_rules == (("ergodic", 0.5), ("ergodic", 1.0))
            assert c.c_star == 0.5
            assert c.output_path == "somewhere.csv"

    def test_defaults_by_regime(self):
        ne = load_experiment_configs(
            "mode=level\ndependence=ne\nn=50\np=20\nn_replicates=5\nseed=1")[0]
        assert ne.m_rules == (("ne-cuberoot", 1.0), ("ne-sqrt", 1.0),
                              ("ne-sqrt", 2.0))
        srd = load_experiment_configs(
            "mode=level\ndependence=srd\nn=50\np=20\nn_replicates=5\nseed=1")[0]
        assert srd.m_rules == (("ergodic", 0.5), ("ergodic", 1.0),
                               ("ergodic", 2.0))

    @pytest.mark.parametrize("regime", [
        "dependence=ne", "dependence=srd", "dependence=lrd\nalpha=0.3"])
    def test_dataclass_holds_the_m_rule_default(self, regime):
        # a config built in code without m_rules gets the file's default
        (loaded,) = load_experiment_configs(
            f"mode=level\nn=50\np=20\nn_replicates=5\nseed=1\n{regime}")
        built = ExperimentConfig(mode="level", n=50, p=20,
                                 dependence=loaded.dependence,
                                 n_replicates=5, seed=1)
        assert built == loaded
        assert built.config_hash() == loaded.config_hash()

    def test_coefficient_lists_keep_the_config_hash(self):
        listed = small_cfg(dependence=DependenceSpec(
            kind="srd", ar=[-0.4, 0.1], ma=[0.3, 0.5, 0.1]))
        assert listed == small_cfg()
        assert listed.config_hash() == small_cfg().config_hash()
        assert hash(listed) == hash(small_cfg())

    @pytest.mark.parametrize("spec, other", [
        (DependenceSpec(kind="srd"), {"alpha": 0.3}),
        (DependenceSpec(kind="ne"), {"alpha": 0.3, "ar": (0.5, 0.2)}),
        (DependenceSpec(kind="lrd", alpha=0.3),
         {"ar": (0.5, 0.2), "ma": (0.1,), "burn_in": 7}),
    ], ids=["srd", "ne", "lrd"])
    def test_other_regimes_settings_keep_the_config_hash(self, spec, other):
        # a spec built directly drops what its regime does not read, as
        # DependenceSpec.of does
        mixed = replace(spec, **other)
        assert mixed == spec and hash(mixed) == hash(spec)
        assert (small_cfg(dependence=mixed).config_hash()
                == small_cfg(dependence=spec).config_hash())

    def test_lrd_requires_alpha(self):
        with pytest.raises(ConfigError):
            load_experiment_configs(
                "mode=level\ndependence=lrd\nn=50\np=20\nn_replicates=5\nseed=1")

    @pytest.mark.parametrize("regime", [
        "dependence=weird", "", "dependence=srd\nburn_in=-1"])
    def test_bad_dependence_is_config_error(self, regime):
        # a missing dependence key is an unknown kind, like an unknown name
        with pytest.raises(ConfigError, match="dependence"):
            load_experiment_configs(
                f"mode=level\nn=50\np=20\nn_replicates=5\nseed=1\n{regime}")

    def test_unknown_and_duplicate_keys(self):
        with pytest.raises(ConfigError):
            parse_flat_config("modee = level")
        with pytest.raises(ConfigError):
            parse_flat_config("mode = level\nmode = power")
        with pytest.raises(ConfigError):
            parse_flat_config("just some words")

    @pytest.mark.parametrize("key,value", [("n", "50.0"), ("p", "20.7"),
                                           ("p", "16, 20.0")])
    def test_sizes_must_be_integers(self, key, value):
        sizes = {"n": "50", "p": "20"}
        sizes[key] = value
        with pytest.raises(ConfigError):
            load_experiment_configs(
                "mode=level\ndependence=srd\nn_replicates=5\nseed=1\n"
                f"n={sizes['n']}\np={sizes['p']}")

    @pytest.mark.parametrize("key,value", [
        ("c_star", "abc"), ("mu1_scale", "x"), ("alpha", "x"),
        ("burn_in", "1.5"), ("levels", "0.1,a"), ("m_rules", "ergodic"),
        ("n_replicates", "2.0"), ("seed", "s"),
    ])
    def test_numbers_must_parse(self, key, value):
        # every value the file sets is parsed, also a key its regime ignores
        keys = {"mode": "level", "dependence": "srd", "n": "50", "p": "20",
                "n_replicates": "5", "seed": "1", key: value}
        text = "\n".join(f"{k}={v}" for k, v in keys.items())
        with pytest.raises(ConfigError, match=f"line [0-9]+: .*'{key}'"):
            load_experiment_configs(text)

    def test_values_come_typed(self):
        assert parse_flat_config(
            "P = 16, 24\nm_rules = ergodic:0.5, ne-sqrt:2\nout = a.csv\n"
            "dependence = SRD\nburn_in = 20\nar = 0.5,-0.3") == {
            "p": (16, 24), "m_rules": (("ergodic", 0.5), ("ne-sqrt", 2.0)),
            "out": "a.csv", "dependence": "srd", "burn_in": 20,
            "ar": (0.5, -0.3)}

    @pytest.mark.parametrize("regime,foreign", [
        ("dependence=srd", "alpha=0.3"),
        ("dependence=lrd\nalpha=0.8", "ar=0.5,0.2\nburn_in=7"),
        ("dependence=ne", "ar=0.5,0.2\nburn_in=7\nalpha=0.3"),
    ])
    def test_other_regimes_keys_leave_the_hash(self, regime, foreign):
        text = f"mode=level\nn=50\np=20\nn_replicates=5\nseed=1\n{regime}"
        plain = load_experiment_configs(text)[0]
        mixed = load_experiment_configs(f"{text}\n{foreign}")[0]
        assert mixed == plain
        assert mixed.config_hash() == plain.config_hash()

    @pytest.mark.parametrize("key,value", [
        ("ma", "0.3,,0.1"), ("levels", "0.05,,0.1"), ("ar", "0.5,"),
        ("p", "16, ,20"), ("m_rules", ",ergodic:1"),
    ])
    def test_blank_list_items_rejected(self, key, value):
        # a doubled or trailing comma must not change the model or the levels
        with pytest.raises(ConfigError, match=f"line 2: .*'{key}'"):
            parse_flat_config(f"mode = level\n{key} = {value}")
        # a wholly empty value is still the empty list
        assert parse_flat_config(f"{key} =") == {key: ()}

    @pytest.mark.parametrize("value", ["", "20, 20", "16, 20, 16"])
    def test_p_lists_distinct_values(self, value):
        # an empty list would run no cell, a repeated p its rows twice
        with pytest.raises(ConfigError, match="'p'"):
            load_experiment_configs(
                "mode=level\ndependence=srd\nn=50\nn_replicates=5\nseed=1\n"
                f"p={value}")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            load_experiment_configs("mode=level\ndependence=srd\nn=50\np=20")


class TestLevelExperiment:
    def test_single_replicate_rate_is_binary(self):
        rows = run_experiment(small_cfg(n_replicates=1))
        assert rows[0]["a_hat"] in (0.0, 1.0)
        assert rows[0]["n_reps"] == 1

    def test_row_schema_and_grid_shape(self):
        cfg = small_cfg(
            n=60, p=20, n_replicates=2, levels=(0.05, 0.1),
            m_rules=(("ergodic", 0.5), ("ergodic", 1.0), ("ergodic", 2.0)))
        rows = run_experiment(cfg)
        assert len(rows) == 3 * 2  # m-rules x levels
        for row in rows:
            assert tuple(row.keys()) == RESULT_COLUMNS
            assert row["alpha"] == math.inf
            assert row["mode"] == "level"
            assert row["n_reps"] == 2
            assert row["abs_err"] == pytest.approx(
                abs(row["level"] - row["a_hat"]))
        csv = rows_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == ",".join(RESULT_COLUMNS)
        assert len(lines) == 7

    def test_thread_count_does_not_change_results(self):
        cfg = small_cfg(n_replicates=10)
        serial = rows_to_csv(run_experiment(cfg, threads=1))
        pooled = rows_to_csv(run_experiment(cfg, threads=2))
        assert serial == pooled

    def test_lrd_results_do_not_depend_on_blas_threads(self, tmp_path):
        # pool workers run BLAS on one thread: a serial run on two BLAS
        # threads must still give the pool's CSV
        ini = tmp_path / "lrd.ini"
        ini.write_text(
            "mode = level\ndependence = lrd\nalpha = 0.1\nn = 100\n"
            "p = 400\nlevels = 0.05, 0.1, 0.2\n"
            "m_rules = ergodic:1, ergodic:2, ergodic:4\n"
            "n_replicates = 16\nseed = 2718\n")
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
        subprocess.run(
            [sys.executable, "-m", "pelhd.cli", "experiment", "--config",
             str(ini), "--threads", "1", "--out", str(serial)],
            env=env, check=True, cwd=Path(pelhd.__file__).resolve().parents[1])
        assert cli_main(["experiment", "--config", str(ini), "--threads", "2",
                         "--out", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_pool_workers_run_blas_single_threaded(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        with experiments._worker_pool(2) as pool:
            seen = [pool.submit(os.getenv, key).result(timeout=120)
                    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
        assert seen == ["1", "1"]
        # the caller's environment comes back unchanged
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_config_hash_tracks_science_only(self):
        cfg = small_cfg()
        assert cfg.config_hash() == replace(
            cfg, output_path="x.csv").config_hash()
        assert cfg.config_hash() != replace(cfg, seed=1).config_hash()
        assert cfg.config_hash() != replace(cfg, c_star=2.0).config_hash()

    def test_ne_route_runs(self):
        cfg = small_cfg(dependence=DependenceSpec.non_ergodic(), n=30, p=16,
                        m_rules=(("ne-sqrt", 1.0),), n_replicates=4)
        rows = run_experiment(cfg)
        assert rows[0]["alpha"] == 0.0
        assert rows[0]["n_reps"] == 4


class TestPowerExperiment:
    @pytest.mark.slow
    def test_null_shift_recovers_the_level(self):
        """With a zero alternative the power equals the attained level.

        Sizes are chosen where the overlapping-block calibration is least
        biased (m large relative to sqrt(p), m/n small): n = 400, p = 20,
        c0 = 2.  Measured rejection rate 0.087 at level 0.1.
        """
        cfg = ExperimentConfig(
            mode="power", n=400, p=20, dependence=SRD, c_star=1.0,
            levels=(0.1,), m_rules=(("ergodic", 2.0),),
            n_replicates=500, seed=9090, mu1_scale=0.0)
        rows = run_experiment(cfg)
        assert abs(rows[0]["level"] - rows[0]["a_hat"]) <= 0.04

    def test_power_nondecreasing_in_shift(self):
        base = ExperimentConfig(
            mode="power", n=40, p=16, dependence=SRD, c_star=1.0,
            levels=(0.1,), m_rules=(("ergodic", 1.0),),
            n_replicates=100, seed=424242, mu1_scale=0.5)
        powers = []
        for scale in (0.5, 1.0, 2.0):
            rows = run_experiment(replace(base, mu1_scale=scale))
            powers.append(rows[0]["a_hat"])
        assert powers[0] <= powers[1] + 0.03
        assert powers[1] <= powers[2] + 0.03
        assert powers[-1] > 0.5  # the shift is detectable at all


class TestCalibrationCompare:
    def test_emits_subsampling_and_normal_rows(self):
        cfg = small_cfg(mode="calibration-compare", n=60, p=20,
                        n_replicates=3,
                        m_rules=(("ergodic", 1.0), ("ergodic", 2.0)))
        rows = run_experiment(cfg)
        rules = [(r["m_rule"], r["c0"]) for r in rows]
        assert ("normal", 0.0) in rules
        assert ("ergodic", 1.0) in rules and ("ergodic", 2.0) in rules
        assert len(rows) == 3  # (2 m-rules + normal) x 1 level

    def test_normal_row_needs_no_hurst_estimate(self):
        # p = 7 is too short for the Hurst grid (p >= 16): the subsampling
        # rows have no alpha_hat and stay NaN, the Normal row is computed
        cfgs = load_experiment_configs(
            (CONFIGS / "table5_compare_srd.ini").read_text())
        cfg = replace(next(c for c in cfgs if c.p == 7), n_replicates=4)
        rows = run_experiment(cfg)
        normal = [r for r in rows if r["m_rule"] == "normal"]
        assert normal
        for row in normal:
            assert row["n_reps"] == 4
            assert math.isfinite(row["a_hat"])
        for row in rows:
            if row["m_rule"] != "normal":
                assert row["n_reps"] == 0 and math.isnan(row["a_hat"])

    @pytest.mark.parametrize("level", [0.01, 0.025, 0.05, 0.1, 0.2])
    def test_normal_quantile_matches_ndtri(self, level):
        # the Normal row's threshold comes from the standard library's
        # inverse CDF; 0.05 and 0.1 are the shipped levels
        z = statistics.NormalDist().inv_cdf(1.0 - level)
        expect = ndtri(1.0 - level)
        assert abs(z - expect) <= 4 * math.ulp(expect)

    def test_normal_route_insensitive_to_variance_plugin(self):
        """Swapping the plug-in variance for the exact one barely moves a_hat.

        The exact limit variance comes from the autocovariance recursion;
        the per-replicate decisions agree except when the statistic falls
        between the two thresholds, which is rare (measured gap 0.000 at
        300 replicates, asserted <= 0.05 at 500).
        """
        rho = arma_autocorrelation(SRD.ar, SRD.ma, 200)
        kappa_exact = math.sqrt(2.0 * np.sum(rho**2))
        z90 = ndtri(0.9)
        cfg = PelConfig(c_star=1.0)
        n, p = 200, 80
        est = exact = 0
        reps = 500
        for rep in range(reps):
            x = generate(SRD, n, p, rng_for("gsens", rep))
            dm = compute_column_stats(x)
            z = math.sqrt(p) * (solve_pel(dm, np.zeros(p), cfg).stat - 1.0)
            est += z > math.sqrt(estimate_kappa_sq_plugin(dm, 1.0)) * z90
            exact += z > kappa_exact * z90
        assert abs(est - exact) / reps <= 0.05


class TestRunExperimentDispatch:
    def test_dispatches_by_mode(self):
        rows = run_experiment(small_cfg(n_replicates=2))
        assert rows[0]["mode"] == "level"
        rows = run_experiment(small_cfg(mode="power", n_replicates=2))
        assert rows[0]["mode"] == "power"


class TestAggregate:
    """Result cells with failed (NaN) replicates, from synthetic stacks of
    100 replicates: one row, one level, rejections at every 4th replicate."""

    CFG = small_cfg(n_replicates=100)

    def aggregate(self, failed):
        stacked = (np.arange(100) % 4 == 0).astype(float).reshape(100, 1, 1)
        stacked[failed] = np.nan
        (row,) = experiments._aggregate(self.CFG, stacked)
        return row

    def test_one_failed_replicate_leaves_the_others(self):
        # replicate 0 rejected, so the other 99 hold 24 rejections
        row = self.aggregate([0])
        assert row["n_reps"] == 99
        assert row["a_hat"] == pytest.approx(24 / 99, rel=1e-15)
        assert row["abs_err"] == pytest.approx(abs(0.1 - 24 / 99), rel=1e-15)

    def test_failures_above_the_cell_rate_invalidate_it(self):
        assert experiments.MAX_CELL_FAILURE_RATE == 0.02
        row = self.aggregate([1, 2, 3])
        assert row["n_reps"] == 97
        assert math.isnan(row["a_hat"])
        assert math.isnan(row["abs_err"])


class TestFailedStages:
    """A stage that raises leaves NaN in the cells it feeds, and only there."""

    def test_failed_full_sample_solve_empties_every_row(self, monkeypatch):
        def no_solve(data, mu, cfg):
            raise ConvergenceError("synthetic", best_pi=None, residual=1.0)

        monkeypatch.setattr(experiments, "solve_pel", no_solve)
        cfg = small_cfg(mode="calibration-compare", n_replicates=2,
                        m_rules=(("ergodic", 1.0), ("ergodic", 2.0)),
                        levels=(0.05, 0.1))
        assert np.isnan(experiments._replicate(cfg, 0)).all()
        rows = run_experiment(cfg)
        assert len(rows) == 6
        for row in rows:
            assert row["n_reps"] == 0
            assert math.isnan(row["a_hat"]) and math.isnan(row["abs_err"])

    def test_failed_variance_plugin_empties_the_normal_row_only(
            self, monkeypatch):
        cfg = small_cfg(mode="calibration-compare", n=60, p=20,
                        m_rules=(("ergodic", 1.0), ("ergodic", 2.0)),
                        levels=(0.05, 0.1))
        want = experiments._replicate(cfg, 0)
        assert not np.isnan(want).any()

        def no_plugin(data, c_star):
            raise DegenerateDataError("synthetic")

        monkeypatch.setattr(experiments, "estimate_kappa_sq_plugin", no_plugin)
        got = experiments._replicate(cfg, 0)
        np.testing.assert_array_equal(got[:-1], want[:-1])
        assert np.isnan(got[-1]).all()
