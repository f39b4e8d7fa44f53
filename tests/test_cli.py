import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pelhd

from pelhd.calibration import estimate_alpha_hurst
from pelhd.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, cli_main
from pelhd.core import compute_column_stats
from pelhd.errors import NumericError
from pelhd.simulate import DependenceSpec, generate, read_matrix_csv


def run_cli(*argv):
    return cli_main(list(argv))


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", "--kind", "lrd", "--alpha", "0.8",
                "--n", "20", "--p", "10", "--seed", "7"]
        assert run_cli(*args, "--out", str(a)) == EXIT_OK
        assert run_cli(*args, "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_header_metadata(self, tmp_path):
        out = tmp_path / "d.csv"
        run_cli("simulate", "--kind", "ne", "--n", "4", "--p", "3",
                "--seed", "11", "--out", str(out))
        header = out.read_text().splitlines()[0]
        assert header == "# n=4 p=3 kind=ne seed=11"
        assert read_matrix_csv(out).shape == (4, 3)

    def test_lrd_needs_alpha(self, tmp_path):
        rc = run_cli("simulate", "--kind", "lrd", "--n", "4", "--p", "3",
                     "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG

    def test_bad_alpha_is_config_error(self, tmp_path):
        rc = run_cli("simulate", "--kind", "lrd", "--alpha", "1.7",
                     "--n", "4", "--p", "3", "--seed", "1",
                     "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG

    def test_srd_options_reach_the_spec(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run_cli("simulate", "--kind", "srd", "--ar", "0.5,-0.3",
                       "--ma", "0.2", "--burn-in", "20", "--alpha", "0.3",
                       "--n", "5", "--p", "4", "--seed", "9",
                       "--out", str(out)) == EXIT_OK
        spec = DependenceSpec.short_range_arma(ar=(0.5, -0.3), ma=(0.2,),
                                               burn_in=20)
        np.testing.assert_array_equal(read_matrix_csv(out),
                                      generate(spec, 5, 4, 9))
        # without options the dataclass defaults apply
        assert run_cli("simulate", "--kind", "srd", "--n", "5", "--p", "4",
                       "--seed", "9", "--out", str(out)) == EXIT_OK
        np.testing.assert_array_equal(
            read_matrix_csv(out),
            generate(DependenceSpec.short_range_arma(), 5, 4, 9))

    @pytest.mark.parametrize("ar", ["0.1", "0.1,x"])
    def test_bad_ar_is_config_error(self, tmp_path, ar):
        rc = run_cli("simulate", "--kind", "srd", "--ar", ar,
                     "--n", "4", "--p", "3", "--seed", "1",
                     "--out", str(tmp_path / "x.csv"))
        assert rc == EXIT_CONFIG


# a ragged file and one with a non-numeric cell
MALFORMED_CSV = {"ragged": "1,2\n3\n", "non_numeric": "1,a\n"}


class TestStatCommand:
    def test_zero_mean_data_nonnegative_statistic(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(20, 5))
        x -= x.mean(axis=0)  # column means exactly zero
        path = tmp_path / "d.csv"
        with open(path, "w") as fh:
            for row in x:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        assert run_cli("stat", "--data", str(path), "--mu", "zeros",
                       "--c-star", "1") == EXIT_OK
        value = float(capsys.readouterr().out.strip())
        assert 0.0 <= value < 1e-8

    def test_mu_file_and_length_check(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "d.csv"
        with open(path, "w") as fh:
            for row in rng.normal(size=(10, 3)):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        mu = tmp_path / "mu.csv"
        mu.write_text("0.1\n-0.2\n0.3\n")
        assert run_cli("stat", "--data", str(path), "--mu", str(mu)) == EXIT_OK
        assert float(capsys.readouterr().out.strip()) >= 0
        bad = tmp_path / "bad_mu.csv"
        bad.write_text("0.1\n0.2\n")
        assert run_cli("stat", "--data", str(path), "--mu", str(bad)) == EXIT_CONFIG

    def test_missing_file(self):
        assert run_cli("stat", "--data", "/nonexistent/x.csv") == EXIT_CONFIG

    @pytest.mark.parametrize("args", [
        ("stat", "--lam", "nan"), ("stat", "--lam", "inf"),
        ("stat", "--c-star", "inf"),
        ("calibrate", "--m", "2", "--c-star", "inf"),
    ])
    def test_non_finite_setting_exits_2(self, tmp_path, capsys, args):
        path = tmp_path / "d.csv"
        path.write_text("0.5,1.0\n-0.5,2.0\n1.5,0.0\n2.5,1.0\n")
        assert run_cli(*args, "--data", str(path)) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("kind", MALFORMED_CSV)
    def test_malformed_file_is_config_error(self, tmp_path, kind):
        bad = tmp_path / "bad.csv"
        bad.write_text(MALFORMED_CSV[kind])
        good = tmp_path / "d.csv"
        good.write_text("0.5,1.0\n-0.5,2.0\n1.5,0.0\n")
        assert run_cli("stat", "--data", str(bad)) == EXIT_CONFIG
        assert run_cli("stat", "--data", str(good),
                       "--mu", str(bad)) == EXIT_CONFIG
        assert run_cli("calibrate", "--data", str(bad),
                       "--m", "2") == EXIT_CONFIG


    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_input_is_config_error(self, tmp_path, cell):
        good = tmp_path / "d.csv"
        good.write_text("0.5,1.0\n-0.5,2.0\n1.5,0.0\n2.5,1.0\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(f"0.5,1.0\n-0.5,{cell}\n1.5,0.0\n2.5,1.0\n")
        bad_mu = tmp_path / "mu.csv"
        bad_mu.write_text(f"0.0\n{cell}\n")
        for cmd in (["stat"], ["calibrate", "--m", "2"]):
            assert run_cli(*cmd, "--data", str(bad)) == EXIT_CONFIG
            assert run_cli(*cmd, "--data", str(good),
                           "--mu", str(bad_mu)) == EXIT_CONFIG


class TestCalibrateCommand:
    def _data(self, tmp_path):
        path = tmp_path / "d.csv"
        run_cli("simulate", "--kind", "srd", "--n", "30", "--p", "8",
                "--seed", "5", "--out", str(path))
        return path

    def test_curve_csv_layout(self, tmp_path):
        data = self._data(tmp_path)
        out = tmp_path / "curve.csv"
        assert run_cli("calibrate", "--data", str(data), "--m", "10",
                       "--out", str(out)) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "block_start_index,statistic"
        assert len(lines) == 1 + (30 - 10 + 1)
        starts = [int(line.split(",")[0]) for line in lines[1:]]
        assert starts == list(range(21))

    def test_ergodic_regime_with_explicit_alpha(self, tmp_path):
        data = self._data(tmp_path)
        out = tmp_path / "curve.csv"
        assert run_cli("calibrate", "--data", str(data), "--m", "10",
                       "--regime", "ergodic", "--alpha-hat", "0.8",
                       "--out", str(out)) == EXIT_OK
        vals = [float(line.split(",")[1])
                for line in out.read_text().strip().splitlines()[1:]]
        assert any(v < 0 for v in vals)  # centered statistics change sign

    def test_bad_alpha_hat_is_config_error(self, tmp_path):
        data = self._data(tmp_path)
        out = tmp_path / "curve.csv"
        assert run_cli("calibrate", "--data", str(data), "--m", "10",
                       "--regime", "ergodic", "--alpha-hat", "abc",
                       "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()

    def test_auto_alpha_hat_is_the_hurst_estimate(self, tmp_path):
        # p = 16, the smallest p of the Hurst grid
        data = tmp_path / "d.csv"
        run_cli("simulate", "--kind", "srd", "--n", "30", "--p", "16",
                "--seed", "5", "--out", str(data))
        alpha_hat = estimate_alpha_hurst(
            compute_column_stats(read_matrix_csv(data)))
        auto, given = tmp_path / "auto.csv", tmp_path / "given.csv"
        for out, value in ((auto, "auto"), (given, repr(alpha_hat))):
            assert run_cli("calibrate", "--data", str(data), "--m", "10",
                           "--regime", "ergodic", "--alpha-hat", value,
                           "--out", str(out)) == EXIT_OK
        assert auto.read_bytes() == given.read_bytes()


class TestExperimentCommand:
    def test_runs_config_file(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "mode = level\ndependence = srd\nn = 40\np = 16\n"
            "levels = 0.1\nm_rules = ergodic:1\nn_replicates = 4\nseed = 3\n")
        out = tmp_path / "res.csv"
        assert run_cli("experiment", "--config", str(cfg),
                       "--out", str(out)) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("alpha,p,n,m_rule")
        assert len(lines) == 2

    def test_seed_override_changes_hash(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "mode = level\ndependence = srd\nn = 40\np = 16\n"
            "levels = 0.1\nm_rules = ergodic:1\nn_replicates = 2\nseed = 3\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("experiment", "--config", str(cfg), "--out", str(a))
        run_cli("experiment", "--config", str(cfg), "--seed", "4",
                "--out", str(b))
        assert a.read_text() != b.read_text()

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("mode = level\nnot_a_key = 1\n")
        assert run_cli("experiment", "--config", str(cfg)) == EXIT_CONFIG
        assert run_cli("experiment", "--config",
                       str(tmp_path / "missing.ini")) == EXIT_CONFIG

    @pytest.mark.parametrize("line", [
        "c_star = abc", "mu1_scale = x", "alpha = x", "burn_in = 1.5",
        "levels = 0.1,a", "m_rules = ergodic", "n_replicates = 2.0",
        "seed = s",
    ])
    def test_non_numeric_value_exits_2(self, tmp_path, line):
        base = ["mode = level", "dependence = srd", "n = 40", "p = 16",
                "n_replicates = 2", "seed = 3"]
        key = line.split(" = ")[0]
        cfg = tmp_path / "exp.ini"
        cfg.write_text("\n".join(
            [b for b in base if not b.startswith(f"{key} = ")] + [line, ""]))
        out = tmp_path / "res.csv"
        assert run_cli("experiment", "--config", str(cfg),
                       "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("lines", [
        ["m_rules = ergodic:nan"], ["m_rules = ergodic:inf"],
        ["c_star = inf"], ["mode = power", "mu1_scale = nan"],
    ])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, lines):
        base = ["mode = level", "dependence = srd", "n = 40", "p = 16",
                "n_replicates = 2", "seed = 3"]
        keys = {line.split(" = ")[0] for line in lines}
        cfg = tmp_path / "exp.ini"
        cfg.write_text("\n".join(
            [b for b in base if b.split(" = ")[0] not in keys] + lines + [""]))
        out = tmp_path / "res.csv"
        assert run_cli("experiment", "--config", str(cfg),
                       "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_zero_threads_exits_2(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "mode = level\ndependence = srd\nn = 40\np = 16\n"
            "levels = 0.1\nm_rules = ergodic:1\nn_replicates = 2\nseed = 3\n")
        assert run_cli("experiment", "--config", str(cfg),
                       "--threads", "0") == EXIT_CONFIG


class TestLimitsCommand:
    def test_lrd_draws(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert run_cli("limits", "--regime", "lrd", "--alpha", "0.1",
                       "--p-surrogate", "256", "--draws", "50",
                       "--seed", "2", "--out", str(out)) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "draw"
        assert len(lines) == 51

    def test_ne_draws(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert run_cli("limits", "--regime", "ne", "--q", "50",
                       "--draws", "40", "--seed", "2",
                       "--out", str(out)) == EXIT_OK
        vals = [float(v) for v in out.read_text().strip().splitlines()[1:]]
        assert len(vals) == 40
        assert min(vals) >= 0

    def test_lrd_needs_alpha(self, tmp_path):
        out = tmp_path / "draws.csv"
        assert run_cli("limits", "--regime", "lrd", "--draws", "10",
                       "--seed", "1", "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()

    def test_lrd_alpha_out_of_range(self):
        assert run_cli("limits", "--regime", "lrd", "--alpha", "0.7",
                       "--draws", "10", "--seed", "1") == EXIT_CONFIG

    @pytest.mark.parametrize("c_star", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("regime", [("ne",), ("lrd", "--alpha", "0.1")],
                             ids=["ne", "lrd"])
    def test_bad_c_star_exits_2(self, tmp_path, regime, c_star):
        out = tmp_path / "draws.csv"
        assert run_cli("limits", "--regime", *regime, "--c-star", c_star,
                       "--p-surrogate", "256", "--draws", "10", "--seed", "1",
                       "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ("--regime", "ne", "--draws", "-5"),
        ("--regime", "ne", "--draws", "0"),
        ("--regime", "ne", "--q", "0"),
        ("--regime", "lrd", "--alpha", "0.1", "--p-surrogate", "256",
         "--draws", "-5"),
        ("--regime", "lrd", "--alpha", "0.1", "--p-surrogate", "256",
         "--draws", "0"),
    ])
    def test_bad_sizes_exit_2(self, tmp_path, args):
        out = tmp_path / "draws.csv"
        assert run_cli("limits", *args, "--seed", "1",
                       "--out", str(out)) == EXIT_CONFIG
        assert not out.exists()


class TestExitCodes:
    def test_unknown_subcommand_exits_2(self):
        assert run_cli("frobnicate") == EXIT_CONFIG

    def test_no_arguments_exits_2(self):
        assert run_cli() == EXIT_CONFIG

    def test_help_exits_0(self):
        assert run_cli("--help") == EXIT_OK

    def test_numeric_failures_exit_3(self, monkeypatch):
        import pelhd.cli as cli_mod

        def boom(args):
            raise NumericError("synthetic factorization failure")

        monkeypatch.setitem(cli_mod._COMMANDS, "stat", boom)
        assert run_cli("stat", "--data", "whatever.csv") == EXIT_NUMERIC

    @pytest.mark.parametrize("name", [
        "DimensionError", "DomainError", "ParameterError",
        "DegenerateDataError", "ConfigError", "NumericError",
        "ConvergenceError"])
    def test_exit_code_follows_the_error_class(self, monkeypatch, name):
        import pelhd.cli as cli_mod
        import pelhd.errors as errors

        cls = getattr(errors, name)
        is_input = issubclass(cls, ValueError)
        assert is_input != issubclass(cls, errors.NumericError)

        def boom(args):
            if cls is errors.ConvergenceError:
                raise cls("synthetic", best_pi=None, residual=1.0)
            raise cls("synthetic")

        monkeypatch.setitem(cli_mod._COMMANDS, "stat", boom)
        assert run_cli("stat", "--data", "whatever.csv") == (
            EXIT_CONFIG if is_input else EXIT_NUMERIC)


@pytest.mark.parametrize("module", ["simulate", "core", "calibration",
                                    "limits", "experiments"])
def test_every_public_name_resolves(module):
    # pelbench wraps each name in __all__ of these modules through
    # getattr, so a name deleted but left in __all__ breaks every run
    mod = importlib.import_module(f"pelhd.{module}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def _loaded_by_import(condition):
    """Sorted names m in sys.modules meeting ``condition`` (an expression in
    m) after a fresh interpreter imports pelhd and its CLI."""
    code = ("import sys, pelhd, pelhd.cli; "
            f"print(sorted(m for m in sys.modules if {condition}))")
    src = str(Path(pelhd.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package and its CLI load without it
    assert _loaded_by_import("m.split('.')[0] == 'scipy'") == "[]"


def test_import_loads_no_process_pool():
    # the pool modules load with the first --threads > 1 run, not at import
    assert _loaded_by_import(
        "m in ('multiprocessing', 'concurrent.futures.process')") == "[]"
