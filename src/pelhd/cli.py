"""Command-line interface.

Subcommands: ``stat`` (statistic for a CSV data set), ``calibrate``
(subsampling curve as CSV), ``simulate`` (generate data CSV),
``experiment`` (run a flat config file, emit results CSV) and ``limits``
(sample a reference limit law).  Exit codes follow the class of the error:
0 success; 2 configuration or usage error (argparse, an OSError such as a
missing file or a directory where a file is expected, or a PelhdError that
is a ValueError); 3 numeric failure (any other PelhdError).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import calibration, experiments, limits, simulate
from .core import PelConfig, compute_column_stats, solve_pel
from .errors import ConfigError, PelhdError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _number_or_auto(value: str):
    """An ``--alpha-hat`` value: the word 'auto' or a float."""
    try:
        return value if value == "auto" else float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a number or 'auto', got {value!r}") from None


def _seed(value: str) -> int:
    """A ``--seed`` value: an integer >= 0, as numpy's seeding requires."""
    if int(value) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return int(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pelhd",
        description="Penalized empirical likelihood tests for high-dimensional means",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stat = sub.add_parser("stat", help="compute the PEL statistic for a data CSV")
    p_stat.add_argument("--data", required=True, help="CSV of n rows x p columns")
    p_stat.add_argument("--mu", default="zeros",
                        help="'zeros' or path to a one-column CSV of length p")
    p_stat.add_argument("--c-star", type=float, default=1.0)
    p_stat.add_argument("--lam", type=float, default=None,
                        help="explicit penalty factor (default c_star*n/p)")

    p_sim = sub.add_parser("simulate", help="generate a data CSV")
    p_sim.add_argument("--kind", required=True, choices=["ne", "lrd", "srd"])
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=int, required=True)
    keys = experiments.CONFIG_KEYS
    p_sim.add_argument("--alpha", type=keys["alpha"], help="LRD exponent")
    p_sim.add_argument("--ar", type=keys["ar"], help="AR coefficients a1,a2")
    p_sim.add_argument("--ma", type=keys["ma"], help="MA coefficients b1,b2,...")
    p_sim.add_argument("--burn-in", type=keys["burn_in"])
    p_sim.add_argument("--seed", type=_seed, required=True)
    p_sim.add_argument("--out", default=None, help="output path (default stdout)")

    p_cal = sub.add_parser("calibrate", help="emit the subsampling curve as CSV")
    p_cal.add_argument("--data", required=True)
    p_cal.add_argument("--mu", default="zeros")
    p_cal.add_argument("--m", type=int, required=True, help="subsample size")
    p_cal.add_argument("--regime", choices=["ne", "ergodic"], default="ne")
    p_cal.add_argument("--alpha-hat", type=_number_or_auto, default="auto",
                       help="ergodic scaling exponent, or 'auto' to estimate")
    p_cal.add_argument("--c-star", type=float, default=1.0)
    p_cal.add_argument("--out", default=None)

    p_exp = sub.add_parser("experiment", help="run a config file, emit results CSV")
    p_exp.add_argument("--config", required=True, help="flat key = value file")
    p_exp.add_argument("--seed", type=int, default=None, help="override config seed")
    p_exp.add_argument("--threads", type=int, default=1)
    p_exp.add_argument("--out", default=None)

    p_lim = sub.add_parser("limits", help="sample a reference limit law")
    p_lim.add_argument("--regime", required=True, choices=["ne", "lrd"])
    p_lim.add_argument("--alpha", type=float, default=None,
                       help="LRD exponent in (0, 1/2)")
    p_lim.add_argument("--q", type=int, default=200, help="NE grid size")
    p_lim.add_argument("--p-surrogate", type=int, default=2048)
    p_lim.add_argument("--draws", type=int, default=10_000)
    p_lim.add_argument("--c-star", type=float, default=1.0)
    p_lim.add_argument("--seed", type=_seed, required=True)
    p_lim.add_argument("--out", default=None)
    return parser


def _read_mu(spec: str, p: int) -> np.ndarray:
    if spec == "zeros":
        return np.zeros(p)
    mu = simulate.read_matrix_csv(spec).reshape(-1)
    if mu.size != p:
        raise ConfigError(f"mu file has {mu.size} entries, data has p={p}")
    return mu


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_stat(args) -> int:
    x = simulate.read_matrix_csv(args.data)
    data = compute_column_stats(x)
    mu = _read_mu(args.mu, data.p)
    cfg = PelConfig(c_star=args.c_star, lam=args.lam)
    print(repr(solve_pel(data, mu, cfg).stat))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    spec = simulate.DependenceSpec.of(args.kind, alpha=args.alpha, ar=args.ar,
                                      ma=args.ma, burn_in=args.burn_in)
    x = simulate.generate(spec, args.n, args.p, args.seed)
    _emit(simulate._format_matrix_csv(x, args.kind, args.seed), args.out)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    x = simulate.read_matrix_csv(args.data)
    data = compute_column_stats(x)
    mu = _read_mu(args.mu, data.p)
    cfg = PelConfig(c_star=args.c_star)
    if args.regime == "ne":
        curve = calibration.build_curve_ne(data, mu, args.m, cfg)
    else:
        alpha_hat = args.alpha_hat
        if alpha_hat == "auto":
            alpha_hat = calibration.estimate_alpha_hurst(data)
        curve = calibration.build_curve_ergodic(data, mu, args.m, alpha_hat, cfg)
    lines = ["block_start_index,statistic"]
    lines += [f"{start},{float(stat)!r}"
              for start, stat in enumerate(curve.block_stats)]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        text = fh.read()
    configs = experiments.load_experiment_configs(text)
    rows: list[dict] = []
    out_path = args.out
    for cfg in configs:
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if out_path is None:
            out_path = cfg.output_path
        rows.extend(experiments.run_experiment(cfg, threads=args.threads))
    _emit(experiments.rows_to_csv(rows), out_path)
    return EXIT_OK


def _cmd_limits(args) -> int:
    if args.regime == "ne":
        grid = simulate.ne_correlation(args.q)
        draws = limits.sample_ne_limit(grid, args.c_star, args.draws, args.seed)
    else:
        if args.alpha is None:
            raise ConfigError("--alpha is required for --regime lrd")
        draws = limits.sample_lrd_limit(
            args.alpha, args.p_surrogate, args.draws, args.seed, args.c_star)
    _emit("draw\n" + "\n".join(repr(float(v)) for v in draws) + "\n", args.out)
    return EXIT_OK


_COMMANDS = {
    "stat": _cmd_stat,
    "simulate": _cmd_simulate,
    "calibrate": _cmd_calibrate,
    "experiment": _cmd_experiment,
    "limits": _cmd_limits,
}


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize unknown commands to 2
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except (PelhdError, OSError) as exc:
        if isinstance(exc, (ValueError, OSError)):
            # bad inputs or inconsistent options
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        # numerical failure inside an otherwise valid run
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
