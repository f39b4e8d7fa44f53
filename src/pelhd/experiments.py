"""Monte Carlo experiment harness: empirical levels, power, calibration races.

An experiment is one (mode, n, p, dependence, c_star, levels, m-rules,
replicate count, seed) tuple, normally read from a flat ``key = value``
config file.  Replicates are pure functions of (config, replicate index,
master seed) with counter-keyed sub-seeds, so results are byte-identical
for any worker count; aggregation uses only order-independent counts.

Result rows follow the fixed CSV schema
``alpha,p,n,m_rule,c0,level,mode,a_hat,abs_err,n_reps,seed,config_hash``.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

import numpy as np

from .calibration import (
    build_curve_ergodic,
    build_curve_ne,
    decide,
    ergodic_scale,
    estimate_alpha_hurst,
    estimate_kappa_sq_plugin,
    subsample_size,
)
from .core import PelConfig, compute_column_stats, solve_pel
from .errors import ConfigError, DomainError, PelhdError
from .simulate import DependenceSpec, generate

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "load_experiment_configs",
    "parse_flat_config",
    "dependence_spec",
    "CONFIG_KEYS",
    "rows_to_csv",
    "RESULT_COLUMNS",
]

RESULT_COLUMNS = (
    "alpha", "p", "n", "m_rule", "c0", "level", "mode",
    "a_hat", "abs_err", "n_reps", "seed", "config_hash",
)

MODES = ("level", "power", "calibration-compare")

# Replicate failure fraction beyond which a result cell is invalidated.
MAX_CELL_FAILURE_RATE = 0.02

# Thread-count variables of OpenBLAS and OpenMP, pinned in pool workers.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: a single (mode, n, p) with its m-rules and levels."""

    mode: str
    n: int
    p: int
    dependence: DependenceSpec
    c_star: float = 1.0
    levels: tuple[float, ...] = (0.05, 0.1)
    m_rules: tuple[tuple[str, float], ...] = (("ergodic", 1.0),)
    n_replicates: int = 500
    seed: int = 0
    mu1_scale: float = 1.0
    output_path: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n < 2 or self.p < 2:
            raise ConfigError("need n >= 2 and p >= 2")
        if self.n_replicates < 1:
            raise ConfigError("n_replicates must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.levels:
            raise ConfigError("need at least one level")
        for a in self.levels:
            if not 0 < a < 1:
                raise ConfigError(f"levels must lie strictly in (0,1), got {a}")
        if not self.m_rules:
            raise ConfigError("need at least one m-rule")
        for key, entries in (("levels", self.levels), ("m_rules", self.m_rules)):
            # a repeated entry would repeat its result rows
            if len(set(entries)) < len(entries):
                raise ConfigError(f"{key} repeats an entry: {entries}")
        if not math.isfinite(self.mu1_scale):
            raise ConfigError(
                f"mu1_scale must be finite, got {self.mu1_scale}")
        try:
            self.subsample_sizes()
            self.pel_config()
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        if self.mode == "calibration-compare":
            if self.dependence.decay_exponent <= 0.5:
                raise ConfigError(
                    "calibration-compare needs alpha > 1/2 (the Normal "
                    "calibration is undefined otherwise)")

    @property
    def is_ne(self) -> bool:
        return self.dependence.kind == "ne"

    def pel_config(self) -> PelConfig:
        return PelConfig(c_star=self.c_star)

    def subsample_sizes(self) -> tuple[int, ...]:
        return tuple(
            subsample_size(self.n, self.p,
                           self.dependence.decay_exponent or 0.5, c0, rule)
            for rule, c0 in self.m_rules
        )

    def config_hash(self) -> str:
        """Hash of the scientific fields (the output path excluded)."""
        dep = self.dependence
        # "sigma=None" stands for a per-component scale that DependenceSpec
        # no longer has; it stays in the hashed text so that every hash
        # computed before keeps its value.
        parts = [
            f"mode={self.mode}", f"n={self.n}", f"p={self.p}",
            f"kind={dep.kind}", f"alpha={dep.alpha}", f"ar={dep.ar}",
            f"ma={dep.ma}", f"burn_in={dep.burn_in}", "sigma=None",
            f"c_star={self.c_star}", f"levels={self.levels}",
            f"m_rules={self.m_rules}", f"n_replicates={self.n_replicates}",
            f"seed={self.seed}", f"mu1_scale={self.mu1_scale}",
        ]
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        return digest[:12]


def _replicate_seed(cfg: ExperimentConfig, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, cfg.p, rep)))


def _mu1(cfg: ExperimentConfig) -> np.ndarray:
    """Alternative mean: first p/2 components at mu1_scale, the rest 0."""
    mu = np.zeros(cfg.p)
    mu[: cfg.p // 2] = cfg.mu1_scale
    return mu


def _row_labels(cfg: ExperimentConfig) -> list[tuple[str, float]]:
    """(m_rule, c0) of each result row: the m-rules, then Normal in compare mode."""
    labels = list(cfg.m_rules)
    if cfg.mode == "calibration-compare":
        labels.append(("normal", 0.0))
    return labels


def _replicate(cfg: ExperimentConfig, rep: int) -> np.ndarray:
    """Rejection indicators of one replicate, shape (n_rows, n_levels).

    Rows follow ``_row_labels``; failed cells are NaN.  Power runs shift
    the null data by mu1 and test H0: mu = 0.  The statistic and curve
    route follow the dependence regime: raw statistic against the NE
    curve, or the centered and p^(alpha_hat ^ 1/2)-scaled statistic
    against the ergodic curve with alpha_hat = 2 - 2*Hurst.  In compare
    mode the last row is the Normal route, which rejects iff
    sqrt(p) (K_n - c*) > kappa_hat z_(1-a) with kappa_hat^2 from the
    lag-autocorrelation plug-in; it needs no alpha_hat.

    alpha_hat sets no subsample size: the m-rules read the configured
    decay exponent, an oracle choice.  Its factor p^min(alpha_hat, 1/2)
    multiplies the statistic and every curve value alike, so it changes
    a decision only where rounding makes the two scaled values tie.  It
    stays because the benchmark's checks read the Hurst estimate and the
    scaled statistic; taking it out waits for a benchmark change
    (ROADMAP item 2).
    """
    out = np.full((len(_row_labels(cfg)), len(cfg.levels)), np.nan)
    pel_cfg = cfg.pel_config()
    mu0 = np.zeros(cfg.p)
    try:
        x = generate(cfg.dependence, cfg.n, cfg.p, _replicate_seed(cfg, rep))
        if cfg.mode == "power":
            x = x + _mu1(cfg)
        data = compute_column_stats(x)
        kn = solve_pel(data, mu0, pel_cfg).stat
    except PelhdError:
        return out
    try:
        if cfg.is_ne:
            alpha_hat = 0.0
            statistic = kn
        else:
            alpha_hat = estimate_alpha_hurst(data)
            statistic = ergodic_scale(cfg.p, alpha_hat) * (kn - cfg.c_star)
    except PelhdError:
        # e.g. p < 16 for the Hurst grid: the subsampling rows stay NaN
        m_sizes = ()
    else:
        m_sizes = cfg.subsample_sizes()
    for i, m in enumerate(m_sizes):
        try:
            if cfg.is_ne:
                curve = build_curve_ne(data, mu0, m, pel_cfg)
            else:
                curve = build_curve_ergodic(data, mu0, m, alpha_hat, pel_cfg)
            for j, level in enumerate(cfg.levels):
                out[i, j] = float(decide(statistic, curve, level).rejected)
        except PelhdError:
            continue
    if cfg.mode == "calibration-compare":
        import statistics

        try:
            kappa_hat = math.sqrt(estimate_kappa_sq_plugin(data, cfg.c_star))
            z = math.sqrt(cfg.p) * (kn - cfg.c_star)
            for j, level in enumerate(cfg.levels):
                z_level = statistics.NormalDist().inv_cdf(1.0 - level)
                out[-1, j] = float(z > kappa_hat * z_level)
        except PelhdError:
            pass
    return out


def _run_replicates(cfg: ExperimentConfig, threads: int) -> np.ndarray:
    """All replicates, stacked (n_replicates, n_rows, n_levels), order fixed."""
    task = partial(_replicate, cfg)
    reps = range(cfg.n_replicates)
    if threads == 1:
        return np.stack([task(rep) for rep in reps])
    with _worker_pool(threads) as pool:
        return np.stack(list(pool.map(task, reps, chunksize=8)))


@contextmanager
def _worker_pool(workers: int):
    """A process pool whose workers run BLAS on one thread each.

    k workers that each start a multi-threaded BLAS oversubscribe the
    cores.  The workers are spawned, not forked (a forked child keeps the
    parent's BLAS thread pool), with OPENBLAS_NUM_THREADS and
    OMP_NUM_THREADS set to 1 while the pool lives; the caller's values
    are restored afterwards.  The pool modules are imported here, so
    ``import pelhd`` does not load them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _aggregate(cfg: ExperimentConfig, stacked: np.ndarray) -> list[dict]:
    rows = []
    chash = cfg.config_hash()
    for i, (rule, c0) in enumerate(_row_labels(cfg)):
        for j, level in enumerate(cfg.levels):
            cell = stacked[:, i, j]
            ok = ~np.isnan(cell)
            n_ok = int(ok.sum())
            fail_rate = 1.0 - n_ok / cfg.n_replicates
            if fail_rate > MAX_CELL_FAILURE_RATE or n_ok == 0:
                a_hat = math.nan
                abs_err = math.nan
            else:
                a_hat = float(cell[ok].mean())
                abs_err = abs(level - a_hat)
            rows.append({
                "alpha": cfg.dependence.decay_exponent,
                "p": cfg.p, "n": cfg.n,
                "m_rule": rule, "c0": c0, "level": level,
                "mode": cfg.mode, "a_hat": a_hat, "abs_err": abs_err,
                "n_reps": n_ok, "seed": cfg.seed, "config_hash": chash,
            })
    return rows


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Rejection rates of ``cfg``, one row per (result row, level).

    a_hat is the empirical level in level and compare mode and the power
    in power mode.  ``threads`` > 1 runs the replicates in a process pool;
    the rows do not depend on it.
    """
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    return _aggregate(cfg, _run_replicates(cfg, threads))


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(RESULT_COLUMNS)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in RESULT_COLUMNS))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Flat key = value config files
# --------------------------------------------------------------------------


def _listed(parse):
    """The parser of a comma-separated list whose items ``parse`` reads.

    A wholly empty value is the empty list; a blank item, as in ``1,,2``
    or ``1,``, is a ValueError.
    """
    def comma_list(value: str) -> tuple:
        if not value.strip():
            return ()
        items = value.split(",")
        if not all(v.strip() for v in items):
            raise ValueError(f"blank item in list {value!r}")
        return tuple(parse(v) for v in items)
    return comma_list


def _m_rule(item: str) -> tuple[str, float]:
    rule, c0 = item.split(":")
    return rule.strip(), float(c0)


# Every config key and the parser of its value (ValueError if it is bad).
# p lists one ExperimentConfig each and out sets output_path; dependence and
# the regime keys build the DependenceSpec; the rest set their own field.
CONFIG_KEYS = {
    "mode": str.lower, "n": int, "p": _listed(int), "c_star": float,
    "levels": _listed(float), "m_rules": _listed(_m_rule),
    "n_replicates": int, "seed": int, "mu1_scale": float, "out": str,
    "dependence": str.lower, "alpha": float, "ar": _listed(float),
    "ma": _listed(float), "burn_in": int,
}

# The DependenceSpec fields each regime reads.  The keys of the other
# regimes are not passed on, so they leave config_hash unchanged.
_REGIME_KEYS = {"ne": (), "lrd": ("alpha",), "srd": ("ar", "ma", "burn_in")}


def parse_flat_config(text: str) -> dict[str, object]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines skipped.

    Returns each key set with its value typed by its ``CONFIG_KEYS`` parser.
    """
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip().lower(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad value {value!r} for {key!r}: {exc}") from exc
    return out


def dependence_spec(kind, **keys) -> DependenceSpec:
    """The DependenceSpec of regime ``kind``; a key absent or None keeps its default."""
    if kind not in _REGIME_KEYS:
        raise ConfigError(f"dependence must be ne, lrd or srd, got {kind!r}")
    given = {k: keys[k] for k in _REGIME_KEYS[kind] if keys.get(k) is not None}
    if kind == "lrd" and "alpha" not in given:
        raise ConfigError("lrd dependence requires 'alpha'")
    return DependenceSpec(kind=kind, **given)


def load_experiment_configs(text: str) -> list[ExperimentConfig]:
    """Expand a flat config into one ExperimentConfig per requested p.

    ``p`` must list at least one value, none of them twice.

    Only the typed values the file sets are passed on; the other fields
    keep their dataclass defaults, except m_rules, whose default depends
    on the regime.
    """
    values = parse_flat_config(text)
    for key in ("mode", "n", "p", "n_replicates", "seed"):
        if key not in values:
            raise ConfigError(f"missing required config key {key!r}")
    if not values["p"] or len(set(values["p"])) < len(values["p"]):
        raise ConfigError(f"'p' must list distinct values, got {values['p']}")
    dep = dependence_spec(values.get("dependence"), **values)
    kwargs = {k: v for k, v in values.items()
              if k in ExperimentConfig.__dataclass_fields__}
    kwargs.update(dependence=dep, output_path=values.get("out"))
    if "m_rules" not in values:
        kwargs["m_rules"] = (
            (("ne-cuberoot", 1.0), ("ne-sqrt", 1.0), ("ne-sqrt", 2.0))
            if dep.kind == "ne" else
            (("ergodic", 0.5), ("ergodic", 1.0), ("ergodic", 2.0)))
    return [ExperimentConfig(**{**kwargs, "p": p}) for p in values["p"]]
