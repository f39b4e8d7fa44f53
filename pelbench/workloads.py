"""The four workloads: their set-up, operations and output checks.

Every workload builds a fixed list of operations whose data seeds do not
change between runs; the run's ``--seed`` only fixes the order in which a
round visits them.  The data are fixed because the cost of one operation
depends strongly on its data (one n=2000 solve takes 3 to 21 Newton
iterations depending on the sample, and a table3_power_srd replicate runs
12 to 36 block solves to the Newton cap), so seed-drawn data would make
the spread between runs measure the draw rather than the code.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import pelhd
from checks import (
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

# Master seed of the shipped configs, reused for the other workloads' data.
DATA_SEED = 20260810


@dataclass
class Op:
    label: str
    run: Callable[[], object]


def _bound(fn, span):
    """The arguments of a recorded call, by parameter name."""
    sig = inspect.signature(getattr(fn, "__wrapped__", fn))
    return sig.bind(*span.args, **span.kwargs).arguments


def _first(spans, name):
    return next((s for s in spans if s.name == name), None)


def _alpha_hat(cfg, spans):
    """The test's alpha_hat: 0 for NE data, else the recorded Hurst estimate."""
    if cfg.is_ne:
        return 0.0
    return _first(spans, "calibration.estimate_alpha_hurst").result


def _curves(spans):
    """Each recorded curve call: its span and its arguments by name."""
    return [(s, _bound(getattr(pelhd.calibration, s.name.split(".", 1)[1]), s))
            for s in spans if s.name.startswith("calibration.build_curve")]


def _pel_errors(data, mu, cfg, sol):
    lam = cfg.c_star * data.n / data.p if cfg.lam is None else cfg.lam
    return check_pel_solution(data.values, data.delta, mu, lam,
                              cfg.newton_tol, sol.pi, sol.stat)


class Workload:
    """A fixed list of operations and the checks of their outputs."""

    # operations are experiments replicates, whose blocks can be re-solved
    replicates = False

    def warm(self, order):
        """Fill the caches the operations use, before timing starts."""

    def failed(self, result):
        """Whether an operation that returned ``result`` failed."""
        return False

    def digest(self, result):
        """The part of a result that every round must reproduce."""
        return result

    def same(self, a, b):
        return a == b


class McWorkload(Workload):
    """Monte Carlo replicates through ``pelhd.run_experiment``, one per op."""

    replicates = True

    def __init__(self, cfgs):
        self.cfgs = [replace(c, n_replicates=1, output_path=None) for c in cfgs]
        self.seeds = sorted({c.seed for c in self.cfgs})

    @classmethod
    def from_configs(cls, root, config_names):
        """One replicate of every cell of the shipped configs, at their seed."""
        cfgs = []
        for name in config_names:
            text = (root / "configs" / f"{name}.ini").read_text()
            cfgs += pelhd.load_experiment_configs(text)
        return cls(cfgs)

    def warm(self, order):
        """Fill the LRD Cholesky cache the way the first round will use it."""
        for i in order:
            dep = self.cfgs[i].dependence
            if dep.kind == "lrd":
                pelhd.lrd_correlation(self.cfgs[i].p, dep.alpha)

    def ops(self):
        return [Op(f"{c.mode}:{c.dependence.kind}:{c.dependence.alpha}:p={c.p}",
                   lambda c=c: pelhd.run_experiment(c)) for c in self.cfgs]

    def failed(self, rows):
        return any(np.isnan(r["a_hat"]) for r in rows)

    def check(self, index, rows, spans):
        cfg = self.cfgs[index]
        errs = check_rows(rows, 1)
        solve = _first(spans, "core.solve_pel")
        if solve is None:
            return errs + ["no full-sample solve_pel call was recorded"]
        args = _bound(pelhd.core.solve_pel, solve)
        data, mu0, sol = args["data"], np.asarray(args["mu"]), solve.result
        errs += _pel_errors(data, mu0, args["cfg"], sol)
        at_mean = pelhd.core.solve_pel(data, data.col_mean, args["cfg"])
        errs += check_zero_at_mean(at_mean.stat)

        alpha_hat = _alpha_hat(cfg, spans)
        if cfg.is_ne:
            statistic = sol.stat
        else:
            statistic = cfg.p ** min(alpha_hat, 0.5) * (sol.stat - cfg.c_star)
        curves = _curves(spans)
        if len(curves) != len(cfg.m_rules):
            return errs + [f"{len(curves)} curves for {len(cfg.m_rules)} m-rules"]
        for span in spans:
            if span.name != "calibration.decide":
                continue
            bound = _bound(pelhd.calibration.decide, span)
            if not np.isclose(bound["statistic"], statistic, rtol=1e-12, atol=0):
                errs.append(f"decide got statistic {bound['statistic']!r}, "
                            f"expected {statistic!r}")
            values = bound["curve"].sorted_values
            k = order_statistic_index(bound["level"], len(values))
            if span.result.threshold != values[k - 1]:
                errs.append(f"threshold {span.result.threshold!r} at level "
                            f"{bound['level']} is not sorted value {k} of {len(values)}")
        for (rule, c0), (span, bound) in zip(cfg.m_rules, curves):
            curve, m = span.result, bound["m"]
            if "alpha_hat" in bound and bound["alpha_hat"] != alpha_hat:
                errs.append("curve built with another alpha_hat than the test")
            m_exp = expected_subsample_size(cfg.n, cfg.p, rule, c0,
                                            cfg.dependence.decay_exponent)
            errs += check_curve(curve.block_stats, curve.sorted_values, cfg.n,
                                m, m_exp, curve.regime, cfg.p, alpha_hat,
                                cfg.c_star)
            for level in cfg.levels:
                want = expected_decision(statistic, curve.sorted_values, level)
                row = next(r for r in rows if (r["m_rule"], r["c0"],
                                               r["level"]) == (rule, c0, level))
                if row["a_hat"] != float(want):
                    errs.append(f"{rule}:{c0} level {level}: decision "
                                f"{row['a_hat']} but statistic {statistic!r} vs "
                                f"curve gives {float(want)}")
        return errs

    def resolve_blocks(self, index, spans):
        """Re-solve every block of every curve through the public API.

        Returns the seconds and iterations of each block solve, the number
        of solves that used up the Newton budget, and check errors: each
        block statistic must reproduce the curve's value.
        """
        alpha_hat = _alpha_hat(self.cfgs[index], spans)
        out = {"seconds": [], "iters": [], "capped": 0, "errors": []}
        for span, bound in _curves(spans):
            data, m, pcfg = bound["data"], bound["m"], bound["cfg"]
            mu0 = np.asarray(bound["mu0"], dtype=float)
            block_cfg = pelhd.PelConfig(c_star=pcfg.c_star)
            scale = 1.0 if span.result.regime == "ne" else data.p ** min(alpha_hat, 0.5)
            shift = 0.0 if span.result.regime == "ne" else pcfg.c_star
            for i in range(data.n - m + 1):
                t0 = time.perf_counter()
                sub = pelhd.compute_column_stats(data.values[i:i + m])
                try:
                    sol = pelhd.solve_pel(sub, mu0, block_cfg)
                except pelhd.ConvergenceError:
                    out["seconds"].append(time.perf_counter() - t0)
                    if not np.isnan(span.result.block_stats[i]):
                        out["errors"].append(f"block {i} failed on re-solve only")
                    continue
                out["seconds"].append(time.perf_counter() - t0)
                out["iters"].append(sol.iterations)
                out["capped"] += sol.iterations >= block_cfg.max_newton_iters
                want = scale * (sol.stat - shift)
                got = span.result.block_stats[i]
                if not np.isclose(got, want, rtol=1e-9, atol=1e-12):
                    out["errors"].append(
                        f"block {i} (m={m}): curve {got!r}, re-solved {want!r}")
                out["errors"] += _pel_errors(sub, mu0, block_cfg, sol)
        return out


class StatLargeN(Workload):
    """generate -> compute_column_stats -> one full-sample solve_pel."""

    SHAPES = ((2000, 50), (1000, 100), (400, 4000))

    def __init__(self):
        self.spec = pelhd.DependenceSpec.short_range_arma()
        self.cfg = pelhd.PelConfig(c_star=1.0)
        self.seeds = [(DATA_SEED, n, p) for n, p in self.SHAPES]

    def _op(self, n, p):
        x = pelhd.generate(self.spec, n, p, np.random.SeedSequence((DATA_SEED, n, p)))
        data = pelhd.compute_column_stats(x)
        mu = np.zeros(p)
        return data, mu, pelhd.solve_pel(data, mu, self.cfg)

    def ops(self):
        return [Op(f"srd:n={n}:p={p}", lambda n=n, p=p: self._op(n, p))
                for n, p in self.SHAPES]

    def digest(self, result):
        return result[2].stat

    def same(self, a, b):
        return np.isclose(a, b, rtol=1e-12, atol=1e-15)

    def check(self, index, result, spans):
        data, mu, sol = result
        errs = _pel_errors(data, mu, self.cfg, sol)
        at_mean = pelhd.core.solve_pel(data, data.col_mean, self.cfg)
        return errs + check_zero_at_mean(at_mean.stat)


class LimitDraws(Workload):
    """Draws from the strong-LRD and non-ergodic reference limit laws."""

    ALPHAS = (0.1, 0.3)
    P_SURROGATE = 2048
    LRD_DRAWS = 1000
    NE_GRID = 200
    NE_DRAWS = 10_000
    C_STAR = 1.0

    def __init__(self):
        self.grid = None
        self.seeds = [(DATA_SEED, k) for k in range(len(self.ALPHAS) + 1)]

    def warm(self, order):
        for alpha in self.ALPHAS:
            pelhd.lrd_correlation(self.P_SURROGATE, alpha)
        self.grid = pelhd.ne_correlation(self.NE_GRID)

    def ops(self):
        ops = [Op(f"lrd:alpha={a}",
                  lambda a=a, k=k: pelhd.sample_lrd_limit(
                      a, self.P_SURROGATE, self.LRD_DRAWS,
                      np.random.SeedSequence(self.seeds[k]), self.C_STAR))
               for k, a in enumerate(self.ALPHAS)]
        ops.append(Op(f"ne:q={self.NE_GRID}",
                      lambda: pelhd.sample_ne_limit(
                          self.grid, self.C_STAR, self.NE_DRAWS,
                          np.random.SeedSequence(self.seeds[-1]))))
        return ops

    def same(self, a, b):
        return np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def check(self, index, draws, spans):
        if index < len(self.ALPHAS):
            return check_lrd_draws(draws, self.ALPHAS[index],
                                   self.P_SURROGATE, self.C_STAR)
        return check_ne_draws(draws, self.grid, self.C_STAR)


def make(name, root):
    if name == "mc_level":
        return McWorkload.from_configs(root, ("table1_srd", "table1_lrd08",
                                              "table1_lrd01", "table1_ne"))
    if name == "mc_power":
        return McWorkload.from_configs(root, ("table3_power_srd",))
    if name == "stat_large_n":
        return StatLargeN()
    if name == "limit_draws":
        return LimitDraws()
    raise ValueError(f"unknown workload {name!r}")

