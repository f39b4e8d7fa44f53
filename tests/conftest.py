import os

# One BLAS thread, set before numpy loads: the suite's small matrix products
# (the low-rank Newton step above all) run about 2x slower on two OpenBLAS
# threads than on one.  A value set in the environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from pelhd import DependenceSpec, ExperimentConfig, run_experiment  # noqa: E402

# Master seed for the acceptance-scale Monte Carlo runs.
ACCEPT_SEED = 20260810


def rng_for(*key):
    """Counter-keyed generator so tests never share or reorder streams."""
    ints = tuple(
        int.from_bytes(k.encode(), "little") if isinstance(k, str) else int(k)
        for k in key
    )
    return np.random.default_rng(np.random.SeedSequence(ints))


@pytest.fixture(scope="session")
def srd_level_run():
    """Null rejection rates under short-range dependence, 500 replicates.

    Shared across the suite because it is the most expensive single run:
    n = 200, p = 100, subsample rule (np)^(1/3) (c0 = 1), levels 0.05/0.1.
    """
    cfg = ExperimentConfig(
        mode="level", n=200, p=100,
        dependence=DependenceSpec.short_range_arma(),
        c_star=1.0, levels=(0.05, 0.1),
        m_rules=(("ergodic", 1.0),),
        n_replicates=500, seed=ACCEPT_SEED,
    )
    return run_experiment(cfg)
