"""Penalized empirical likelihood tests for high-dimensional means.

The statistic, its three-regime reference laws, subsampling calibration,
and a Monte Carlo experiment harness.
"""

from .calibration import (
    CalibrationCurve,
    TestReport,
    build_curve_ergodic,
    build_curve_ne,
    conservative_reject,
    decide,
    ergodic_scale,
    estimate_alpha_hurst,
    estimate_alpha_invariant,
    estimate_kappa_sq_invariant,
    estimate_kappa_sq_plugin,
    quantile,
    subsample_size,
)
from .core import (
    DataMatrix,
    PelConfig,
    PelSolution,
    compute_column_stats,
    neg_log_pel_ratio,
    objective,
    solve_pel,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateDataError,
    DimensionError,
    DomainError,
    NumericError,
    ParameterError,
    PelhdError,
)
from .experiments import (
    ExperimentConfig,
    load_experiment_configs,
    rows_to_csv,
    run_experiment,
)
from .limits import (
    kappa_squared,
    sample_lrd_limit,
    sample_ne_limit,
)
from .simulate import (
    DependenceSpec,
    LrdCorrelation,
    arma_autocorrelations,
    gen_lrd,
    gen_non_ergodic,
    gen_srd_arma,
    generate,
    lrd_correlation,
    ne_correlation,
    read_matrix_csv,
    write_matrix_csv,
)

__version__ = "0.1.0"
