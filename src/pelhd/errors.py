"""Exception types shared across the package.

A PelhdError that is also a ValueError reports a bad input and makes the
command line exit with 2; the others (NumericError and ConvergenceError)
report a numerical failure and exit with 3.
"""

import numpy as np


class PelhdError(Exception):
    """Base class for all package errors."""


class DimensionError(PelhdError, ValueError):
    """Input has too few rows/columns for the requested operation."""


class DomainError(PelhdError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ParameterError(PelhdError, ValueError):
    """A model parameter is invalid (e.g. non-causal AR coefficients)."""


class NumericError(PelhdError, ArithmeticError):
    """A numerical procedure failed (factorization loss, too many bad blocks)."""


class DegenerateDataError(PelhdError, ValueError):
    """The data carry no usable variation for the requested estimator."""


class ConfigError(PelhdError, ValueError):
    """An experiment configuration is malformed or inconsistent."""


class ConvergenceError(NumericError):
    """Optimizer did not reach the requested tolerance.

    Carries the best iterate found and its KKT residual so callers can
    inspect or salvage the partial result.
    """

    def __init__(self, message: str, best_pi: np.ndarray, residual: float):
        super().__init__(message)
        self.best_pi = best_pi
        self.residual = residual
