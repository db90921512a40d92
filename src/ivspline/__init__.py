"""Smoothing-spline instrumental-variable regression.

One-step estimation of a nonparametric regression with an endogenous
regressor: a characteristic-function moment criterion over the instruments
is minimized jointly with a roughness penalty, the solution being a natural
cubic spline with a closed-form coefficient system.  The package adds
derivative estimation, 2-fold cross-validated regularization, a
monotonicity-constrained variant via observation-weight tilting, and a
Monte Carlo harness.
"""

__version__ = "0.1.0"

from .datamodel import Dataset, load_csv, standardize_instruments, write_csv
from .errors import (
    CollinearityError,
    ConditioningError,
    DegenerateInstrumentError,
    InfeasibleConstraintsError,
    IvsplineError,
    ParseError,
    SchemaError,
    SelectionError,
    SizeError,
    SolverStallError,
)
from .kernel import (
    KernelSpec,
    WeightMatrix,
    build_weight_matrix,
    moment_criterion,
)
from .monotone import MonotoneDirection, TiltWeights, derivative_smoother_matrix, fit_monotone, tilt
from .selection import CvConfig, CvResult, cross_validate, default_grid
from .simlab import DgpConfig, McReport, evaluation_grid, generate, monte_carlo, true_function
from .solver import PathSolver, fit
from .spline import (
    SplineFit,
    build_design,
    evaluate,
    evaluate_derivative,
    evaluate_second_derivative,
    roughness,
)

__all__ = [
    "__version__",
    "Dataset",
    "load_csv",
    "standardize_instruments",
    "write_csv",
    "KernelSpec",
    "WeightMatrix",
    "build_weight_matrix",
    "moment_criterion",
    "SplineFit",
    "build_design",
    "evaluate",
    "evaluate_derivative",
    "evaluate_second_derivative",
    "roughness",
    "PathSolver",
    "fit",
    "CvConfig",
    "CvResult",
    "cross_validate",
    "default_grid",
    "MonotoneDirection",
    "TiltWeights",
    "derivative_smoother_matrix",
    "fit_monotone",
    "tilt",
    "DgpConfig",
    "McReport",
    "evaluation_grid",
    "generate",
    "monte_carlo",
    "true_function",
    "IvsplineError",
    "SchemaError",
    "ParseError",
    "SizeError",
    "DegenerateInstrumentError",
    "CollinearityError",
    "ConditioningError",
    "SelectionError",
    "InfeasibleConstraintsError",
    "SolverStallError",
]
