"""One input contract for every exported callable that takes arrays or lambda values.

Arrays: a NaN or inf entry raises ParseError, no rows or a wrong rank
SizeError (a 3-D instrument array; for a vector argument, a 2-D array of
two or more columns).  Lambda values raise ValueError for each of these.
None of them may warn on the way.
"""

import re
import warnings

import numpy as np
import pytest

import ivspline as ivs

BAD = {
    "vector": {"nan": [1.0, np.nan, 2.0], "inf": [1.0, np.inf, 2.0], "empty": [], "rank": np.ones((3, 2))},
    "matrix": {"nan": [[1.0], [np.nan], [2.0]], "inf": [[1.0], [np.inf], [2.0]], "empty": np.empty((0, 1)),
               "rank": np.ones((3, 1, 1))},
    "lambda": {"nan": np.nan, "inf": np.inf, "empty": [], "rank": np.full((2, 2), 0.1)},
}
ERRORS = {
    "vector": {"nan": ivs.ParseError, "inf": ivs.ParseError, "empty": ivs.SizeError, "rank": ivs.SizeError},
    "matrix": {"nan": ivs.ParseError, "inf": ivs.ParseError, "empty": ivs.SizeError, "rank": ivs.SizeError},
    "lambda": dict.fromkeys(BAD["lambda"], ValueError),
}

ROWS = [1.0, 2.0, 4.0]
DS = ivs.Dataset(y=[0.3, -0.1, 0.8, 0.2, 1.1, 0.7], z=[0.1, 0.5, 0.2, 0.9, 0.7, 0.4],
                 w=[0.0, 0.6, 0.1, 1.0, 0.8, 0.3])
FIT = ivs.SplineFit(a=[0.0, 1.0], delta=[0.5, -1.0, 0.5], knots=[-1.0, 0.0, 1.0], lam=1.0)

# exported name -> (kind of the bad argument, call that passes it)
ENTRY_POINTS = {
    "Dataset(y)": ("vector", lambda v: ivs.Dataset(y=v, z=ROWS, w=ROWS)),
    "Dataset(z)": ("vector", lambda v: ivs.Dataset(y=ROWS, z=v, w=ROWS)),
    "Dataset(w)": ("matrix", lambda v: ivs.Dataset(y=ROWS, z=ROWS, w=v)),
    "standardize_instruments": ("matrix", ivs.standardize_instruments),
    "build_weight_matrix": ("matrix", ivs.build_weight_matrix),
    "moment_criterion": ("vector", lambda v: ivs.moment_criterion(v, ivs.build_weight_matrix(ROWS))),
    "build_design": ("vector", ivs.build_design),
    "SplineFit": ("vector", lambda v: ivs.SplineFit(a=[0.0, 1.0], delta=v, knots=v, lam=1.0)),
    "evaluate": ("vector", lambda v: ivs.evaluate(FIT, v)),
    "evaluate_derivative": ("vector", lambda v: ivs.evaluate_derivative(FIT, v)),
    "evaluate_second_derivative": ("vector", lambda v: ivs.evaluate_second_derivative(FIT, v)),
    "fit": ("lambda", lambda v: ivs.fit(DS, v)),
    "derivative_smoother_matrix": ("lambda", lambda v: ivs.derivative_smoother_matrix(DS, v)),
    "tilt": ("lambda", lambda v: ivs.tilt(DS, v)),
    "fit_monotone": ("lambda", lambda v: ivs.fit_monotone(DS, v)),
    "PathSolver.path": ("lambda", lambda v: ivs.PathSolver(DS).path(v)),
    "CvConfig(grid)": ("lambda", lambda v: ivs.CvConfig(grid=v)),
}

# exported names the test leaves out, with the reason
LEFT_OUT = {
    "__version__": "a string",
    "load_csv": "reads a file, whose cells _parse_cell checks (test_csv_format.py)",
    "write_csv": "writes a Dataset, checked when it was made",
    "KernelSpec": "takes a scalar variance, checked by its own ValueError",
    "WeightMatrix": "made by build_weight_matrix, which the test covers",
    "roughness": "reads a SplineFit, checked when it was made",
    "CvResult": "a result, made by cross_validate",
    "cross_validate": "takes a Dataset and a CvConfig, both checked when they were made",
    "default_grid": "takes no argument",
    "MonotoneDirection": "an enumeration",
    "TiltWeights": "a result, made by tilt",
    "DgpConfig": "takes scalars, checked by its own ValueError",
    "McReport": "a result, made by monte_carlo",
    "evaluation_grid": "takes no argument",
    "generate": "takes a DgpConfig",
    "monte_carlo": "takes a DgpConfig and a CvConfig",
    "true_function": "the known test curves, evaluated at scalars or arrays and returning their shape",
}


def test_every_export_is_covered_or_left_out_with_a_reason():
    exceptions = {name for name in ivs.__all__
                  if isinstance(getattr(ivs, name), type) and issubclass(getattr(ivs, name), Exception)}
    covered = {re.split(r"[(.]", name)[0] for name in ENTRY_POINTS}
    assert covered.isdisjoint(LEFT_OUT)
    assert covered | set(LEFT_OUT) | exceptions == set(ivs.__all__)


@pytest.mark.parametrize("case", list(BAD["vector"]))
@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_bad_input_raises_a_typed_error_without_a_warning(name, case):
    kind, call = ENTRY_POINTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ERRORS[kind][case]):
            call(BAD[kind][case])


@pytest.mark.parametrize("evaluator", [ivs.evaluate, ivs.evaluate_derivative, ivs.evaluate_second_derivative])
def test_finite_evaluation_points_keep_their_shape(evaluator):
    # a scalar gives a float; a vector and an n x 1 column give a vector
    assert isinstance(evaluator(FIT, 5.0), float)
    column = evaluator(FIT, np.array([[-3.0], [0.5], [7.0]]))
    assert np.array_equal(column, evaluator(FIT, [-3.0, 0.5, 7.0]))
