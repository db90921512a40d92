"""Exception hierarchy shared across the library.

The CLI maps these onto exit codes: data/schema problems exit 2, numerical
solver failures exit 3, an infeasible monotonicity program exits 4.
"""


class IvsplineError(Exception):
    """Base class for all library errors."""


class SchemaError(IvsplineError):
    """Column names do not fit the data.

    Raised when a requested column is missing from the header of a dataset
    or curve file or appears in it more than once, when the file has no
    header or no instrument column is requested, and when ``write_csv`` gets
    a number of instrument names other than the dataset's instrument count,
    or one column name twice.
    """


class ParseError(IvsplineError):
    """A cell could not be parsed as a finite real number."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class SizeError(IvsplineError):
    """The dataset is too small for the requested operation."""


class DegenerateInstrumentError(IvsplineError):
    """An instrument column is constant and cannot be standardized."""


class CollinearityError(IvsplineError):
    """The linear part of the design is rank deficient: fewer than two distinct z values, or L'Z of
    numerical rank below 2, as when instrument groups, exactly or nearly tied, have equal mean z."""


class ConditioningError(IvsplineError):
    """A bordered system cannot be solved in floating point.

    Raised when the bordered matrix [[L'EL + lam I, L'Z], [Z'L, 0]] (or,
    for a lambda path, its block L'EL) has a non-finite entry, or a
    condition estimate that overflows (an overflowing lambda), before any
    solve, and when a solve produces non-finite output.
    ``condition_estimate`` is the system's inf-norm condition estimate, inf
    in the first two cases.
    """

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class SelectionError(IvsplineError):
    """Cross-validation could not rank any candidate regularization value."""


class InfeasibleConstraintsError(IvsplineError):
    """No simplex weight vector satisfies the monotonicity constraints."""

    def __init__(self, message, worst_constraint=None):
        super().__init__(message)
        self.worst_constraint = worst_constraint


class SolverStallError(IvsplineError):
    """The tilt solver stopped short of a certified answer, though feasible weights exist.

    Raised when the dual ascent hits its iteration cap, when its line search
    finds no ascent step, or when its answer's KKT residual exceeds
    ``monotone.KKT_TOL``; the message then names the largest KKT term.
    ``diagnostics`` holds ``newton_steps``, the knot indices of the
    ``working_set`` and their ``multipliers``, in the same order.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})
