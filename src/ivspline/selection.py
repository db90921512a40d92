"""Cross-validated choice of the regularization parameter.

The data are split at random into folds (two by default).  For each
candidate lambda, a fit on the complement of each fold predicts that fold's
points; the stitched out-of-fold prediction vector is scored by the moment
criterion with the full-sample weight matrix, and the minimizing lambda
wins, ties going to the smallest candidate.  Every candidate is handled at
once: one path solve per fold gives all its coefficient columns, one matrix
product (by row blocks of the basis) its out-of-fold predictions, and one
application of the weight matrix's factor scores them all as ||L'r||^2.
Large folds are solved in forked child processes (see
:func:`cross_validate`); the scoring stays in the calling process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._workers import _map
from .datamodel import Dataset
from .errors import IvsplineError, SelectionError, SizeError
from .kernel import WeightMatrix, build_weight_matrix
from .monotone import MonotoneDirection, _fit_monotone
from .solver import PathSolver, _checked_lambdas, _Factored
from .spline import SplineFit, _radial_product

GRID_SIZE = 400
GRID_P_LOW = 1e-5
GRID_P_HIGH = 0.7

# Criterion gaps below this relative threshold count as ties (noise-free data
# produce pure-roundoff criteria that must resolve to the smallest lambda).
TIE_RTOL = 1e-12

# The folds run in children from this bound on the training folds' system order m,
# the lower of the full sample's weight matrix rank and the smallest training fold's
# row count.  Forked over in-process two-fold CV time: 0.99-1.02 at m = 300 and
# 0.80-0.90 at 400 on 2 cores, 1.04-1.21 at 400-1000 on one (BENCH_fork_children.json).
_FOLD_WORKER_MIN_ORDER = 400


def _check_cv_rows(n: int, folds: int, got: str = "") -> None:
    """SizeError unless n rows split into ``folds`` folds of at least 3 rows; the message reads "got {got}{n}"."""
    if n < 3 * folds:
        raise SizeError(f"cross-validation with {folds} folds needs at least {3 * folds} rows, got {got}{n}")


def default_grid() -> np.ndarray:
    """The 400-point candidate grid {p/(1-p) : p = 1e-5 + k (0.7 - 1e-5)/399}."""
    p = GRID_P_LOW + np.arange(GRID_SIZE) * (GRID_P_HIGH - GRID_P_LOW) / (GRID_SIZE - 1)
    return p / (1.0 - p)


@dataclass(frozen=True)
class CvConfig:
    """Fold count, candidate grid, and the seed of the random fold split."""

    folds: int = 2
    grid: np.ndarray = field(default_factory=default_grid)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grid", _checked_lambdas(self.grid))
        if not isinstance(self.folds, (int, np.integer)):
            raise ValueError(f"fold count must be an integer, got {self.folds!r}")
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class CvResult:
    lambda_star: float
    curve: np.ndarray  # (grid length, 2) columns (lambda, criterion); invalid lambdas carry inf
    fold_assignment: np.ndarray
    lambda_star_index: int  # position of lambda_star in the grid
    boundary_hit: bool  # lambda_star is the grid's first or last candidate
    invalid_candidates: int  # candidates that could not be solved on some fold


def _fold_assignment(n: int, folds: int, seed: int) -> np.ndarray:
    """Seeded random partition; the first ceil(n/folds) permuted rows go to fold 0, and so on."""
    assignment = np.empty(n, dtype=int)
    for fold_id, rows in enumerate(np.array_split(np.random.default_rng(seed).permutation(n), folds)):
        assignment[rows] = fold_id
    return assignment


def cross_validate(ds: Dataset, cfg: CvConfig = CvConfig()) -> CvResult:
    """Score every grid lambda by 2-fold (or k-fold) cross-validation and return the winner.

    Each fold fit uses the fold's own weight matrix, but the out-of-fold
    prediction vector is scored against the full-sample weight matrix.  A
    fold-level solve failure marks that lambda invalid; if every lambda is
    invalid, or a training fold cannot be fitted at all (the first such fold
    is named), a :class:`SelectionError` is raised.

    When the full-sample weight matrix's rank and every training fold's row
    count, both bounds on a training fold's system order, are at least
    ``_FOLD_WORKER_MIN_ORDER``, the folds run in forked children as the
    replications of :func:`~ivspline.simlab.monte_carlo` do, one per usable
    core up to the fold count; on one core a single child keeps their large
    arrays out of this process.  Within a replication they run in its child.
    The result is bit-identical to a run in this process at one BLAS thread.
    """
    return _cross_validate(ds, cfg)[0]


def _fold_predictions(ds: Dataset, assignment: np.ndarray, grid: np.ndarray,
                      fold_id: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Fold ``fold_id``'s held-out predictions at every grid lambda and their validity.

    None if the training subsample cannot be fitted.  The fold's solver is
    built, used and freed here, in a child when the folds run in children.
    """
    held_out = assignment == fold_id
    train = ~held_out
    sub = Dataset(y=ds.y[train], z=ds.z[train], w=ds.w[train])
    try:
        solver = PathSolver(sub)
    except IvsplineError:
        return None
    delta, a, valid = solver.path(grid)
    z_out = ds.z[held_out]
    return _radial_product(z_out, sub.z, delta) + a[0] + np.outer(z_out, a[1]), valid


def _cross_validate(ds: Dataset, cfg: CvConfig) -> tuple[CvResult, WeightMatrix]:
    """:func:`cross_validate`, also handing back the full-sample weight matrix for the fit."""
    _check_cv_rows(ds.n, cfg.folds)
    assignment = _fold_assignment(ds.n, cfg.folds, cfg.seed)
    omega_full = build_weight_matrix(ds.w)

    # a bound on the smallest training fold's system order: at most its row count,
    # and at most the full sample's rank (a principal submatrix has no larger rank)
    order = min(omega_full.rank, ds.n - np.bincount(assignment).max())

    grid = cfg.grid
    tilde = np.zeros((ds.n, grid.size))
    valid = np.ones(grid.size, dtype=bool)
    folds = _map(functools.partial(_fold_predictions, ds, assignment, grid), cfg.folds,
                 parallel=order >= _FOLD_WORKER_MIN_ORDER)
    for fold_id, fold in enumerate(folds):
        if fold is None:
            raise SelectionError(f"fold {fold_id}: training subsample cannot be fitted")
        tilde[assignment == fold_id] = fold[0]
        valid &= fold[1]

    if not valid.any():
        raise SelectionError("every candidate lambda failed on at least one fold")

    # the residuals overwrite the predictions; invalid columns are NaN and scored inf
    residuals = np.subtract(ds.y[:, None], tilde, out=tilde)
    criteria = omega_full._quadratic(residuals)
    criteria[~valid] = np.inf

    # Tie-break toward the smallest lambda, with ties measured against the
    # natural scale of the criterion (y' Omega y) so that pure-roundoff
    # criteria on noise-free data resolve deterministically.
    scale = float(omega_full._quadratic(ds.y))
    best = criteria.min()
    winner = int(np.flatnonzero(criteria <= best + TIE_RTOL * max(1.0, scale, best))[0])

    return CvResult(
        lambda_star=float(grid[winner]),
        curve=np.column_stack([grid, criteria]),
        fold_assignment=assignment,
        lambda_star_index=winner,
        boundary_hit=winner in (0, grid.size - 1),
        invalid_candidates=int(grid.size - valid.sum()),
    ), omega_full


def _fit_selected(ds: Dataset, cfg: CvConfig,
                  direction: MonotoneDirection | None = None) -> tuple[SplineFit, CvResult]:
    """Cross-validate lambda, then fit at lambda* (monotone-tilted if ``direction`` is set).

    The fit factors the full-sample weight matrix that scored the CV criterion.
    """
    result, omega = _cross_validate(ds, cfg)
    system = _Factored(ds, result.lambda_star, omega)
    model = system.fit(ds.y) if direction is None else _fit_monotone(system, ds.y, direction)
    return model, result
