"""Penalized criterion solver: one bordered system, in the coordinates delta = L u.

Minimizing  (Y - Za - E delta)' Omega (Y - Za - E delta) + lam * delta' E delta
over the natural-spline constraint Z' delta = 0, where Z is the n x 2 linear
design and E the cubic design, makes the first block row of the stationarity
conditions, times Omega, lam delta = Omega (Y - Za - E delta).  So delta lies
in the range of a factor L of Omega = L L' (n x m, m the weight matrix's
numerical rank on the distinct instrument rows, see :mod:`ivspline.kernel`),
and with delta = L u the program is the (m + 2) system

    [[S + lam I, L'Z], [Z'L, 0]] (u; a) = (L'Y; 0),   S = L'EL,

solved exactly, with no inverse of Omega and nothing added to it.
:class:`_Factored` LU-factors it for one lambda; :class:`PathSolver`
diagonalizes S once for a whole lambda grid.

S + lam I is symmetric but in general indefinite: the cubic design is
positive semidefinite only on the constraint subspace (order-2 conditional
positive definiteness of |d|^3), so the system is factored by LU rather than
Cholesky.  On the null space of Z'L, where delta = L u meets the constraint,
u'Su = delta'E delta >= 0, so S + lam I is positive definite there and the
system is nonsingular whenever L'Z has rank 2.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .datamodel import Dataset
from .errors import CollinearityError, ConditioningError
from .kernel import WeightMatrix, build_weight_matrix, moment_criterion
from .spline import SplineFit, _radial_product, build_design

# Most iterative-refinement corrections a solve makes.  Solves near
# interpolation (lambda of 1e-10 and below on the paper's draws) run to it.
_REFINEMENT_STEPS = 2
# Relative forward accuracy at which a solve stops refining.  With eta the
# normwise backward error of the current answer, condition * eta bounds its
# relative error to first order, up to a factor 2 (Higham 2002, Accuracy and
# Stability of Numerical Algorithms, thm. 7.2), so an answer whose bound is
# below this needs no correction; a correction below this share of the answer
# means refinement has converged.  1e-8 is the tilt's certification bound
# KKT_TOL and a tenth of the benchmark's 1e-7 oracle bounds.  On g1 draws at
# n = 200 to 2000 the bound read 50 to 3e4 times the unrefined smoother's gap
# to a three-step solve, and the stopped smoothers were within 2.1e-10 of it.
REFINE_RTOL = 1e-8
# Significant digits of the reported condition estimate and backward error.
# LAPACK's norm estimator (dgecon) is accurate only to within a small
# factor, so later digits carry no information; they also changed in the last
# place between repeated fits of one dataset, which made fit artifacts differ.
CONDITION_DIGITS = 3
# L'Z (z scaled to max |z| = 1) has rank below 2 where its smaller singular value
# is at most sqrt(m) times this share of its larger, m the distinct instrument
# rows.  Equal group means of z leave L'z = mean L'1 to roundoff on exact ties,
# but near ties keep rows of L that differ by the square root of their pivots,
# which the factor keeps above m eps, so there only to about sqrt(m eps)
# (binary instruments nudged 1-4 ulps apart with equal group means, m = 8 to
# 2000: 7e-10 to 1e-8; continuous, rounded and nudged paper draws: 0.8-0.95).
_COLLINEAR_RTOL = float(np.sqrt(np.finfo(float).eps))
# A path column is invalid where a shifted eigenvalue s_k + lam is below this
# fraction of max(1, |S|): eigh's eigenvalues err by about m eps |S| (4e-13 |S|
# at m = 2000), so below it 1 / (s_k + lam) has fewer than three correct digits.
_SHIFT_RTOL = 1e-10


def _checked_lambdas(values) -> np.ndarray:
    """One lambda or a vector of them as a float vector; ValueError unless non-empty, finite and positive."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim > 1 or grid.size == 0:
        raise ValueError(f"regularization parameters must be a value or a non-empty vector, got shape {grid.shape}")
    grid = grid.reshape(-1)
    bad = grid[~(np.isfinite(grid) & (grid > 0.0))]
    if bad.size:
        raise ValueError(f"regularization parameters must be finite and positive, got {bad[0]}")
    return grid


def _significant(value: float) -> float:
    """``value`` rounded to ``CONDITION_DIGITS`` significant digits."""
    return float(f"{value:.{CONDITION_DIGITS}g}")


def _condition_estimate(lu: np.ndarray, anorm: float) -> float:
    """1 / rcond of LAPACK's 1-norm estimator, inf where that overflows or the estimator fails."""
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or rcond * np.finfo(float).max <= 1.0:
        return float("inf")
    return _significant(1.0 / rcond)


def _column_max(a: np.ndarray) -> np.ndarray:
    """max |a| of each column (of the vector, for 1-D ``a``), without an |a| temporary."""
    return np.maximum(a.max(axis=0), -a.min(axis=0))


def _assemble(ds: Dataset, omega: WeightMatrix | None, lam: float | None):
    """(omega, Z, L'Z, matrix, its inf-norm) for both solvers: S = L'EL for ``lam`` None, else K, S in place.

    A linear block of rank below 2 raises :class:`CollinearityError`: one
    distinct z, or L'Z of numerical rank below 2 (with ties L'Z = Lbar'G'Z,
    so group means of z that are all equal, exactly or across near ties); a
    non-finite entry :class:`ConditioningError`.
    """
    if np.unique(ds.z).size < 2:
        raise CollinearityError("linear design is rank deficient: needs at least two distinct z values")
    linear = build_design(ds.z)
    omega = build_weight_matrix(ds.w) if omega is None else omega
    lt_linear = omega._apply_lt(linear)
    low, high = scipy.linalg.svdvals(lt_linear / [1.0, np.abs(ds.z).max()])[[-1, 0]]
    if low <= np.sqrt(omega.m) * _COLLINEAR_RTOL * high:
        raise CollinearityError(f"linear design is rank deficient on the instrument factor of rank {omega.rank}: "
                                "L'Z has rank below 2 (the instrument groups have the same mean z)")
    m = lt_linear.shape[0]
    matrix = np.empty((m, m)) if lam is None else np.zeros((m + 2, m + 2))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing E is rejected below
        omega._congruence(ds.z, matrix[:m, :m])
    if lam is not None:
        matrix[np.diag_indices(m)] += lam
        matrix[:m, m:] = lt_linear
        matrix[m:, :m] = lt_linear.T
    # the 1-norm of the F-ordered transpose, taken with no copy
    norm = lapack.dlange("1", matrix.T)
    if not np.isfinite(norm):
        what = "S = L'EL" if lam is None else f"bordered matrix at lambda {lam:.3e}"
        raise ConditioningError(f"{what} has non-finite entries", condition_estimate=float("inf"))
    return omega, linear, lt_linear, matrix, norm


class _Factored:
    """The bordered system of one dataset at one lambda, in the coordinates delta = L u, LU-factored once.

    The matrix K = [[S + lam I, L'Z], [Z'L, 0]] of order m + 2 (see the
    module docstring) is assembled in one array: S = L'EL is written into it
    by :meth:`~ivspline.kernel.WeightMatrix._congruence`, and it is factored
    in place, so the LU factors ``lu`` are the one (m + 2)^2 array kept.  The
    fit, the derivative smoother and a refit on reweighted outcomes are each
    one solve per right-hand side on this factorization, refined until it is
    accurate to ``REFINE_RTOL``; :meth:`solve` maps (n + 2)-row right-hand
    sides through L' and solutions back through L.  The n x 2 linear design
    is kept as ``linear``; the cubic design E is never held, and the fit and
    the refinement residuals form E delta by row blocks.  ``omega`` passes in
    the dataset's weight matrix built earlier (by CV); by default it is built
    here.  A matrix with a non-finite entry, or whose condition estimate
    overflows (an overflowing lambda), raises :class:`ConditioningError`
    before any solve.
    """

    def __init__(self, ds: Dataset, lam: float, omega: WeightMatrix | None = None):
        self.lam = _checked_lambdas(lam).item()
        self.knots = ds.z
        # K' is the F-ordered transpose, factored in place; solves pass trans=1 to solve with K.
        # Its 1-norm is K's inf-norm, the norm the backward error reads
        self.omega, self.linear, _, kkt, self.norm = _assemble(ds, omega, self.lam)
        self.lu = scipy.linalg.lu_factor(kkt.T, overwrite_a=True, check_finite=False)
        self.condition = _condition_estimate(self.lu[0], self.norm)
        if not np.isfinite(self.condition):
            raise ConditioningError(
                f"bordered matrix at lambda {self.lam:.3e} is numerically singular: "
                "its condition estimate is non-finite",
                condition_estimate=self.condition,
            )

    def _residual(self, rhs: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(rhs - K x, delta = L u, E delta) for x = (u; a), with K x = (L'(E delta + Z a) + lam u; Z'delta).

        E delta is formed by row blocks, so no (m + 2)^2 or n x n array is
        made beyond the columns of x; it is handed back only for a vector x,
        for the fit to reuse, and is None otherwise.
        """
        u, a = x[:-2], x[-2:]
        delta = self.omega._apply_l(u)
        resid = np.empty_like(rhs)
        np.subtract(rhs[-2:], self.linear.T @ delta, out=resid[-2:])
        fitted = _radial_product(self.knots, self.knots, delta)
        e_delta = fitted.copy() if fitted.ndim == 1 else None
        fitted += self.linear @ a
        np.subtract(rhs[:-2], self.omega._apply_lt(fitted), out=resid[:-2])
        resid[:-2] -= self.lam * u
        return resid, delta, e_delta

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        """K^-1 rhs by the LU factors; ConditioningError where it is not finite."""
        sol = scipy.linalg.lu_solve(self.lu, rhs, trans=1)
        if not np.all(np.isfinite(sol)):
            raise ConditioningError(
                f"block solve produced non-finite values (condition estimate {self.condition:.3e})",
                condition_estimate=self.condition,
            )
        return sol

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, float, np.ndarray | None]:
        """Solve the bordered system in delta and a, for one or many (n + 2)-row right-hand sides b.

        The first n rows of b are mapped through L', the system is solved for
        (u; a) by LU with iterative refinement, and (delta, a, steps, eta,
        e_delta) is returned: delta = L u (n rows) and a (2 rows), with one column per
        column of b; the number of refinement corrections made; the normwise
        backward error max_j |r_j| / (|K| |x_j| + |b_j|) (inf-norms, in the
        coordinates u) of the returned answer x, from its residual r = b - K x,
        rounded to ``CONDITION_DIGITS``; and, for a vector b, that residual's
        E delta (None for a matrix).  The residual of every answer is formed,
        and refinement stops once condition * backward error is at most
        ``REFINE_RTOL``, once the last correction was at most ``REFINE_RTOL``
        of its column of the answer, or after ``_REFINEMENT_STEPS`` corrections.
        """
        n = self.knots.shape[0]
        rhs = np.concatenate([self.omega._apply_lt(rhs[:n]), rhs[n:]])
        sol = self._lu_solve(rhs)
        rhs_max, sol_max = _column_max(rhs), _column_max(sol)
        steps, converged = 0, False
        while True:
            resid, delta, e_delta = self._residual(rhs, sol)
            with np.errstate(invalid="ignore"):  # 0 / 0 only for a zero column, whose residual is 0
                eta = float(np.nan_to_num(_column_max(resid) / (self.norm * sol_max + rhs_max)).max())
            if converged or steps == _REFINEMENT_STEPS or self.condition * eta <= REFINE_RTOL:
                return delta, sol[-2:], steps, _significant(eta), e_delta
            correction = self._lu_solve(resid)
            sol += correction
            sol_max = _column_max(sol)
            steps += 1
            converged = np.all(_column_max(correction) <= REFINE_RTOL * sol_max)

    def fit(self, y: np.ndarray) -> SplineFit:
        """The fitted spline for outcome vector y, with :func:`fit`'s diagnostics."""
        delta, a, steps, eta, e_delta = self.solve(np.concatenate([y, np.zeros(2)]))
        residuals = y - self.linear @ a - e_delta
        rough = float(delta @ e_delta)
        crit = moment_criterion(residuals, self.omega)
        return SplineFit(
            a=a,
            delta=delta,
            knots=self.knots,
            lam=self.lam,
            diagnostics={
                "criterion": crit,
                "roughness": rough,
                "objective": crit + self.lam * rough,
                "constraint_residual": float(np.abs(self.linear.T @ delta).max()),
                "instrument_groups": self.omega.rank,
                "kkt_condition_estimate": self.condition,
                "refinement_steps": steps,
                "backward_error": eta,
            },
        )


def fit(ds: Dataset, lam: float) -> SplineFit:
    """Solve the penalized program and return the fitted natural cubic spline.

    ``lam`` is the estimator's only tuning parameter: the criterion's weight
    matrix is always ``build_weight_matrix(ds.w)``.  Diagnostics carry the
    criterion value at the solution, the roughness delta' E delta, the
    natural-spline constraint residual, the order m of the system in u
    (``instrument_groups``, the weight matrix's rank on the distinct rows),
    an inf-norm condition estimate of the bordered system in u = L^-1 delta
    (see the module docstring), and the solve's
    ``refinement_steps`` and normwise ``backward_error`` (see
    :meth:`_Factored.solve`); the condition estimate and the backward error
    are rounded to ``CONDITION_DIGITS`` significant digits.
    """
    return _Factored(ds, lam).fit(ds.y)


class PathSolver:
    """Exact coefficients along a lambda path for fixed data.

    In the coordinates delta = L u of the module docstring (any factor
    Omega = L L' gives S the same eigenvalues) the first block row is
    (S + lam I) u + Zt a = yt with Zt = L'Z and yt = L'Y, so one
    eigendecomposition of S (divide and conquer) gives every lambda in O(m)
    work plus one back-transformation, which :meth:`path` does for a whole
    grid in one matrix product.  It is the system :class:`_Factored` factors
    at one lambda; used where many lambda values are solved on the same data
    (CV grids).  An S with a non-finite entry (an overflowing cubic design)
    raises :class:`ConditioningError` before the eigendecomposition.
    """

    def __init__(self, ds: Dataset):
        # eigh overwrites S's F-ordered transpose with the vectors; the upper
        # half of the transpose is the lower half of S
        omega, _, lt_linear, s_mat, _ = _assemble(ds, None, None)
        evals, vecs = scipy.linalg.eigh(s_mat.T, lower=False, driver="evd", overwrite_a=True,
                                        check_finite=False)
        self._evals = evals
        self._zt = vecs.T @ lt_linear
        self._yt = vecs.T @ omega._apply_lt(ds.y)
        zt0, zt1 = self._zt.T
        # products whose inverse-eigenvalue-weighted sums give the 2 x 2 Gram
        # matrix (g00, g01, g11) and its right-hand side (r0, r1)
        self._moments = np.column_stack(
            [zt0 * zt0, zt0 * zt1, zt1 * zt1, zt0 * self._yt, zt1 * self._yt]
        )
        self._map = omega._apply_l(vecs)  # v -> delta
        self._scale = max(1.0, float(np.abs(evals).max()))

    def path(self, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(delta, a, valid) for every lambda of ``grid``: n x G, 2 x G and G columns.

        Column g solves the system at grid[g].  It is invalid (False in
        ``valid``, NaN in delta and a) when a shifted eigenvalue is
        numerically zero at that lambda, when its 2 x 2 Gram matrix is
        singular, or when its coefficients are not finite.
        """
        grid = _checked_lambdas(grid)
        shifted = self._evals[:, None] + grid
        valid = np.abs(shifted).min(axis=0) > _SHIFT_RTOL * self._scale
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv = 1.0 / shifted
            g00, g01, g11, r0, r1 = self._moments.T @ inv
            # Cramer's rule is forward stable for 2 x 2 systems (Higham 2002,
            # sec. 1.10.1); a singular Gram matrix leaves a non-finite column
            det = g00 * g11 - g01 * g01
            a = np.array([g11 * r0 - g01 * r1, g00 * r1 - g01 * r0]) / det
            delta = self._map @ (inv * (self._yt[:, None] - self._zt @ a))
        valid &= np.isfinite(delta).all(axis=0) & np.isfinite(a).all(axis=0)
        delta[:, ~valid] = np.nan
        a[:, ~valid] = np.nan
        return delta, a, valid

    def coefficients(self, lam: float) -> tuple[np.ndarray, np.ndarray] | None:
        """(delta, a) at this lambda, or None where :meth:`path` marks it invalid."""
        delta, a, valid = self.path([lam])
        return (delta[:, 0], a[:, 0]) if valid[0] else None
