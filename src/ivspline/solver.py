"""Penalized criterion solver: the bordered block system and its lambda path.

Minimizing  (Y - Za - E delta)' Omega (Y - Za - E delta) + lam * delta' E delta
over the natural-spline constraint Z' delta = 0 reduces to one linear solve:

    [[Et, Z], [Z', 0]] (delta; a) = (Y; 0),   Et = E + lam Omega^-1,

where Z is the n x 2 linear design and E the cubic design.

Note Et is symmetric but in general indefinite: the cubic design is positive
semidefinite only on the constraint subspace (order-2 conditional positive
definiteness of |d|^3), so Et is factored by LU rather than Cholesky.  The
saddle-point system itself is nonsingular whenever the linear design has
rank 2 and the weight matrix is positive definite.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .datamodel import Dataset
from .errors import CollinearityError, ConditioningError
from .kernel import WeightMatrix, build_weight_matrix, moment_criterion
from .spline import DesignMatrices, SplineFit, build_design, roughness

_REFINEMENT_STEPS = 2  # fixed-count iterative refinement keeps extreme-lambda solves accurate
# Significant digits of the reported condition estimate.  LAPACK's 1-norm
# estimator (dgecon) is accurate only to within a small factor, so later
# digits carry no information; they also changed in the last place between
# repeated fits of one dataset, which made fit artifacts differ.
CONDITION_DIGITS = 3


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not (np.isfinite(lam) and lam > 0.0):
        raise ValueError(f"regularization parameter must be positive, got {lam}")
    return lam


def _check_rank(z: np.ndarray) -> None:
    if np.unique(z).size < 2:
        raise CollinearityError(
            "linear design is rank deficient: needs at least two distinct z values"
        )


def _kkt_matrix(design: DesignMatrices, omega: WeightMatrix, lam: float) -> np.ndarray:
    """The bordered matrix [[E + lam Omega^-1, Z], [Z', 0]], exactly symmetric."""
    n = design.linear.shape[0]
    kkt = np.zeros((n + 2, n + 2))
    kkt[:n, :n] = design.cubic
    omega._add_inverse(kkt[:n, :n], lam)
    kkt[:n, n:] = design.linear
    kkt[n:, :n] = design.linear.T
    return kkt


def _condition_estimate(lu: np.ndarray, anorm: float) -> float:
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or rcond <= 0.0:
        return float("inf")
    return float(f"{1.0 / rcond:.{CONDITION_DIGITS}g}")


class _Factored:
    """The bordered system of one dataset at one lambda, assembled and LU-factored once.

    The fit, the derivative smoother and a refit on reweighted outcomes are
    each one refined O(n^2) solve per right-hand side on the same
    factorization.  ``omega`` passes in the dataset's weight matrix built
    earlier (by CV); by default it is built here.
    """

    def __init__(self, ds: Dataset, lam: float, omega: WeightMatrix | None = None):
        self.lam = _check_lambda(lam)
        _check_rank(ds.z)
        self.knots = ds.z
        self.design = build_design(ds.z)
        self.omega = build_weight_matrix(ds.w) if omega is None else omega
        self.kkt = _kkt_matrix(self.design, self.omega, self.lam)
        self.lu = scipy.linalg.lu_factor(self.kkt)
        # the 1-norm as the inf-norm of the F-ordered transpose: no copy, no |kkt| temporary
        self.condition = _condition_estimate(self.lu[0], lapack.dlange("I", self.kkt.T))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """LU solve with fixed-count refinement, for one or many right-hand sides."""
        sol = scipy.linalg.lu_solve(self.lu, rhs)
        for _ in range(_REFINEMENT_STEPS):
            sol = sol + scipy.linalg.lu_solve(self.lu, rhs - self.kkt @ sol)
        if not np.all(np.isfinite(sol)):
            raise ConditioningError(
                f"block solve produced non-finite values (condition estimate {self.condition:.3e})",
                condition_estimate=self.condition,
            )
        return sol

    def fit(self, y: np.ndarray) -> SplineFit:
        """The fitted spline for outcome vector y, with :func:`fit`'s diagnostics."""
        n = y.shape[0]
        sol = self.solve(np.concatenate([y, np.zeros(2)]))
        delta, a = sol[:n], sol[n:]
        residuals = y - self.design.linear @ a - self.design.cubic @ delta
        rough = roughness(delta, self.design.cubic)
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
                "constraint_residual": float(np.abs(self.design.linear.T @ delta).max()),
                "jitter_applied": self.omega.jitter_applied,
                "kkt_condition_estimate": self.condition,
            },
        )


def fit(ds: Dataset, lam: float) -> SplineFit:
    """Solve the penalized program and return the fitted natural cubic spline.

    ``lam`` is the estimator's only tuning parameter: the criterion's weight
    matrix is always ``build_weight_matrix(ds.w)``.  Diagnostics carry the
    criterion value at the solution, the roughness delta' E delta, the
    natural-spline constraint residual, the weight-matrix jitter, and a
    1-norm condition estimate of the bordered system, rounded to
    ``CONDITION_DIGITS`` significant digits.
    """
    return _Factored(ds, lam).fit(ds.y)


class PathSolver:
    """Exact coefficients along a lambda path for fixed data.

    The change of variables delta = L u with Omega = L L' (any factor: they
    all give the same eigenvalues) turns the penalized block into
    (S + lam I) u + Zt a = yt, S = L' E L symmetric, so one
    eigendecomposition of S (divide and conquer) gives every lambda in O(n)
    work plus one back-transformation, which :meth:`path` does for a whole
    grid in one matrix product.  Algebraically identical to :func:`fit`; used
    where many lambda values are solved on the same data (CV grids).
    """

    def __init__(self, ds: Dataset):
        _check_rank(ds.z)
        design = build_design(ds.z)
        omega = build_weight_matrix(ds.w)
        # L'EL = L'(L'E)' since E is exactly symmetric, so its F-ordered transpose
        # passes for E; eigh reads the lower half
        s_mat = omega._apply_lt(omega._apply_lt(design.cubic.T).T)
        evals, vecs = scipy.linalg.eigh(s_mat, driver="evd", overwrite_a=True)
        self._evals = evals
        self._zt = vecs.T @ omega._apply_lt(design.linear)
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
        grid = np.asarray(grid, dtype=float).reshape(-1)
        if not np.all(np.isfinite(grid) & (grid > 0.0)):
            raise ValueError("regularization parameters must be positive and finite")
        shifted = self._evals[:, None] + grid
        valid = np.abs(shifted).min(axis=0) > 1e-10 * self._scale
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
