"""Penalized criterion solver: the bordered block system and its lambda path.

Minimizing  (Y - Za - E delta)' Omega (Y - Za - E delta) + lam * delta' E delta
over the natural-spline constraint Z' delta = 0 reduces to one linear solve:

    [[Et, Z], [Z', 0]] (delta; a) = (Y; 0),   Et = E + lam Omega^-1,

where Z is the n x 2 linear design and E the cubic design.

With tied instruments Omega = G Omegabar G' is singular (G the n x m
indicator of the distinct instrument rows, see :mod:`ivspline.kernel`).
The first block row times Omega gives lam delta = Omega (Y - Za - E delta),
so delta = G nu lies in the range of G, and the same program is the
(m + 2) system

    [[G'EG + lam Omegabar^-1, G'Z], [Z'G, 0]] (nu; a) = (G'Y; 0),

solved exactly, with no jitter; without ties G = I and it is the system above.

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
from .spline import _CUBIC_BLOCK, SplineFit, _cubic_design, _cubic_product, _radial_cubic, build_design

# Most iterative-refinement corrections a solve makes.  Ill-conditioned
# systems (nearly tied instruments, extreme lambda) run to this cap.
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
# LAPACK's 1-norm estimator (dgecon) is accurate only to within a small
# factor, so later digits carry no information; they also changed in the last
# place between repeated fits of one dataset, which made fit artifacts differ.
CONDITION_DIGITS = 3
# Rows per block where the refinement residual re-forms the bordered matrix.
# A multiple of 24, the row unroll of OpenBLAS's AVX-512 dgemm kernel (and of
# 8 and 4, those of the other x86 kernels), so each block's product rounds
# exactly as the same rows of the whole matrix's product.  Over 833 random
# symmetric matrices of orders n + 2, n in 3..2100, times n columns, 128-row
# blocks differed from the whole product in the last bits for 508; 192-row
# blocks matched it for all, and for one column too.
_KKT_BLOCK = 192


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


def _check_group_rank(z: np.ndarray, omega: WeightMatrix) -> None:
    """With tied instruments the linear block is G'Z, of rank 2 only if the groups' mean z differ.

    The means are compared to within the roundoff of summing n values.
    """
    groups = omega.groups
    if groups is None:
        return
    means = groups.sum(z) / groups.sum(np.ones_like(z))
    if np.ptp(means) <= z.shape[0] * np.finfo(float).eps * np.abs(z).max():
        raise CollinearityError(
            f"linear design is rank deficient on the {len(groups)} instrument groups: "
            "every group has the same mean z"
        )


def _kkt_matrix(linear: np.ndarray, omega: WeightMatrix, lam: float) -> np.ndarray:
    """The bordered matrix [[G'EG + lam Omegabar^-1, G'Z], [Z'G, 0]], exactly symmetric; G = I without ties.

    ``linear`` is the n x 2 linear design Z.  Without ties E is written into
    the matrix by :func:`~ivspline.spline._cubic_design`; with ties G'E is
    summed a block of columns at a time, since E's columns C with rows in
    group order are ``_radial_cubic(z[order], z[C])`` (E is symmetric).
    Either way no other n x n array is made.  An overflowing ``lam`` leaves
    infinite entries, which :class:`_Factored` rejects.
    """
    z = linear[:, 1]
    n = z.shape[0]
    groups = omega.groups
    if groups is None:
        m = n
        kkt = np.zeros((m + 2, m + 2))
        _cubic_design(z, out=kkt[:m, :m])
    else:
        grouped_z = z[groups.order]
        cubic = np.empty((len(groups), n))
        for start in range(0, n, _CUBIC_BLOCK):
            stop = start + _CUBIC_BLOCK
            columns = _radial_cubic(grouped_z, z[start:stop])
            cubic[:, start:stop] = np.add.reduceat(columns, groups.starts, axis=0)
        cubic = groups.sum(cubic.T)
        cubic = 0.5 * (cubic + cubic.T)  # the two sums round in different orders
        linear = groups.sum(linear)
        m = linear.shape[0]
        kkt = np.zeros((m + 2, m + 2))
        kkt[:m, :m] = cubic
    with np.errstate(over="ignore"):
        omega._add_inverse(kkt[:m, :m], lam)
    kkt[:m, m:] = linear
    kkt[m:, :m] = linear.T
    return kkt


def _kkt_product(linear: np.ndarray, inverse: tuple[np.ndarray, np.ndarray, np.ndarray],
                 x: np.ndarray) -> np.ndarray:
    """K x for the tie-free bordered matrix K, its rows re-formed ``_KKT_BLOCK`` at a time.

    ``inverse`` holds the nonzeros (rows, columns, values) of lam Omega^-1.
    A block's rows are written as :func:`_kkt_matrix` writes them -- E by
    :func:`~ivspline.spline._radial_cubic`, then those entries, then the
    linear border -- so each equals the assembled row entry for entry, and no
    (n + 2)^2 array is made.  The last block runs to the end of the border
    and takes the remainder rows, so no block is thinner than ``_KKT_BLOCK``.
    """
    z = linear[:, 1]
    n = z.shape[0]
    rows, cols, values = inverse
    out = np.empty((n + 2,) + x.shape[1:])
    starts = list(range(0, max(n + 2 - _KKT_BLOCK, 1), _KKT_BLOCK))
    for start, stop in zip(starts, starts[1:] + [n + 2]):
        block = np.empty((stop - start, n + 2))
        last = min(stop, n)
        upper = block[: last - start]  # rows of [E + lam Omega^-1, Z]
        _radial_cubic(z[start:last], z, out=upper[:, :n])
        here = (rows >= start) & (rows < last)
        upper[rows[here] - start, cols[here]] += values[here]
        upper[:, n:] = linear[start:last]
        if stop > n:  # the border [Z', 0]
            block[-2:, :n] = linear.T
            block[-2:, n:] = 0.0
        np.matmul(block, x, out=out[start:stop])
    return out


def _significant(value: float) -> float:
    """``value`` rounded to ``CONDITION_DIGITS`` significant digits."""
    return float(f"{value:.{CONDITION_DIGITS}g}")


def _condition_estimate(lu: np.ndarray, anorm: float) -> float:
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or rcond <= 0.0:
        return float("inf")
    return _significant(1.0 / rcond)


def _column_max(a: np.ndarray) -> np.ndarray:
    """max |a| of each column (of the vector, for 1-D ``a``), without an |a| temporary."""
    return np.maximum(a.max(axis=0), -a.min(axis=0))


class _Factored:
    """The bordered system of one dataset at one lambda, assembled and LU-factored once.

    The fit, the derivative smoother and a refit on reweighted outcomes are
    each one O(n^2) solve per right-hand side on the same factorization,
    refined until it is accurate to ``REFINE_RTOL``.  With tied instruments
    the system has order m + 2, and :meth:`solve` maps (n + 2)-row
    right-hand sides and solutions through G.  ``omega`` passes in the
    dataset's weight matrix built earlier (by CV); by default it is built here.

    The assembled matrix is factored in place, so the LU factors ``lu`` are
    the one (m + 2)^2 array of the closed-form route (a scalar instrument
    without ties): there every row of the matrix is a formula, and the
    refinement residuals re-form its rows a block at a time
    (:func:`_kkt_product`), with ``kkt`` None.  With tied instruments or a
    dense weight factor, G'EG and Omegabar^-1 are not formulas by rows, so
    ``kkt`` keeps a copy of the matrix for the residuals.  The n x 2 linear
    design is kept as ``linear``; the cubic design E is never held (see
    :func:`_kkt_matrix`), and :meth:`fit` forms E delta by row blocks.  A
    matrix with a non-finite entry (an overflowing lambda) raises
    :class:`ConditioningError` before it is factored.
    """

    def __init__(self, ds: Dataset, lam: float, omega: WeightMatrix | None = None):
        self.lam = _check_lambda(lam)
        _check_rank(ds.z)
        self.knots = ds.z
        self.linear = build_design(ds.z)
        self.omega = build_weight_matrix(ds.w) if omega is None else omega
        _check_group_rank(ds.z, self.omega)
        kkt = _kkt_matrix(self.linear, self.omega, self.lam)
        # the 1-norm as the inf-norm of the F-ordered transpose: no copy, no |kkt| temporary;
        # the matrix is symmetric, so it is also the inf-norm the backward error reads
        self.norm = lapack.dlange("I", kkt.T)
        if not np.isfinite(self.norm):
            raise ConditioningError(
                f"bordered matrix has non-finite entries at lambda {self.lam:.3e}",
                condition_estimate=float("inf"),
            )
        self._inverse = None if self.omega.groups is not None else self.omega._inverse_entries(self.lam)
        self.kkt = kkt.copy() if self._inverse is None else None
        # the matrix is exactly symmetric, so its F-ordered transpose is the matrix itself and
        # is factored in place; the norm check has seen every entry, so no scan is repeated
        self.lu = scipy.linalg.lu_factor(kkt.T, overwrite_a=True, check_finite=False)
        self.condition = _condition_estimate(self.lu[0], self.norm)

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, int, float]:
        """LU solve with iterative refinement, for one or many (n + 2)-row right-hand sides.

        Returns the solution, the number of refinement corrections made, and
        the normwise backward error max_j |r_j| / (|K| |x_j| + |b_j|) (inf-norms)
        of the last residual r = b - K x formed, rounded to ``CONDITION_DIGITS``;
        NaN when the step cap is 0 and no residual was formed.  Refinement
        stops once condition * backward error is at most ``REFINE_RTOL``, once
        a correction is at most ``REFINE_RTOL`` of its column of the solution,
        or after ``_REFINEMENT_STEPS`` corrections; the residual of the capped
        answer is not formed.

        With tied instruments the first n rows of ``rhs`` are summed by group
        (G'), the refinement runs on the (m + 2) system, and the solution's
        first m rows, nu, are expanded to delta = G nu.
        """
        groups = self.omega.groups
        n = self.knots.shape[0]
        if groups is not None:
            rhs = np.concatenate([groups.sum(rhs[:n]), rhs[n:]])
        sol = scipy.linalg.lu_solve(self.lu, rhs)
        steps, eta = 0, np.nan
        rhs_max, sol_max = _column_max(rhs), _column_max(sol)
        while steps < _REFINEMENT_STEPS:
            if self.kkt is None:
                product = _kkt_product(self.linear, self._inverse, sol)
            else:
                product = self.kkt @ sol
            resid = np.subtract(rhs, product, out=product)
            with np.errstate(invalid="ignore"):  # 0 / 0 only for a zero column, whose residual is 0
                eta = float(np.nan_to_num(_column_max(resid) / (self.norm * sol_max + rhs_max)).max())
            if self.condition * eta <= REFINE_RTOL:
                break
            correction = scipy.linalg.lu_solve(self.lu, resid)
            sol = sol + correction
            sol_max = _column_max(sol)
            steps += 1
            if np.all(_column_max(correction) <= REFINE_RTOL * sol_max):
                break
        if not np.all(np.isfinite(sol)):
            raise ConditioningError(
                f"block solve produced non-finite values (condition estimate {self.condition:.3e})",
                condition_estimate=self.condition,
            )
        if groups is not None:
            sol = np.concatenate([groups.expand(sol[:-2]), sol[-2:]])
        return sol, steps, _significant(eta)

    def fit(self, y: np.ndarray) -> SplineFit:
        """The fitted spline for outcome vector y, with :func:`fit`'s diagnostics."""
        n = y.shape[0]
        groups = self.omega.groups
        sol, steps, eta = self.solve(np.concatenate([y, np.zeros(2)]))
        delta, a = sol[:n], sol[n:]
        e_delta = _cubic_product(self.knots, delta)
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
                "jitter_applied": self.omega.jitter_applied,
                "instrument_groups": self.omega.n if groups is None else len(groups),
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
    natural-spline constraint residual, the weight-matrix jitter, the number
    m of distinct instrument rows (``instrument_groups``; n without ties),
    a 1-norm condition estimate of the bordered system, and the solve's
    ``refinement_steps`` and normwise ``backward_error`` (see
    :meth:`_Factored.solve`); the condition estimate and the backward error
    are rounded to ``CONDITION_DIGITS`` significant digits.
    """
    return _Factored(ds, lam).fit(ds.y)


class PathSolver:
    """Exact coefficients along a lambda path for fixed data.

    The change of variables delta = L u with Omega = L L' (any factor: they
    all give the same eigenvalues; with tied instruments L is n x m and u has
    m entries) turns the penalized block into (S + lam I) u + Zt a = yt,
    S = L' E L symmetric, so one eigendecomposition of S (divide and conquer)
    gives every lambda in O(m) work plus one back-transformation, which
    :meth:`path` does for a whole grid in one matrix product.  Algebraically identical to :func:`fit`; used
    where many lambda values are solved on the same data (CV grids).
    """

    def __init__(self, ds: Dataset):
        _check_rank(ds.z)
        linear = build_design(ds.z)
        omega = build_weight_matrix(ds.w)
        _check_group_rank(ds.z, omega)
        # E is freed before the eigensolver's workspace; eigh reads the lower
        # half of S and overwrites it with the vectors
        s_mat = omega._congruence(_cubic_design, ds.z)
        evals, vecs = scipy.linalg.eigh(s_mat, driver="evd", overwrite_a=True)
        self._evals = evals
        self._zt = vecs.T @ omega._apply_lt(linear)
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
