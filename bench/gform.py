"""Independent g-form oracle for the smoothing-spline IV estimator.

Nothing here imports the package.  The estimator minimises, over functions g,

    (y - g(z))' W (y - g(z)) + lam * integral of g''^2,

with W_ij = n^-2 omega(w_i - w_j), omega the product Laplace density of unit
variance evaluated on standardised instruments.  The minimiser is a natural
cubic spline with knots at the distinct z values, so the program is solved
in the value/second-derivative form of Green & Silverman (1994,
*Nonparametric Regression and Generalized Linear Models*, sections 2.1-2.3):
with g the values at the sorted distinct knots t_1 < ... < t_m and gamma
the second derivatives at the interior knots,

    Q' g = R gamma,    integral of g''^2 = gamma' R gamma = g' Q R^-1 Q' g,

where Q (m x (m-2)) and R ((m-2) x (m-2)) are the banded Reinsch matrices.
Stationarity of the objective is one symmetric saddle system

    [[A'WA, lam Q], [Q', -R]] (g; gamma) = (A'W y; 0),

A the n x m map from knot values to observations (a permutation when the
z values are distinct).  It is solved densely, with two steps of iterative
refinement, and the relative residual is reported so a caller can see how
far to trust it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

LAPLACE_VARIANCE = 1.0


def laplace_weight_matrix(w: np.ndarray) -> np.ndarray:
    """n^-2 times the product Laplace density of pairwise differences of standardised w."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    n = w.shape[0]
    ws = (w - w.mean(axis=0)) / w.std(axis=0, ddof=1)
    b = np.sqrt(LAPLACE_VARIANCE / 2.0)
    dist = np.zeros((n, n))
    for k in range(ws.shape[1]):
        dist += np.abs(ws[:, k, None] - ws[None, :, k])
    return np.exp(-dist / b) / (2.0 * b) ** ws.shape[1] / n**2


def reinsch_matrices(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense Q (m x (m-2)) and R ((m-2) x (m-2)) for strictly increasing knots t."""
    h = np.diff(t)
    m = t.size
    q = np.zeros((m, m - 2))
    r = np.zeros((m - 2, m - 2))
    for j in range(m - 2):  # column j belongs to interior knot j + 1
        q[j, j] = 1.0 / h[j]
        q[j + 1, j] = -1.0 / h[j] - 1.0 / h[j + 1]
        q[j + 2, j] = 1.0 / h[j + 1]
        r[j, j] = (h[j] + h[j + 1]) / 3.0
        if j + 1 < m - 2:
            r[j, j + 1] = r[j + 1, j] = h[j + 1] / 6.0
    return q, r


class GForm:
    """One dataset in g-form: weight matrix, knot map and Reinsch matrices, built once."""

    def __init__(self, y, z, w):
        self.y = np.asarray(y, dtype=float).reshape(-1)
        z = np.asarray(z, dtype=float).reshape(-1)
        self.knots, self.obs_to_knot = np.unique(z, return_inverse=True)
        if self.knots.size < 3:
            raise ValueError("the g-form needs at least three distinct z values")
        self.n, self.m = self.y.size, self.knots.size
        self.W = laplace_weight_matrix(w)
        self.Q, self.R = reinsch_matrices(self.knots)
        self._r_band = np.vstack([
            np.concatenate([[0.0], np.diag(self.R, 1)]),
            np.diag(self.R),
        ])

    def _gather(self, v: np.ndarray) -> np.ndarray:
        """A' v: sum observation-indexed values onto their knots."""
        return np.bincount(self.obs_to_knot, weights=v, minlength=self.m)

    def _knot_weights(self) -> np.ndarray:
        """A' W A, the weight matrix seen by the knot values."""
        a = np.zeros((self.n, self.m))
        a[np.arange(self.n), self.obs_to_knot] = 1.0
        return a.T @ self.W @ a

    def solve(self, lam: float, y: np.ndarray | None = None) -> dict:
        """Minimise the objective at lam by one dense saddle solve.

        Returns the fitted values at the observations, the objective split
        into criterion and roughness, and the relative residual of the solve.
        """
        y = self.y if y is None else np.asarray(y, dtype=float).reshape(-1)
        m = self.m
        kkt = np.zeros((2 * m - 2, 2 * m - 2))
        kkt[:m, :m] = self._knot_weights()
        kkt[:m, m:] = lam * self.Q
        kkt[m:, :m] = self.Q.T
        kkt[m:, m:] = -self.R
        rhs = np.zeros(2 * m - 2)
        rhs[:m] = self._gather(self.W @ y)
        lu = scipy.linalg.lu_factor(kkt)
        sol = scipy.linalg.lu_solve(lu, rhs)
        for _ in range(2):
            sol += scipy.linalg.lu_solve(lu, rhs - kkt @ sol)
        residual = float(
            np.abs(rhs - kkt @ sol).max()
            / (np.abs(kkt).max() * np.abs(sol).max() + np.abs(rhs).max())
        )
        g, gamma = sol[:m], sol[m:]
        fitted = g[self.obs_to_knot]
        crit = self.criterion(y - fitted)
        rough = float(gamma @ self.R @ gamma)
        return {
            "fitted": fitted,
            "criterion": crit,
            "roughness": rough,
            "objective": crit + lam * rough,
            "relative_residual": residual,
        }

    def criterion(self, residuals: np.ndarray) -> float:
        return float(residuals @ self.W @ residuals)

    def roughness_of_values(self, knot_values: np.ndarray) -> float:
        """Roughness of the natural cubic interpolant of values at the sorted knots."""
        gamma = scipy.linalg.solveh_banded(self._r_band, self.Q.T @ knot_values)
        return float(gamma @ self.R @ gamma)

    def score(self, fitted: np.ndarray, lam: float) -> float:
        """Objective of a fit given by its values at the observations.

        The roughness is that of the natural interpolant of those values,
        the smallest roughness any function with these values can have, so
        the score of a spline never exceeds its own objective.
        """
        fitted = np.asarray(fitted, dtype=float).reshape(-1)
        knot_values = np.empty(self.m)
        knot_values[self.obs_to_knot] = fitted
        return self.criterion(self.y - fitted) + lam * self.roughness_of_values(knot_values)


# ---------------------------------------------------------------------------
# the radial representation a0 + a1 x + sum_j delta_j |x - k_j|^3 / 12 that
# fit artifacts store, evaluated here from the formula
# ---------------------------------------------------------------------------

def radial_value(a, delta, knots, x) -> np.ndarray:
    d = np.asarray(x, dtype=float)[:, None] - np.asarray(knots)[None, :]
    return a[0] + a[1] * np.asarray(x, dtype=float) + (np.abs(d) ** 3 @ delta) / 12.0


def radial_slope(a, delta, knots, x) -> np.ndarray:
    d = np.asarray(x, dtype=float)[:, None] - np.asarray(knots)[None, :]
    return a[1] + ((np.abs(d) * d) @ delta) / 4.0


def third_derivative_pieces(delta, knots) -> tuple[np.ndarray, np.ndarray]:
    """Sorted knots and the value of g''' = (1/2) sum_j delta_j sign(x - k_j) on each piece.

    g''' is constant between neighbouring knots; piece i lies left of sorted
    knot i, piece m right of all knots.
    """
    order = np.argsort(knots)
    d = np.asarray(delta, dtype=float)[order]
    below = np.concatenate([[0.0], np.cumsum(d)])
    return np.asarray(knots)[order], below - d.sum() / 2.0


def trapezoid_defect(delta, knots, x) -> np.ndarray:
    """Exact (g(b) - g(a))/h - (g'(a) + g'(b))/2 for each pair of consecutive points of x.

    By the Peano kernel of the trapezoid rule applied to g', the defect is
    -(1/h) times the integral over [a, b] of s (h - s) / 2 * g'''(a + s) ds,
    and g''' is constant between knots, so the integral is a finite sum.
    """
    t, pieces = third_derivative_pieces(delta, knots)
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size - 1)
    for k in range(x.size - 1):
        a, b = x[k], x[k + 1]
        h = b - a
        i = np.searchsorted(t, a, side="right")  # a lies on piece i
        j = np.searchsorted(t, b, side="left")   # b lies on piece j
        s = np.concatenate([[0.0], t[i:j] - a, [h]])
        kernel = (h * s**2 / 2.0 - s**3 / 3.0) / 2.0  # antiderivative of s (h - s) / 2
        out[k] = -np.dot(pieces[i:j + 1], np.diff(kernel)) / h
    return out
