"""Natural cubic splines in radial form, their design matrices, and the roughness functional.

A natural cubic spline with knots Z_1..Z_n is written

    g(z) = a0 + a1 z + (1/12) sum_i delta_i |z - Z_i|^3,
    sum_i delta_i = 0,   sum_i delta_i Z_i = 0.

The two constraints kill the quadratic growth of the sum, so g is linear
outside the knot range (naturality).  This form needs no sorting of the
knots and no rescaling of z, which keeps the bookkeeping between the design
matrices and the instrument weight matrix trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SizeError


def _sign_plus(u: np.ndarray) -> np.ndarray:
    """sign(u) with the convention sign(0) = +1."""
    return np.where(u >= 0, 1.0, -1.0)


# Rows per block where a design is produced a block at a time (E, E v and the
# derivative smoother's right-hand side): a block's temporaries are 2 MB each
# at n = 2000, so no n x n temporary stands beside the result.
_CUBIC_BLOCK = 128


def _radial_cubic(u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The len(u) x len(v) matrix |u_i - v_j|^3 / 12, cubed by multiplication (into ``out`` if given)."""
    d = np.subtract.outer(u, v)
    np.abs(d, out=d)
    cubic = np.multiply(d, d, out=out)
    cubic *= d
    cubic /= 12.0
    return cubic


def _cubic_design(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The n x n cubic design E, |z_i - z_j|^3 / 12, written in row blocks (into ``out`` if given).

    Every entry rounds as in ``_radial_cubic(z, z)``, so E is exactly symmetric.
    """
    n = z.shape[0]
    out = np.empty((n, n)) if out is None else out
    for start in range(0, n, _CUBIC_BLOCK):
        stop = start + _CUBIC_BLOCK
        _radial_cubic(z[start:stop], z, out=out[start:stop])
    return out


def _cubic_product(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """E v for the cubic design E of knots z and a vector v, formed ``_CUBIC_BLOCK`` rows at a time.

    Each row block rounds like the same rows of E, so no n x n array is made.
    """
    n = z.shape[0]
    out = np.empty(n)
    for start in range(0, n, _CUBIC_BLOCK):
        stop = start + _CUBIC_BLOCK
        out[start:stop] = _radial_cubic(z[start:stop], z) @ v
    return out


def _derivative_rhs(z: np.ndarray) -> np.ndarray:
    """B' for the knot-derivative design B = [D, 1 (0, 1)]: an (n + 2) x n F-ordered view.

    D has entries sign(z_i - z_j) (z_i - z_j)^2 / 4 (sign(0) = +1), written
    as d |d| / 4 with d = z_i - z_j.  B is written ``_CUBIC_BLOCK`` contiguous
    rows at a time, and its transpose is returned, in the layout LAPACK reads;
    the last two rows of B' are zeros and ones.
    """
    n = z.shape[0]
    out = np.empty((n, n + 2))
    for start in range(0, n, _CUBIC_BLOCK):
        stop = start + _CUBIC_BLOCK
        diff = np.subtract.outer(z[start:stop], z)
        block = np.abs(diff, out=out[start:stop, :n])
        block *= diff
        block /= 4.0
    out[:, n] = 0.0
    out[:, n + 1] = 1.0
    return out.T


def build_design(z: np.ndarray) -> np.ndarray:
    """The n x 2 linear design, columns (1, z_i), of at least 3 knots.

    The cubic design E is never returned whole: the solver writes it into the
    bordered matrix and forms E v a row block at a time.
    """
    z = np.asarray(z, dtype=float).reshape(-1)
    n = z.shape[0]
    if n < 3:
        raise SizeError(f"design matrices need at least 3 knots, got {n}")
    return np.column_stack([np.ones(n), z])


@dataclass(frozen=True)
class SplineFit:
    """Coefficients of a fitted natural cubic spline plus solve diagnostics.

    ``a`` holds the intercept and slope, ``delta`` the radial coefficients
    (one per knot, satisfying the two natural-spline constraints), ``knots``
    the z values in dataset order.  ``diagnostics`` records, for the solve
    that produced the fit, ``criterion``, ``roughness``, ``objective``,
    ``constraint_residual``, ``jitter_applied``, ``instrument_groups`` (the
    number of distinct instrument rows), ``kkt_condition_estimate``,
    ``refinement_steps`` and ``backward_error``.  A monotone refit adds
    ``smoother_refinement_steps``, ``smoother_backward_error``,
    ``tilt_objective``, ``tilt_kkt_residual`` and ``tilt_active_constraints``.
    """

    a: np.ndarray
    delta: np.ndarray
    knots: np.ndarray
    lam: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float).reshape(2)
        delta = np.asarray(self.delta, dtype=float).reshape(-1)
        knots = np.asarray(self.knots, dtype=float).reshape(-1)
        if delta.shape != knots.shape:
            raise ValueError("delta and knots must have equal length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "knots", knots)

    @property
    def n(self) -> int:
        return self.knots.shape[0]

    def constraint_residual(self) -> float:
        """max(|sum delta|, |sum delta * knots|), the natural-spline constraint violation."""
        return float(
            max(abs(self.delta.sum()), abs(np.dot(self.delta, self.knots)))
        )


def evaluate(fit: SplineFit, z) -> np.ndarray | float:
    """Spline value at z (scalar or array); linear extrapolation beyond the knots."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    diff = z_arr[:, None] - fit.knots[None, :]
    out = fit.a[0] + fit.a[1] * z_arr + (np.abs(diff) ** 3 @ fit.delta) / 12.0
    return float(out[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def evaluate_derivative(fit: SplineFit, z) -> np.ndarray | float:
    """First derivative a1 + (1/4) sum_i delta_i sign(z - Z_i) (z - Z_i)^2.

    sign(0) = +1 by convention; the squared factor makes the choice
    numerically irrelevant but fixes bit-level reproducibility.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    diff = z_arr[:, None] - fit.knots[None, :]
    out = fit.a[1] + ((_sign_plus(diff) * diff**2) @ fit.delta) / 4.0
    return float(out[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def evaluate_second_derivative(fit: SplineFit, z) -> np.ndarray | float:
    """Second derivative (1/2) sum_i delta_i |z - Z_i|; zero outside the knot range."""
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    out = (np.abs(z_arr[:, None] - fit.knots[None, :]) @ fit.delta) / 2.0
    return float(out[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else out


def roughness(fit: SplineFit) -> float:
    """Quadratic form delta' E delta = integral of g''(z)^2 over the real line.

    The identity requires delta to satisfy the two natural-spline
    constraints; on that subspace the cubic design is positive semidefinite.
    E delta is formed by row blocks, as in a fit's ``roughness`` diagnostic.
    """
    return float(fit.delta @ _cubic_product(fit.knots, fit.delta))
