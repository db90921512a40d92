"""Natural cubic splines in radial form, their design matrices, and the roughness functional.

A natural cubic spline with knots Z_1..Z_n is written

    g(z) = a0 + a1 z + (1/12) sum_i delta_i |z - Z_i|^3,
    sum_i delta_i = 0,   sum_i delta_i Z_i = 0.

The two constraints kill the quadratic growth of the sum, so g is linear
outside the knot range (naturality).  This form needs no sorting of the
knots and no rescaling of z, which keeps the bookkeeping between the design
matrices and the instrument weight matrix trivial.

The basis is |d|^3 / 12 at d = z - Z_i, with derivatives d |d| / 4 and |d| / 2.
``_radial`` forms a block of any of the three.  ``_radial_design`` writes an
n x n design, and ``_radial_product`` multiplies a block into a vector or
matrix, both a block of rows at a time; every user of the basis calls these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datamodel import _checked
from .errors import SizeError


# Rows per block where the basis is formed or multiplied a block at a time:
# a block's temporaries are 2 MB each at n = 2000, so no n x n temporary
# stands beside the result.
_CUBIC_BLOCK = 128


def _radial(u: np.ndarray, v: np.ndarray, order: int, out: np.ndarray | None = None) -> np.ndarray:
    """The len(u) x len(v) block of the basis's order-th derivative at d = u_i - v_j (into ``out`` if given).

    Order 0 is |d|^3 / 12, cubed by multiplication; order 1 d |d| / 4; order 2 |d| / 2.
    """
    d = np.subtract.outer(u, v)
    if order == 0:
        block = np.multiply(np.abs(d, out=d), d, out=out)
    else:
        block = np.abs(d, out=out)
    if order < 2:
        block *= d
    block /= (12.0, 4.0, 2.0)[order]
    return block


def _radial_product(u: np.ndarray, v: np.ndarray, x: np.ndarray, order: int = 0) -> np.ndarray:
    """``_radial(u, v, order) @ x`` for a vector or matrix x, bit for bit, with no len(u) x len(v) array.

    The block is formed and multiplied ``_CUBIC_BLOCK`` rows at a time.
    """
    out = np.empty(u.shape[:1] + x.shape[1:])
    for start in range(0, u.shape[0], _CUBIC_BLOCK):
        stop = start + _CUBIC_BLOCK
        out[start:stop] = _radial(u[start:stop], v, order) @ x
    return out


def _radial_design(z: np.ndarray, order: int, out: np.ndarray) -> np.ndarray:
    """The n x n design ``_radial(z, z, order)`` written into ``out`` ``_CUBIC_BLOCK`` rows at a time.

    Order 0 is the cubic design E, exactly symmetric; order 1 is exactly antisymmetric.
    """
    for start in range(0, z.shape[0], _CUBIC_BLOCK):
        stop = start + _CUBIC_BLOCK
        _radial(z[start:stop], z, order, out=out[start:stop])
    return out


def _derivative_rhs(z: np.ndarray) -> np.ndarray:
    """B' for the knot-derivative design B = [D, 1 (0, 1)]: an (n + 2) x n F-ordered view.

    D = ``_radial(z, z, 1)`` is written into the C-ordered B, and B' is
    returned, in the layout LAPACK reads; its last two rows are zeros and ones.
    """
    n = z.shape[0]
    out = np.empty((n, n + 2))
    _radial_design(z, 1, out[:, :n])
    out[:, n] = 0.0
    out[:, n + 1] = 1.0
    return out.T


def build_design(z: np.ndarray) -> np.ndarray:
    """The n x 2 linear design, columns (1, z_i), of at least 3 finite knots."""
    z = _checked(z, "z")
    n = z.shape[0]
    if n < 3:
        raise SizeError(f"design matrices need at least 3 knots, got {n}")
    return np.column_stack([np.ones(n), z])


@dataclass(frozen=True)
class SplineFit:
    """Coefficients of a fitted natural cubic spline plus solve diagnostics.

    ``a`` holds the intercept and slope, ``delta`` the radial coefficients
    (one per knot, satisfying the two natural-spline constraints), ``knots``
    the z values in dataset order; all three are checked as a Dataset's
    vectors are (ParseError for a NaN or inf entry, SizeError for none or a
    wrong rank), and ``delta`` and ``knots`` must have equal length.  ``diagnostics``
    records, for the solve that produced the fit, ``criterion``,
    ``roughness``, ``objective``, ``constraint_residual``,
    ``instrument_groups`` (the weight matrix's rank on the distinct instrument
    rows), ``kkt_condition_estimate``, ``refinement_steps`` and the
    ``backward_error`` of the returned coefficients.  A monotone refit adds
    ``smoother_refinement_steps``, ``smoother_backward_error`` (of the
    returned smoother), ``tilt_objective``, ``tilt_kkt_residual`` and
    ``tilt_active_constraints``.
    """

    a: np.ndarray
    delta: np.ndarray
    knots: np.ndarray
    lam: float
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("a", "delta", "knots"):
            object.__setattr__(self, name, _checked(getattr(self, name), name))
        if self.a.shape != (2,):
            raise ValueError(f"a must hold an intercept and a slope, got {self.a.shape[0]} values")
        if self.delta.shape != self.knots.shape:
            raise ValueError("delta and knots must have equal length")

    @property
    def n(self) -> int:
        return self.knots.shape[0]


def _evaluate(fit: SplineFit, z, order: int) -> np.ndarray | float:
    """The fit's order-th derivative at finite z (scalar or vector): the radial sum plus the linear part's."""
    z_arr = _checked(z, "z")
    out = _radial_product(z_arr, fit.knots, fit.delta, order)
    if order == 0:
        out = fit.a[0] + fit.a[1] * z_arr + out
    elif order == 1:
        out = fit.a[1] + out
    return float(out[0]) if np.ndim(z) == 0 else out


def evaluate(fit: SplineFit, z) -> np.ndarray | float:
    """Spline value at finite z (scalar or vector); linear extrapolation beyond the knots covers every finite z."""
    return _evaluate(fit, z, 0)


def evaluate_derivative(fit: SplineFit, z) -> np.ndarray | float:
    """First derivative a1 + (1/4) sum_i delta_i (z - Z_i) |z - Z_i|."""
    return _evaluate(fit, z, 1)


def evaluate_second_derivative(fit: SplineFit, z) -> np.ndarray | float:
    """Second derivative (1/2) sum_i delta_i |z - Z_i|; zero outside the knot range."""
    return _evaluate(fit, z, 2)


def roughness(fit: SplineFit) -> float:
    """Quadratic form delta' E delta = integral of g''(z)^2 over the real line.

    The identity requires delta to satisfy the two natural-spline
    constraints; on that subspace the cubic design is positive semidefinite.
    E delta is formed by row blocks, as in a fit's ``roughness`` diagnostic.
    """
    return float(fit.delta @ _radial_product(fit.knots, fit.knots, fit.delta))
