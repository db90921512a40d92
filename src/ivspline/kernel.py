"""Instrument weight function and the n x n weight matrix of the fitting criterion.

The criterion integrates squared empirical moment conditions of the form
E[(Y - g(Z)) exp(i t'W)] over a symmetric probability measure on t.  That
integral collapses to the double sum

    (1/n^2) sum_ij r_i r_j omega(W_i - W_j)

where ``omega`` is the measure's Fourier transform.  We use the Laplace
density itself as ``omega``, a product over the instrument columns,

    omega(d) = prod_k exp(-|d_k| / b) / (2b),   b = sqrt(variance / 2)

(for the default unit variance the corresponding measure is a Cauchy
distribution with scale sqrt(2)); multiplicative constants in ``omega`` only
rescale the criterion and are absorbed by the regularization parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import SingularKernelError
from .datamodel import standardize_instruments

# Jitter schedule for a numerically singular weight matrix: add
# tau * (trace/n) * I with tau escalating tenfold until Cholesky succeeds.
JITTER_START = 1e-10
JITTER_CAP = 1e-6
JITTER_GROWTH = 10.0
# Rows per block when mirroring the inverse's lower triangle into its upper
# one; a block's transpose is the only temporary, so no n x n copy is made.
_MIRROR_BLOCK = 128


@dataclass(frozen=True)
class KernelSpec:
    """Variance of the Laplace weight function, and the standardization policy."""

    variance: float = 1.0
    standardize: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise ValueError("variance must be a positive real")

    @property
    def scale(self) -> float:
        # Laplace(0, b) has variance 2 b^2.
        return float(np.sqrt(self.variance / 2.0))


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric positive-definite matrix with entries n^-2 omega(W_i - W_j).

    ``values`` includes any diagonal jitter that was needed to make the
    Cholesky factorization succeed; ``jitter_applied`` records the amount
    added to each diagonal entry (zero in the regular case).  ``chol`` is the
    lower-triangular Cholesky factor of ``values``.
    """

    values: np.ndarray
    jitter_applied: float
    chol: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def inverse(self) -> np.ndarray:
        """values^-1 from the stored Cholesky factor (LAPACK dpotri, 2n^3/3 flops).

        dpotri fills the lower triangle; it is mirrored into the upper one,
        so the result is exactly symmetric.
        """
        inv, info = lapack.dpotri(self.chol, lower=1)
        if info != 0:
            raise SingularKernelError(f"weight matrix inverse failed (LAPACK info {info})")
        for i in range(0, self.n, _MIRROR_BLOCK):
            j = i + _MIRROR_BLOCK
            inv[i:j, j:] = inv[j:, i:j].T
            block = inv[i:j, i:j]
            block[...] = np.tril(block) + np.tril(block, -1).T
        return inv


def _pairwise_weights(w: np.ndarray, spec: KernelSpec) -> np.ndarray:
    # n^-2 omega(W_i - W_j) in one n x n buffer; |w_i - w_j| and |w_j - w_i|
    # round identically, so it is exactly symmetric without averaging
    b = spec.scale
    n, p = w.shape
    values = np.abs(np.subtract.outer(w[:, 0], w[:, 0]))
    for k in range(1, p):
        values += np.abs(np.subtract.outer(w[:, k], w[:, k]))
    np.negative(values, out=values)
    values /= b
    np.exp(values, out=values)
    values /= (2.0 * b) ** p
    values /= n**2
    return values


def _attempt_cholesky(values: np.ndarray):
    """Lower Cholesky factor, or None if the matrix is numerically not PD.

    LAPACK accepts factors whose trailing pivots are pure roundoff (e.g. for
    exactly duplicated instrument rows), so a successful factorization is
    additionally screened with a relative pivot threshold.
    """
    try:
        chol = scipy.linalg.cholesky(values, lower=True)
    except scipy.linalg.LinAlgError:
        return None
    pivots = np.diag(chol) ** 2
    if pivots.min() <= values.shape[0] * np.finfo(float).eps * values.diagonal().max():
        return None
    return chol


def build_weight_matrix(w: np.ndarray, spec: KernelSpec) -> WeightMatrix:
    """Assemble the criterion's weight matrix for an n x p instrument array.

    With ``spec.standardize`` the columns are centered and scaled first
    (skipped for a single row, where no dispersion measure exists).  If the
    matrix is not numerically positive definite -- instrument rows coincide
    or nearly coincide -- escalating diagonal jitter is applied; past the cap
    a :class:`SingularKernelError` is raised.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w.reshape(-1, 1)
    n = w.shape[0]
    if spec.standardize and n >= 2:
        w = standardize_instruments(w).w_std
    values = _pairwise_weights(w, spec)

    chol = _attempt_cholesky(values)
    if chol is not None:
        return WeightMatrix(values=values, jitter_applied=0.0, chol=chol)

    base = values.trace() / n
    tau = JITTER_START
    while tau <= JITTER_CAP * (1.0 + 1e-12):
        jitter = tau * base
        candidate = values + jitter * np.eye(n)
        chol = _attempt_cholesky(candidate)
        if chol is not None:
            return WeightMatrix(values=candidate, jitter_applied=float(jitter), chol=chol)
        tau *= JITTER_GROWTH
    raise SingularKernelError(
        "weight matrix is singular beyond the jitter cap; "
        "instrument rows are effectively duplicated"
    )


def moment_criterion(residuals: np.ndarray, omega: WeightMatrix) -> float:
    """V-statistic r' Omega r measuring violation of the instrument moment conditions.

    Nonnegative up to roundoff whenever the weight matrix is PSD.
    """
    r = np.asarray(residuals, dtype=float).reshape(-1)
    if r.shape[0] != omega.n:
        raise ValueError(f"residual length {r.shape[0]} != matrix order {omega.n}")
    return float(r @ omega.values @ r)
