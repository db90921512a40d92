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

Rows that tie exactly give equal rows of the matrix, so with G the n x m
indicator of the m distinct (standardized) instrument rows it factors as
Omega = G Omegabar G', where Omegabar is the same weight on the distinct rows
and is positive definite.  The factor is then L = G Lbar with Lbar Lbar' =
Omegabar, an n x m matrix held as the row-to-group map and Lbar; without ties
G = I and the map is absent.  For a scalar instrument Omegabar is an
Ornstein-Uhlenbeck covariance, whose inverse is tridiagonal in sorted order;
when its distinct values pass the pivot screen, Lbar is a closed-form
bidiagonal factor in O(m) storage.  Several instruments, or nearly tied
values, keep the dense Cholesky factor of Omegabar only: it is factored in
place (with jitter while near ties leave it numerically singular).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

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
class _Groups:
    """The n x m indicator G of the distinct instrument rows, held as index arrays.

    ``index`` maps each row to its group, ``order`` lists the rows group by
    group, and ``starts`` gives the position in ``order`` where each group
    begins.  G itself is never formed: G'm sums rows by group and Gm repeats
    each group's row for its members, both O(n) per column.
    """

    index: np.ndarray
    order: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return self.starts.shape[0]

    def sum(self, m: np.ndarray) -> np.ndarray:
        """G'm: the rows of m summed within each group."""
        return np.add.reduceat(m[self.order], self.starts, axis=0)

    def expand(self, m: np.ndarray) -> np.ndarray:
        """Gm: row g of m for every member of group g."""
        return m[self.index]


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric positive-semidefinite matrix Omega with entries n^-2 omega(W_i - W_j).

    Held as the (standardized) instrument ``w``, the ``jitter_applied`` to
    each diagonal entry of Omegabar (zero unless its Cholesky factorization
    needed it), the map ``groups`` of tied rows (None when every row is
    distinct) and a factor Lbar with Lbar Lbar' = Omegabar, whose
    representation is a subclass's.  The package reaches Omega only through
    ``_apply_lt`` (L'm, n rows in, m out), ``_apply_l`` (Lm, m rows in, n
    out), ``_add_inverse`` (mat += lam Omegabar^-1 on an m x m block),
    ``_inverse_entries`` (the nonzeros of lam Omegabar^-1 where a formula
    gives them), ``_congruence`` (L'DL for a symmetric n x n D) and
    ``_quadratic`` (columnwise r' Omega r = ||L'r||^2), with L = G Lbar; the
    dense n x n matrix is never formed.
    """

    w: np.ndarray = field(repr=False)
    jitter_applied: float
    groups: _Groups | None = field(default=None, repr=False, kw_only=True)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def _apply_lt(self, m: np.ndarray) -> np.ndarray:
        """L'm = Lbar' G'm, one row per group."""
        return self._factor_lt(m if self.groups is None else self.groups.sum(m))

    def _apply_l(self, m: np.ndarray) -> np.ndarray:
        """Lm = G Lbar m, one row per observation."""
        lm = self._factor_l(m)
        return lm if self.groups is None else self.groups.expand(lm)

    def _quadratic(self, r: np.ndarray) -> np.ndarray:
        """r' Omega r for a vector, or for each column of a matrix, as ||L'r||^2."""
        lt = self._apply_lt(r)
        return np.einsum("i...,i...->...", lt, lt)

    def _inverse_entries(self, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """(rows, columns, values) of lam Omegabar^-1's nonzeros where a formula gives them; else None.

        A dense factor gives its inverse only as a whole m x m matrix.
        """
        return None

    def _congruence(self, design: Callable[[np.ndarray], np.ndarray], z: np.ndarray) -> np.ndarray:
        """L' D L for the symmetric n x n matrix D = design(z) of the observations' points z.

        D is formed once and both products with L' read its F-ordered
        transpose, which is D itself; the result is F-ordered.
        """
        d = design(z)
        return self._apply_lt(self._apply_lt(d.T).T)


@dataclass(frozen=True)
class _DenseWeightMatrix(WeightMatrix):
    """Omegabar through its lower Cholesky factor ``chol``: any instrument dimension, near ties included."""

    chol: np.ndarray = field(repr=False)

    def _factor_lt(self, m: np.ndarray) -> np.ndarray:
        cols = m.reshape(m.shape[0], -1)
        return blas.dtrmm(1.0, self.chol, cols, lower=1, trans_a=1).reshape(m.shape)

    def _factor_l(self, m: np.ndarray) -> np.ndarray:
        cols = m.reshape(m.shape[0], -1)
        return blas.dtrmm(1.0, self.chol, cols, lower=1).reshape(m.shape)

    def _add_inverse(self, mat: np.ndarray, lam: float) -> None:
        # Omegabar^-1 from the factor by LAPACK dpotri (2m^3/3 flops), which fills
        # the lower triangle; mirroring it makes the inverse exactly symmetric
        inv, info = lapack.dpotri(self.chol, lower=1)
        if info != 0:
            raise SingularKernelError(f"weight matrix inverse failed (LAPACK info {info})")
        for i in range(0, inv.shape[0], _MIRROR_BLOCK):
            j = i + _MIRROR_BLOCK
            inv[i:j, j:] = inv[j:, i:j].T
            block = inv[i:j, i:j]
            block[...] = np.tril(block) + np.tril(block, -1).T
        inv *= lam
        mat += inv


@dataclass(frozen=True)
class _BidiagonalWeightMatrix(WeightMatrix):
    """Omegabar for a scalar instrument, through a closed-form factor.

    Sorted by w, the m distinct values give Omegabar = c K with c = 1/(2b n^2)
    (n counting every row), and K_ij = exp(-|w_i - w_j|/b) is the covariance
    of an Ornstein-Uhlenbeck process at the sorted points.
    By the process's Markov property K = Ls Ls' with Ls^-1 lower bidiagonal:
    with gaps D_i, a_i = exp(-D_i/b) and s_i = sqrt(1 - a_i^2), its diagonal
    is (1, 1/s_1, ..., 1/s_{n-1}) and its subdiagonal -a_i/s_i (Rasmussen &
    Williams 2006, Gaussian Processes for Machine Learning, app. B).
    ``band`` holds B = Ls^-1/sqrt(c) in LAPACK lower band storage (row 0 the
    diagonal, row 1 the subdiagonal) and ``order`` the sorting permutation
    P, so Omegabar^-1 = P'B'BP and Lbar = P'B^-1 is a factor of Omegabar.
    Each operation is O(m) per column.
    """

    order: np.ndarray = field(repr=False)
    band: np.ndarray = field(repr=False)

    def _factor_lt(self, m: np.ndarray) -> np.ndarray:
        x, _ = lapack.dtbtrs(self.band, _rows(m, self.order), uplo="L", trans="T", overwrite_b=1)
        return x.reshape(m.shape)

    def _factor_l(self, m: np.ndarray) -> np.ndarray:
        x, _ = lapack.dtbtrs(self.band, m.reshape(m.shape[0], -1), uplo="L", trans="N")
        return _rows(x, np.argsort(self.order)).reshape(m.shape)

    def _add_inverse(self, mat: np.ndarray, lam: float) -> None:
        rows, cols, values = self._inverse_entries(lam)
        mat[rows, cols] += values  # every entry once, so one fancy-indexed sum

    def _inverse_entries(self, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # B'B is tridiagonal: with beta the band's diagonal and gamma its subdiagonal,
        # diagonal beta_i^2 + gamma_i^2 and off-diagonal gamma_i beta_{i+1}
        diag, sub = self.band
        order = self.order
        off = lam * (sub[:-1] * diag[1:])
        return (
            np.concatenate([order, order[:-1], order[1:]]),
            np.concatenate([order, order[1:], order[:-1]]),
            np.concatenate([lam * (diag * diag + sub * sub), off, off]),
        )

    def _congruence(self, design: Callable[[np.ndarray], np.ndarray], z: np.ndarray) -> np.ndarray:
        # without ties L' = B^-T P, so L'DL = B^-T (B^-T Ds)' with Ds = P D P' = design(z[order]):
        # both band solves run in place, around one transposing copy
        if self.groups is not None:
            return super()._congruence(design, z)
        half, _ = lapack.dtbtrs(self.band, design(z[self.order]).T, uplo="L", trans="T", overwrite_b=1)
        half = np.asfortranarray(half.T)
        s_mat, _ = lapack.dtbtrs(self.band, half, uplo="L", trans="T", overwrite_b=1)
        return s_mat


def _rows(m: np.ndarray, index: np.ndarray) -> np.ndarray:
    """m[index] as an F-ordered array with one column per column of m, the layout LAPACK reads uncopied."""
    return np.take(m.reshape(m.shape[0], -1).T, index, axis=1).T


def _pairwise_weights(w: np.ndarray, spec: KernelSpec, n: int | None = None) -> np.ndarray:
    # n^-2 omega(W_i - W_j) over the rows of w in one buffer, n defaulting to
    # their count; |w_i - w_j| and |w_j - w_i| round identically, so it is
    # exactly symmetric without averaging
    b = spec.scale
    p = w.shape[1]
    n = w.shape[0] if n is None else n
    values = np.abs(np.subtract.outer(w[:, 0], w[:, 0]))
    for k in range(1, p):
        d = np.subtract.outer(w[:, k], w[:, k])
        values += np.abs(d, out=d)
    values /= -b
    np.exp(values, out=values)
    values /= (2.0 * b) ** p
    values /= n**2
    return values


def _attempt_cholesky(values: np.ndarray, jitter: float):
    """Lower Cholesky factor of values + jitter I, or None if that is numerically not PD.

    One copy takes the jitter and is factored in place (its transpose is F-ordered).
    LAPACK accepts trailing pivots of pure roundoff (e.g. for exactly duplicated
    instrument rows), so a relative pivot threshold screens the factor as well.
    """
    candidate = values.copy()
    candidate[np.diag_indices_from(candidate)] += jitter
    threshold = values.shape[0] * np.finfo(float).eps * candidate.diagonal().max()
    try:
        chol = scipy.linalg.cholesky(candidate.T, lower=True, overwrite_a=True)
    except scipy.linalg.LinAlgError:
        return None
    if (np.diag(chol) ** 2).min() <= threshold:
        return None
    return chol


def _bidiagonal(rows: np.ndarray, spec: KernelSpec, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(order, band) of the closed-form factor on a scalar instrument's m distinct values.

    None where two values nearly tie: 1 - a_i^2 are the Cholesky pivots of K
    in sorted order, so this is the relative pivot screen of
    :func:`_attempt_cholesky`.
    """
    m = rows.shape[0]
    b = spec.scale
    order = np.argsort(rows[:, 0], kind="stable")
    gaps = np.diff(rows[order, 0])
    pivots = -np.expm1(-2.0 * gaps / b)
    if not np.all(pivots > m * np.finfo(float).eps):
        return None
    s = np.sqrt(pivots)
    band = np.zeros((2, m))
    band[0, 0] = 1.0
    band[0, 1:] = 1.0 / s
    band[1, :-1] = -np.exp(-gaps / b) / s
    band *= n * np.sqrt(2.0 * b)  # 1/sqrt(c)
    return order, band


def _group_rows(w: np.ndarray) -> tuple[np.ndarray, _Groups | None]:
    """The distinct rows of w (sorted) and the map of its tied rows; (w, None) without ties.

    A scalar instrument with distinct values is recognized by one sort.
    """
    if w.shape[1] == 1 and np.all(np.diff(np.sort(w[:, 0])) > 0):
        return w, None
    distinct, index, counts = np.unique(w, axis=0, return_inverse=True, return_counts=True)
    if distinct.shape[0] == w.shape[0]:
        return w, None
    index = index.reshape(-1)
    order = np.argsort(index, kind="stable")
    return distinct, _Groups(index=index, order=order, starts=np.cumsum(counts) - counts)


def build_weight_matrix(w: np.ndarray, spec: KernelSpec = KernelSpec()) -> WeightMatrix:
    """Assemble the criterion's weight matrix for an n x p instrument array.

    The estimator always uses the default ``spec``, the paper's weight
    function; other values serve studies of the weight matrix itself.
    With ``spec.standardize`` the columns are centered and scaled first
    (skipped for a single row, where no dispersion measure exists).  Rows
    that tie exactly are grouped, and the factor is built on the m distinct
    rows only (without ties m = n and no map is kept).  A scalar instrument
    whose distinct values pass the Cholesky pivot screen gets the
    closed-form bidiagonal factor.  Otherwise a copy of the dense m x m
    matrix is factored in place, with escalating diagonal jitter while it is
    not numerically positive definite (distinct instrument rows nearly
    coincide), and only the factor is kept; past the cap a
    :class:`SingularKernelError` is raised.
    """
    w = np.asarray(w, dtype=float).reshape(len(w), -1)
    n = w.shape[0]
    if spec.standardize and n >= 2:
        w = standardize_instruments(w)
    rows, groups = _group_rows(w)
    scalar = _bidiagonal(rows, spec, n) if w.shape[1] == 1 else None
    if scalar is not None:
        order, band = scalar
        return _BidiagonalWeightMatrix(w=w, jitter_applied=0.0, groups=groups, order=order, band=band)
    values = _pairwise_weights(rows, spec, n)
    base, tau = values.trace() / rows.shape[0], 0.0
    while tau <= JITTER_CAP * (1.0 + 1e-12):
        jitter = tau * base
        chol = _attempt_cholesky(values, jitter)
        if chol is not None:
            return _DenseWeightMatrix(w=w, jitter_applied=float(jitter), groups=groups, chol=chol)
        tau = tau * JITTER_GROWTH if tau else JITTER_START
    raise SingularKernelError(
        "weight matrix is singular beyond the jitter cap; "
        "distinct instrument rows nearly coincide"
    )


def moment_criterion(residuals: np.ndarray, omega: WeightMatrix) -> float:
    """V-statistic r' Omega r measuring violation of the instrument moment conditions.

    Computed as ||L'r||^2 with Omega = L L', so it is never negative.
    """
    r = np.asarray(residuals, dtype=float).reshape(-1)
    if r.shape[0] != omega.n:
        raise ValueError(f"residual length {r.shape[0]} != matrix order {omega.n}")
    return float(omega._quadratic(r))
