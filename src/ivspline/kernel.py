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
Ornstein-Uhlenbeck covariance, whose Cholesky factor in sorted order is a
formula with a bidiagonal inverse; when the distinct values pass the pivot
screen, Lbar is applied through that formula by blocks, in O(m) storage.
Several instruments, or nearly tied values, keep the dense Cholesky factor of
Omegabar only: it is factored in place (with jitter while near ties leave it
numerically singular).  Omega^-1 is never formed on either route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.linalg
from scipy.linalg import blas

from .errors import SingularKernelError
from .datamodel import standardize_instruments
from .spline import _CUBIC_BLOCK, _radial, _radial_design

# Jitter schedule for a numerically singular weight matrix: add
# tau * (trace/n) * I with tau escalating tenfold until Cholesky succeeds.
JITTER_START = 1e-10
JITTER_CAP = 1e-6
JITTER_GROWTH = 10.0
# Relative slack of the cap test: tau grows by repeated products, which can land
# a few ulps above the rung that is the cap (1e-20 * 10^10 is 1.0000000000000002e-10).
_JITTER_CAP_RTOL = 1e-12
# Rows per diagonal block where a factor is applied a block at a time.  The
# closed-form factor keeps the inverse of each of B's diagonal blocks, m x 32
# values in all (0.5 MB at m = 2000); 32 rows applied it to one column and to m
# columns faster than 16 or 64 at m = 200 to 2000.
_FACTOR_BLOCK = 32
# Rows per block where the dense Cholesky factor is applied in place, to both
# sides of L'EL (BLAS dtrmm needs a contiguous array) and to L'm.  At m = 2000,
# 128 rows took 0.37 s for L'EL, 32 rows 0.64 s and 256 rows 0.45 s; against
# dtrmm (one BLAS thread), L'm took 1.9 against 3.6 ms on one column, 55 against
# 46 ms on 400 and 207-237 against 163-172 ms on 2002 (0.27 against 0.22 ms on
# 202 at m = 200).
_DENSE_BLOCK = 128


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
    representation is a subclass's: its ``order`` P, ``_factor_t`` (x := T'x
    in place) and ``_factor_l`` (Lbar m).  The package reaches Omega only
    through ``_apply_lt`` (L'm, n rows in, m out), ``_apply_l`` (Lm, m rows
    in, n out), ``_congruence`` (L'EL for the cubic design E) and
    ``_quadratic`` (columnwise r' Omega r = ||L'r||^2), with L = G Lbar;
    neither the dense n x n matrix nor an inverse is ever formed.
    """

    w: np.ndarray = field(repr=False)
    jitter_applied: float
    groups: _Groups | None = field(default=None, repr=False, kw_only=True)
    # the m rows of Lbar in the order its factor works in: a permutation P of
    # the distinct rows, with Lbar' = T' P for a triangular T; None for P = I
    order: ClassVar[np.ndarray | None] = None

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def _apply_lt(self, m: np.ndarray) -> np.ndarray:
        """L'm = T' P G'm, one row per group: G'm (a copy of m without ties) in ``order``, T' in place."""
        x = m if self.groups is None else self.groups.sum(m)
        x = np.array(x, dtype=float) if self.order is None else np.asarray(x, dtype=float)[self.order]
        self._factor_t(x)
        return x

    def _apply_l(self, m: np.ndarray) -> np.ndarray:
        """Lm = G Lbar m, one row per observation."""
        lm = self._factor_l(m)
        return lm if self.groups is None else self.groups.expand(lm)

    def _quadratic(self, r: np.ndarray) -> np.ndarray:
        """r' Omega r for a vector, or for each column of a matrix, as ||L'r||^2."""
        lt = self._apply_lt(r)
        return np.einsum("i...,i...->...", lt, lt)

    def _congruence(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """L'EL written into the m x m array ``out`` (any layout), E the cubic design of knots z.

        P G'EG P' is written first: without ties E in sorted order by row
        blocks, with them G'E a block of columns at a time.  The factor's T'
        is then applied in place to the rows and to the columns, so no other
        m x m or n x n array is made (with ties, one m x n array of group
        sums).  ``out`` is L'EL up to roundoff, not exactly symmetric.
        """
        groups = self.groups
        if groups is None:
            _radial_design(z if self.order is None else z[self.order], 0, out)
        else:
            n = z.shape[0]
            grouped_z = z[groups.order]
            sums = np.empty((len(groups), n))
            for start in range(0, n, _CUBIC_BLOCK):
                stop = start + _CUBIC_BLOCK
                columns = _radial(grouped_z, z[start:stop], 0)
                sums[:, start:stop] = np.add.reduceat(columns, groups.starts, axis=0)
            sums = groups.sum(sums.T)
            out[...] = sums if self.order is None else sums[np.ix_(self.order, self.order)]
        self._factor_t(out)
        self._factor_t(out.T)
        return out


@dataclass(frozen=True)
class _DenseWeightMatrix(WeightMatrix):
    """Omegabar through its lower Cholesky factor ``chol``: any instrument dimension, near ties included."""

    chol: np.ndarray = field(repr=False)

    def _factor_l(self, m: np.ndarray) -> np.ndarray:
        cols = m.reshape(m.shape[0], -1)
        return blas.dtrmm(1.0, self.chol, cols, lower=1).reshape(m.shape)

    def _factor_t(self, x: np.ndarray) -> None:
        """x := chol' x in place, forward by blocks; row block i of chol' x reads rows from the block's start on."""
        for start in range(0, x.shape[0], _DENSE_BLOCK):
            stop = start + _DENSE_BLOCK
            x[start:stop] = self.chol[start:, start:stop].T @ x[start:]


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
    ``band`` holds B = Ls^-1/sqrt(c) in lower band storage (row 0 the
    diagonal, row 1 the subdiagonal) and ``order`` the sorting permutation
    P, so Lbar = P'B^-1 is a factor of Omegabar.  B^-1 = sqrt(c) Ls is itself
    a formula, (B^-1)_ij = exp(-(w_i - w_j)/b) / B_jj for i >= j, and
    ``blocks`` holds its diagonal blocks of ``_FACTOR_BLOCK`` rows, each the
    inverse of B's block.  A solve with B or B' runs block by block, each
    block's right-hand side corrected by the one subdiagonal entry that
    couples it to the block solved before it: O(m) values are kept, and the
    work is matrix products of ``_FACTOR_BLOCK`` rows.
    """

    order: np.ndarray = field(repr=False)
    band: np.ndarray = field(repr=False)
    blocks: np.ndarray = field(repr=False)

    def _factor_l(self, m: np.ndarray) -> np.ndarray:
        # B^-1 x forward by blocks: row i of it reads rows up to i.  The copy is
        # C-ordered, so each block's rows are contiguous: for F-ordered 2000 x 2000
        # eigenvectors that took the product from 249 ms to 84 ms
        x = np.array(m, dtype=float, order="C")
        sub = self.band[1]
        for start, stop, inverse in self._diagonal_blocks():
            if start:
                x[start] -= sub[start - 1] * x[start - 1]
            x[start:stop] = inverse @ x[start:stop]
        out = np.empty_like(x)
        out[self.order] = x
        return out

    def _factor_t(self, x: np.ndarray) -> None:
        """x := B^-T x in place, backward by blocks; row i of B^-T x reads rows from i on."""
        sub = self.band[1]
        m = x.shape[0]
        for start, stop, inverse in reversed(list(self._diagonal_blocks())):
            if stop < m:
                x[stop - 1] -= sub[stop - 1] * x[stop]
            x[start:stop] = inverse.T @ x[start:stop]

    def _diagonal_blocks(self):
        """(start, stop, inverse of B[start:stop, start:stop]) for each diagonal block, first to last."""
        m = self.band.shape[1]
        for start, inverse in zip(range(0, m, _FACTOR_BLOCK), self.blocks):
            stop = min(start + _FACTOR_BLOCK, m)
            yield start, stop, inverse[: stop - start, : stop - start]


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


def _bidiagonal(rows: np.ndarray, spec: KernelSpec, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(order, band, blocks) of the closed-form factor on a scalar instrument's m distinct values.

    None where two values nearly tie: 1 - a_i^2 are the Cholesky pivots of K
    in sorted order, so this is the relative pivot screen of
    :func:`_attempt_cholesky`.  ``blocks`` stacks the inverses of B's
    diagonal blocks, the last one padded to ``_FACTOR_BLOCK`` rows.
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
    count = -(-m // _FACTOR_BLOCK)
    padded = np.zeros((2, count * _FACTOR_BLOCK))
    padded[0, :m] = rows[order, 0] / b
    padded[0, m:] = padded[0, m - 1]
    padded[1] = 1.0
    padded[1, :m] = band[0]
    points, diag = padded.reshape(2, count, _FACTOR_BLOCK)
    # exp(-(w_i - w_j)/b) / B_jj on and below the diagonal, 0 above it, where
    # w_i < w_j and the clipped exponent keeps exp from overflowing
    blocks = np.subtract(points[:, :, None], points[:, None, :])
    np.maximum(blocks, 0.0, out=blocks)
    np.negative(blocks, out=blocks)
    np.exp(blocks, out=blocks)
    blocks *= np.tri(_FACTOR_BLOCK)
    blocks /= diag[:, None, :]
    return order, band, blocks


def _tie_groups(w: np.ndarray) -> tuple[np.ndarray, _Groups | None]:
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
    rows, groups = _tie_groups(w)
    scalar = _bidiagonal(rows, spec, n) if w.shape[1] == 1 else None
    if scalar is not None:
        order, band, blocks = scalar
        return _BidiagonalWeightMatrix(w=w, jitter_applied=0.0, groups=groups, order=order, band=band,
                                       blocks=blocks)
    values = _pairwise_weights(rows, spec, n)
    base, tau = values.trace() / rows.shape[0], 0.0
    while tau <= JITTER_CAP * (1.0 + _JITTER_CAP_RTOL):
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
