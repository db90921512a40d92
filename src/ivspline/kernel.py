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
Omega = G Omegabar G', where Omegabar is the same weight on the distinct rows.
The factor is then L = G Lbar with Lbar Lbar' = Omegabar, an n x r matrix
held as the row-to-group map and Lbar; without ties G = I and the map is
absent.  For a scalar instrument Omegabar is an Ornstein-Uhlenbeck
covariance, whose Cholesky factor in sorted order is a formula with a
bidiagonal inverse; when the distinct values pass the pivot screen, Lbar is
applied through that formula by blocks, in O(m) storage, and r = m.  Several
instruments, or nearly tied values, keep only the pivoted Cholesky factor of
Omegabar, which stops at its numerical rank r: Lbar is m x r, and near ties
that leave Omegabar numerically singular lower r instead of being perturbed
away.  Omega^-1 is never formed on either route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .datamodel import _checked, standardize_instruments
from .spline import _CUBIC_BLOCK, _radial, _radial_design

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

    def sum(self, m: np.ndarray) -> np.ndarray:
        """G'm: the rows of m summed within each group."""
        return np.add.reduceat(m[self.order], self.starts, axis=0)

    def expand(self, m: np.ndarray) -> np.ndarray:
        """Gm: row g of m for every member of group g."""
        return m[self.index]


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric positive-semidefinite matrix Omega with entries n^-2 omega(W_i - W_j).

    Held as the (standardized) instrument ``w``, the map ``groups`` of tied
    rows (None when every row is distinct) and a factor Lbar with Lbar Lbar'
    = Omegabar on the m distinct rows, of ``rank`` r columns, whose
    representation is a subclass's: its ``order`` P (the permutation of the
    distinct rows its factor works in, Lbar' = T'P), ``_factor_t`` (T'x in
    place on x's first r rows) and ``_factor_l`` (Lbar m).  The rest of the
    package reads only ``n``, ``m``, ``rank`` and the operations
    ``_apply_lt`` (L'm, n rows in, r out), ``_apply_l`` (Lm, r rows in, n
    out), ``_congruence`` (L'EL for the cubic design E) and ``_quadratic``
    (columnwise r' Omega r = ||L'r||^2), with L = G Lbar; neither the dense
    n x n matrix nor an inverse is ever formed.
    """

    w: np.ndarray = field(repr=False)
    groups: _Groups | None = field(default=None, repr=False, kw_only=True)

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def m(self) -> int:
        """The number of distinct instrument rows, the order of Omegabar (n without ties)."""
        return self.order.shape[0]

    def _apply_lt(self, m: np.ndarray) -> np.ndarray:
        """L'm = T' P G'm, r rows: G'm (a copy of m without ties) in ``order``, T' in place."""
        x = m if self.groups is None else self.groups.sum(m)
        x = np.asarray(x, dtype=float)[self.order]
        self._factor_t(x)
        return x[: self.rank]

    def _apply_l(self, m: np.ndarray) -> np.ndarray:
        """Lm = G Lbar m, one row per observation."""
        lm = self._factor_l(m)
        return lm if self.groups is None else self.groups.expand(lm)

    def _quadratic(self, r: np.ndarray) -> np.ndarray:
        """r' Omega r for a vector, or for each column of a matrix, as ||L'r||^2."""
        lt = self._apply_lt(r)
        return np.einsum("i...,i...->...", lt, lt)

    def _congruence(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """L'EL written into the r x r array ``out`` (any layout), E the cubic design of knots z.

        P G'EG P' is written first: without ties E in sorted order by row
        blocks, with them G'E a block of columns at a time.  The factor's T'
        is then applied in place to the rows and to the first r rows'
        columns, so no other m x m or n x n array is made when r = m (with
        ties, one m x n array of group sums); below full rank P G'EG P' is
        written into one m x m scratch array.  ``out`` is L'EL up to
        roundoff, not exactly symmetric.
        """
        groups, m = self.groups, self.m
        full = out if out.shape[0] == m else np.empty((m, m))
        if groups is None:
            _radial_design(z[self.order], 0, full)
        else:
            n = z.shape[0]
            grouped_z = z[groups.order]
            sums = np.empty((m, n))
            for start in range(0, n, _CUBIC_BLOCK):
                stop = start + _CUBIC_BLOCK
                columns = _radial(grouped_z, z[start:stop], 0)
                sums[:, start:stop] = np.add.reduceat(columns, groups.starts, axis=0)
            sums = groups.sum(sums.T)
            full[...] = sums[np.ix_(self.order, self.order)]
        self._factor_t(full)
        self._factor_t(full[: self.rank].T)
        if full is not out:
            out[...] = full[: self.rank, : self.rank]
        return out


@dataclass(frozen=True)
class _DenseWeightMatrix(WeightMatrix):
    """Omegabar = P'T T'P through its pivoted Cholesky factor: any instrument dimension, near ties included.

    ``order`` holds the pivot order P and ``chol`` the m x r lower-trapezoidal
    T, r the numerical rank at which the factorization stopped.
    """

    order: np.ndarray = field(repr=False)
    chol: np.ndarray = field(repr=False)

    @property
    def rank(self) -> int:
        return self.chol.shape[1]

    def _factor_l(self, m: np.ndarray) -> np.ndarray:
        """P'T m: dtrmm with T's leading r x r triangle (read as its F-ordered transpose), a product for rows r on."""
        cols = m.reshape(m.shape[0], -1)
        r = self.rank
        out = np.empty((self.chol.shape[0], cols.shape[1]))
        out[self.order[:r]] = blas.dtrmm(1.0, self.chol[:r].T, cols, lower=0, trans_a=1)
        out[self.order[r:]] = self.chol[r:] @ cols
        return out.reshape((-1,) + m.shape[1:])

    def _factor_t(self, x: np.ndarray) -> None:
        """x[:r] := T' x in place, forward by blocks; row block i of T' x reads rows from the block's start on."""
        r = self.rank
        for start in range(0, r, _DENSE_BLOCK):
            stop = min(start + _DENSE_BLOCK, r)
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
    ``blocks`` holds its diagonal blocks of ``_FACTOR_BLOCK`` rows (the last
    one the rows that remain), each the inverse of B's block.  A solve with B
    or B' runs block by block, each block's right-hand side corrected by the
    one subdiagonal entry that couples it to the block solved before it: O(m)
    values are kept, and the work is matrix products of ``_FACTOR_BLOCK`` rows.
    """

    order: np.ndarray = field(repr=False)
    band: np.ndarray = field(repr=False)
    blocks: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def rank(self) -> int:
        return self.band.shape[1]

    def _factor_l(self, m: np.ndarray) -> np.ndarray:
        # B^-1 x forward by blocks: row i of it reads rows up to i.  The copy is
        # C-ordered, so each block's rows are contiguous: for F-ordered 2000 x 2000
        # eigenvectors that took the product from 249 ms to 84 ms
        x = np.array(m, dtype=float, order="C")
        sub = self.band[1]
        for start, inverse in zip(range(0, self.rank, _FACTOR_BLOCK), self.blocks):
            if start:
                x[start] -= sub[start - 1] * x[start - 1]
            x[start : start + _FACTOR_BLOCK] = inverse @ x[start : start + _FACTOR_BLOCK]
        out = np.empty_like(x)
        out[self.order] = x
        return out

    def _factor_t(self, x: np.ndarray) -> None:
        """x := B^-T x in place, backward by blocks; row i of B^-T x reads rows from i on."""
        sub = self.band[1]
        for start, inverse in zip(reversed(range(0, self.rank, _FACTOR_BLOCK)), reversed(self.blocks)):
            x[start : start + _FACTOR_BLOCK] = inverse.T @ x[start : start + _FACTOR_BLOCK]
            if start:
                x[start - 1] -= sub[start - 1] * x[start]


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


def _bidiagonal(rows: np.ndarray, spec: KernelSpec, n: int) -> tuple[np.ndarray, np.ndarray, tuple] | None:
    """(order, band, blocks) of the closed-form factor on a scalar instrument's m distinct values.

    None where two values nearly tie: 1 - a_i^2 are the Cholesky pivots of K
    in sorted order, so this is the rank test of the dense route's pivoted
    Cholesky factorization (a pivot at most m eps times the largest diagonal
    entry ends it).  ``blocks`` holds the inverses of B's diagonal blocks, one
    array each.
    """
    m = rows.shape[0]
    b = spec.scale
    order = np.argsort(rows[:, 0], kind="stable")
    points = rows[order, 0]
    gaps = np.diff(points)
    pivots = -np.expm1(-2.0 * gaps / b)
    if not np.all(pivots > m * np.finfo(float).eps):
        return None
    s = np.sqrt(pivots)
    band = np.zeros((2, m))
    band[0, 0] = 1.0
    band[0, 1:] = 1.0 / s
    band[1, :-1] = -np.exp(-gaps / b) / s
    band *= n * np.sqrt(2.0 * b)  # 1/sqrt(c)
    # exp(-(w_i - w_j)/b) / B_jj on and below the diagonal, 0 above it, where
    # w_i < w_j and the clipped exponent keeps exp from overflowing
    edges = range(_FACTOR_BLOCK, m, _FACTOR_BLOCK)
    blocks = tuple(np.tril(np.exp(-np.maximum(np.subtract.outer(x, x), 0.0))) / diag
                   for x, diag in zip(np.split(points / b, edges), np.split(band[0], edges)))
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
    closed-form bidiagonal factor.  Otherwise the dense m x m matrix is
    factored in place by LAPACK's pivoted Cholesky (dpstrf, Higham 2002,
    Accuracy and Stability of Numerical Algorithms, sec. 10.3), which stops
    once every remaining pivot is at most m eps times the largest diagonal
    entry; only the m x r factor at that numerical rank r is kept.
    """
    w = _checked(w, "w", matrix=True)
    n = w.shape[0]
    if spec.standardize and n >= 2:
        w = standardize_instruments(w)
    rows, groups = _tie_groups(w)
    scalar = _bidiagonal(rows, spec, n) if w.shape[1] == 1 else None
    if scalar is not None:
        order, band, blocks = scalar
        return _BidiagonalWeightMatrix(w=w, groups=groups, order=order, band=band, blocks=blocks)
    # dpstrf overwrites the F-ordered transpose in place; its upper U = T' read in C
    # order is T (at m = 2000, one BLAS thread: 113 ms as for dpotrf, 140 ms lower).
    # The cutoff is the closed form's pivot screen; dpstrf's default takes eps as 2^-53
    values = _pairwise_weights(rows, spec, n)
    tol = rows.shape[0] * np.finfo(float).eps * values.diagonal().max()
    factor, pivots, rank, _ = lapack.dpstrf(values.T, tol=tol, lower=0, overwrite_a=1)
    # copy the r columns out below full rank, so the m x m array is freed
    chol = factor.T if rank == factor.shape[0] else np.ascontiguousarray(factor[:rank].T)
    for j in range(rank - 1):  # dpstrf leaves the other triangle as it found it
        chol[j, j + 1 :] = 0.0
    return _DenseWeightMatrix(w=w, groups=groups, order=pivots - 1, chol=chol)


def moment_criterion(residuals: np.ndarray, omega: WeightMatrix) -> float:
    """V-statistic r' Omega r measuring violation of the instrument moment conditions.

    Computed as ||L'r||^2 with Omega = L L', so it is never negative.
    """
    r = _checked(residuals, "residuals")
    if r.shape[0] != omega.n:
        raise ValueError(f"residual length {r.shape[0]} != matrix order {omega.n}")
    return float(omega._quadratic(r))
