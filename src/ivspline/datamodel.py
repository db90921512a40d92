"""Core data containers, CSV ingestion, and instrument standardization.

A :class:`Dataset` bundles the outcome ``y``, the endogenous regressor ``z``,
and the instrument matrix ``w``.  All downstream modules treat it as
immutable, so one dataset can back many concurrent fits.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInstrumentError, ParseError, SchemaError, SizeError

MIN_ROWS = 3


def _as_readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Outcome vector, endogenous regressor, and n x p instrument matrix.

    Rows are observations and keep their input order.  ``z`` need not be
    sorted and may contain ties.  Duplicated instrument rows are legal: they
    make the instrument weight matrix singular, so the solver works on the
    distinct rows (see :mod:`ivspline.kernel`).
    """

    y: np.ndarray
    z: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        y = _as_readonly(np.asarray(self.y, dtype=float).reshape(-1))
        z = _as_readonly(np.asarray(self.z, dtype=float).reshape(-1))
        w = np.asarray(self.w, dtype=float)
        if w.ndim == 1:
            w = w.reshape(-1, 1)
        if w.ndim != 2:
            raise SizeError("instrument array must be a vector or a 2-D matrix")
        w = _as_readonly(w)
        if not (y.shape[0] == z.shape[0] == w.shape[0]):
            raise SizeError(
                f"row mismatch: y has {y.shape[0]}, z has {z.shape[0]}, w has {w.shape[0]}"
            )
        if y.shape[0] < MIN_ROWS:
            raise SizeError(f"need at least {MIN_ROWS} rows, got {y.shape[0]}")
        for name, arr in (("y", y), ("z", z), ("w", w)):
            if not np.all(np.isfinite(arr)):
                raise ParseError(f"non-finite entries in {name}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.w.shape[1]


def standardize_instruments(w: np.ndarray) -> np.ndarray:
    """Center each instrument column and divide by its (n-1)-divisor standard deviation.

    Returns the standardized n x p array, read-only.

    Centering is cosmetic for the weight function, which only sees pairwise
    differences, but improves the conditioning of the weight matrix; the
    scaling is what delivers scale invariance of the criterion.

    Raises
    ------
    SizeError
        If there are fewer than two rows.
    DegenerateInstrumentError
        If a column is constant, so no dispersion measure exists.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w.reshape(-1, 1)
    if w.shape[0] < 2:
        raise SizeError("standardization needs at least two rows")
    centers = w.mean(axis=0)
    scales = w.std(axis=0, ddof=1)
    bad = np.flatnonzero(scales == 0.0)
    if bad.size:
        raise DegenerateInstrumentError(
            f"instrument column {bad[0]} is constant; drop it or supply a varying instrument"
        )
    out = (w - centers) / scales
    out.setflags(write=False)
    return out


def _parse_cell(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"cannot parse {text!r} in column {column!r} at data row {row}",
            row=row,
            column=column,
        ) from None
    if not np.isfinite(value):
        raise ParseError(
            f"non-finite value {text!r} in column {column!r} at data row {row}",
            row=row,
            column=column,
        )
    return value


def load_csv(path, y: str, z: str, w) -> Dataset:
    """Read a UTF-8 (byte-order mark optional), comma-separated, headed CSV into a :class:`Dataset`.

    Parameters
    ----------
    path : str or path-like
        File to read.  Decimal points, no thousands separators.
    y, z : str
        Header names of the outcome and endogenous regressor columns.
    w : str or sequence of str
        Header name(s) of the instrument column(s).

    Data rows are numbered from 1 in error messages.  A requested name
    that is missing from the header, or appears in it more than once,
    raises :class:`SchemaError`.
    """
    w_names = [w] if isinstance(w, str) else list(w)
    if not w_names:
        raise SchemaError("at least one instrument column is required")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        index = {}
        for name in [y, z, *w_names]:
            if name not in header:
                raise SchemaError(f"{path}: missing column {name!r}")
            if header.count(name) > 1:
                raise SchemaError(
                    f"{path}: column {name!r} appears {header.count(name)} times in the header"
                )
            index[name] = header.index(name)
        ys, zs, ws = [], [], []
        for row_number, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < len(header):
                raise ParseError(
                    f"{path}: data row {row_number} has {len(row)} cells, header has {len(header)}",
                    row=row_number,
                )
            ys.append(_parse_cell(row[index[y]], row_number, y))
            zs.append(_parse_cell(row[index[z]], row_number, z))
            ws.append([_parse_cell(row[index[name]], row_number, name) for name in w_names])
    if len(ys) < MIN_ROWS:
        raise SizeError(f"{path}: need at least {MIN_ROWS} data rows, got {len(ys)}")
    return Dataset(y=np.array(ys), z=np.array(zs), w=np.array(ws))


def write_csv(ds: Dataset, path, y: str = "y", z: str = "z", w_names=None) -> None:
    """Write a dataset back to CSV with 17-significant-digit reals (lossless round trip)."""
    if w_names is None:
        w_names = [f"w{k + 1}" for k in range(ds.p)]
    if len(w_names) != ds.p:
        raise SchemaError(f"expected {ds.p} instrument names, got {len(w_names)}")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([y, z, *w_names])
        for i in range(ds.n):
            writer.writerow(
                [format(ds.y[i], ".17g"), format(ds.z[i], ".17g")]
                + [format(v, ".17g") for v in ds.w[i]]
            )
