"""Core data containers, the package's one CSV format, and instrument standardization.

A :class:`Dataset` bundles the outcome ``y``, the endogenous regressor ``z``,
and the instrument matrix ``w``.  All downstream modules treat it as
immutable, so one dataset can back many concurrent fits.

Every table the package reads or writes (datasets, curve files, Monte Carlo
reports) goes through one reader, :func:`_read_columns`, and one writer,
:func:`_write_table`, so the CSV format is decided here alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInstrumentError, ParseError, SchemaError, SizeError

MIN_ROWS = 3


def _checked(values, name: str, matrix: bool = False) -> np.ndarray:
    """A read-only float copy of ``values``: a vector, or with ``matrix`` an n x p matrix (a vector is one column).

    The raw-array entry points' one input check: SizeError for no rows, no
    columns or another rank (a scalar and an n x 1 column pass as vectors),
    ParseError for a NaN or inf entry.
    """
    a = np.array(values, dtype=float)
    if not matrix:
        if a.ndim > 2 or a.ndim == 2 and a.shape[1] != 1:
            raise SizeError(f"{name} must be a vector or a one-column matrix, got shape {a.shape}")
        a = a.reshape(-1)
    else:
        a = a.reshape(-1, 1) if a.ndim == 1 else a
        if a.ndim != 2 or a.shape[1] == 0:
            raise SizeError(f"{name} must be a vector or a 2-D matrix of at least one column")
    if a.shape[0] == 0:
        raise SizeError(f"{name} has no rows")
    if not np.isfinite(a).all():
        raise ParseError(f"non-finite entries in {name}")
    a.setflags(write=False)
    return a


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
        for name in ("y", "z", "w"):
            object.__setattr__(self, name, _checked(getattr(self, name), name, matrix=name == "w"))
        if not (self.n == self.z.shape[0] == self.w.shape[0]):
            raise SizeError(
                f"row mismatch: y has {self.n}, z has {self.z.shape[0]}, w has {self.w.shape[0]}"
            )
        if self.n < MIN_ROWS:
            raise SizeError(f"need at least {MIN_ROWS} rows, got {self.n}")

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
        If there are fewer than two rows, or no columns.
    ParseError
        If an entry is NaN or infinite.
    DegenerateInstrumentError
        If a column is constant, so no dispersion measure exists.
    """
    w = _checked(w, "w", matrix=True)
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


def _read_columns(path, names) -> list[np.ndarray]:
    """One float array per requested header name, from a headed CSV with the package's format.

    The format: UTF-8 (byte-order mark optional), comma-separated, a header
    row, columns found by name, blank rows skipped, every cell a finite real.
    Header cells and requested names are compared with surrounding spaces
    stripped.  A requested name that is missing from the header, or appears
    in it more than once, raises :class:`SchemaError`; a data row (numbered
    from 1) with fewer cells than the header, or a cell :func:`_parse_cell`
    rejects, raises :class:`ParseError`.
    """
    names = [name.strip() for name in names]
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected a header row") from None
        for name in names:
            if name not in header:
                raise SchemaError(f"{path}: missing column {name!r}")
            if header.count(name) > 1:
                raise SchemaError(f"{path}: column {name!r} appears {header.count(name)} times in the header")
        index = [header.index(name) for name in names]
        columns = [[] for _ in names]
        for row_number, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < len(header):
                raise ParseError(
                    f"{path}: data row {row_number} has {len(row)} cells, header has {len(header)}",
                    row=row_number,
                )
            for column, i, name in zip(columns, index, names):
                column.append(_parse_cell(row[i], row_number, name))
    return [np.array(column, dtype=float) for column in columns]


def _write_table(path, header, rows) -> None:
    """Write a headed CSV that :func:`_read_columns` reads back: UTF-8, CRLF line ends, minimal quoting.

    Reals are written with 17 significant digits, which read back exactly;
    string cells (a summary row's tag) are written as they are.  Callers pass
    Python floats (``ndarray.tolist()``): numpy scalars made the writer up
    to a third slower.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([cell if isinstance(cell, str) else format(cell, ".17g") for cell in row] for row in rows)


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
    ys, zs, *ws = _read_columns(path, [y, z, *w_names])
    if len(ys) < MIN_ROWS:
        raise SizeError(f"{path}: need at least {MIN_ROWS} data rows, got {len(ys)}")
    return Dataset(y=ys, z=zs, w=np.column_stack(ws))


def write_csv(ds: Dataset, path, y: str = "y", z: str = "z", w_names=None) -> None:
    """Write a dataset back to CSV with 17-significant-digit reals (lossless round trip).

    Raises :class:`SchemaError`, before the file is opened, if the number of
    instrument names is not the dataset's instrument count or a column name
    is repeated once surrounding spaces are stripped, as the reader strips them.
    """
    if w_names is None:
        w_names = [f"w{k + 1}" for k in range(ds.p)]
    if len(w_names) != ds.p:
        raise SchemaError(f"expected {ds.p} instrument names, got {len(w_names)}")
    header = [y, z, *w_names]
    stripped = [name.strip() for name in header]
    for name in stripped:
        if stripped.count(name) > 1:
            raise SchemaError(f"column {name!r} appears {stripped.count(name)} times in the header")
    _write_table(path, header, np.column_stack([ds.y, ds.z, ds.w]).tolist())
