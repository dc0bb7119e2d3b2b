"""Tabular data model, CSV ingestion, and design-matrix assembly.

A :class:`Dataset` is an immutable rectangular block of finite floats with
named columns.  Column roles (outcome, error-prone exposure replicates,
covariates) are declared separately in an :class:`AnalysisSpec` so the same
table can back several analyses.  Missing or non-numeric cells are rejected
at load time; none of the estimators here tolerate incomplete data.
"""

from __future__ import annotations

import csv
import io
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .util import column_names


@dataclass(frozen=True)
class AnalysisSpec:
    """Column roles for one analysis.

    ``exposure_replicates`` lists the error-prone measurements of the same
    underlying exposure, in order; analyses that use a single measurement take
    the first entry.  ``covariates`` may be empty.  Both hold ``str`` names
    (see :func:`~mecalib.util.column_names`).
    """

    outcome: str
    exposure_replicates: tuple[str, ...]
    covariates: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("exposure_replicates", "covariates"):
            object.__setattr__(self, name, column_names(name, getattr(self, name)))
        if not self.exposure_replicates:
            raise ValueError("exposure_replicates must name at least one column")
        roles = (self.outcome, *self.exposure_replicates, *self.covariates)
        seen = set()
        for name in roles:
            if name in seen:
                raise ValueError(f"column {name!r} assigned to more than one role")
            seen.add(name)

    @property
    def exposure(self) -> str:
        """The analysis exposure: the first replicate column."""
        return self.exposure_replicates[0]

    @property
    def n_replicates(self) -> int:
        return len(self.exposure_replicates)

    def all_columns(self) -> tuple[str, ...]:
        return (self.outcome, *self.exposure_replicates, *self.covariates)


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric table with named columns.

    Invariants enforced at construction: a 2-D float matrix with at least one
    row, every value finite, one unique ``str`` name per column.  The value
    buffer is marked read-only, so instances are safe to share across workers.
    """

    column_names: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        names = column_names("column_names", self.column_names)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError(f"values must be a 2-D matrix, got ndim={values.ndim}")
        if values.shape[0] < 1:
            raise DataError("dataset must contain at least one row")
        if values.shape[1] != len(names):
            raise DataError(
                f"{len(names)} column names for {values.shape[1]} columns of data"
            )
        if len(set(names)) != len(names):
            raise DataError("duplicate column names")
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise DataError(
                f"non-finite value in row {bad[0] + 1}, column {names[bad[1]]!r}"
            )
        if values.flags.writeable:
            values = values.copy()  # never freeze a buffer the caller still owns
            values.setflags(write=False)
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise DataError(f"column not found: {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column."""
        return self.values[:, self.column_index(name)]

    def columns(self, names) -> np.ndarray:
        """Read-only n_rows x len(names) block in the requested order."""
        idx = [self.column_index(n) for n in names]
        return self.values[:, idx]

    def take_rows(self, indices) -> "Dataset":
        """New Dataset holding the given rows (repeats allowed, order kept).

        Rows of a valid Dataset are valid, so only the indices' shape is checked.
        """
        values = np.take(self.values, np.asarray(indices, dtype=np.intp), axis=0)
        if values.ndim != 2 or values.shape[0] < 1:
            raise DataError("take_rows needs a nonempty 1-D sequence of row indices")
        values.setflags(write=False)  # a fresh array: no defensive copy needed
        rows = object.__new__(Dataset)
        object.__setattr__(rows, "column_names", self.column_names)
        object.__setattr__(rows, "values", values)
        return rows


def _parse_cell(cell: str, row: int, name: str) -> float:
    text = cell.strip()
    if not text:
        raise DataError(f"empty cell in row {row}, column {name!r}")
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"cannot parse {cell!r} as a number in row {row}, column {name!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"non-finite value {cell!r} in row {row}, column {name!r}")
    return value


def _loadtxt_rows(handle, width: int) -> np.ndarray | None:
    """The data rows by NumPy's C parser, or None where the per-cell parse must decide."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty body warns
            values = np.loadtxt(handle, delimiter=",", comments=None, quotechar=None,
                                dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    if values.shape[0] < 1 or values.shape[1] != width or not np.isfinite(values).all():
        return None
    values.setflags(write=False)  # a fresh array: no defensive copy needed
    return values


# The last body that loaded: (text encoding, file bytes, its read-only values).
# Only a load that succeeds sets it; a load of the same bytes reuses the values.
_last_body: tuple[str, bytes, np.ndarray] | None = None


def load_csv(path: str | os.PathLike, spec: AnalysisSpec) -> Dataset:
    """Load a comma-separated file and validate it against ``spec``.

    The first line must be a header; every body cell must parse as a finite
    decimal number.  Row numbers in error messages are 1-based over data rows
    (the header is row 0).  NumPy's C parser reads the body; a body it refuses
    or reads to a non-finite value, the wrong width or no rows is parsed again
    cell by cell (``csv`` and ``float``), which loads it or names the first bad
    cell, so both parsers give the same values bit for bit or the same error.

    The file is read once.  The body of the last load that succeeded is kept
    in memory with the file's bytes: a load of the same bytes in the same text
    encoding reuses its values instead of parsing them, and checks the header
    and the spec as a parse does.  Nothing is written to disk.

    Raises
    ------
    FileNotFoundError
        If ``path`` does not exist.
    DataError
        Duplicate or missing header names, ragged rows, empty or
        non-numeric cells, or a field the csv module refuses.
    """
    global _last_body
    with open(path, "rb") as source:
        body = source.read()
    handle = io.TextIOWrapper(io.BytesIO(body), newline="")  # decoded as open() would
    reader = csv.reader(handle)
    try:
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        if len(set(header)) != len(header):
            dupes = sorted({n for n in header if header.count(n) > 1})
            raise DataError(f"duplicate header names: {', '.join(dupes)}")
        last = _last_body
        if last is not None and last[0] == handle.encoding and last[1] == body:
            values = last[2]  # bytes compare by length, then memcmp
        else:
            values = _loadtxt_rows(handle, len(header))
        if values is None:  # parse cell by cell: load the file or name the first bad cell
            handle.seek(0)
            next(reader)
            rows: list[list[float]] = []
            for i, raw in enumerate(reader, start=1):
                if not raw:
                    continue
                if len(raw) != len(header):
                    raise DataError(f"row {i} has {len(raw)} cells, header has {len(header)}")
                rows.append([_parse_cell(c, i, header[j]) for j, c in enumerate(raw)])
            if not rows:
                raise DataError(f"{path}: no data rows")
            values = np.asarray(rows, dtype=np.float64)
    except csv.Error as exc:  # a field over the csv module's size limit, say
        raise DataError(f"{path}: {exc}") from None
    data = Dataset(tuple(header), values)
    for name in spec.all_columns():
        data.column_index(name)
    _last_body = (handle.encoding, body, data.values)
    return data


def design_matrix(data: Dataset, exposure_col: str | None, covariates=()) -> np.ndarray:
    """Assemble the outcome-model design matrix [1, exposure, covariates...].

    Column order is fixed: intercept, then the exposure, then the covariates
    in the declared order.  ``exposure_col=None`` leaves the exposure out,
    which gives the calibration model's [1, covariates...].  Pure
    construction: rank and sample-size checks happen at fit time.
    """
    names = ((exposure_col,) if exposure_col is not None else ()) + tuple(covariates)
    X = np.ones((data.n_rows, 1 + len(names)))
    for j, name in enumerate(names, start=1):
        X[:, j] = data.column(name)
    return X
