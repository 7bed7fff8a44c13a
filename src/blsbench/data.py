"""Dataset loading, the CSV reader and writer, fold planning, and Gaussian
feature corruption."""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, DataFormatError

__all__ = [
    "Dataset",
    "FoldPlan",
    "load_csv",
    "read_csv",
    "write_csv",
    "make_folds",
    "inject_gaussian_noise",
    "check_seed",
]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix and string labels."""

    name: str
    X: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.X.shape[0] != len(self.labels):
            raise ConfigError(
                f"{len(self.labels)} labels for {self.X.shape[0]} rows"
            )
        if self.X.shape[0] < 2:
            raise ConfigError("a dataset needs at least 2 samples")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class FoldPlan:
    """Per-sample fold assignment: a 1-D integer array of values in [0, k)
    that leaves no fold empty. make_folds' fold sizes differ by at most one."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        k, a = _check_integer(self.k, 2, "k must be an integer >= 2"), self.assignments
        if not isinstance(a, np.ndarray) or a.ndim != 1 or a.dtype.kind not in "iu":
            got = f"{a.ndim}-D {a.dtype} array" if isinstance(a, np.ndarray) else type(a).__name__
            raise ConfigError(f"fold assignments must be a 1-D integer array, got a {got}")
        bad = a[(a < 0) | (a >= k)]
        if bad.size:
            raise ConfigError(f"fold assignments must lie in [0, {k}), got {bad[0]}")
        empty = np.flatnonzero(np.bincount(a.astype(np.intp), minlength=k) == 0)
        if empty.size:
            raise ConfigError(f"fold {empty[0]} of {k} has no rows")

    def test_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments == fold)[0]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.nonzero(self.assignments != fold)[0]


def read_csv(
    path, header: bool = True, text_column: Union[int, str, None] = None
) -> tuple[Optional[list[str]], np.ndarray, Optional[list[str]]]:
    """Parse a CSV of numbers with at most one text column.

    Returns (names, X, text): the stripped header cells (None when there is
    no header row), the float matrix of every other column, and the
    stripped cells of text_column (None when not requested). text_column
    may be a zero-based index in [-width, width) (negative counts from the
    end) or, with a header, a column name. Every row must be as wide as
    the header, or as the first row without one; a file may have no data
    rows. Every number must be finite. Errors are DataFormatError naming
    the file, row and column of the first bad row or cell in file order.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:  # its offset counts from a read buffer, not the file
        bad = exc.object[exc.start]
        raise DataFormatError(f"{path} is not UTF-8 text: byte {bad:#04x}: {exc.reason}") from None
    names = [c.strip() for c in rows.pop(0)] if header and rows else None
    text = None if text_column is None else []
    if not rows:
        return names, np.empty((0, 0)), text
    width = len(names) if names is not None else len(rows[0])
    if width == 0:
        raise DataFormatError(f"{path}: row 1 is empty")
    text_idx = text_column
    if isinstance(text_column, str):
        if names is None:
            raise DataFormatError(f"{path}: column name {text_column!r} needs a header row")
        if text_column not in names:
            raise DataFormatError(f"{path}: no column named {text_column!r}")
        text_idx = names.index(text_column)
    elif text_column is not None:
        if not -width <= text_column < width:
            raise DataFormatError(
                f"{path}: column index {text_column} is outside a {width}-column file"
            )
        text_idx = text_column % width
    values = []
    for r, row in enumerate(rows, start=2 if header else 1):
        if len(row) != width:
            raise DataFormatError(f"{path}: row {r} has {len(row)} cells, expected {width}")
        vals = []
        for c, cell in enumerate(row):
            if c == text_idx:
                text.append(cell.strip())
                continue
            try:
                v = float(cell)
            except ValueError:
                v = None
            # float() also parses "nan", "inf" and overflowing numbers such as "1e999".
            if v is None or not math.isfinite(v):
                col = names[c] if names else str(c)
                kind = "unparseable" if v is None else "non-finite"
                raise DataFormatError(f"{path}: {kind} cell {cell!r} at row {r}, column {col}")
            vals.append(v)
        values.append(vals)
    return names, np.array(values, dtype=np.float64), text


def write_csv(path, rows) -> None:
    """Write rows as UTF-8 CSV with "\\n" line endings and minimal quoting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def load_csv(path, label_column: Union[int, str] = -1, header: bool = True) -> Dataset:
    """Parse a numeric CSV with one label column into a Dataset named after
    the file's stem.

    label_column may be a zero-based index (negative counts from the end)
    or, when a header is present, a column name. A file without data rows
    or without a feature column, or with an empty label, raises
    DataFormatError.
    """
    names, X, labels = read_csv(path, header, label_column)
    if X.shape[0] == 0:
        raise DataFormatError(
            f"{path}: empty file" if names is None else f"{path}: no data rows after the header"
        )
    if X.shape[1] == 0:
        raise DataFormatError(f"{path}: no feature columns besides the label")
    if "" in labels:  # rows count from 1, the header included, as in read_csv
        row = labels.index("") + (2 if header else 1)
        raise DataFormatError(f"{path}: empty label at row {row}")
    return Dataset(name=Path(path).stem, X=X, labels=tuple(labels))


def _check_integer(value, least: int, message: str) -> int:
    """value as an int if it is an int (no bool) or numpy integer >= least, else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigError(f"{message}, got {value!r}")
    return int(value)


def check_seed(seed, name: str) -> int:
    """seed as an int; numpy seeds its generators from nonnegative integers only."""
    return _check_integer(seed, 0, f"{name} must be a nonnegative integer")


def _check_positive(value, name: str, zero: bool = False, rule: str = "",
                    most: float = math.inf) -> None:
    """Raise ConfigError unless value is a real (no bool) within float64's
    finite range, > 0, or >= 0 with zero, and at most most. The message says
    that name must be rule, by default positive, or nonnegative with zero."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value) and (value >= 0 if zero else value > 0)
              and value <= most)
    except OverflowError:  # math.isfinite of a real beyond float64, such as the int 10**400
        ok = False
    if not ok:
        rule = rule or ("nonnegative" if zero else "positive")
        raise ConfigError(f"{name} must be {rule}, got {value!r}")


def make_folds(n: int, k: int, seed: int) -> FoldPlan:
    """Deterministic shuffled round-robin fold assignment."""
    n = _check_integer(n, 0, "the sample count must be a nonnegative integer")
    k = _check_integer(k, 2, "k must be an integer >= 2")
    if k > n:
        raise ConfigError(f"k = {k} exceeds the sample count {n}")
    perm = np.random.default_rng(check_seed(seed, "fold seed")).permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    assignments[perm] = np.arange(n) % k
    return FoldPlan(k=k, assignments=assignments)


def inject_gaussian_noise(ds: Dataset, level: float, seed: int) -> Dataset:
    """Corrupt round(level% of N) rows with additive per-feature Gaussian noise.

    The noise sigma for feature f is the dataset-wide standard deviation
    of feature f, so corruption tracks each feature's natural scale.
    Unselected rows and all labels are untouched; the input dataset is
    never mutated.
    """
    _check_positive(level, "noise level", zero=True, rule="in [0, 100]", most=100.0)
    rng = np.random.default_rng(check_seed(seed, "noise seed"))
    n = ds.n_samples
    n_corrupt = int(round(level / 100.0 * n))
    X = ds.X.copy()
    if n_corrupt > 0:
        chosen = rng.choice(n, size=n_corrupt, replace=False)
        sigma = ds.X.std(axis=0)
        X[chosen] += rng.normal(0.0, 1.0, size=(n_corrupt, ds.n_features)) * sigma
    return Dataset(name=ds.name, X=X, labels=ds.labels)
