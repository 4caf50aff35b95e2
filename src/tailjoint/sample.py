"""Multivariate sample container, ranks, order statistics and CSV I/O."""

from __future__ import annotations

import csv
import datetime as dt
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, IngestionError, LevelError


@dataclass(frozen=True, eq=False)
class MultivariateSample:
    """An n x d panel of real observations with column labels.

    Dates, when present, are per-row metadata used by the weekly
    log-returns transform.

    The values are a read-only copy of the input.  The column-wise order
    statistics and ranks are computed from one stable argsort on first use;
    the tau-free sums of the LAWS estimating function (``_laws_sums``: the
    cumulative sums of the order statistics and the parts A and B of psi)
    from one cumulative sum on first use; and the marginal fit once per level
    tau (``marginal.estimate_margins``).  All are read-only and shared by
    every estimator that reads this sample.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    dates: tuple[dt.date, ...] | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise DomainError("sample values must be a 2-D array")
        n, d = values.shape
        if n < 4:
            raise DomainError(f"sample needs at least 4 observations, got {n}")
        if d < 1:
            raise DomainError("sample needs at least one column")
        if not np.all(np.isfinite(values)):
            raise DomainError("sample values must all be finite")
        labels = tuple(str(lbl) for lbl in self.labels)
        if len(labels) != d:
            raise DomainError(f"{len(labels)} labels for {d} columns")
        if len(set(labels)) != d:
            raise DomainError("column labels must be unique")
        if self.dates is not None and len(self.dates) != n:
            raise DomainError("date metadata length must match observation count")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.values[:, j]

    def scaled(self, c: float) -> "MultivariateSample":
        return MultivariateSample(self.values * c, self.labels, self.dates)

    def select(self, indices) -> "MultivariateSample":
        """Sub-sample of the given columns, preserving order.

        A column's order statistics, ranks and LAWS sums do not depend on the
        other columns, so the sub-sample slices this sample's instead of
        sorting and summing.
        """
        indices = list(indices)
        sub = MultivariateSample(
            self.values[:, indices],
            tuple(self.labels[j] for j in indices),
            self.dates,
        )
        # Fill the sub-sample's cached properties before first use.
        sub.__dict__["_order"] = self._order[indices]
        sub.__dict__["sorted_columns"] = _read_only(self.sorted_columns[indices])
        sub.__dict__["ranks"] = _read_only(self.ranks[:, indices])
        sub.__dict__["_laws_sums"] = tuple(
            _read_only(s[indices]) for s in self._laws_sums
        )
        return sub

    @cached_property
    def _order(self) -> np.ndarray:
        """Row order of each column, d x n, ties kept in input order."""
        return _column_order(self.values)

    @cached_property
    def _fits(self) -> dict:
        """Marginal fits by level tau, kept by ``marginal.estimate_margins``."""
        return {}

    @cached_property
    def sorted_columns(self) -> np.ndarray:
        """d x n array whose row j is column j sorted ascending (read-only)."""
        return _sorted_columns(self.values, self._order)

    @cached_property
    def ranks(self) -> np.ndarray:
        """n x d per-column ranks, 1 = smallest, stable tie-breaking by
        input order (read-only)."""
        return _column_ranks(self._order)

    @cached_property
    def _laws_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_sums_sorted`` of the sorted columns (read-only)."""
        return _sums_sorted(self.sorted_columns)

    @property
    def _stack(self) -> "_Stack":
        """This sample as a stack of one, for the stacked builders."""
        return _Stack(
            self.values[None], self._order[None], self.sorted_columns[None],
            self.ranks[None],
        )


class _Stack(NamedTuple):
    """B samples of one size n x d, stacked along a leading axis: the values
    (B, n, d), each column's row order and sorted values (B, d, n), and the
    ranks (B, n, d), all as ``MultivariateSample`` computes them.  A stack
    of one sample also serves B levels of it: the builders broadcast it
    against their (B, d) fit and (B, 1) level arrays."""

    values: np.ndarray
    order: np.ndarray
    sorted_columns: np.ndarray
    ranks: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[-2]


def _runs(values, b: int):
    """(value, entries) for each run of consecutive entries of a stack of b
    that share a per-entry value, such as a level tau: one value for every
    entry, or one per entry in a (b, 1) array.  entries is a slice, so a
    run's arrays are views."""
    v = np.broadcast_to(np.ravel(values), (b,)).tolist()
    lo = 0
    for hi in range(1, b + 1):
        if hi == b or v[hi] != v[lo]:
            yield v[lo], slice(lo, hi)
            lo = hi


def _stack_panels(values: np.ndarray) -> _Stack:
    """Sort and rank a (B, n, d) stack of panels with one argsort."""
    order = _column_order(values)
    return _Stack(values, order, _sorted_columns(values, order), _column_ranks(order))


def _column_order(values: np.ndarray) -> np.ndarray:
    """Row order of each column of (..., n, d) panels, as (..., d, n), ties
    kept in input order."""
    return np.argsort(np.swapaxes(values, -1, -2), axis=-1, kind="stable")


def _sorted_columns(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Each column of (..., n, d) panels sorted ascending, as (..., d, n)."""
    return _read_only(np.take_along_axis(np.swapaxes(values, -1, -2), order, axis=-1))


def _column_ranks(order: np.ndarray) -> np.ndarray:
    """(..., n, d) ranks, 1 = smallest, from the (..., d, n) row order."""
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return np.swapaxes(_read_only(ranks), -1, -2)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _sums_sorted(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tau-free parts of the LAWS estimating function of each ascending
    row of the 2-D array xs, as read-only arrays of its shape.

    With cum the cumulative sums of a row, and above and below the numbers
    of points strictly above and at or below position i, these are cum and

        A_i = (cum_n - cum_i) - above_i x_i,   B_i = cum_i - below_i x_i,

    so that psi_tau(x_i) = tau A_i + (1 - tau) B_i at every level tau.
    """
    n = xs.shape[1]
    cum = np.cumsum(xs, axis=1)
    below = np.arange(1, n + 1)
    above = n - below
    a = (cum[:, -1:] - cum) - above * xs
    b = cum - below * xs
    return _read_only(cum), _read_only(a), _read_only(b)


def effective_k(n: int, tau):
    """floor(n(1-tau)) with a guard against floating-point droop: an int for
    a level tau, an integer array for an array of levels."""
    k = np.floor(n * (1.0 - np.asarray(tau, dtype=float)) + 1e-9).astype(np.int64)
    return k if k.ndim else int(k)


def tau_from_k(n: int, k: int) -> float:
    return 1.0 - k / n


@dataclass(frozen=True)
class TailLevelPair:
    """Intermediate level tau, extreme level tau_prime, and derived sizes."""

    tau: float
    tau_prime: float
    n: int

    def __post_init__(self):
        if not 0.0 < self.tau < self.tau_prime < 1.0:
            raise LevelError(
                f"levels must satisfy 0 < tau < tau_prime < 1, "
                f"got tau={self.tau}, tau_prime={self.tau_prime}"
            )
        k = effective_k(self.n, self.tau)
        if not 2 <= k <= self.n - 1:
            raise LevelError(f"effective size k={k} outside [2, n-1] for n={self.n}")

    @property
    def k(self) -> int:
        return effective_k(self.n, self.tau)

    @property
    def log_dn(self) -> float:
        return math.log((1.0 - self.tau) / (1.0 - self.tau_prime))


def ingest_csv(path, has_date_column: bool = False) -> MultivariateSample:
    """Read a comma-separated file with a header row into a sample.

    Well-formed files are parsed in one bulk conversion; only when that
    fails is the file walked cell by cell to name the first bad cell.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        rows = list(reader)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    start = 1 if has_date_column else 0
    labels = tuple(h.strip() for h in header[start:])
    width = len(header)
    try:
        if any(len(row) != width for row in rows):
            raise ValueError("ragged rows")
        dates = (
            tuple(dt.date.fromisoformat(row[0].strip()) for row in rows)
            if has_date_column
            else None
        )
        # float() semantics per cell, as in the walk below.
        values = np.array([row[start:] for row in rows], dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite value")
    except ValueError as exc:
        _raise_first_bad_cell(path, rows, width, start, has_date_column)
        raise IngestionError(f"{path}: {exc}") from exc
    return MultivariateSample(values, labels, dates=dates)


def _raise_first_bad_cell(path, rows, width: int, start: int, has_date_column: bool):
    """Raise IngestionError naming the first bad row or cell in file order."""
    for i, row in enumerate(rows):
        if len(row) != width:
            raise IngestionError(
                f"{path}: row {i + 2} has {len(row)} cells, expected {width}"
            )
        if has_date_column:
            try:
                dt.date.fromisoformat(row[0].strip())
            except ValueError:
                raise IngestionError(
                    f"{path}: row {i + 2}, column 1: bad date {row[0]!r}"
                ) from None
        for c, cell in enumerate(row[start:]):
            text = cell.strip()
            if not text:
                raise IngestionError(
                    f"{path}: row {i + 2}, column {start + c + 1}: missing value"
                )
            try:
                value = float(text)
            except ValueError:
                raise IngestionError(
                    f"{path}: row {i + 2}, column {start + c + 1}: "
                    f"unparsable number {text!r}"
                ) from None
            if not math.isfinite(value):
                raise IngestionError(
                    f"{path}: row {i + 2}, column {start + c + 1}: non-finite value"
                )


def emit_csv(sample: MultivariateSample, path) -> None:
    """Write a sample back to CSV with 17 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if sample.dates is not None:
            writer.writerow(("date",) + sample.labels)
            for date, row in zip(sample.dates, sample.values):
                writer.writerow([date.isoformat()] + [format(x, ".17g") for x in row])
        else:
            writer.writerow(sample.labels)
            for row in sample.values:
                writer.writerow([format(x, ".17g") for x in row])


def to_negative_weekly_log_returns(prices: MultivariateSample) -> MultivariateSample:
    """Resample to the last observation per ISO week, emit -log(P_t/P_{t-1}).

    Weeks with no observations are skipped; returns are then taken between
    consecutive observed weeks.
    """
    if prices.dates is None:
        raise DomainError("weekly returns require date metadata")
    dates = prices.dates
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise DomainError("dates must be strictly increasing")
    if np.any(prices.values <= 0.0):
        raise DomainError("all prices must be positive")
    week_last: dict[tuple[int, int], int] = {}
    for i, date in enumerate(dates):
        iso = date.isocalendar()
        week_last[(iso[0], iso[1])] = i
    idx = sorted(week_last.values())
    if len(idx) < 2:
        raise DomainError("need at least two observed weeks")
    levels = prices.values[idx]
    returns = -np.diff(np.log(levels), axis=0)
    return MultivariateSample(
        returns,
        prices.labels,
        dates=tuple(dates[i] for i in idx[1:]),
    )
