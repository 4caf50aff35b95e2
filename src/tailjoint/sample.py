"""Multivariate sample container, ranks, order statistics and CSV I/O."""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, IngestionError, LevelError


@dataclass(frozen=True, eq=False)
class MultivariateSample:
    """An n x d panel of real observations with column labels.

    Dates, when present, are per-row metadata used by the weekly
    log-returns transform.

    The values are a read-only copy of the input.  On first use the sample
    is sorted and ranked as a stack of one (``_stack``), by the
    ``_stack_panels`` that every Monte Carlo stack runs: one argsort of the
    values' column-major copy (``_column_order``: only a column with tied
    values is sorted again, stably), so its order statistics and ranks equal
    those of a stable argsort.  The marginal fit is computed once per level
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
        _check_margin(j, self.d)
        return self.values[:, j]

    def scaled(self, c: float) -> "MultivariateSample":
        return MultivariateSample(self.values * c, self.labels, self.dates)

    def select(self, indices) -> "MultivariateSample":
        """Sub-sample of the given columns, preserving order."""
        indices = list(indices)
        for j in indices:
            _check_margin(j, self.d)
        return MultivariateSample(
            self.values[:, indices],
            tuple(self.labels[j] for j in indices),
            self.dates,
        )

    @cached_property
    def _fits(self) -> dict:
        """Marginal fits by level tau, kept by ``marginal.estimate_margins``."""
        return {}

    @cached_property
    def _stack(self) -> "_Stack":
        """This sample as a stack of one (``_stack_panels``), for the stacked
        builders."""
        return _stack_panels(self.values[None])

    @cached_property
    def sorted_columns(self) -> np.ndarray:
        """d x n array whose row j is column j sorted ascending (read-only)."""
        return self._stack.sorted_columns[0]

    @cached_property
    def ranks(self) -> np.ndarray:
        """n x d per-column ranks, 1 = smallest, stable tie-breaking by
        input order (read-only)."""
        return self._stack.ranks[0].T

    def _group_stacks(self, m: int):
        """The groups of m evenly spaced margins of this sample as stacks, one
        per column offset s: the (B, m) margins (j, j + s, ...) of the
        stack's groups and their ``_Stack``.  So m = d gives the panel as a
        stack of one, and m = 2 every pair, in d - 1 stacks.

        The column-major rows are read-only strided views of this sample's,
        with no copy.  The row-major values, which the QB bias averages, are
        gathered, so that each group's mean sums its rows in the order that
        a ``select()`` of the group does (see ``covariance._bias_qb``).
        """
        rows = [a[0] for a in self._stack[1:]]
        for s in range(1, (self.d - 1) // (m - 1) + 1):
            span = (m - 1) * s + 1
            groups = np.arange(self.d - span + 1)[:, None] + s * np.arange(m)
            views = (
                sliding_window_view(a, span, axis=0)[..., ::s].swapaxes(-1, -2)
                for a in rows
            )
            yield groups, _Stack(self.values[:, groups].swapaxes(0, 1), *views)


class _Stack(NamedTuple):
    """B samples of one size n x d, stacked along a leading axis: the values
    (B, n, d), which the QB bias averages, and, column-major as (B, d, n)
    for the n-long work of the covariances, the values again, each column's
    row order, its sorted values and its ranks (``_stack_panels``)."""

    values: np.ndarray
    columns: np.ndarray
    order: np.ndarray
    sorted_columns: np.ndarray
    ranks: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[-2]


def _stack_panels(values: np.ndarray) -> _Stack:
    """Sort and rank a (B, n, d) stack of panels (``_column_order``)."""
    columns = _read_only(np.ascontiguousarray(np.swapaxes(values, -1, -2)))
    order, sorted_columns = _column_order(columns)
    return _Stack(values, columns, order, sorted_columns, _column_ranks(order))


def _column_order(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row order of each row of (..., d, n) columns, ties kept in input
    order, and the row sorted ascending, both (..., d, n) and read-only:
    those of a stable argsort.

    One argsort of numpy's default kind (SIMD where the CPU has it) orders
    every column, but may put equal values in any order.  So the columns
    whose sorted values hold an adjacent equal pair are sorted again,
    stably, and their sorted values gathered again, because -0.0 == +0.0.
    The sorted values of the first gather serve both the tie check and the
    untied columns.  NaN is equal to nothing, so rows of NaN, which only a
    replication that has failed its finiteness check holds, may differ in
    order from a stable argsort."""
    order = np.argsort(columns, axis=-1)
    xs = np.take_along_axis(columns, order, axis=-1)
    tied = np.nonzero((xs[..., 1:] == xs[..., :-1]).any(axis=-1))
    if tied[0].size:
        again = columns[tied]
        order[tied] = np.argsort(again, axis=-1, kind="stable")
        xs[tied] = np.take_along_axis(again, order[tied], axis=-1)
    return _read_only(order), _read_only(xs)


def _column_ranks(order: np.ndarray) -> np.ndarray:
    """(..., d, n) ranks, 1 = smallest, from the (..., d, n) row order
    (read-only)."""
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return _read_only(ranks)


def _check_margin(j, d: int) -> None:
    """Require a margin index: an integer, not a bool, in [0, d)."""
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or not 0 <= j < d:
        raise DomainError(f"margin index must be an integer in [0, {d - 1}], got {j!r}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def effective_k(n: int, tau):
    """floor(n(1-tau)) with a guard against floating-point droop: an int for
    a level tau (in Python floats, where it fits an int64), an integer array
    for an array of levels."""
    if isinstance(tau, float) and abs(x := n * (1.0 - tau) + 1e-9) < 2.0**63:
        return math.floor(x)
    tau = np.asarray(tau, dtype=float)
    if not np.isfinite(tau).all():
        raise LevelError(f"tau must be finite, got {tau}")
    k = np.floor(n * (1.0 - tau) + 1e-9).astype(np.int64)
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
        if not self.log_dn > 0.0:
            raise LevelError(f"tau={self.tau} and tau_prime={self.tau_prime} give log d_n = 0")

    @property
    def k(self) -> int:
        return effective_k(self.n, self.tau)

    @property
    def log_dn(self) -> float:
        return math.log((1.0 - self.tau) / (1.0 - self.tau_prime))


def ingest_csv(path, has_date_column: bool = False) -> MultivariateSample:
    """Read a comma-separated file with a header row into a sample.

    A plain file (``_parse_plain``) is parsed by numpy's C reader; any other
    file, or a plain one whose parse might differ, is walked cell by cell
    (``_parse_cells``), which names the first bad row or cell in file order.
    Both give the values that the csv module and float() read.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            # Again line by line, as the csv module reads a file, so that the
            # error names the same position.
            fh.seek(0)
            text = "".join(fh)
    start = 1 if has_date_column else 0
    header, values, dates = _parse_plain(text, start) or _parse_cells(path, text, start)
    labels = tuple(h.strip() for h in header[start:])
    return MultivariateSample(values, labels, dates=dates)


def _parse_plain(text: str, start: int):
    """The header cells, the values and the dates (the first column's, when
    start is 1) of a plain text, parsed by one ``np.loadtxt``; or None.

    A text is plain when it has no quote, no NUL, and no \\r outside a
    \\r\\n.  Each line of a plain text is one csv row, whose cells are its
    pieces between commas, but for a blank line, a row of no cells (so a
    blank header is left to the walk).  The C reader parses a cell as
    float() does, or fails (on underscores and non-ASCII digits, among
    others); but it skips blank lines, warns when it finds nothing else,
    and ignores the cells that usecols leaves out.  So the result is kept
    only if it holds a row per line and every value is finite, and a dated
    text must hold a comma per line for every column after the first.
    """
    if '"' in text or "\0" in text:
        return None
    head, _, body = text.partition("\n")
    header = head.removesuffix("\r").split(",")
    width = len(header)
    lines = body.count("\n") + (not body.endswith("\n"))
    if header == [""] or not body.strip("\r\n"):
        return None
    if start and body.count(",") != lines * (width - 1):
        return None
    # The lines as a list, not as a StringIO, which would hold a 4-byte copy
    # of every character.  The C reader refuses a line break inside a line,
    # so a text that mixes \r\n and \n line ends is walked.
    crlf = "\r" in body
    rows = body.split("\r\n" if crlf else "\n")
    # Every \r ends the header or one of the \r\n that the split found.
    if text.count("\r") != head.endswith("\r") + crlf * (len(rows) - 1):
        return None
    try:
        values = np.loadtxt(
            rows, delimiter=",", comments=None, ndmin=2,
            usecols=range(start, width) if start else None,
        )
    except ValueError:
        return None
    if values.shape != (lines, width - start) or not np.all(np.isfinite(values)):
        return None
    dates = None
    if start:
        try:
            dates = tuple(
                dt.date.fromisoformat(line.split(",", 1)[0].strip()) for line in rows[:lines]
            )
        except ValueError:
            return None
    return header, values, dates


def _parse_cells(path, text: str, start: int):
    """The header cells, the values and the dates (from the first column
    when start is 1) of any text, read by the csv module and float() cell
    by cell; IngestionError names the first bad row or cell in file order."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise IngestionError(f"{path}: empty file")
    rows = list(reader)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    width = len(header)
    values = np.empty((len(rows), max(width - start, 0)))
    dates = [] if start else None
    for i, row in enumerate(rows):
        if len(row) != width:
            raise IngestionError(
                f"{path}: row {i + 2} has {len(row)} cells, expected {width}"
            )
        if start:
            if not row:  # a blank row under a blank header
                raise IngestionError(f"{path}: row {i + 2}, column 1: missing date")
            try:
                dates.append(dt.date.fromisoformat(row[0].strip()))
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
            values[i, c] = value
    return header, values, tuple(dates) if start else None


def emit_csv(sample: MultivariateSample, path) -> None:
    """Write a sample back to CSV with 17 significant digits, as csv.writer
    writes it: "\r\n" line ends, and a date column first when it has dates."""
    header = sample.labels if sample.dates is None else ("date",) + sample.labels
    text = _csv_text(header, sample.values, "\r\n", sample.dates)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


def _csv_text(header, values: np.ndarray, lineterminator: str, dates=None) -> str:
    """The rows of a 2-D float array as CSV, led by their ISO dates when
    given, all formatted by one % of a row format "%.17g,...,%.17g" repeated
    per row: the 17 significant digits that read back to the same double.
    The header is quoted as csv.writer quotes it, and no number needs
    quoting."""
    head = io.StringIO()
    csv.writer(head, lineterminator=lineterminator).writerow(header)
    row = ",".join(["%.17g"] * values.shape[1]) + lineterminator
    cells = values.ravel().tolist()
    if dates is not None:
        row = "%s," + row
        cells = [
            c for date, r in zip(dates, values.tolist()) for c in (date.isoformat(), *r)
        ]
    return head.getvalue() + (row * len(values)) % tuple(cells)


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
