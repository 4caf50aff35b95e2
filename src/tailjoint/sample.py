"""Multivariate sample container, sorted columns and the row order of each
column's top rows, tail levels and CSV I/O."""

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

    The values are a read-only copy of the input, in its layout.  Its
    sorted columns are computed once, by np.sort alone (``_sort_columns``).
    Its stack (``_stack``) orders, as every Monte Carlo stack does, only the
    top rows of each column that a level reads (``_ordered_rows``,
    ``_column_order``), for the most rows that a level has read so far.
    The marginal fit is computed once per level tau (``estimate_margins``).
    All are read-only and shared by every estimator that reads this sample.
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
    def _columns(self) -> np.ndarray:
        """The values as the (1, d, n) columns of a stack of one, without a
        copy when they are held column-major (as sample_model's are)."""
        return _read_only(np.ascontiguousarray(self.values.T[None]))

    @cached_property
    def sorted_columns(self) -> np.ndarray:
        """d x n array whose row j is column j sorted ascending (read-only)."""
        return _sort_columns(self._columns)[0]

    def _stack(self, tau: float) -> "_Stack":
        """This sample as a stack of one (``_Stack``) that orders at least the
        top rows that level tau reads (``_ordered_rows``; all n at level 0).
        It is kept, and replaced only for a level that reads more rows: the
        last T entries of a column's order are the same however many it
        holds, so every reader gets the same rows from it."""
        st, top = self.__dict__.get("_kept"), _ordered_rows(self.n, tau)
        if st is None or st.order.shape[-1] < top:
            xs = self.sorted_columns[None]
            st = self.__dict__["_kept"] = _Stack(
                self._columns, _column_order(self._columns, xs, top), xs
            )
        return st

    def _group_stacks(self, m: int, tau: float):
        """The groups of m evenly spaced margins of this sample as stacks at
        level tau, one per column offset s: the (B, m) margins (j, j + s,
        ...) of the stack's groups and their ``_Stack``.  So m = d gives the
        panel as a stack of one, and m = 2 every pair, in d - 1 stacks.  Each
        array is a read-only strided view of this sample's ``_stack``.
        """
        rows = [a[0] for a in self._stack(tau)]
        for s in range(1, (self.d - 1) // (m - 1) + 1):
            span = (m - 1) * s + 1
            groups = np.arange(self.d - span + 1)[:, None] + s * np.arange(m)
            yield groups, _Stack(*(
                sliding_window_view(a, span, axis=0)[..., ::s].swapaxes(-1, -2)
                for a in rows
            ))


class _Stack(NamedTuple):
    """B samples of one size n x d, stacked along a leading axis and held
    column-major as (B, d, n), so that the n-long work runs along
    contiguous rows: the values, the row order of each column's top T rows,
    as (B, d, T), and its sorted values.  A Monte Carlo stack's values are
    the buffer that its draw wrote in place (``simulation._draw``); a
    sample's are its transposed values.  Readers take a column's top rows
    from the end of its order, and the flat start of each row from the
    shape of ``columns``."""

    columns: np.ndarray
    order: np.ndarray
    sorted_columns: np.ndarray

    @property
    def n(self) -> int:
        return self.columns.shape[-1]


def _stack_columns(columns: np.ndarray, tau: float) -> _Stack:
    """A (B, d, n) stack of columns, sorted (``_sort_columns``) and with the
    row order of each column's top rows that level tau reads
    (``_ordered_rows``, ``_column_order``).  The stack holds the columns
    themselves, made read-only, when they are C-contiguous, and a
    contiguous copy otherwise."""
    columns = _read_only(np.ascontiguousarray(columns))
    xs = _sort_columns(columns)
    return _Stack(columns, _column_order(columns, xs, _ordered_rows(columns.shape[-1], tau)), xs)


def _sort_columns(columns: np.ndarray) -> np.ndarray:
    """Each row of (..., d, n) columns sorted ascending, read-only, to the bit
    as a stable argsort orders it but for NaN.  np.sort may put equal values
    in any order, and only -0.0 and +0.0 are equal with other bits; so each
    row's zeros go back in their row order."""
    xs = np.sort(columns, axis=-1)
    if (zeros := xs == 0.0).any():
        xs[zeros] = columns[columns == 0.0]
    return _read_only(xs)


def _column_order(columns: np.ndarray, xs: np.ndarray, top: int) -> np.ndarray:
    """The row order of the top rows (1..n) of each row of C-contiguous
    (..., d, n) columns, whose rows sorted ascending are xs, as
    (..., d, top), read-only: the last top entries of a stable argsort's.

    A row's top rows are the positions at or above its order statistic
    n - top (from 0), and one argsort of numpy's default kind (SIMD where
    the CPU has it) of their values orders them.  It may put equal values
    in any order, and a row with ties may have more positions at or above
    that statistic.  So a row of xs that holds an adjacent equal pair, or
    NaN (which sorts last; only in a replication that has failed its
    finiteness check), is ordered whole again, stably."""
    n = columns.shape[-1]
    redo = np.nonzero((xs[..., 1:] == xs[..., :-1]).any(axis=-1) | np.isnan(xs[..., -1]))
    above = columns >= xs[..., n - top, None]
    above[redo] = np.arange(n) >= n - top  # so each row marks top; redone below
    at = np.flatnonzero(above).reshape(columns.shape[:-1] + (top,))
    by_value = np.argsort(columns.ravel()[at], axis=-1) + _row_starts(at.shape)
    order = np.take(at - _row_starts(columns.shape), by_value)
    if redo[0].size:
        order[redo] = np.argsort(columns[redo], axis=-1, kind="stable")[..., n - top :]
    return _read_only(order)


def _row_starts(shape: tuple) -> np.ndarray:
    """The flat index of the first entry of each row of a C-ordered array
    of the given (..., n) shape, as a (..., 1) array."""
    return np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1] + (1,))


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
    for an array of levels.  A level that is not finite, or whose
    n(1-tau) does not fit an int64, raises LevelError."""
    if isinstance(tau, float) and abs(x := n * (1.0 - tau) + 1e-9) < 2.0**63:
        return math.floor(x)
    tau = np.asarray(tau, dtype=float)
    if not np.isfinite(tau).all():
        raise LevelError(f"tau must be finite, got {tau}")
    with np.errstate(over="ignore"):  # n(1 - tau) beyond a double: inf
        x = n * (1.0 - tau) + 1e-9
    beyond = ~(np.abs(x) < 2.0**63)
    if beyond.any():
        t = float(tau[beyond].flat[0])
        raise LevelError(f"tau={t!r} gives n(1-tau)={n * (1.0 - t)!r}, beyond an int64")
    k = np.floor(x).astype(np.int64)
    return k if k.ndim else int(k)


def _tail_points(ranks, tau, n: int):
    """U = (n+1-r)/((n+1)(1-tau)) for ranks r (1 = smallest) of a sample of
    size n; U <= 1 marks a margin's top ranks."""
    return (n + 1 - ranks) / ((n + 1) * (1.0 - tau))


def _r11_cut(n: int, tau: float) -> int:
    """The smallest rank r of a sample of size n whose U (``_tail_points``)
    is at most 1 at level tau: the top ranks are those at or above it.  U
    falls as the rank rises, so the cut is n + 1 minus the number of
    m = n + 1 - r in 1..n that pass the test.  Every m up to
    (n+1)(1-tau), as that product rounds, passes, and none above its floor
    plus one, so only that one m is tested."""
    floor = math.floor((n + 1) * (1.0 - tau))
    next_passes = floor < n and _tail_points(n - floor, tau, n) <= 1.0
    return int(n + 1 - min(floor, n) - next_passes)


def _ordered_rows(n: int, tau: float) -> int:
    """T, how many of each column's top rows a stack orders for level tau:
    the most that its readers take from the end of a column's order (the
    top k of ``covariance._hill_laws_cross`` and the top ranks of
    ``taildep._top_pairs``), and at least the row whose order statistic
    ``_column_order`` reads.  Level 0 gives all n."""
    return max(effective_k(n, tau), n + 1 - _r11_cut(n, tau), 1)


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
