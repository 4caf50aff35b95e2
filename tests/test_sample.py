"""Sample container, ranks, order statistics, CSV I/O and the weekly
returns transform."""

import csv
import datetime as dt
import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tailjoint import sample
from tailjoint.errors import DomainError, IngestionError, LevelError
from tailjoint.sample import (
    MultivariateSample,
    TailLevelPair,
    _column_order,
    _stack_panels,
    effective_k,
    emit_csv,
    ingest_csv,
    tau_from_k,
    to_negative_weekly_log_returns,
)


def make_sample(*columns, labels=None, dates=None):
    values = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    labels = labels or tuple(f"C{i}" for i in range(values.shape[1]))
    return MultivariateSample(values, labels, dates=dates)


class TestMultivariateSample:
    def test_shape_accessors(self):
        s = make_sample([1, 2, 3, 4], [5, 6, 7, 8])
        assert (s.n, s.d) == (4, 2)
        assert np.array_equal(s.column(1), [5.0, 6.0, 7.0, 8.0])

    def test_too_few_rows(self):
        with pytest.raises(DomainError):
            make_sample([1, 2, 3])

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            make_sample([1, 2, 3, np.inf])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DomainError):
            make_sample([1, 2, 3, 4], [1, 2, 3, 4], labels=("a", "a"))

    def test_select_preserves_order(self):
        s = make_sample([1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12])
        sub = s.select([2, 0])
        assert sub.labels == ("C2", "C0")
        assert np.array_equal(sub.column(0), [9.0, 10.0, 11.0, 12.0])

    @pytest.mark.parametrize("indices", [[-1], [0, 3], [True]])
    def test_select_margin_indices_checked(self, indices):
        # Unchecked, [-1] and [True] would pick a column silently, and [0, 3]
        # would fail with numpy's IndexError.
        s = make_sample([1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12])
        with pytest.raises(DomainError, match="margin index"):
            s.select(indices)

    @pytest.mark.parametrize("j", [-1, 3, True])
    def test_column_margin_index_checked(self, j):
        s = make_sample([1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12])
        with pytest.raises(DomainError, match="margin index"):
            s.column(j)

    def test_identity_equality_and_hashing(self):
        s = make_sample([1, 2, 3, 4])
        t = make_sample([1, 2, 3, 4])
        assert s == s and s != t
        assert s in [t, s] and s not in [t]
        assert hash(s) == hash(s)
        assert {s, t, s} == {s, t}


class TestRanks:
    def test_hand_column(self):
        s = make_sample([5.0, 1.0, 3.0, 7.0])
        assert list(s.ranks[:, 0]) == [3, 1, 2, 4]

    def test_increasing_column(self):
        s = make_sample(np.arange(10.0))
        assert list(s.ranks[:, 0]) == list(range(1, 11))

    def test_stable_ties(self):
        s = make_sample([2.0, 2.0, 1.0, 2.0])
        assert list(s.ranks[:, 0]) == [2, 3, 1, 4]

    def test_rank_inverse_recovers_order_statistics(self):
        rng = np.random.default_rng(3)
        s = make_sample(rng.normal(size=25))
        ranks = s.ranks[:, 0]
        for i, r in enumerate(ranks):
            assert s.values[i, 0] == s.sorted_columns[0, int(r) - 1]


class TestOrderStatisticsCache:
    """The cached sorted columns and ranks must equal a fresh sort."""

    @staticmethod
    def assert_matches_fresh_sort(s):
        assert s.sorted_columns.shape == (s.d, s.n)
        for j in range(s.d):
            col = s.values[:, j]
            assert np.array_equal(s.sorted_columns[j], np.sort(col))
            expected = np.empty(s.n, dtype=np.int64)
            expected[np.argsort(col, kind="stable")] = np.arange(1, s.n + 1)
            assert np.array_equal(s.ranks[:, j], expected)

    def test_random_panel(self):
        rng = np.random.default_rng(7)
        self.assert_matches_fresh_sort(make_sample(*rng.standard_t(3, size=(3, 50))))

    def test_tied_values(self):
        s = make_sample(
            [2.0, 2.0, 1.0, 2.0, 1.0, 3.0], [0.0, 0.0, 0.0, 0.0, -1.0, 0.0]
        )
        self.assert_matches_fresh_sort(s)
        assert list(s.ranks[:, 1]) == [2, 3, 4, 5, 1, 6]

    def test_select_slices_parent_cache(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=(40, 4))
        vals[::5, 2] = vals[1, 2]  # ties
        s = make_sample(*vals.T)
        sub = s.select([3, 2, 0])
        self.assert_matches_fresh_sort(sub)
        assert np.array_equal(sub.sorted_columns, s.sorted_columns[[3, 2, 0]])

    def test_select_before_parent_use(self):
        rng = np.random.default_rng(9)
        s = make_sample(*rng.normal(size=(2, 30)))
        self.assert_matches_fresh_sort(s.select([1]))
        self.assert_matches_fresh_sort(s)

    def test_scaled(self):
        rng = np.random.default_rng(10)
        s = make_sample(*rng.normal(size=(2, 30)))
        for c in (3.5, -2.0):
            self.assert_matches_fresh_sort(s.scaled(c))

    def test_computed_once(self):
        s = make_sample([5.0, 1.0, 3.0, 7.0])
        assert s.sorted_columns is s.sorted_columns
        assert s.ranks is s.ranks

    def test_values_read_only(self):
        s = make_sample([5.0, 1.0, 3.0, 7.0], [1.0, 2.0, 3.0, 4.0])
        for arr in (s.values, s.sorted_columns, s.ranks, s.column(0)):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert list(s.sorted_columns[0]) == [1.0, 3.0, 5.0, 7.0]

    def test_caller_array_untouched(self):
        values = np.array([[5.0, 1.0], [1.0, 2.0], [3.0, 3.0], [7.0, 4.0]])
        s = MultivariateSample(values, ("a", "b"))
        assert values.flags.writeable
        values[0, 0] = -100.0  # the sample holds its own copy
        assert s.values[0, 0] == 5.0
        assert list(s.sorted_columns[0]) == [1.0, 3.0, 5.0, 7.0]


def bits(a: np.ndarray) -> np.ndarray:
    """The float64 array's bit patterns, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


@st.composite
def tied_stacks(draw) -> np.ndarray:
    """A (B, n, d) stack of panels whose columns are each drawn with one
    kind of ties: none, values repeated from a short list, a constant,
    signed zeros among a few values, or small integers."""
    b, n, d = draw(st.integers(1, 4)), draw(st.integers(4, 60)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((b, n, d))
    for j in range(d):
        kind = draw(st.sampled_from(["untied", "repeats", "constant", "zeros", "integers"]))
        if kind == "repeats":
            x[..., j] = rng.choice(rng.standard_normal(draw(st.integers(1, 8))), (b, n))
        elif kind == "constant":
            x[..., j] = rng.standard_normal()
        elif kind == "zeros":
            x[..., j] = rng.choice([0.0, -0.0, 1.5, -2.0], (b, n))
        elif kind == "integers":
            x[..., j] = rng.integers(-3, 4, (b, n))
    return x


def stable_sort(values: np.ndarray):
    """Row order, sorted values and ranks of each column of (..., n, d)
    panels by a stable argsort, each as (..., d, n)."""
    columns = np.swapaxes(values, -1, -2)
    order = np.argsort(columns, axis=-1, kind="stable")
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return order, np.take_along_axis(columns, order, axis=-1), ranks


def count_sorts(monkeypatch) -> list:
    """Record the shape and kind of every ``np.argsort`` call from here on."""
    calls = []
    argsort = np.argsort

    def counting(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("kind")))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    return calls


class TestColumnOrder:
    """One default-kind argsort, with the tied columns sorted again stably,
    gives exactly the stable argsort's order, sorted values and ranks."""

    @given(tied_stacks())
    @settings(max_examples=150, deadline=None)
    def test_stack_equals_stable_argsort(self, x):
        order, xs, ranks = stable_sort(x)
        stack = _stack_panels(x)
        assert np.array_equal(stack.order, order)
        assert np.array_equal(bits(stack.sorted_columns), bits(xs))
        assert np.array_equal(stack.ranks, ranks)
        assert np.array_equal(bits(stack.columns), bits(np.swapaxes(x, -1, -2)))

    @given(tied_stacks())
    @settings(max_examples=150, deadline=None)
    def test_sample_equals_stable_argsort(self, x):
        s = MultivariateSample(x[0], tuple(f"C{j}" for j in range(x.shape[2])))
        order, xs, ranks = stable_sort(x[0])
        assert np.array_equal(s._stack.order[0], order)
        assert np.array_equal(bits(s.sorted_columns), bits(xs))
        assert np.array_equal(s.ranks, ranks.T)
        assert np.array_equal(s._stack.ranks[0], ranks)

    def test_untied_panel_sorts_once(self, monkeypatch):
        x = np.random.default_rng(4).standard_normal((3, 50, 2))
        calls = count_sorts(monkeypatch)
        _column_order(np.ascontiguousarray(np.swapaxes(x, -1, -2)))
        assert calls == [((3, 2, 50), None)]

    def test_only_the_tied_column_sorts_again(self, monkeypatch):
        x = np.random.default_rng(5).standard_normal((3, 50, 2))
        x[1, 7, 1] = x[1, 30, 1]
        calls = count_sorts(monkeypatch)
        _column_order(np.ascontiguousarray(np.swapaxes(x, -1, -2)))
        assert calls == [((3, 2, 50), None), ((1, 50), "stable")]


class TestGroupStacks:
    """Each offset stack of ``_group_stacks``, strided views of the panel's
    rows, is bit for bit the stack that ``_stack_panels`` sorts and ranks
    from its groups' columns on its own."""

    @given(tied_stacks(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_offset_stacks_equal_sorted_groups(self, x, pairs):
        values = x[0]
        d = values.shape[1]
        assume(d >= 2)
        s = MultivariateSample(values, tuple(f"C{j}" for j in range(d)))
        m = 2 if pairs else d
        seen = []
        for groups, stack in s._group_stacks(m):
            want = _stack_panels(values[:, groups].swapaxes(0, 1))
            assert np.array_equal(bits(stack.values), bits(want.values))
            assert np.array_equal(bits(stack.columns), bits(want.columns))
            assert np.array_equal(stack.order, want.order)
            assert np.array_equal(bits(stack.sorted_columns), bits(want.sorted_columns))
            assert np.array_equal(stack.ranks, want.ranks)
            seen += [tuple(g) for g in groups.tolist()]
        assert sorted(seen) == list(itertools.combinations(range(d), m))


class TestOrderStatistic:
    def test_middle(self):
        s = make_sample([5.0, 1.0, 3.0, 9.0])
        assert s.sorted_columns[0, 1] == 3.0

    def test_extremes(self):
        s = make_sample([5.0, 1.0, 3.0, 9.0])
        assert s.sorted_columns[0, 0] == 1.0
        assert s.sorted_columns[0, 3] == 9.0


class TestLevels:
    def test_effective_k(self):
        assert effective_k(1000, 0.95) == 50
        assert effective_k(100, 0.999) == 0

    def test_round_trip(self):
        for n, k in [(1000, 50), (754, 150), (100, 2)]:
            assert effective_k(n, tau_from_k(n, k)) == k

    def test_level_pair(self):
        lp = TailLevelPair(tau=0.95, tau_prime=0.999, n=1000)
        assert lp.k == 50
        assert lp.log_dn == pytest.approx(math.log(50.0), rel=1e-12)

    def test_invalid_levels(self):
        with pytest.raises(LevelError):
            TailLevelPair(tau=0.999, tau_prime=0.95, n=1000)
        with pytest.raises(LevelError):
            TailLevelPair(tau=0.9995, tau_prime=0.9999, n=1000)  # k < 2
        with pytest.raises(LevelError, match="log d_n = 0"):
            TailLevelPair(tau=0.1, tau_prime=math.nextafter(0.1, 1.0), n=1000)

    @given(st.integers(1, 10**7), st.floats(allow_nan=False, allow_infinity=False))
    @example(5000, -1e308)  # n(1 - tau) overflows to inf
    @example(5000, -1e20)  # finite, and beyond an int64
    @example(5000, 1.0 - 50 / 5000)
    @example(7, 1.0 - 2.0**-53)
    @settings(max_examples=300, deadline=None)
    def test_float_level_equals_its_array(self, n, tau):
        with np.errstate(all="ignore"):  # the cast of a level beyond an int64
            want = effective_k(n, np.array([tau]))[0]
            got = effective_k(n, tau)
        assert type(got) is int and got == want

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, np.array([0.9, math.nan])])
    def test_effective_k_of_a_non_finite_level(self, tau):
        # Unchecked, a NaN level casts to INT64_MIN with a RuntimeWarning.
        with pytest.raises(LevelError, match="tau must be finite"):
            effective_k(100, tau)


class TestIngestCsv(object):
    def test_numeric_file(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n7,8\n")
        s = ingest_csv(p)
        assert (s.n, s.d) == (4, 2)
        assert s.labels == ("a", "b")
        assert s.dates is None

    def test_blank_cell_named(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n3,\n5,6\n7,8\n")
        with pytest.raises(IngestionError, match=r"row 3, column 2"):
            ingest_csv(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n3,4,9\n5,6\n7,8\n")
        with pytest.raises(IngestionError, match=r"row 3"):
            ingest_csv(p)

    def test_non_finite_value_named(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n3,4\n5,inf\n7,8\n")
        with pytest.raises(IngestionError, match=r"row 4, column 2: non-finite"):
            ingest_csv(p)

    def test_first_bad_cell_in_file_order(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("date,a\n2020-01-06,1\n2020-01-07,x\nnot-a-date,3\n2020-01-09,4\n")
        with pytest.raises(IngestionError, match=r"row 3, column 2: unparsable"):
            ingest_csv(p, has_date_column=True)

    def test_python_float_syntax(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n 1_0,2\n3e1 ,+.5\n5,6\n7,8\n")
        s = ingest_csv(p)
        assert np.array_equal(s.values[:2], [[10.0, 2.0], [30.0, 0.5]])

    def test_unparsable_number(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n3,oops\n5,6\n7,8\n")
        with pytest.raises(IngestionError, match=r"row 3, column 2"):
            ingest_csv(p)

    def test_dated_file(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text(
            "date,a\n2020-01-06,1\n2020-01-07,2\n2020-01-08,3\n2020-01-09,4\n"
        )
        s = ingest_csv(p, has_date_column=True)
        assert s.dates == (
            dt.date(2020, 1, 6),
            dt.date(2020, 1, 7),
            dt.date(2020, 1, 8),
            dt.date(2020, 1, 9),
        )

    def test_blank_dated_file_names_the_missing_date(self, tmp_path):
        # A blank header has no cells, so every blank row has as many.
        p = tmp_path / "x.csv"
        p.write_text("\n" * 5)
        with pytest.raises(IngestionError, match=r"x\.csv: row 2, column 1: missing date"):
            ingest_csv(p, has_date_column=True)

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        s = make_sample(rng.normal(size=20), rng.pareto(3.0, size=20) + 1.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(s, p1)
        s2 = ingest_csv(p1)
        emit_csv(s2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(s.values, s2.values)

    @pytest.mark.parametrize("dated", [False, True])
    def test_emit_csv_bytes_equal_csv_writer(self, tmp_path, dated):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
        values[:3] = [[-0.0, 1e-300, 1e300], [5e-324, -1e-310, 0.1], [1.0 / 3.0, 0.0, -7.0]]
        labels = ("a,b", '"q"', "plain")
        dates = (
            tuple(dt.date(2020, 1, 1) + dt.timedelta(i) for i in range(40)) if dated else None
        )
        emit_csv(MultivariateSample(values, labels, dates), tmp_path / "x.csv")
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow((("date",) if dated else ()) + labels)
            for i, row in enumerate(values):
                lead = [dates[i].isoformat()] if dated else []
                writer.writerow(lead + [format(x, ".17g") for x in row])
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def ingest_outcome(path, has_date_column: bool):
    """ingest_csv's sample as (values' bits, labels, dates), or its error as
    (class name, message)."""
    try:
        s = ingest_csv(path, has_date_column=has_date_column)
    except (IngestionError, DomainError) as exc:
        return type(exc).__name__, str(exc)
    return s.values.tobytes(), s.labels, s.dates


def walk_outcome(path, has_date_column: bool):
    """ingest_outcome with every file read by the csv module's walk alone."""
    with mock.patch.object(sample, "_parse_plain", lambda text, start: None):
        return ingest_outcome(path, has_date_column)


# Pieces of number syntax, separators and line breaks, and cells that
# float() or the C reader may each take or refuse.
CSV_ALPHABET = (
    list("0123456789.e+-_") + [" ", "\t", "#", '"', ",", "\r", "\n", "\r\n"]
    + ["\u0661", "\xa0", "inf", "nan", "1e400"]
)


@st.composite
def csv_texts(draw):
    """A well-formed panel of 4..6 rows, 1..3 columns and maybe a date
    column, written with repr or %.6e and LF or CRLF, with up to 4 pieces of
    CSV_ALPHABET inserted, replaced or deleted at random places."""
    dated = draw(st.booleans())
    width, n = draw(st.integers(1, 3)), draw(st.integers(4, 6))
    fmt = draw(st.sampled_from([repr, "{:.6e}".format]))
    cells = st.floats(allow_nan=False, allow_infinity=False)
    lines = [",".join(["date"] * dated + [f"c{j}" for j in range(width)])]
    for i in range(n):
        values = [fmt(draw(cells)) for _ in range(width)]
        lines.append(",".join([f"2020-01-{i + 1:02d}"] * dated + values))
    text = list(draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n")
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(CSV_ALPHABET))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or at == len(text):
            text.insert(at, piece)
        elif edit == "replace":
            text[at] = piece
        else:
            del text[at]
    return "".join(text), dated


class TestIngestPaths:
    """Plain files are parsed by numpy's C reader, others walked by the csv
    module: both give the same values, labels, dates and errors."""

    @given(csv_texts())
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_as_the_walk(self, tmp_path_factory, case):
        text, dated = case
        path = tmp_path_factory.mktemp("csv") / "x.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ingest_outcome(path, dated) == walk_outcome(path, dated)

    @pytest.mark.parametrize(
        "text, dated",
        [
            ('"a",b\n1,2\n3,4\n5,6\n7,8\n', False),  # quoted header cell
            ("a\rb,c\n1,2\n3,4\n5,6\n7,8\n", False),  # lone CR in the header
            ("a,b\n1,2\r\r\n3,4\n5,6\n7,8\n", False),  # lone CR in the body
            ("a,b\n1,2\x00\n3,4\n5,6\n7,8\n", False),
            ("\n1\n2\n3\n4\n", False),  # blank header
            ("a\n1\n  \n3\n4\n", False),  # a blank cell in a line of spaces
            ("a,b\n1,2,\n3,4\n5,6\n7,8\n", False),
            ("a,b\n1_0,2\n\u0661,4\n5,6\n7,8", False),
            ("d,a\n2020-01-01,1,9\n2020-01-02,2\n2020-01-03,3\n2020-01-04,4\n", True),
            ("d,a\n2020-01-01,1,\n2020-01-02,2\n2020-01-03,3\n2020-01-04,4\n", True),
            ("d,a,b\n2020-01-01,1,2\n2020-01-02,2,3,\n2020-01-03,3\n2020-01-04,4,5\n", True),
            ("d,a\n2020-01-01 ,1\n2020-01-02,2\n2020-01-03,3\n2020-01-04,4\n", True),
            ("d,a\n2020-01-01\n2020-01-02,2\n2020-01-03,3\n2020-01-04,4\n", True),
            ("d\n2020-01-01\n2020-01-02\n2020-01-03\n2020-01-04\n", True),  # no values
        ],
    )
    def test_edge_files_same_outcome_as_the_walk(self, tmp_path, text, dated):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ingest_outcome(path, dated) == walk_outcome(path, dated)

    @pytest.mark.parametrize("fmt", ["emit_csv", "repr", "%.6e"])
    def test_random_doubles_round_trip(self, tmp_path, fmt):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((300, 3)) * 10.0 ** rng.integers(-300, 300, (300, 3))
        x[:3] = [[5e-324, -0.0, 2.2250738585072014e-308]] * 3
        path = tmp_path / "x.csv"
        if fmt == "emit_csv":
            emit_csv(MultivariateSample(x, ("a", "b", "c")), path)
            want = x
        else:
            write = repr if fmt == "repr" else fmt.__mod__
            cells = [[write(float(v)) for v in row] for row in x]
            path.write_text("a,b,c\n" + "".join(",".join(r) + "\n" for r in cells))
            want = np.array([[float(c) for c in row] for row in cells])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ingest_csv(path).values
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "text, row",
        [
            ("a,b\n1,2\n\n3,4\n5,6\n7,8\n", 3),
            ("a,b\r\n1,2\r\n3,4\r\n5,6\r\n7,8\r\n\r\n", 6),
            ("a\n\n\n", 2),
        ],
    )
    def test_blank_row_named(self, tmp_path, text, row):
        path = tmp_path / "x.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestionError, match=rf"row {row} has 0 cells"):
                ingest_csv(path)

    def test_decoding_error_as_the_csv_module_reports_it(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"\xff,3\n")
        with open(path, newline="", encoding="utf-8") as fh:
            with pytest.raises(UnicodeDecodeError) as want:
                list(csv.reader(fh))
        with pytest.raises(UnicodeDecodeError) as got:
            ingest_csv(path)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("dated", [False, True])
    def test_emitted_panel_not_walked(self, tmp_path, dated):
        rng = np.random.default_rng(9)
        dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(i) for i in range(50))
        s = MultivariateSample(
            rng.pareto(3.0, size=(50, 4)), tuple("abcd"), dates if dated else None
        )
        emit_csv(s, tmp_path / "x.csv")
        with mock.patch.object(csv, "reader", side_effect=csv.reader) as reader:
            got = ingest_csv(tmp_path / "x.csv", has_date_column=dated)
        assert reader.call_count == 0
        assert np.array_equal(got.values, s.values) and got.dates == s.dates


class TestWeeklyReturns:
    @staticmethod
    def daily(prices, start=dt.date(2021, 3, 1)):
        dates = tuple(start + dt.timedelta(days=i) for i in range(len(prices)))
        return make_sample(prices, dates=dates)

    def test_constant_prices_zero_returns(self):
        s = self.daily([3.0] * 36)
        r = to_negative_weekly_log_returns(s)
        assert np.allclose(r.values, 0.0)

    def test_weekly_unit_log_step(self):
        # One-week-apart observations: each return is -log(P_t / P_{t-1}),
        # so a price that steps 1 -> e gives -1 exactly.  The sample
        # container requires at least 4 rows, so the two-price hand case is
        # embedded in a longer weekly series.
        mondays = tuple(dt.date(2021, 3, 1) + dt.timedelta(weeks=i) for i in range(5))
        s = make_sample([1.0, math.e, math.e, math.e, math.e], dates=mondays)
        r = to_negative_weekly_log_returns(s)
        assert r.n == 4
        assert r.values[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(r.values[1:, 0], 0.0)

    def test_daily_resampled_to_week_ends(self):
        # 2021-03-01 (Mon) .. 2021-03-31 spans ISO weeks 9-13; week 9 ends
        # Sunday 03-07 (price index 6), later weeks end on their last
        # available day, so the first return is -log(p_13 / p_6).
        prices = [float(i + 1) for i in range(31)]
        r = to_negative_weekly_log_returns(self.daily(prices))
        assert r.n == 4
        assert r.values[0, 0] == pytest.approx(-math.log(14.0 / 7.0), rel=1e-12)
        assert r.dates[0] == dt.date(2021, 3, 14)
        assert r.dates[-1] == dt.date(2021, 3, 31)

    def test_empty_weeks_skipped(self):
        dates = (
            dt.date(2021, 3, 1),
            dt.date(2021, 3, 3),
            # weeks 10-11 unobserved
            dt.date(2021, 3, 24),
            dt.date(2021, 3, 31),
            dt.date(2021, 4, 7),
            dt.date(2021, 4, 14),
        )
        s = make_sample([1.0, 2.0, 4.0, 8.0, 16.0, 32.0], dates=dates)
        r = to_negative_weekly_log_returns(s)
        assert r.n == 4
        assert np.allclose(r.values[:, 0], -math.log(2.0))

    def test_scale_invariance(self):
        s = self.daily([float(i + 1) for i in range(31)])
        r1 = to_negative_weekly_log_returns(s)
        r2 = to_negative_weekly_log_returns(s.scaled(7.25))
        assert np.allclose(r1.values, r2.values, atol=1e-14)

    def test_nonpositive_price_rejected(self):
        with pytest.raises(DomainError):
            to_negative_weekly_log_returns(
                self.daily([1.0, -1.0] + [2.0] * 29)
            )

    def test_requires_dates(self):
        with pytest.raises(DomainError):
            to_negative_weekly_log_returns(make_sample([1.0, 2.0, 3.0, 4.0]))

    def test_nonincreasing_dates_rejected(self):
        dates = (
            dt.date(2021, 3, 1),
            dt.date(2021, 3, 1),
            dt.date(2021, 3, 3),
            dt.date(2021, 3, 4),
        )
        with pytest.raises(DomainError):
            to_negative_weekly_log_returns(make_sample([1, 2, 3, 4], dates=dates))


def test_ingest_rejects_short_files(tmp_path):
    # The sample container requires at least 4 observations, so a 3-row
    # file is rejected at construction with a clear message.
    p = tmp_path / "x.csv"
    p.write_text("a,b\n1,2\n3,4\n5,6\n")
    with pytest.raises(DomainError, match="at least 4"):
        ingest_csv(p)
