"""Sample container, ranks, order statistics, CSV I/O and the weekly
returns transform."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        # Unchecked, [-1] slices no cached column: a one-column sub-sample
        # whose fit holds empty arrays.
        s = make_sample([1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12])
        with pytest.raises(DomainError, match="margin index"):
            s.select(indices)

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

    def test_select_of_adjacent_columns_shares_rows(self):
        rng = np.random.default_rng(11)
        s = make_sample(*rng.normal(size=(4, 30)))
        for group in ([1, 2], [0, 1, 2, 3]):
            sub = s.select(group)
            self.assert_matches_fresh_sort(sub)
            for a, b in ((sub._columns, s._columns), (sub.sorted_columns, s.sorted_columns),
                         (sub._order, s._order), (sub._ranks, s._ranks),
                         (sub._laws_sums[0], s._laws_sums[0])):
                assert np.shares_memory(a, b)
        assert not np.shares_memory(s.select([2, 0])._columns, s._columns)

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
        assert np.array_equal(s._order, order)
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

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        s = make_sample(rng.normal(size=20), rng.pareto(3.0, size=20) + 1.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(s, p1)
        s2 = ingest_csv(p1)
        emit_csv(s2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(s.values, s2.values)


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
