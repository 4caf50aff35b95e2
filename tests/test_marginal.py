"""Univariate tail estimators: expectiles, Hill index, quantile-based
expectiles, Weissman quantiles and extrapolation."""

import math

import numpy as np
import pytest
from conftest import level_grid, tail_panels
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailjoint import marginal
from tailjoint.errors import RAISE, DomainError, LevelError, TailjointError
from tailjoint.marginal import (
    _hill_sorted,
    _laws_sorted,
    _sum_shift,
    _sums_sorted,
    estimate_margins,
    fit_column,
    laws_expectile,
    m_function,
    qb_factor,
)
from tailjoint.sample import MultivariateSample, tau_from_k
from tailjoint.simulation import SimulationModel, rng_stream, sample_model


def golden_section_expectile(x, tau, tol=1e-9):
    """Independent oracle: minimize the asymmetric squared loss directly.

    The loss is evaluated in extended precision because its float64
    plateau around the minimizer is wider than the 1e-8 agreement target.
    """
    x = np.asarray(x, dtype=np.longdouble)
    tau = np.longdouble(tau)

    def loss(theta):
        y = x - np.longdouble(theta)
        w = np.where(y > 0.0, tau, 1.0 - tau)
        return np.sum(w * y * y)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(x.min()), float(x.max())
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = loss(c), loss(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = loss(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = loss(d)
    return 0.5 * (a + b)


class TestLawsExpectile:
    def test_two_point_median_level(self):
        assert laws_expectile([0.0, 1.0], 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_three_point_hand_solution(self):
        # tau=0.9 on {0,1,2}: the root lies on the segment (1,2) where
        # 0.9(2-theta) = 0.1 theta + 0.1(theta-1), giving theta = 19/11.
        assert laws_expectile([0.0, 1.0, 2.0], 0.9) == pytest.approx(
            19.0 / 11.0, rel=1e-12
        )

    def test_tau_half_is_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=37)
        assert laws_expectile(x, 0.5) == pytest.approx(float(x.mean()), rel=1e-12)

    def test_breakpoint_root(self):
        # Symmetric sample where the root is exactly the middle observation.
        assert laws_expectile([-1.0, 0.0, 1.0], 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_tau(self):
        with pytest.raises(DomainError):
            laws_expectile([0.0, 1.0], 1.0)

    def test_oracle_agreement_sweep(self):
        # Acceptance criterion: 1000 random samples, n <= 50, against the
        # golden-section minimizer of the asymmetric squared loss.
        rng = np.random.default_rng(2024)
        taus = (0.5, 0.9, 0.99)
        for trial in range(1000):
            n = int(rng.integers(2, 51))
            x = rng.standard_t(3, size=n) if trial % 2 else rng.pareto(2.5, size=n)
            tau = taus[trial % 3]
            exact = laws_expectile(x, tau)
            approx = golden_section_expectile(x, tau)
            assert exact == pytest.approx(approx, abs=1e-8), (trial, n, tau)

    def test_strictly_inside_range(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=30)
        for tau in (0.1, 0.5, 0.9, 0.99):
            e = laws_expectile(x, tau)
            assert x.min() < e < x.max() or math.isclose(e, x.min()) or math.isclose(e, x.max())

    @pytest.mark.parametrize("n", [50, 51, 137])
    @pytest.mark.parametrize("c", [7.3, 1e-10, 4e-300])
    def test_constant_column_is_its_value_at_every_level(self, c, n):
        # Rounding put the segment root num/den off the constant, and not
        # monotone across levels; clamped to its segment, it is the value.
        levels = np.array([[1.0 - k / n] for k in range(2, n)])
        xi = _laws_sorted(np.full((1, n), c), levels)
        assert np.all(xi == c)
        assert laws_expectile([c] * n, 0.9) == c

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(9)
        x = rng.pareto(3.0, size=50)
        vals = [laws_expectile(x, t) for t in (0.5, 0.7, 0.9, 0.95, 0.99)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=20),
        st.floats(0.05, 0.95),
        st.floats(0.1, 10.0),
        st.floats(-50.0, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_location_scale_equivariance(self, x, tau, a, b):
        base = laws_expectile(x, tau)
        shifted = laws_expectile([a * v + b for v in x], tau)
        assert shifted == pytest.approx(a * base + b, rel=1e-9, abs=1e-7)


def full_scan_laws(xs, tau):
    """The LAWS root of each ascending row of xs, with psi rebuilt from a
    fresh cumulative sum at this level: the reference the cached sums must
    reproduce bit for bit."""
    n = xs.shape[1]
    cum = np.cumsum(xs, axis=1)
    total = cum[:, -1:]
    below = np.arange(1, n + 1)
    above = n - below
    s_below = cum
    s_above = total - cum
    psi = tau * (s_above - above * xs) + (1.0 - tau) * (s_below - below * xs)
    rows = np.arange(xs.shape[0])
    m = np.argmax(psi <= 0.0, axis=1)
    at_point = (m == 0) | (psi[rows, m] == 0.0)
    s_lo = cum[rows, m - 1]
    s_hi = total[:, 0] - s_lo
    num = tau * s_hi + (1.0 - tau) * s_lo
    den = tau * (n - m) + (1.0 - tau) * m
    root = np.clip(num / den, xs[rows, m - 1], xs[rows, m])
    return np.where(at_point, xs[rows, m], root)


class TestLawsFromCachedSums:
    @given(tail_panels())
    @settings(max_examples=60, deadline=None)
    def test_root_equals_full_scan(self, s):
        xs = s.sorted_columns
        for tau in level_grid(s.n):
            want = full_scan_laws(xs, tau)
            for j in range(s.d):
                assert laws_expectile(s.column(j), tau) == want[j]
            try:
                fit = estimate_margins(s, tau)
            except TailjointError:
                continue  # the Hill part of the fit raises before LAWS is read
            assert np.array_equal(fit.xi_laws, want)


def whole_row_laws(xs, tau):
    """full_scan_laws of the rows of xs after the exact power-of-two scaling
    that ``_laws_sorted`` applies to rows near the float maximum."""
    shift = _sum_shift(xs)
    return np.ldexp(full_scan_laws(np.ldexp(xs, -shift[:, None]), tau), shift)


def assert_same_bits(got, want) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def window_cases(draw):
    """1..4 ascending rows of n = 5..5000 Pareto points, continuous, rounded
    (tied), constant, mixed-sign, nearly constant, flat from some rank on,
    or holding a NaN, at scales from subnormal to the float maximum; and
    1..3 levels of level_grid(n), where short rows and low levels take no
    window."""
    kind = draw(st.sampled_from(
        ["continuous", "rounded", "constant", "mixed", "near-constant", "flat top", "nan"]
    ))
    n = draw(st.integers(500 if kind == "near-constant" else 5, 5000))
    rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 1.0 + rng.pareto(draw(st.floats(1.5, 8.0)), size=(rows, n))
    if kind == "rounded":
        x = np.round(x, 1)
    elif kind == "constant":
        x[0] = x[0, 0]
    elif kind == "mixed":
        x -= np.median(x)
    elif kind == "near-constant":
        # A spread of about n/10 units in the last place, where psi is
        # within its rounding error of 0 along much of the row.
        x = 1.0 + n * 2.0**-52 * 0.1 * x
    elif kind == "flat top":
        x = np.minimum(x, np.quantile(x, draw(st.floats(0.05, 0.95))))
    elif kind == "nan":
        x[0, rng.integers(n)] = np.nan
    scale = draw(st.sampled_from([1.0, 1e-300, 5e-324, 1e300, 0.0]))
    x = x * scale if scale else x / np.nanmax(np.abs(x)) * 1.7e308
    # Levels of the whole grid, of its top tenth (1 - k/n for k <= n/10 + 1)
    # and of its top hundredth.
    grid = level_grid(n)
    level = st.one_of(
        st.sampled_from(grid), *(st.sampled_from(grid[23 : 24 + n // top]) for top in (10, 100))
    )
    return np.sort(x, axis=1), draw(st.lists(level, min_size=1, max_size=3))


# Rows of 1 plus about 100 units in the last place: psi is within its
# rounding error of 0 along much of each row, so a certificate 10^6 times
# too weak takes the window's breakpoint for most of them.
NEARLY_CONSTANT = (
    np.sort(1.0 + (1.0 + np.random.default_rng(3).pareto(3.0, (64, 1000))) * 100 * 2.0**-52),
    [0.999, 0.998, 0.995, 0.99],
)


def whole_row_searches(monkeypatch) -> list:
    """Record the number of rows of every whole-row search that a windowed
    search falls back to (``marginal._breakpoint`` with start 0)."""
    calls = []
    original = marginal._breakpoint

    def recording(xs, t, start=None):
        if start == 0:
            calls.append(len(xs))
        return original(xs, t, start)

    monkeypatch.setattr(marginal, "_breakpoint", recording)
    return calls


class TestLawsTailWindow:
    """At one level the breakpoint is searched on a certified tail window of
    each row; the root must be the whole-row search's to the bit."""

    @given(window_cases())
    @example(NEARLY_CONSTANT)
    @settings(max_examples=150, deadline=None)
    def test_root_equals_full_scan(self, case):
        xs, levels = case
        with np.errstate(all="ignore"):
            for tau in levels:
                assert_same_bits(_laws_sorted(xs, tau), whole_row_laws(xs, tau))

    def test_pareto_rows_take_the_window(self, monkeypatch):
        xs = np.sort(1.0 + np.random.default_rng(1).pareto(3.0, (6, 1000)), axis=1)
        calls = whole_row_searches(monkeypatch)
        for tau in (0.9, 0.95, 0.99):
            assert_same_bits(_laws_sorted(xs, tau), full_scan_laws(xs, tau))
        assert calls == []

    @pytest.mark.parametrize(
        "row",
        [np.full(1000, 2.3), np.r_[np.zeros(400), np.ones(600)]],
        ids=["constant", "root below the window"],
    )
    def test_row_searched_whole(self, row, monkeypatch):
        # The 0/1 row's root, 570/590, lies in (x[399], x[400]): its
        # breakpoint, 400, is below the window's first position, 742.
        pareto = np.sort(1.0 + np.random.default_rng(2).pareto(3.0, 1000))
        xs = np.vstack([pareto, row, pareto])
        calls = whole_row_searches(monkeypatch)
        assert_same_bits(_laws_sorted(xs, 0.95), full_scan_laws(xs, 0.95))
        assert calls == [1]


def assert_levels_match_single_calls(xs, levels) -> None:
    """_laws_sorted of the ascending rows xs at the (L, 1) array of levels
    equals, bit for bit, its L single-level calls, in which psi is
    evaluated at every point."""
    xs = np.sort(np.asarray(xs, dtype=float), axis=1)
    tau = np.asarray(levels, dtype=float).reshape(-1, 1)
    got = _laws_sorted(xs, tau)
    want = np.array([_laws_sorted(xs, float(t)) for t in tau[:, 0]])
    assert got.shape == want.shape == (len(tau), len(xs))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def level_search_cases(draw):
    """Rows of n = 4..60 points, continuous, rounded (tied), constant or
    rounded with mixed signs, and 2..12 levels drawn, unsorted, from a pool
    of 4, so that some repeat."""
    n, rows = draw(st.integers(4, 60)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_t(3.0, size=(rows, n))
    kind = draw(st.sampled_from(["continuous", "rounded", "constant", "mixed"]))
    if kind == "rounded":
        x = np.round(np.abs(x), 1)
    elif kind == "constant":
        x[0] = draw(st.sampled_from([0.01, 0.1, 2.3, -1.3, 1e-300]))
    elif kind == "mixed":
        x = np.round(x, 1)
    pool = draw(st.lists(st.floats(0.01, 0.99), min_size=4, max_size=4))
    return x, draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))


class TestLawsLevelSearch:
    """The breakpoints of many levels from one search over the levels."""

    def test_cli_d5_panel_over_the_scan_levels(self):
        s = sample_model(
            SimulationModel.gaussian_student(d=5, gamma=0.25), 5000, rng_stream(1, 0)
        )
        assert_levels_match_single_calls(
            s.sorted_columns, [1.0 - k / 5000 for k in range(50, 501)]
        )

    @given(level_search_cases())
    @settings(max_examples=150, deadline=None)
    def test_panels_and_level_lists(self, case):
        assert_levels_match_single_calls(*case)

    def test_unsorted_and_repeated_levels(self):
        rng = np.random.default_rng(3)
        x = rng.pareto(3.0, size=(3, 200))
        assert_levels_match_single_calls(x, [0.9, 0.5, 0.99, 0.9, 0.1, 0.5, 0.97])

    def test_constant_column(self):
        x = np.vstack([np.full(14, 2.3), np.arange(14.0)])
        _, a, b = _sums_sorted(x)
        assert np.any((a[0] < 0.0) | (b[0] > 0.0))
        assert_levels_match_single_calls(x, np.linspace(0.05, 0.95, 19))

    def test_mixed_sign_rounded_column(self):
        x = np.array([[-3.1, 0.0, 0.1, 0.4, 1.0, 1.3, 1.8, 1.8]])
        _, a, b = _sums_sorted(x)
        assert np.any((a < 0.0) | (b > 0.0))
        assert_levels_match_single_calls(x, np.linspace(0.01, 0.99, 99))

    def test_four_points_two_levels(self):
        assert_levels_match_single_calls([[0.5, 1.0, 2.0, 7.0]], [0.75, 0.25])


def empirical_quantile(x, tau):
    """The intermediate quantile of fit_column(x, tau)."""
    return float(fit_column(x, tau).q_hat[0])


def hill_estimator(x, k):
    """The Hill estimate of fit_column at the level of effective size k."""
    return float(fit_column(x, tau_from_k(len(x), k)).gamma_hat[0])


class TestEmpiricalQuantile:
    def test_ten_points(self):
        x = list(range(1, 11))
        assert empirical_quantile(x, 0.75) == 8.0

    def test_most_extreme_level_gives_second_largest(self):
        # k = 1 is the smallest size a fit accepts: the threshold is the
        # second-largest value, and a level of k = 0 fails the Hill fit.
        x = list(range(1, 11))
        assert empirical_quantile(x, 0.9) == 9.0
        with pytest.raises(LevelError, match="outside"):
            empirical_quantile(x, 0.999)

    def test_three_points(self):
        assert empirical_quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_small_level_gives_minimum(self):
        # tau close to 0 drives the index to the smallest order statistic.
        assert empirical_quantile([3.0, 1.0, 2.0], 1e-9) == 1.0


@st.composite
def hill_cases(draw):
    """Ascending positive rows of n = 3..80 points, continuous, tied
    (rounded), integer, or scaled to 1e-300 or 1e300; and 1..12 effective
    sizes in [1, n - 1], unsorted, some repeated."""
    n, rows = draw(st.integers(3, 80)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.minimum(1.0 + rng.pareto(draw(st.floats(1.0, 6.0)), size=(rows, n)), 1e6)
    kind = draw(st.sampled_from(["continuous", "tied", "integer", "tiny", "huge"]))
    x = {
        "continuous": x, "tied": np.round(x, 1), "integer": np.ceil(4.0 * x),
        "tiny": x * 1e-300, "huge": x * 1e300,
    }[kind]
    sizes = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=12))
    return np.sort(x, axis=1), sizes


class TestHillEstimator:
    def test_exact_log_powers(self):
        assert hill_estimator([1.0, math.e, math.e**2], 2) == pytest.approx(
            1.5, rel=1e-12
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.pareto(2.0, size=100) + 1.0
        assert hill_estimator(x, 30) == pytest.approx(
            hill_estimator(x * 17.0, 30), rel=1e-12
        )

    def test_pareto_quantile_grid(self):
        # Deterministic grid of exact Pareto(gamma=1/3) quantiles.
        n = 10_000
        u = (np.arange(1, n + 1) - 0.5) / n
        x = (1.0 - u) ** (-1.0 / 3.0)
        assert hill_estimator(x, 100) == pytest.approx(1.0 / 3.0, abs=0.05)

    def test_nonpositive_threshold(self):
        with pytest.raises(DomainError, match="positive tail"):
            hill_estimator([-3.0, -2.0, -1.0, 1.0], 3)
        # The same column in a sample, fitted at k = 3: a fit that raises is
        # not kept, so the next call raises again.
        s = MultivariateSample([[-3.0], [-2.0], [-1.0], [1.0]], ("a",))
        for _ in range(2):
            with pytest.raises(DomainError, match="positive tail"):
                estimate_margins(s, 0.25)

    def test_bad_k(self):
        with pytest.raises(LevelError):
            hill_estimator([1.0, 2.0, 3.0], 3)

    @given(hill_cases())
    @settings(max_examples=150, deadline=None)
    def test_sizes_at_once_equal_each_size_alone(self, case):
        # Each row of an (L, 1) array of sizes is its size's own call, and
        # np.mean of its top log-excesses, to the bit.
        xs, sizes = case
        n = xs.shape[1]
        got = _hill_sorted(xs, np.array(sizes)[:, None], RAISE)
        assert got.shape == (len(sizes), len(xs))
        for row, size in zip(got, sizes):
            alone = _hill_sorted(xs, size, RAISE)
            mean = np.mean(np.log(xs[:, n - size :] / xs[:, n - 1 - size, None]), axis=1)
            assert np.array_equal(row.view(np.int64), alone.view(np.int64))
            assert np.array_equal(alone.view(np.int64), mean.view(np.int64))


class TestFitLevelCheck:
    """A level outside (0, 1) is a LevelError of the fit itself, raised
    before its effective size is formed: no cast warning (an error under
    this suite's settings) and no Hill message about a negative k."""

    @pytest.mark.parametrize(
        "tau, message",
        [(-1e20, r"tau must be in \(0,1\), got -1e\+20"),
         (0.0, r"tau must be in \(0,1\), got 0.0"),
         (1.0, r"tau must be in \(0,1\), got 1.0"),
         (1.5, r"tau must be in \(0,1\), got 1.5"),
         (math.nan, "tau must be finite, got nan")],
    )
    def test_level_outside_the_unit_interval(self, tau, message):
        x = np.arange(1.0, 101.0)
        with pytest.raises(LevelError, match=message):
            fit_column(x, tau)
        s = MultivariateSample(x[:, None], ("a",))
        with pytest.raises(LevelError, match=message):
            estimate_margins(s, tau)
        assert s._fits == {}


class TestFitKeptOnSample:
    def test_fit_arrays_read_only(self):
        rng = np.random.default_rng(3)
        s = MultivariateSample(rng.pareto(3.0, size=(200, 2)) + 1.0, ("a", "b"))
        fit = estimate_margins(s, 0.9)
        for arr in (fit.gamma_hat, fit.q_hat, fit.xi_laws):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert estimate_margins(s, 0.9) is fit


class TestQbFactor:
    def test_half_is_one(self):
        assert qb_factor(0.5) == pytest.approx(1.0, rel=1e-14)

    def test_one_third(self):
        assert qb_factor(1.0 / 3.0) == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-12)

    def test_small_gamma_near_one(self):
        assert qb_factor(0.01) == pytest.approx(99.0**-0.01, rel=1e-12)
        assert qb_factor(0.01) == pytest.approx(0.9551, abs=5e-4)

    def test_domain(self):
        for g in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DomainError):
                qb_factor(g)

    def test_qb_expectile_composition(self):
        rng = np.random.default_rng(6)
        x = rng.pareto(3.0, size=500) + 1.0
        tau = 0.9
        fit = fit_column(x, tau)
        assert fit.xi_qb[0] == pytest.approx(
            qb_factor(fit.gamma_hat[0]) * empirical_quantile(x, tau), rel=1e-12
        )


class TestExtrapolation:
    @staticmethod
    def pareto_sample(seed=5, n=500):
        rng = np.random.default_rng(seed)
        return rng.pareto(3.0, size=n) + 1.0

    def test_weissman_factor_half(self):
        # gamma-hat = 0.5 across one decade multiplies by 10^0.5.
        x = self.pareto_sample()
        tau, tau_prime = 0.9, 0.99
        fit = fit_column(x, tau)
        g = fit.gamma_hat[0]
        expected = ((1.0 - tau_prime) / (1.0 - tau)) ** -g * empirical_quantile(x, tau)
        assert fit.weissman_quantiles(tau_prime)[0] == pytest.approx(expected, rel=1e-12)

    def test_decade_factor_values(self):
        assert 10.0**0.5 == pytest.approx(3.16228, abs=1e-5)
        assert 10.0 ** (1.0 / 3.0) == pytest.approx(2.15443, abs=1e-5)
        assert 2.0 ** (-1.0 / 3.0) * 10.0 ** (1.0 / 3.0) == pytest.approx(
            1.70998, abs=1e-5
        )

    def test_tau_prime_equal_tau_is_identity(self):
        x = self.pareto_sample()
        tau = 0.9
        fit = fit_column(x, tau)
        assert fit.weissman_quantiles(tau)[0] == pytest.approx(
            empirical_quantile(x, tau), rel=1e-12
        )
        assert fit.xi_star_laws(tau)[0] == pytest.approx(laws_expectile(x, tau), rel=1e-12)
        assert fit.xi_star_qb(tau)[0] == pytest.approx(fit.xi_qb[0], rel=1e-12)

    def test_qb_extrapolation_identity(self):
        # (qb factor) x (Weissman quantile) == (extrapolation factor) x (QB
        # intermediate expectile): both routes to 1e-12.
        x = self.pareto_sample()
        tau, tau_prime = 0.9, 0.999
        fit = fit_column(x, tau)
        g = fit.gamma_hat[0]
        route_a = qb_factor(g) * fit.weissman_quantiles(tau_prime)[0]
        route_b = ((1.0 - tau_prime) / (1.0 - tau)) ** -g * fit.xi_qb[0]
        assert fit.xi_star_qb(tau_prime)[0] == pytest.approx(route_a, rel=1e-12)
        assert route_a == pytest.approx(route_b, rel=1e-12)

    def test_laws_extrapolation_composition(self):
        x = self.pareto_sample()
        tau, tau_prime = 0.9, 0.999
        fit = fit_column(x, tau)
        g = fit.gamma_hat[0]
        assert fit.xi_star_laws(tau_prime)[0] == pytest.approx(
            ((1.0 - tau_prime) / (1.0 - tau)) ** -g * laws_expectile(x, tau),
            rel=1e-12,
        )

    def test_levels_validated(self):
        x = self.pareto_sample()
        with pytest.raises(LevelError):
            fit_column(x, 0.99).weissman_quantiles(0.9)

    def test_continuity_in_tau_prime(self):
        x = self.pareto_sample()
        fit = fit_column(x, 0.9)
        vals = [fit.xi_star_laws(tp)[0] for tp in (0.9, 0.90001, 0.95, 0.99, 0.999)]
        assert vals[1] == pytest.approx(vals[0], rel=1e-3)
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def _composed(name, x, tau, tau_prime):
    """Each estimate that fit_column gives a column, composed by hand from
    the primitive estimates (the fit's Hill index and intermediate
    quantile, and laws_expectile), in the order the formulas read them."""
    fit = fit_column(x, tau)
    gamma, q = float(fit.gamma_hat[0]), float(fit.q_hat[0])
    if name == "gamma_hat":
        return gamma
    if name == "xi_qb":
        return qb_factor(gamma) * q
    if not 0.0 < tau <= tau_prime < 1.0:
        raise LevelError(
            f"extrapolation requires tau <= tau_prime in (0,1), got {tau}, {tau_prime}"
        )
    factor = ((1.0 - tau_prime) / (1.0 - tau)) ** -gamma
    if name == "weissman_quantiles":
        return factor * q
    if name == "xi_star_laws":
        return factor * laws_expectile(x, tau)
    return qb_factor(gamma) * (factor * q)


def _outcome(f, *args):
    try:
        return f(*args)
    except TailjointError as exc:
        return type(exc), str(exc)


def _read_fit(name, x, tau, tau_prime):
    """The estimate name of fit_column(x, tau), at tau_prime if extrapolated,
    as a float."""
    value = getattr(fit_column(x, tau), name)
    return float((value if name in ("gamma_hat", "xi_qb") else value(tau_prime))[0])


def test_univariate_extrapolators_read_one_fit():
    # Random columns, including negative, tied and two-point ones, at levels
    # inside and outside (0,1) and with tau_prime below tau: every value is
    # bit-identical to the hand composition, and every error has the same
    # class and message.
    rng = np.random.default_rng(17)
    names = ("gamma_hat", "xi_qb", "weissman_quantiles", "xi_star_laws", "xi_star_qb")
    errors = 0
    for case in range(300):
        n = (2, 3, 7, 40, 250)[case % 5]
        x = rng.pareto(1.0 + case % 4, size=n) + 1.0 - 1.5 * (case % 3 == 0)
        if case % 4 == 1:
            x = np.round(x)
        tau = (-0.1, 0.0, 0.3, 0.8, 0.9, 0.97, 1.0, 1.2)[case % 8]
        tau_prime = (0.2, 0.95, 0.999, 1.0)[case % 4]
        for name in names:
            got = _outcome(_read_fit, name, x, tau, tau_prime)
            want = _outcome(_composed, name, x, tau, tau_prime)
            assert got == want, (case, name)
            errors += isinstance(want, tuple)
    assert 0 < errors < 5 * 300


class TestGainLossRatio:
    """The tau-expectile is the point whose share of absolute deviation at
    or below it is tau."""

    @staticmethod
    def gain_loss_ratio(x, theta):
        dev = np.abs(np.asarray(x) - theta)
        return dev[np.asarray(x) <= theta].sum() / dev.sum()

    def test_hand_case(self):
        theta = laws_expectile([0.0, 1.0, 2.0], 0.9)
        assert self.gain_loss_ratio([0.0, 1.0, 2.0], theta) == pytest.approx(
            0.9, rel=1e-12
        )

    def test_symmetric_two_point(self):
        theta = laws_expectile([0.0, 1.0], 0.5)
        assert self.gain_loss_ratio([0.0, 1.0], theta) == pytest.approx(0.5)

    def test_matches_expectile_level(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=101)
        for tau in (0.3, 0.5, 0.9, 0.97):
            theta = laws_expectile(x, tau)
            assert self.gain_loss_ratio(x, theta) == pytest.approx(tau, abs=1e-10)


class TestMFunction:
    def test_half(self):
        assert m_function(0.5) == pytest.approx(2.0, rel=1e-14)

    def test_one_third(self):
        assert m_function(1.0 / 3.0) == pytest.approx(1.5 - math.log(2.0), rel=1e-12)
        assert m_function(1.0 / 3.0) == pytest.approx(0.806853, abs=1e-6)

    def test_reflection_identity(self):
        x = 0.25
        assert m_function(x) + m_function(1.0 - x) == pytest.approx(
            1.0 / x + 1.0 / (1.0 - x), rel=1e-12
        )
        assert 1.0 / x + 1.0 / (1.0 - x) == pytest.approx(16.0 / 3.0, rel=1e-14)

    def test_domain(self):
        for x in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                m_function(x)
