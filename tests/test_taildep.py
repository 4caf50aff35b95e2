"""Empirical tail copula, its pair matrices R(1,1) and unit integrals,
extremal coefficient, and the analytic tail-copula oracles."""

import math

import numpy as np
import pytest
from conftest import level_grid, step_unit_integral, tail_panels
from hypothesis import given, settings
from hypothesis import strategies as st

from tailjoint.errors import DomainError
from tailjoint.sample import MultivariateSample, _column_ranks, _stack_columns, effective_k
from tailjoint.taildep import (
    OracleTailCopula,
    _ordered_rows,
    _r11_cut,
    _r11_matrix,
    _tail_points,
    _top_pairs,
    _unit_integral_matrix,
    empirical_tail_copula,
    extremal_coefficient,
)


def pair_sample(x, y):
    return MultivariateSample(
        np.column_stack([np.asarray(x, float), np.asarray(y, float)]), ("a", "b")
    )


def comonotone_sample(n=100, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    return pair_sample(x, 2.0 * x + 1.0)


def antimonotone_sample(n=100, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    return pair_sample(x, -x)


class TestEmpiricalEvaluation:
    def test_comonotone_corner(self):
        s = comonotone_sample()
        assert empirical_tail_copula(s, 0.9, 0, 1).evaluate(1.0, 1.0) == pytest.approx(1.0)

    def test_antimonotone_corner(self):
        s = antimonotone_sample()
        assert empirical_tail_copula(s, 0.9, 0, 1).evaluate(1.0, 1.0) == 0.0

    def test_zero_argument(self):
        s = comonotone_sample()
        assert empirical_tail_copula(s, 0.9, 0, 1).evaluate(0.0, 0.7) == 0.0
        assert empirical_tail_copula(s, 0.9, 0, 1).evaluate(0.7, 0.0) == 0.0

    def test_negative_argument_rejected(self):
        s = comonotone_sample()
        with pytest.raises(DomainError):
            empirical_tail_copula(s, 0.9, 0, 1).evaluate(-0.1, 1.0)

    @pytest.mark.parametrize("u,v", [(math.nan, 1.0), (1.0, math.nan), (math.nan, 0.0)])
    def test_nan_argument_rejected(self, u, v):
        tc = empirical_tail_copula(comonotone_sample(), 0.9, 0, 1)
        with pytest.raises(DomainError, match="nonnegative"):
            tc.evaluate(u, v)

    def test_same_margin_rejected(self):
        s = comonotone_sample()
        with pytest.raises(DomainError):
            empirical_tail_copula(s, 0.9, 0, 0).evaluate(1.0, 1.0)

    def test_values_are_count_multiples(self):
        s = comonotone_sample(n=100)
        tau = 0.9
        k_eff = 100 * (1.0 - tau)
        for u, v in [(0.3, 0.8), (0.5, 0.5), (1.0, 0.2), (2.0, 2.0)]:
            val = empirical_tail_copula(s, tau, 0, 1).evaluate(u, v)
            assert (val * k_eff) == pytest.approx(round(val * k_eff), abs=1e-9)

    def test_monotone_in_each_argument(self):
        rng = np.random.default_rng(12)
        s = pair_sample(rng.normal(size=200), rng.normal(size=200))
        tau = 0.9
        grid = [0.1, 0.3, 0.6, 1.0, 1.5]
        for v in grid:
            vals = [empirical_tail_copula(s, tau, 0, 1).evaluate(u, v) for u in grid]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_symmetric_in_pair_swap(self):
        rng = np.random.default_rng(13)
        s = pair_sample(rng.normal(size=150), rng.normal(size=150))
        a = empirical_tail_copula(s, 0.9, 0, 1).evaluate(0.6, 0.9)
        b = empirical_tail_copula(s, 0.9, 1, 0).evaluate(0.9, 0.6)
        assert a == pytest.approx(b, abs=1e-14)


class TestR11Matrix:
    @given(tail_panels())
    @settings(max_examples=40, deadline=None)
    def test_rank_cut_off_equals_indicator_product(self, s):
        for tau in level_grid(s.n):
            top = (_tail_points(s.ranks.T, tau) <= 1.0).astype(float).T
            want = top.T @ top / (s.n * (1.0 - tau))
            assert np.array_equal(_r11_matrix(_top_pairs(s._stack, tau), s.n, tau)[0], want)

    @given(tail_panels())
    @settings(max_examples=60, deadline=None)
    def test_order_marks_equal_rank_mask(self, s):
        # The mask marked through the row order is the one read from the
        # ranks, on a stack of the panel and its reversal: rounded values
        # and constant runs put ties at the cut-off rank.
        stack = _stack_columns(np.stack([s.values.T, s.values[::-1].T]))
        ranks = _column_ranks(stack.order)
        for tau in level_grid(s.n):
            cut = _r11_cut(s.n, tau)
            rows = stack.order[..., None, cut - 1 :]
            want = ranks[np.arange(2)[:, None, None, None], np.arange(s.d)[:, None], rows] >= cut
            assert np.array_equal(_top_pairs(stack, tau), want)

    @given(n=st.integers(4, 6000), k=st.integers(1, 5999), tau=st.floats(1e-9, 1.0 - 1e-9))
    @settings(max_examples=200, deadline=None)
    def test_cut_off_tests_every_rank(self, n, k, tau):
        # The one rank that _r11_cut tests gives the cut-off that testing
        # every rank 1..n gives, as an int, at 1 - k/n and at any level.
        ranks = np.arange(1, n + 1)
        for t in (tau, 1.0 - min(k, n - 1) / n):
            cut = _r11_cut(n, t)
            assert type(cut) is int and cut == n + 1 - (_tail_points(ranks, t) <= 1.0).sum()

    @given(tail_panels())
    @settings(max_examples=60, deadline=None)
    def test_ordering_only_the_ordered_rows_gives_the_same_mask(self, s):
        # A Monte Carlo stack orders only the _ordered_rows top rows of each
        # column.  At every level that it runs at (Hill size k >= 1) its
        # mask and R-hat(1,1) are those of the fully ordered stack, on a
        # stack of the panel and its reversal: rounded values and constant
        # runs put ties at the cut-off rank.
        columns = np.stack([s.values.T, s.values[::-1].T])
        full = _stack_columns(columns)
        for tau in (t for t in level_grid(s.n) if effective_k(s.n, t) >= 1):
            top = _ordered_rows(s.n, tau)
            assert type(top) is int and s.n + 1 - _r11_cut(s.n, tau) <= top <= s.n
            mask = _top_pairs(_stack_columns(columns, top), tau)
            want = _top_pairs(full, tau)
            assert np.array_equal(mask, want)
            assert np.array_equal(_r11_matrix(mask, s.n, tau), _r11_matrix(want, s.n, tau))


def unit_integrals(s, tau):
    return _unit_integral_matrix(_top_pairs(s._stack, tau), s.n, tau)[0]


class TestUnitIntegral:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_riemann_oracle(self, axis):
        rng = np.random.default_rng(21)
        x = rng.normal(size=150)
        s = pair_sample(x + 0.4 * rng.normal(size=150), x)
        # I[0, 1] integrates along margin 0's axis, I[1, 0] along margin 1's.
        exact = unit_integrals(s, 0.9)[axis, 1 - axis]
        tc = empirical_tail_copula(s, 0.9, 0, 1)
        # Direct Riemann sum over a uniform log-grid of the step function
        # R-hat(u, 1) (axis 0) or R-hat(1, u) (axis 1): the count that
        # tc.evaluate makes at each grid point, read from the sorted points.
        g = np.exp(np.linspace(np.log(1e-6), 0.0, 400_001))
        var, other = (tc.u, tc.v) if axis == 0 else (tc.v, tc.u)
        f = np.searchsorted(np.sort(var[other <= 1.0]), g, side="right") / tc.k_effective
        for i in range(0, g.size, 4_000):
            args = (g[i], 1.0) if axis == 0 else (1.0, g[i])
            assert f[i] == tc.evaluate(*args)
        oracle = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(np.log(g))))
        assert exact == pytest.approx(oracle, abs=1e-3)
        # the step representation is exact: breakpoint refinement converges
        # to it from below at this resolution
        assert exact >= oracle - 1e-3

    def test_exact_breakpoint_formula(self):
        # Hand case: comonotone ranks make the transformed points identical
        # in both coordinates; the integral telescopes over the breakpoints.
        s = comonotone_sample(n=100)
        tau = 0.9
        tc = empirical_tail_copula(s, tau, 0, 1)
        pts = np.sort(tc.u[tc.v <= 1.0])
        pts = pts[pts <= 1.0]
        k_eff = tc.k_effective
        acc = 0.0
        edges = np.append(pts, 1.0)
        for i in range(len(pts)):
            acc += (i + 1) / k_eff * (np.log(edges[i + 1]) - np.log(edges[i]))
        assert unit_integrals(s, tau)[0, 1] == pytest.approx(acc, rel=1e-12)

    def test_tail_independent_zero(self):
        # Antimonotone data: the top-k ranks of one margin are the bottom
        # ranks of the other, so no point satisfies both indicators.
        unit = unit_integrals(antimonotone_sample(), 0.9)
        assert unit[0, 1] == 0.0 and unit[1, 0] == 0.0

    def test_axes_agree_for_exchangeable(self):
        unit = unit_integrals(comonotone_sample(), 0.9)
        assert unit[0, 1] == pytest.approx(unit[1, 0], rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 5),
        n=st.integers(20, 300),
        levels=st.integers(2, 40),
        tau=st.floats(0.05, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pair_matrices_match_step_sums(self, d, n, levels, tau, seed):
        # Integer-valued columns with a shared component: ties within every
        # column and dependence between them.
        rng = np.random.default_rng(seed)
        common = rng.integers(0, levels, size=(n, 1))
        x = common + rng.integers(0, levels, size=(n, d)) * rng.integers(0, 2, size=d)
        s = MultivariateSample(x.astype(float), tuple(f"X{j}" for j in range(d)))
        top = _top_pairs(s._stack, tau)
        unit, r11 = _unit_integral_matrix(top, s.n, tau)[0], _r11_matrix(top, s.n, tau)[0]
        for j in range(d):
            for ell in range(j + 1, d):
                tc = empirical_tail_copula(s, tau, j, ell)
                assert r11[j, ell] == r11[ell, j] == tc.evaluate(1.0, 1.0)
                for got, axis in ((unit[j, ell], 0), (unit[ell, j], 1)):
                    want = step_unit_integral(tc, axis)
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestExtremalCoefficient:
    def test_comonotone(self):
        assert extremal_coefficient(comonotone_sample(), 0.9, 0, 1) == pytest.approx(1.0)

    def test_antimonotone(self):
        assert extremal_coefficient(antimonotone_sample(), 0.9, 0, 1) == pytest.approx(2.0)

    def test_independent_near_two(self):
        rng = np.random.default_rng(99)
        n = 100_000
        s = pair_sample(rng.random(n), rng.random(n))
        tau = 1.0 - 316.0 / n
        assert extremal_coefficient(s, tau, 0, 1) == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, 7), (0, 2), (True, 0), (0, 1.0)])
    @pytest.mark.parametrize("function", [extremal_coefficient, empirical_tail_copula])
    def test_margin_indices_checked(self, function, pair):
        # Unchecked, -1 reads the last column and 7 or 2 raise an IndexError.
        with pytest.raises(DomainError, match="margin index"):
            function(comonotone_sample(), 0.9, *pair)


class TestOracle:
    def test_logistic_one_is_independent(self):
        assert OracleTailCopula.logistic(1.0).evaluate(1.0, 1.0) == 0.0

    def test_logistic_three(self):
        val = OracleTailCopula.logistic(3.0).evaluate(1.0, 1.0)
        assert val == pytest.approx(2.0 - 2.0 ** (1.0 / 3.0), rel=1e-12)
        assert val == pytest.approx(0.740079, abs=1e-6)

    def test_comonotone_min(self):
        assert OracleTailCopula.comonotone().evaluate(2.0, 3.0) == 2.0

    def test_independent_zero(self):
        assert OracleTailCopula.independent().evaluate(5.0, 7.0) == 0.0

    @pytest.mark.parametrize("x,y", [(math.nan, 1.0), (1.0, math.nan), ([0.5, math.nan], 1.0)])
    def test_nan_argument_rejected(self, x, y):
        with pytest.raises(DomainError, match="nonnegative"):
            OracleTailCopula.logistic(2.0).evaluate(x, y)

    def test_invalid_theta(self):
        with pytest.raises(DomainError):
            OracleTailCopula.logistic(0.5)

    def test_r11_consistency(self):
        for orc in (
            OracleTailCopula.independent(),
            OracleTailCopula.comonotone(),
            OracleTailCopula.logistic(3.0),
        ):
            assert orc.r11() == pytest.approx(float(orc.evaluate(1.0, 1.0)), rel=1e-12)

    def test_unit_integral_comonotone(self):
        assert OracleTailCopula.comonotone().unit_integral() == 1.0

    def test_unit_integral_logistic_quadrature(self):
        # Independent check: midpoint Riemann sum of R(u,1)/u on a fine
        # log-grid.
        orc = OracleTailCopula.logistic(3.0)
        t = np.linspace(np.log(1e-10), 0.0, 2_000_001)
        mid = np.exp(0.5 * (t[1:] + t[:-1]))
        vals = orc.evaluate(mid, 1.0)
        oracle = float(np.sum(vals * np.diff(t)))
        assert orc.unit_integral() == pytest.approx(oracle, abs=1e-6)

    def test_mean_r11_gumbel_model(self):
        # Monte Carlo: Gumbel-Frechet dependence with vartheta=3 has limit
        # tail copula logistic(3); mean empirical R(1,1) should approach
        # 2 - 2^(1/3).
        from tailjoint.simulation import SimulationModel, rng_stream, sample_model

        model = SimulationModel.gumbel_frechet(2)
        n, k = 5000, 70
        tau = 1.0 - k / n
        vals = []
        for i in range(500):
            s = sample_model(model, n, rng_stream(42, i))
            vals.append(empirical_tail_copula(s, tau, 0, 1).evaluate(1.0, 1.0))
        assert np.mean(vals) == pytest.approx(2.0 - 2.0 ** (1.0 / 3.0), abs=0.08)
