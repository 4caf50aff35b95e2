"""Special functions, SPD matrix algebra, and tail-box quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tailjoint.errors import (
    DomainError,
    NotPositiveSemidefiniteError,
    NumericError,
    SingularCovarianceError,
)
from tailjoint.numerics import (
    SpdMatrix,
    chi_square_cdf,
    chi_square_quantile,
    chi_square_sf,
    integrate_tail_box,
    std_normal_quantile,
)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_upper_975(self):
        # Oracle: bisection on the normal CDF, frozen.
        assert std_normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-10)

    def test_antisymmetry(self):
        assert std_normal_quantile(0.9) == pytest.approx(-std_normal_quantile(0.1), abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.3, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            std_normal_quantile(p)

    def test_equals_scipy_stats(self):
        grid = [1e-300, 1e-16, 1e-8, *np.linspace(0.001, 0.999, 37), 1.0 - 1e-12]
        for p in grid:
            assert std_normal_quantile(float(p)) == stats.norm.ppf(p)


class TestChiSquareQuantile:
    # Frozen reference values; accuracy requirement 5e-4.
    @pytest.mark.parametrize(
        "df,expected",
        [(1, 3.8415), (3, 7.8147), (4, 9.4877)],
    )
    def test_nominal_rows(self, df, expected):
        assert chi_square_quantile(0.95, df) == pytest.approx(expected, abs=5e-4)

    def test_two_df_closed_form(self):
        # chi2(2) is Exp(1/2): quantile = -2 log(1-p).
        assert chi_square_quantile(0.95, 2) == pytest.approx(-2.0 * np.log(0.05), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi_square_quantile(0.95, 0)
        with pytest.raises(DomainError):
            chi_square_quantile(1.0, 2)


class TestChiSquareTails:
    @pytest.mark.parametrize("df", [1.5, 0, -1, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("name,fn", [("cdf", chi_square_cdf), ("sf", chi_square_sf)])
    def test_df_validated_like_the_quantile(self, name, fn, df):
        with pytest.raises(DomainError, match=f"chi-square {name} requires integer df >= 1, got"):
            fn(3.0, df)

    def test_quantile_rejects_fractional_df(self):
        with pytest.raises(DomainError, match="chi-square quantile requires integer df >= 1, got 1.5"):
            chi_square_quantile(0.95, 1.5)

    def test_integral_float_df_accepted(self):
        assert chi_square_cdf(3.0, 2.0) == chi_square_cdf(3.0, 2)

    def test_sf_far_tail(self):
        # 1 - cdf is 0.0 here; chi2(2) has the closed-form tail exp(-x/2).
        assert 1.0 - chi_square_cdf(200.0, 2) == 0.0
        assert chi_square_sf(200.0, 2) == pytest.approx(np.exp(-100.0), rel=1e-13)


@pytest.mark.parametrize("p", np.arange(0.01, 1.0, 0.07))
def test_cdf_quantile_roundtrip(p):
    p = float(p)
    assert stats.norm.cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-8)
    assert chi_square_cdf(chi_square_quantile(p, 3), 3) == pytest.approx(p, abs=1e-8)


class TestSpdMatrix:
    def test_sqrt_identity(self):
        s = SpdMatrix.from_array(np.eye(3)).sqrt()
        assert np.allclose(s.entries, np.eye(3), atol=1e-12)

    def test_sqrt_diag(self):
        s = SpdMatrix.from_array(np.diag([4.0, 9.0])).sqrt()
        assert np.allclose(s.entries, np.diag([2.0, 3.0]), atol=1e-12)

    def test_sqrt_reconstructs(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        s = SpdMatrix.from_array(m).sqrt().entries
        assert np.linalg.norm(s @ s - m) < 1e-9

    def test_sqrt_symmetric_psd(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        m = a @ a.T
        s = SpdMatrix.from_array(m).sqrt().entries
        assert np.allclose(s, s.T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(s)) >= -1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            SpdMatrix.from_array(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_small_negative_eigenvalue_clipped(self):
        m = np.array([[1.0, 1.0 + 1e-9], [1.0 + 1e-9, 1.0]])
        spd = SpdMatrix.from_array(m)
        assert np.min(np.linalg.eigvalsh(spd.entries)) >= -1e-12

    def test_large_negative_eigenvalue_errors(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveSemidefiniteError):
            SpdMatrix.from_array(m)


def quadratic_form(m, v) -> float:
    return SpdMatrix.from_array(m).quadratic_form(v)


class TestQuadraticForm:
    def test_identity(self):
        assert quadratic_form(np.eye(2), [3.0, 4.0]) == pytest.approx(25.0)

    def test_diag(self):
        assert quadratic_form(np.diag([1.0, 4.0]), [0.0, 2.0]) == pytest.approx(1.0)

    def test_hand_inverse(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert quadratic_form(m, [1.0, 1.0]) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_singular_errors(self):
        with pytest.raises(SingularCovarianceError):
            quadratic_form(np.array([[1.0, 1.0], [1.0, 1.0]]), [1.0, 0.0])

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, v):
        m = np.diag([1.0, 2.0, 3.0]) + 0.5
        q = quadratic_form(m, v)
        assert q >= 0.0
        if not any(v):
            assert q == 0.0


def power_copula(a):
    """R(u, v) = u^a v^(1-a): homogeneous of order 1, and it turns the tail
    box into a product of two 1-D power integrals."""
    return lambda u, v: u**a * v ** (1.0 - a)


class TestIntegrate2dTailbox:
    # integrate_tail_box(R, c1, c2, g1, g2, w) is the integral over [1,inf)^2
    # of R(c1 x^(-1/g1), c2 y^(-1/g2)) x^(-w).  With c1 = c2 = 1 and
    # R = power_copula(1/2), g1 = 1/(2a), g2 = 1/(2b), the integrand is
    # x^(-a-w) y^(-b), whose integral is 1/((a+w-1)(b-1)).
    def test_product_power(self):
        val = integrate_tail_box(power_copula(0.5), 1.0, 1.0, 1.0 / 6.0, 1.0 / 6.0, 0)
        assert val == pytest.approx(0.25, rel=1e-10)

    def test_max_power_closed_form(self):
        # integral of max(x,y)^(-3) over [1,inf)^2 is exactly 1:
        # 2*int_1^inf x^(-3)(x-1) dx = 2*(1 - 1/2) = 1, which also equals
        # 2*g^2/((1-2g)(1-g)) at g=1/3.
        g = 1.0 / 3.0
        closed = 2.0 * g**2 / ((1.0 - 2.0 * g) * (1.0 - g))
        assert closed == pytest.approx(1.0, rel=1e-14)
        # min(x^(-3), y^(-3)) = max(x,y)^(-3): the comonotone kink along
        # x=y is what the theoretical covariances meet.
        val = integrate_tail_box(np.minimum, 1.0, 1.0, g, g, 0)
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_zero_integrand(self):
        assert integrate_tail_box(lambda u, v: 0.0 * u, 2.0, 3.0, 0.3, 0.2, 0) == 0.0

    @pytest.mark.parametrize("a,b", [(2.0, 3.0), (3.0, 4.0)])
    def test_analytic_powers(self, a, b):
        for w in (0, 1):
            val = integrate_tail_box(
                power_copula(0.5), 1.0, 1.0, 0.5 / a, 0.5 / b, w
            )
            assert val == pytest.approx(1.0 / ((a + w - 1.0) * (b - 1.0)), rel=1e-10)

    def test_half_integer_powers(self):
        val = integrate_tail_box(power_copula(0.5), 1.0, 1.0, 0.2, 1.0 / 7.0, 0)
        assert val == pytest.approx(1.0 / (1.5 * 2.5), rel=1e-10)

    @pytest.mark.parametrize("a,b", [(1.5, 4.0), (1.2, 2.0)])
    def test_slow_decay_adaptive(self, a, b):
        # Powers close to 1 leave a near-singular t^(-1+eps) end in the 1-D
        # integrand; the adaptive rule still resolves it.
        val = integrate_tail_box(power_copula(0.5), 1.0, 1.0, 0.5 / a, 0.5 / b, 0)
        assert val == pytest.approx(1.0 / ((a - 1.0) * (b - 1.0)), rel=1e-8)

    def test_scales_and_unequal_exponent(self):
        # R = u^a v^(1-a) with scales c1, c2 pulls out c1^a c2^(1-a).
        a, c1, c2, g1, g2 = 0.3, 4.0, 1.5, 0.25, 0.2
        for w in (0, 1):
            val = integrate_tail_box(power_copula(a), c1, c2, g1, g2, w)
            closed = c1**a * c2 ** (1.0 - a) / (
                (a / g1 + w - 1.0) * ((1.0 - a) / g2 - 1.0)
            )
            assert val == pytest.approx(closed, rel=1e-10)

    def test_nonfinite_integrand_errors(self):
        with np.errstate(divide="ignore"), pytest.raises(NumericError):
            integrate_tail_box(lambda u, v: np.float64(u) / 0.0, 1.0, 1.0, 0.3, 0.3, 0)
