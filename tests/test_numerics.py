"""Special functions, SPD matrix algebra, and tail-box quadrature."""

import math
import sys

import numpy as np
import pytest
from conftest import gls_deviance
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from tailjoint.errors import (
    DomainError,
    NotPositiveSemidefiniteError,
    NumericError,
    SingularCovarianceError,
)
from tailjoint.numerics import (
    SpdMatrix,
    _log_chi2_lower,
    _ndtr,
    chi_square_quantile,
    chi_square_sf,
    integrate_1d_tail,
    integrate_tail_box,
    integrate_unit_log,
    std_normal_quantile,
)
from tailjoint.taildep import OracleTailCopula


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

    def test_within_8_ulp_of_scipy_on_its_grid(self):
        grid = [1e-300, 1e-16, 1e-8, *np.linspace(0.001, 0.999, 37), 1.0 - 1e-12]
        for p in grid:
            want = special.ndtri(p)
            assert abs(std_normal_quantile(float(p)) - want) <= 8 * math.ulp(want)

    @given(st.one_of(st.floats(1e-300, 1.0), st.floats(-300.0, -1e-3).map(lambda e: 10.0**e)))
    @settings(max_examples=300, deadline=None)
    def test_within_8_ulp_of_scipy_out_to_1e_300(self, p):
        # AS241 and ndtri are each within about 3 ulp of the exact quantile.
        for p in (p, 1.0 - p):
            if 0.0 < p < 1.0:
                want = special.ndtri(p)
                assert abs(std_normal_quantile(p) - want) <= 8 * math.ulp(want)


class TestNdtr:
    """The Cephes port equals scipy.special.ndtr bit for bit on each branch:
    erf for |a| < 1, 1 - erf in [1, sqrt 2), the P/Q tail in [sqrt 2, 8 sqrt 2),
    the R/S tail beyond, and 0 once e^{-a^2/2} underflows."""

    R2 = math.sqrt(2.0)

    @staticmethod
    def assert_bits_equal(a):
        a = np.asarray(a, dtype=float)
        got, want = _ndtr(a), special.ndtr(a)
        assert got.shape == a.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 1.0), (1.0, R2), (R2, 8.0 * R2), (8.0 * R2, 37.0), (37.0, 40.0),
    ], ids=["erf", "one_minus_erf", "pq", "rs", "underflow"])
    def test_each_branch_both_signs(self, lo, hi):
        rng = np.random.default_rng(7)
        a = np.concatenate([
            rng.uniform(lo, hi, 20000), np.linspace(lo, hi, 2001),
            [lo, np.nextafter(lo, hi), np.nextafter(hi, lo)],
        ])
        self.assert_bits_equal(np.concatenate([a, -a]))

    def test_branch_edges(self):
        maxlog = 7.09782712893383996843e2
        edges = np.array([1.0, self.R2, 8.0 * self.R2, math.sqrt(2.0 * maxlog)])
        a = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        self.assert_bits_equal(np.concatenate([a, -a]))

    def test_underflow_to_zero(self):
        # e^{-a^2/2} underflows once a^2/2 exceeds Cephes MAXLOG (a near 37.68).
        a = np.linspace(-38.5, -37.0, 3001)
        self.assert_bits_equal(a)
        assert _ndtr(np.array([-38.5]))[0] == 0.0 and _ndtr(np.array([-37.6]))[0] > 0.0

    def test_special_values(self):
        a = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        self.assert_bits_equal(a)
        got = _ndtr(a)
        assert got[0] == got[1] == 0.5 and got[2] == 1.0 and got[3] == 0.0
        assert math.isnan(got[4])


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
    def test_df_validated_like_the_quantile(self, df):
        with pytest.raises(DomainError, match="chi-square sf requires integer df >= 1, got"):
            chi_square_sf(3.0, df)

    def test_quantile_rejects_fractional_df(self):
        with pytest.raises(DomainError, match="chi-square quantile requires integer df >= 1, got 1.5"):
            chi_square_quantile(0.95, 1.5)

    def test_integral_float_df_accepted(self):
        assert chi_square_sf(3.0, 2.0) == chi_square_sf(3.0, 2)

    def test_sf_far_tail(self):
        # 1 - cdf is 0.0 here; chi2(2) has the closed-form tail exp(-x/2).
        assert 1.0 - special.chdtr(2, 200.0) == 0.0
        assert chi_square_sf(200.0, 2) == pytest.approx(np.exp(-100.0), rel=1e-13)


# The chi-square functions against scipy.special, df 1-12.  The relative
# bounds hold scipy's own error as well as ours: both take e^{-x/2} in log
# space, where rounding the exponent costs up to about eps x/2, and in 40-digit
# arithmetic chdtrc(1, 2.1865) and 2 gammaincinv(1/2, 0.8596) are off by 3.1e-14
# and 2.1e-14, where the functions here are exact.  Where scipy's value is
# below the smallest normal float (or 0, as chdtrc(1, 1425) is), ours need
# only be below it too.
EPS = 2.0**-52
TINY = sys.float_info.min
PROBABILITIES = st.one_of(
    st.floats(1e-300, 1.0 - 1e-16),
    st.floats(-300.0, -1e-3).map(lambda e: 10.0**e),
    st.floats(-16.0, -1e-3).map(lambda e: 1.0 - 10.0**e),
)


def assert_close(got: float, want: float, rel: float) -> None:
    if want < TINY:
        assert 0.0 <= got < TINY
    else:
        assert abs(got - want) <= rel * want


class TestAgainstScipy:
    @given(st.integers(1, 12), st.floats(1e-3, 1500.0))
    @settings(max_examples=400, deadline=None)
    def test_upper_tail_matches_chdtrc(self, df, x):
        # Beyond x = 1382 the upper tail is below 1e-300.
        assert_close(chi_square_sf(x, df), special.chdtrc(df, x), 5e-14 + 2.0 * EPS * x)

    @given(st.integers(1, 12), st.floats(1e-3, 2000.0))
    @example(1, 1430.5)
    @settings(max_examples=400, deadline=None)
    def test_lower_series_matches_chdtr(self, df, x):
        # The series that the quantile reads for p <= 1/2, on and well
        # beyond the lower side of every median of df <= 12, and past
        # x = 1418, where its partial sums overflow.
        got = math.exp(_log_chi2_lower(x, 0.5 * df))
        assert_close(got, special.chdtr(df, x), 5e-14 + 2.0 * EPS * x)

    @pytest.mark.parametrize("df", range(1, 13))
    def test_upper_tail_below_1e_300(self, df):
        x = 1385.0 + 5.0 * df
        want = special.chdtrc(df, x)
        assert TINY < want < 1e-300
        assert chi_square_sf(x, df) == pytest.approx(want, rel=5e-14 + 2.0 * EPS * x)

    @given(st.integers(1, 12), PROBABILITIES)
    @settings(max_examples=400, deadline=None)
    def test_quantile_matches_gammaincinv(self, df, p):
        want = 2.0 * special.gammaincinv(0.5 * df, p)
        bound = 5e-14 + 4.0 * EPS * abs(math.log(min(p, 1.0 - p)))
        assert_close(chi_square_quantile(p, df), want, bound)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 12])
    @pytest.mark.parametrize("x", [-1.0, -0.0, 0.0, math.inf, -math.inf, math.nan])
    def test_edge_values_as_scipy(self, x, df):
        got, want = chi_square_sf(x, df), special.chdtrc(df, x)
        assert got == want or (math.isnan(got) and math.isnan(want))

    @given(
        st.integers(1, 400),
        st.floats(0.0, math.inf),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_no_input_overflows(self, df, x, p):
        # Every term is an exp of a non-positive log, and every Newton
        # iterate stays between its start and the root: no OverflowError
        # and no other raise.
        assert 0.0 <= chi_square_sf(x, df) <= 1.0
        assert 0.0 <= chi_square_quantile(p, df) < math.inf
        assert math.isfinite(std_normal_quantile(p))


@pytest.mark.parametrize("p", np.arange(0.01, 1.0, 0.07))
def test_cdf_quantile_roundtrip(p):
    p = float(p)
    assert stats.norm.cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-8)
    assert special.chdtr(3, chi_square_quantile(p, 3)) == pytest.approx(p, abs=1e-8)


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

    def test_length_mismatch_names_the_length(self):
        with pytest.raises(DomainError, match=r"^vector of length 3 does not match dimension 2$"):
            quadratic_form(np.eye(2), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_errors(self, bad):
        with pytest.raises(DomainError, match="finite"):
            quadratic_form(np.eye(2), [bad, 1.0])


# Two backward-stable solvers of one matrix can differ by a small multiple
# of eps times its condition number (up to 7.4 in 20000 random cases with
# d = 1..5 and conditions up to 1e8); 1e-9 relative bounds the rest.
def solver_rtol(cond: float) -> float:
    return 1e-9 + 50.0 * np.finfo(float).eps * cond


@st.composite
def spd_cases(draw, dims=(1, 5), low=None):
    """A random SPD matrix with d in dims, condition number 10^(0..8) and
    overall scale 10^(-3..3), a random vector, and the condition number; with
    low, the smallest eigenvalue is set to low times the sum of the others."""
    d = draw(st.integers(*dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cond = 10.0 ** draw(st.floats(0.0, 8.0))
    w = np.geomspace(1.0, 1.0 / cond, d) * 10.0 ** draw(st.floats(-3.0, 3.0))
    if low is not None:
        w[-1] = low * w[:-1].sum()
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    m = (q * w) @ q.T
    x = rng.normal(size=d) * 10.0 ** draw(st.floats(-3.0, 3.0))
    return 0.5 * (m + m.T), x, cond


class TestEigenAlgebraProperties:
    """The quadratic form, the GLS mean and the deviance read the eigenpairs
    kept by the PSD check; they must agree with a direct solve."""

    @given(spd_cases())
    @settings(max_examples=200, deadline=None)
    def test_agree_with_solve(self, case):
        m, x, cond = case
        v = SpdMatrix.from_array(m)
        e, one = v.entries, np.ones(x.size)
        form, inv_one = x @ np.linalg.solve(e, x), np.linalg.solve(e, one)
        mean = x @ inv_one / (one @ inv_one)
        r = x - mean
        rtol = solver_rtol(cond)
        assert v.quadratic_form(x) == pytest.approx(form, rel=rtol, abs=0.0)
        # The mean's natural scale is sqrt(x' m^-1 x / 1' m^-1 1) (Cauchy-
        # Schwarz), the deviance's is x' m^-1 x: both can be near zero.
        scale = np.sqrt(form / (one @ inv_one))
        got_mean, got_deviance = gls_deviance(x, v)
        assert abs(got_mean - mean) <= rtol * scale
        assert abs(got_deviance - r @ np.linalg.solve(e, r)) <= rtol * form

    @given(spd_cases(), st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_scaling_the_matrix_scales_the_form(self, case, c):
        m, x, cond = case
        form = SpdMatrix.from_array(m).quadratic_form(x)
        scaled = SpdMatrix.from_array(c * m).quadratic_form(x)
        assert scaled == pytest.approx(form / c, rel=solver_rtol(cond), abs=0.0)

    @given(spd_cases())
    @settings(max_examples=100, deadline=None)
    def test_sqrt_squared_reproduces_entries(self, case):
        v = SpdMatrix.from_array(case[0])
        s = v.sqrt().entries
        assert np.abs(s @ s - v.entries).max() <= 1e-10 * np.trace(v.entries)

    @given(spd_cases(dims=(2, 5), low=-1e-9))
    @settings(max_examples=100, deadline=None)
    def test_clipped_matrix_is_singular_everywhere(self, case):
        m, x, _ = case
        v = SpdMatrix.from_array(m)
        assert v.clip_magnitude > 0.0
        for f in (v.quadratic_form, lambda x: gls_deviance(x, v)):
            with pytest.raises(SingularCovarianceError):
                f(x)


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

    @pytest.mark.parametrize("g", [0.6, 0.5])
    def test_divergent_box_rejected(self, g):
        # e = 1 - g1 (1 - w) - g2 <= 0: the integral over the box diverges.
        with pytest.raises(DomainError, match="diverges"):
            integrate_tail_box(power_copula(0.5), 1.0, 1.0, g, g, 0)


class TestQuadratureConvergence:
    def test_divergent_integral_raises(self):
        # The integral of 1/u over (0, 1] diverges: the outermost terms near
        # 0 never fall below the tolerance.
        with pytest.raises(NumericError, match="did not converge"):
            integrate_unit_log(np.ones_like)

    def test_oscillating_integrand_raises(self):
        with pytest.raises(NumericError):
            integrate_1d_tail(np.cos, 2.0)

    def test_tail_split_at_kink(self):
        # min(1, 4/x^2) kinks at x = 2: the integral is 1 + 2 = 3.
        assert integrate_1d_tail(lambda x: np.minimum(1.0, 4.0 / x**2), 2.0) == (
            pytest.approx(3.0, rel=1e-12)
        )


# The accuracy grid: every integral the theoretical covariances take of the
# logistic and comonotone tail copulas, against scipy's QUADPACK at
# 1e-13 (a reference only; the package does not use it).
THETAS = [1.05, 1.2, 2.0, 5.0, 20.0, 100.0, "comonotone"]
GAMMAS = [0.05, 0.15, 0.25, 1.0 / 3.0, 0.45, 0.49]
REF_TOL = 1e-13


def scalar_r(theta):
    """R(u, v) of one pair of floats, written apart from the package."""
    if theta == "comonotone":
        return min

    def r(u, v):
        lo, hi = min(u, v), max(u, v)
        if lo == 0.0:
            return 0.0
        return lo - hi * math.expm1(math.log1p((lo / hi) ** theta) / theta)

    return r


def oracle(theta):
    if theta == "comonotone":
        return OracleTailCopula.comonotone()
    return OracleTailCopula.logistic(theta)


def reference(f, edges) -> float:
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        val, _ = integrate.quad(f, lo, hi, epsabs=REF_TOL, epsrel=REF_TOL, limit=500)
        total += val
    return total


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("theta", THETAS)
class TestQuadratureAccuracy:
    def test_tail_box(self, theta):
        # The LAWS pairs (w = 0, c = 1/g - 1 on both axes) and the Hill/LAWS
        # cross terms (w = 1, c1 = 1); the 1-D integral is claimed to 1e-10
        # max(1, |I|), and the returned value is it times a closed-form scale.
        r = scalar_r(theta)
        for g1 in GAMMAS:
            for g2 in GAMMAS:
                for w in (0, 1):
                    c1, c2 = (1.0 if w else 1.0 / g1 - 1.0), 1.0 / g2 - 1.0
                    p, q = g1 * (1 - w), g2
                    e = 1.0 - p - q
                    scale = g1 * c1**p * g2 * c2**q / e

                    def f(t):
                        return r(t, 1.0) / t * t**-p * min(c2, c1 / t) ** e

                    ref = scale * reference(f, [0.0, *sorted({1.0, c1 / c2}), math.inf])
                    val = integrate_tail_box(oracle(theta)._formula, c1, c2, g1, g2, w)
                    assert abs(val - ref) <= 1e-10 * max(scale, abs(ref)), (g1, g2, w)

    def test_1d_tail(self, theta):
        # The single integral of the cross terms, over [1, inf) of
        # R(1, c y^(-1/g)), claimed to 1e-12 max(1, |I|).
        r = scalar_r(theta)
        for g in GAMMAS:
            c = 1.0 / g - 1.0
            ref = reference(lambda y: r(1.0, c * y ** (-1.0 / g)), [1.0, c**g, math.inf])
            val = integrate_1d_tail(lambda y: oracle(theta)._formula(1.0, c * y ** (-1.0 / g)), c**g)
            assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref)), g

    def test_unit_integral(self, theta):
        r = scalar_r(theta)
        ref = reference(lambda u: r(u, 1.0) / u, [0.0, 1.0])
        val = integrate_unit_log(lambda u: oracle(theta)._formula(u, 1.0))
        assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))
