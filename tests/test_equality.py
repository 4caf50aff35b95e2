"""Deviance tests for equality of extreme expectiles and quantiles."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from conftest import count_fits, gls_deviance

from tailjoint.equality_tests import equality_test
from tailjoint.errors import DomainError
from tailjoint.numerics import SpdMatrix
from tailjoint.sample import MultivariateSample

TAU, TAU_PRIME = 0.9, 0.999


def fixture_sample(n=500, d=2, seed=3, heavy_first=False):
    rng = np.random.default_rng(seed)
    g = np.full(d, 1.0 / 3.0)
    if heavy_first:
        g[0] = 0.45
    u = rng.random((n, d))
    values = (1.0 - u) ** -g
    return MultivariateSample(values, tuple(f"X{j}" for j in range(d)))


def gls_common_mean(z, v):
    return gls_deviance(z, v)[0]


def deviance_statistic(z, v):
    return gls_deviance(z, v)[1]


class TestGlsCommonMean:
    def test_constant_vector(self):
        v = SpdMatrix.from_array(np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert gls_common_mean([3.25, 3.25], v) == pytest.approx(3.25, rel=1e-12)

    def test_identity_average(self):
        v = SpdMatrix.from_array(np.eye(2))
        assert gls_common_mean([0.0, 2.0], v) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal_weighting(self):
        v = SpdMatrix.from_array(np.diag([1.0, 4.0]))
        # weights proportional to (1, 1/4): mean = 2*(1/4)/(5/4) = 0.4
        assert gls_common_mean([0.0, 2.0], v) == pytest.approx(0.4, rel=1e-12)


class TestDevianceStatistic:
    def test_identity(self):
        v = SpdMatrix.from_array(np.eye(2))
        assert deviance_statistic([0.0, 2.0], v) == pytest.approx(2.0, rel=1e-12)

    def test_diagonal(self):
        v = SpdMatrix.from_array(np.diag([1.0, 4.0]))
        # residuals (-0.4, 1.6): 0.16 + 2.56/4 = 0.8
        assert deviance_statistic([0.0, 2.0], v) == pytest.approx(0.8, rel=1e-12)

    def test_constant_vector_is_zero(self):
        v = SpdMatrix.from_array(np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert deviance_statistic([1.7, 1.7], v) == pytest.approx(0.0, abs=1e-12)

    def test_zero_iff_equal_components(self):
        v = SpdMatrix.from_array(np.eye(3))
        assert deviance_statistic([1.0, 1.0, 1.0 + 1e-6], v) > 0.0


class TestNearSingular:
    # Smallest eigenvalue about 5e-14, below 1e-10 times the trace 2, though
    # a Cholesky factorization succeeds (its last pivot is 1e-13 > 0): the
    # GLS mean and the deviance both raise, by the one eigenvalue rule.
    V = [[1.0, 1.0], [1.0, 1.0 + 1e-13]]

    @pytest.mark.parametrize("f", [gls_common_mean, deviance_statistic])
    def test_raises(self, f):
        from tailjoint.errors import SingularCovarianceError

        with pytest.raises(SingularCovarianceError, match="^singular test matrix$"):
            f([0.0, 1.0], SpdMatrix.from_array(self.V))


def duplicated_sample():
    s = fixture_sample()
    return MultivariateSample(np.column_stack([s.column(0), s.column(0)]), ("a", "b"))


@pytest.mark.parametrize("kind", ["laws", "qb"])
def test_duplicated_columns_lambda_zero(kind):
    result = equality_test(duplicated_sample(), TAU, TAU_PRIME, kind)
    assert result.statistic == pytest.approx(0.0, abs=1e-12)
    assert not result.reject
    assert result.p_value == pytest.approx(1.0, abs=1e-12)


def test_duplicated_columns_quantile_singular():
    # Exactly duplicated columns give R-hat(1,1) = 1, so the quantile test
    # covariance gamma^2 [[1,1],[1,1]] is singular and the test errors
    # rather than reporting a degenerate statistic.
    from tailjoint.errors import SingularCovarianceError

    with pytest.raises(SingularCovarianceError):
        equality_test(duplicated_sample(), TAU, TAU_PRIME, "quantile")


@pytest.mark.parametrize("kind", ["laws", "qb", "quantile"])
class TestAllTesters:

    def test_scale_invariance(self, kind):
        s = fixture_sample()
        r1 = equality_test(s, TAU, TAU_PRIME, kind)
        r2 = equality_test(s.scaled(9.75), TAU, TAU_PRIME, kind)
        assert r2.statistic == pytest.approx(r1.statistic, rel=1e-9)
        assert r2.reject == r1.reject

    def test_permutation_invariance(self, kind):
        s = fixture_sample(d=3)
        r1 = equality_test(s, TAU, TAU_PRIME, kind)
        r2 = equality_test(s.select([2, 0, 1]), TAU, TAU_PRIME, kind)
        assert r2.statistic == pytest.approx(r1.statistic, rel=1e-9)

    def test_p_value_consistent_with_decision(self, kind):
        s = fixture_sample(heavy_first=True, seed=11)
        result = equality_test(s, TAU, TAU_PRIME, kind, alpha=0.05)
        assert result.p_value == pytest.approx(
            1.0 - special.chdtr(result.df, result.statistic), abs=1e-12
        )
        assert result.reject == (result.p_value < 0.05 - 1e-10) or math.isclose(
            result.p_value, 0.05, abs_tol=1e-9
        )

    def test_p_value_from_the_upper_tail(self, kind):
        # Tails 0.45 and 0.1 put the statistic so far out that 1 - cdf
        # would read 0.0.
        u = np.random.default_rng(3).random((5000, 2))
        s = MultivariateSample((1.0 - u) ** -np.array([0.45, 0.1]), ("a", "b"))
        result = equality_test(s, TAU, TAU_PRIME, kind)
        assert 0.0 < result.p_value < 1e-16
        # Within the bound that test_numerics.TestAgainstScipy states.
        x = result.statistic
        assert result.p_value == pytest.approx(
            special.chdtrc(result.df, x), rel=5e-14 + 2.0 * 2.0**-52 * x
        )
        assert result.reject

    def test_d1_rejected(self, kind):
        # Also a lone margin whose Hill threshold is not positive: its fit
        # would fail, but the margin count is checked first.
        x = np.random.default_rng(0).pareto(3.0, size=(100, 1)) + 1.0
        for values in (x, -x):
            s = MultivariateSample(values, ("a",))
            with pytest.raises(DomainError, match="at least two margins"):
                equality_test(s, TAU, TAU_PRIME, kind)

    def test_metadata(self, kind):
        s = fixture_sample()
        result = equality_test(s, TAU, TAU_PRIME, kind, alpha=0.1)
        assert result.df == s.d - 1
        assert result.alpha == 0.1
        assert result.k == 50
        log_dn = math.log((1.0 - TAU) / (1.0 - TAU_PRIME))
        expected_scale = (log_dn / math.sqrt(s.n * (1.0 - TAU))) ** 2
        assert result.covariance_scale == pytest.approx(expected_scale, rel=1e-12)


class TestStatisticConstruction:
    def test_laws_uses_bias_shifted_log_estimates(self):
        from tailjoint.covariance import estimate_bias_qb
        from tailjoint.inference import estimate_covariance
        from tailjoint.marginal import fit_column
        from tailjoint.numerics import SpdMatrix as Spd

        s = fixture_sample(seed=21)
        result = equality_test(s, TAU, TAU_PRIME, "laws")
        est = np.array(
            [fit_column(s.column(j), TAU).xi_star_laws(TAU_PRIME)[0] for j in range(2)]
        )
        bias = estimate_bias_qb(s, TAU)
        z = np.log(est) + bias / math.sqrt(s.n * (1.0 - TAU))
        cov = estimate_covariance(s, TAU, TAU_PRIME, "laws").entries
        v = Spd.from_array(result.covariance_scale * cov)
        assert result.statistic == pytest.approx(
            deviance_statistic(z, v), rel=1e-12
        )
        assert result.common_mean == pytest.approx(gls_common_mean(z, v), rel=1e-12)

    def test_quantile_covariance_form(self):
        from tailjoint.marginal import estimate_margins, fit_column
        from tailjoint.taildep import empirical_tail_copula

        s = fixture_sample(seed=22)
        result = equality_test(s, TAU, TAU_PRIME, "quantile")
        g = estimate_margins(s, TAU).gamma_hat
        r11 = empirical_tail_copula(s, TAU, 0, 1).evaluate(1.0, 1.0)
        cov = np.array(
            [[g[0] ** 2, g[0] * g[1] * r11], [g[0] * g[1] * r11, g[1] ** 2]]
        )
        fits = [fit_column(s.column(j), TAU) for j in range(2)]
        z = np.log([fit.weissman_quantiles(TAU_PRIME)[0] for fit in fits])
        v = SpdMatrix.from_array(result.covariance_scale * cov)
        assert result.statistic == pytest.approx(deviance_statistic(z, v), rel=1e-12)

    def test_laws_fits_margins_once(self, monkeypatch):
        fits = count_fits(monkeypatch)
        equality_test(fixture_sample(seed=21), TAU, TAU_PRIME, "laws")
        assert fits == [TAU]

    def test_quantile_test_with_gamma_above_one(self):
        # The Weissman test needs only gamma-hat and q-hat; a margin with
        # gamma-hat >= 1, where the QB factor is undefined, must not stop it.
        from tailjoint.marginal import estimate_margins

        rng = np.random.default_rng(4)
        u = rng.random((2000, 2))
        s = MultivariateSample(
            np.column_stack([(1.0 - u[:, 0]) ** -1.3, (1.0 - u[:, 1]) ** -0.3]), ("a", "b")
        )
        fit = estimate_margins(s, 0.95)
        assert fit.gamma_hat[0] >= 1.0
        with pytest.raises(DomainError, match="QB factor"):
            fit.xi_qb
        result = equality_test(s, 0.95, 0.999, "quantile")
        assert math.isfinite(result.statistic) and 0.0 <= result.p_value <= 1.0
        # The LAWS test shifts by the QB bias, which needs the QB factor, but
        # its own check of the Hill estimates comes first: it fails with the
        # LAWS message, not the QB one nor NaN bias components.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="tail too heavy for LAWS variance"):
                equality_test(s, 0.95, 0.999, "laws")

    def test_unequal_tails_eventually_rejected(self):
        # Strongly different tail indices should reject in most samples.
        rejections = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            u = rng.random((2000, 2))
            values = np.column_stack(
                [(1.0 - u[:, 0]) ** -0.45, (1.0 - u[:, 1]) ** -0.15]
            )
            s = MultivariateSample(values, ("a", "b"))
            if equality_test(s, 1.0 - 100 / 2000, TAU_PRIME, "qb").reject:
                rejections += 1
        assert rejections >= 12
