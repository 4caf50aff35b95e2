"""Confidence ellipsoids and marginal intervals."""

import math

import numpy as np
import pytest

from tailjoint.covariance import estimate_bias_qb
from conftest import count_eighs, count_fits

from tailjoint.equality_tests import equality_test
from tailjoint.errors import DomainError, LevelError, NumericError
from tailjoint.inference import (
    ConfidenceRegion,
    _estimate_sample,
    _interval,
    confidence_region,
    estimate_covariance,
    marginal_interval,
    region_boundary_points,
    region_contains,
)
from tailjoint.marginal import estimate_margins, fit_column
from tailjoint.numerics import SpdMatrix, chi_square_quantile, std_normal_quantile
from tailjoint.sample import MultivariateSample, tau_from_k
from tailjoint.simulation import SimulationModel, rng_stream, sample_model

TAU, TAU_PRIME, ALPHA = 0.9, 0.999, 0.05


def fixture_sample(n=400, d=2, seed=1):
    rng = np.random.default_rng(seed)
    values = rng.pareto(4.0, size=(n, d)) + 1.0
    # mild common factor so tail dependence is nontrivial
    values[:, 1:] += 0.3 * values[:, [0]]
    return MultivariateSample(values, tuple(f"X{j}" for j in range(d)))


def hill_just_below_half() -> MultivariateSample:
    """n=200 points whose top 20 log-excesses over the 21st largest (1.0)
    average 0.49999999: at tau=0.9 (k=20) gamma-hat sits just below 1/2,
    where the LAWS variance 2g^3/(1-2g) is about 1e7."""
    excesses = 0.49999999 + np.linspace(-0.3, 0.3, 20)
    values = np.concatenate([np.linspace(0.5, 1.0, 180), np.exp(excesses)])
    return MultivariateSample(values[:, None], ("a",))


def one_column(n=400, seed=2):
    rng = np.random.default_rng(seed)
    return MultivariateSample(
        (rng.pareto(4.0, size=(n, 1)) + 1.0), ("X0",)
    )


def region_builder(tau_prime, method):
    return lambda s, naive=False: confidence_region(s, TAU, tau_prime, ALPHA, method, naive)


ALL_BUILDERS = [region_builder(tp, m) for tp in (None, TAU_PRIME) for m in ("laws", "qb")]


class TestRegionBasics:
    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_shifted_center_contained(self, build):
        region = build(fixture_sample())
        if region.scale == "log":
            point = region.center * np.exp(region.bias_shift)
        else:
            point = region.center * (1.0 + region.bias_shift)
        assert region_contains(region, point)

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_far_point_excluded(self, build):
        region = build(fixture_sample())
        assert not region_contains(region, region.center * 10.0)

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_alpha_nesting(self, build):
        s = fixture_sample()
        wide = build(s)
        # smaller alpha gives a larger radius: same shape, nested regions
        radius = {a: confidence_region(s, TAU, None, a, "laws").radius for a in (0.01, 0.10)}
        assert radius[0.01] > radius[0.10]
        boundary = region_boundary_points(wide)
        bigger = ConfidenceRegion(
            kind=wide.kind,
            scale=wide.scale,
            alpha=ALPHA / 5.0,
            tau=wide.tau,
            tau_prime=wide.tau_prime,
            center=wide.center,
            bias_shift=wide.bias_shift,
            shape=wide.shape,
            radius=wide.radius * 1.5,
        )
        assert all(region_contains(bigger, z) for z in boundary)

    def test_radius_formula(self):
        s = fixture_sample()
        inter = confidence_region(s, TAU, None, ALPHA, "laws")
        expected = math.sqrt(chi_square_quantile(0.95, 2) / (s.n * (1.0 - TAU)))
        assert inter.radius == pytest.approx(expected, rel=1e-12)
        ext = confidence_region(s, TAU, TAU_PRIME, ALPHA, "laws")
        log_dn = math.log((1.0 - TAU) / (1.0 - TAU_PRIME))
        assert ext.radius == pytest.approx(expected * log_dn, rel=1e-12)

    def test_dimension_mismatch(self):
        region = ALL_BUILDERS[0](fixture_sample())
        with pytest.raises(DomainError):
            region_contains(region, [1.0, 2.0, 3.0])

    def test_log_scale_positive_point_required(self):
        region = confidence_region(fixture_sample(), TAU, TAU_PRIME, ALPHA, "qb")
        with pytest.raises(DomainError):
            region_contains(region, [-1.0, 1.0])

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_errors(self, build, bad):
        region = build(fixture_sample())
        with pytest.raises(DomainError, match="finite point"):
            region_contains(region, [bad, 1.0])


class TestBoundaryPoints:
    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_boundary_satisfies_membership(self, build):
        region = build(fixture_sample())
        pts = region_boundary_points(region)
        assert pts.shape == (512, 2)
        assert all(region_contains(region, z) for z in pts)

    def test_constructed_eigen_boundary_point(self):
        s = fixture_sample()
        region = confidence_region(s, TAU, None, ALPHA, "laws")
        vals, vecs = np.linalg.eigh(region.shape.entries)
        w = region.radius * math.sqrt(vals[-1]) * vecs[:, -1]
        z = region.center * (1.0 + w + region.bias_shift)
        residual = z / region.center - 1.0 - region.bias_shift
        form = region.shape.quadratic_form(residual, "check")
        assert form == pytest.approx(region.radius**2, rel=1e-10)
        assert region_contains(region, z)

    def test_three_dimensional_mesh(self):
        region = ALL_BUILDERS[2](fixture_sample(d=3))
        pts = region_boundary_points(region)
        assert pts.shape == (64 * 64, 3)
        assert all(region_contains(region, z) for z in pts)

    def test_unsupported_dimension(self):
        region = ALL_BUILDERS[0](fixture_sample(d=4))
        with pytest.raises(DomainError):
            region_boundary_points(region)


class TestOneEighPerCovariance:
    """A covariance is decomposed once, by its PSD check: every test,
    membership, boundary and interval reads the kept eigenpairs."""

    @pytest.mark.parametrize("kind", ["laws", "qb", "quantile"])
    def test_each_test_runs_one_eigh(self, kind, monkeypatch):
        s = fixture_sample(d=3)
        eighs = count_eighs(monkeypatch)
        equality_test(s, TAU, TAU_PRIME, kind)
        assert eighs == [1]

    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_existing_region_runs_none(self, build, monkeypatch):
        region = build(fixture_sample(d=3))
        eighs = count_eighs(monkeypatch)
        points = region_boundary_points(region)
        assert all(region_contains(region, z) for z in points[::256])
        assert eighs == []

    @pytest.mark.parametrize("naive", [False, True])
    @pytest.mark.parametrize("method", ["laws", "qb"])
    def test_intervals_of_an_existing_estimate_run_none(self, method, naive, monkeypatch):
        s = fixture_sample(d=3)
        eighs = count_eighs(monkeypatch)
        marginal_interval(s, TAU, TAU_PRIME, 0, ALPHA, method, naive)
        assert eighs == [1]
        est = _estimate_sample(s, TAU, TAU_PRIME, method, naive)
        est.covariance()
        eighs.clear()
        for j in range(3):
            _interval(est, j, ALPHA)
        assert eighs == []


class TestRegionShapes:
    @pytest.mark.parametrize("naive", [False, True])
    @pytest.mark.parametrize("tau_prime", [None, TAU_PRIME], ids=["linear", "log"])
    @pytest.mark.parametrize("method", ["laws", "qb"])
    def test_shapes_are_plugin_estimates(self, method, tau_prime, naive):
        s = fixture_sample()
        region = confidence_region(s, TAU, tau_prime, ALPHA, method, naive)
        assert np.array_equal(
            region.shape.entries,
            estimate_covariance(s, TAU, tau_prime, method, naive).entries,
        )

    def test_naive_shapes_are_independence_diagonals(self):
        s = fixture_sample()
        g = estimate_margins(s, TAU).gamma_hat
        laws = confidence_region(s, TAU, None, ALPHA, "laws", naive=True)
        assert np.allclose(
            laws.shape.entries, np.diag(2.0 * g**3 / (1.0 - 2.0 * g))
        )
        qb = confidence_region(s, TAU, None, ALPHA, "qb", naive=True)
        assert np.allclose(qb.shape.entries, np.diag(2.0 * g**2 / (1.0 - 2.0 * g)))
        for ext in (
            confidence_region(s, TAU, TAU_PRIME, ALPHA, "laws", naive=True),
            confidence_region(s, TAU, TAU_PRIME, ALPHA, "qb", naive=True),
        ):
            assert np.allclose(ext.shape.entries, np.diag(g**2))
            assert np.allclose(ext.bias_shift, 0.0)

    def test_qb_bias_shift(self):
        s = fixture_sample()
        region = confidence_region(s, TAU, None, ALPHA, "qb")
        bias = estimate_bias_qb(s, TAU)
        root = math.sqrt(s.n * (1.0 - TAU))
        assert np.allclose(region.bias_shift, -bias / root)
        ext = confidence_region(s, TAU, TAU_PRIME, ALPHA, "laws")
        assert np.allclose(ext.bias_shift, bias / root)
        assert np.allclose(
            confidence_region(s, TAU, TAU_PRIME, ALPHA, "qb").bias_shift, 0.0
        )


class TestScaleEquivariance:
    @pytest.mark.parametrize("build", ALL_BUILDERS)
    def test_centers_and_membership_scale(self, build):
        s = fixture_sample()
        c = 3.5
        r1, r2 = build(s), build(s.scaled(c))
        assert np.allclose(r2.center, c * r1.center, rtol=1e-10)
        assert r2.radius == pytest.approx(r1.radius, rel=1e-12)
        boundary = region_boundary_points(r1)
        for z in boundary[::64]:
            assert region_contains(r2, c * z)
        outside = r1.center * 10.0
        assert not region_contains(r2, c * outside)

    def test_panel_near_the_float_maximum(self):
        # Scaled by 2^1013, this panel's sums of n values overflow: the LAWS
        # fit and the QB bias scale such margins down by a power of two, so
        # the fit is 2^1013 times the unscaled one and the bias is the same,
        # to the bit.  A RuntimeWarning fails the test (pyproject.toml).
        s = sample_model(SimulationModel.gumbel_frechet(d=3, gamma=0.3), 2000, rng_stream(4, 0))
        big, tau = s.scaled(2.0**1013), tau_from_k(s.n, 100)
        fit, fit_big = estimate_margins(s, tau), estimate_margins(big, tau)
        assert np.array_equal(fit_big.gamma_hat, fit.gamma_hat)
        for name in ("q_hat", "xi_laws"):
            assert np.array_equal(getattr(fit_big, name), np.ldexp(getattr(fit, name), 1013))
        assert np.array_equal(estimate_bias_qb(big, tau), estimate_bias_qb(s, tau))
        for method in ("laws", "qb"):
            r, r_big = (confidence_region(x, tau, TAU_PRIME, ALPHA, method) for x in (s, big))
            assert np.allclose(r_big.center, 2.0**1013 * r.center, rtol=1e-12)
            t, t_big = (equality_test(x, tau, TAU_PRIME, method) for x in (s, big))
            assert t_big.statistic == pytest.approx(t.statistic, rel=1e-9)


class TestMarginalIntervals:
    def test_d1_region_equals_interval(self):
        s = one_column()
        for method in ("laws", "qb"):
            for naive in (False, True):
                region = confidence_region(s, TAU, TAU_PRIME, ALPHA, method, naive)
                interval = marginal_interval(s, TAU, TAU_PRIME, 0, ALPHA, method, naive)
                # chi-square(1) radius on the log scale equals the normal
                # two-sided construction
                shift = region.bias_shift[0]
                half = region.radius * math.sqrt(region.shape.entries[0, 0])
                lower = region.center[0] * math.exp(shift - half)
                upper = region.center[0] * math.exp(shift + half)
                assert interval.lower == pytest.approx(lower, rel=1e-12), (method, naive)
                assert interval.upper == pytest.approx(upper, rel=1e-12), (method, naive)

    def test_scalar_endpoint_formula(self):
        s = one_column()
        interval = marginal_interval(s, TAU, TAU_PRIME, 0, ALPHA, "qb")
        center = fit_column(s.column(0), TAU).xi_star_qb(TAU_PRIME)[0]
        log_dn = math.log((1.0 - TAU) / (1.0 - TAU_PRIME))
        root = math.sqrt(s.n * (1.0 - TAU))
        var = estimate_covariance(s, TAU, TAU_PRIME, "qb").entries[0, 0]
        half = log_dn / root * math.sqrt(var) * std_normal_quantile(1.0 - ALPHA / 2.0)
        assert interval.lower == pytest.approx(center * math.exp(-half), rel=1e-12)
        assert interval.upper == pytest.approx(center * math.exp(half), rel=1e-12)

    def test_multiplicative_symmetry(self):
        s = one_column()
        interval = marginal_interval(s, TAU, TAU_PRIME, 0, ALPHA, "laws")
        center = fit_column(s.column(0), TAU).xi_star_laws(TAU_PRIME)[0]
        shift = estimate_bias_qb(s, TAU)[0] / math.sqrt(s.n * (1.0 - TAU))
        shifted = center * math.exp(shift)
        assert interval.upper / shifted == pytest.approx(
            shifted / interval.lower, rel=1e-12
        )

    def test_qb_interval_contains_point_estimate(self):
        s = one_column()
        center = fit_column(s.column(0), TAU).xi_star_qb(TAU_PRIME)[0]
        interval = marginal_interval(s, TAU, TAU_PRIME, 0, ALPHA, "qb")
        assert interval.contains(center)

    def test_width_ratio_tracks_variances(self):
        s = one_column()
        laws = marginal_interval(s, TAU, TAU_PRIME, 0, ALPHA, "laws")
        qb = marginal_interval(s, TAU, TAU_PRIME, 0, ALPHA, "qb")
        v_laws = estimate_covariance(s, TAU, TAU_PRIME, "laws").entries[0, 0]
        v_qb = estimate_covariance(s, TAU, TAU_PRIME, "qb").entries[0, 0]
        assert math.log(laws.upper / laws.lower) / math.log(
            qb.upper / qb.lower
        ) == pytest.approx(math.sqrt(v_laws / v_qb), rel=1e-10)

    def test_endpoint_overflow_fails_with_numeric_error(self):
        s = hill_just_below_half()
        assert 0.4999 < estimate_margins(s, 0.9).gamma_hat[0] < 0.5
        with pytest.raises(NumericError, match="non-finite interval endpoint"):
            marginal_interval(s, 0.9, 0.999, 0, 0.05, "laws")

    def test_interval_scaling(self):
        s = one_column()
        c = 4.0
        i1 = marginal_interval(s, TAU, TAU_PRIME, 0, ALPHA, "laws")
        i2 = marginal_interval(s.scaled(c), TAU, TAU_PRIME, 0, ALPHA, "laws")
        assert i2.lower == pytest.approx(c * i1.lower, rel=1e-10)
        assert i2.upper == pytest.approx(c * i1.upper, rel=1e-10)


class TestValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda s: confidence_region(s, TAU, None, ALPHA, "quantile"),
            lambda s: confidence_region(s, TAU, TAU_PRIME, ALPHA, "LAWS"),
            lambda s: marginal_interval(s, TAU, TAU_PRIME, 0, ALPHA, "quantile"),
            lambda s: equality_test(s, TAU, TAU_PRIME, "weissman"),
        ],
        ids=["region_intermediate", "region_extreme", "interval", "test"],
    )
    def test_unknown_method(self, call):
        # Unchecked, _estimate reads any name but "laws" as QB, or as
        # Weissman when extrapolating.
        with pytest.raises(DomainError, match="unknown method"):
            call(fixture_sample())

    @pytest.mark.parametrize("j", [-1, 2, True, 0.0])
    def test_interval_margin_index(self, j):
        # Unchecked, -1 gives an interval labelled margin=-1.
        with pytest.raises(DomainError, match="margin index"):
            marginal_interval(fixture_sample(), TAU, TAU_PRIME, j, ALPHA, "laws")

    def test_bad_alpha(self):
        with pytest.raises(DomainError):
            confidence_region(fixture_sample(), TAU, None, 0.0, "laws")

    @pytest.mark.parametrize("alpha", [0.0, 1.5, -0.1])
    @pytest.mark.parametrize("method", ["laws", "qb"])
    def test_interval_bad_alpha(self, method, alpha):
        with pytest.raises(DomainError, match=r"alpha must be in \(0,1\)"):
            marginal_interval(fixture_sample(), TAU, TAU_PRIME, 0, alpha, method)

    @pytest.mark.parametrize(
        "d, call, match",
        [
            (2, lambda s: confidence_region(s, TAU, None, 1.5, "laws"), "alpha must be"),
            (2, lambda s: confidence_region(s, TAU, TAU_PRIME, 1.5, "laws"), "alpha must be"),
            (2, lambda s: equality_test(s, TAU, TAU_PRIME, "laws", 1.5), "alpha must be"),
            (1, lambda s: equality_test(s, TAU, TAU_PRIME, "laws"), "at least two margins"),
        ],
        ids=["region_intermediate", "region_extreme", "test_alpha", "test_one_margin"],
    )
    def test_arguments_checked_before_covariance(self, d, call, match):
        # Hill estimates >= 1/2: the LAWS covariance of this panel fails, and
        # a bad alpha or margin count must be reported in its place.
        rng = np.random.default_rng(15)
        s = MultivariateSample(rng.pareto(1.2, (500, d)) + 1.0, ("X0", "X1")[:d])
        with pytest.raises(DomainError, match="tail too heavy"):
            estimate_covariance(s, TAU, TAU_PRIME, "laws")
        with pytest.raises(DomainError, match=match):
            call(s)

    def test_bad_levels(self):
        from tailjoint.errors import LevelError

        with pytest.raises(LevelError):
            confidence_region(fixture_sample(), 0.999, 0.9, ALPHA, "laws")

    @pytest.mark.parametrize("kind", ["laws", "qb", "quantile"])
    def test_interval_and_test_require_tau_prime_before_the_fit(self, monkeypatch, kind):
        fits = count_fits(monkeypatch)
        s = fixture_sample()
        with pytest.raises(LevelError, match="tau_prime is required"):
            equality_test(s, TAU, None, kind)
        if kind != "quantile":
            with pytest.raises(LevelError, match="tau_prime is required"):
                marginal_interval(s, TAU, None, 0, ALPHA, kind)
        assert fits == []

    @pytest.mark.parametrize("method", ["laws", "qb"])
    def test_nan_tau_is_a_level_error(self, method):
        with pytest.raises(LevelError, match="tau must be finite, got nan"):
            estimate_covariance(fixture_sample(), math.nan, None, method)

    @pytest.mark.parametrize("method", ["laws", "qb", "quantile"])
    def test_levels_with_log_dn_zero_rejected(self, method):
        # 1 - tau and 1 - tau_prime round to the same number: log d_n = 0
        # would divide by zero in the extrapolated covariance.
        s = fixture_sample()
        with pytest.raises(LevelError, match="log d_n = 0"):
            equality_test(s, 0.1, math.nextafter(0.1, 1.0), method)

    def test_region_invariants(self):
        with pytest.raises(DomainError):
            ConfidenceRegion(
                kind="x",
                scale="log",
                alpha=0.05,
                tau=0.9,
                tau_prime=0.999,
                center=np.array([-1.0, 2.0]),
                bias_shift=np.zeros(2),
                shape=SpdMatrix.from_array(np.eye(2)),
                radius=1.0,
            )
        with pytest.raises(DomainError):
            ConfidenceRegion(
                kind="x",
                scale="linear",
                alpha=0.05,
                tau=0.9,
                tau_prime=None,
                center=np.array([1.0, 2.0]),
                bias_shift=np.zeros(2),
                shape=SpdMatrix.from_array(np.eye(2)),
                radius=0.0,
            )
