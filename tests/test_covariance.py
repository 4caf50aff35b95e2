"""Theoretical covariance/bias oracles and their plug-in estimators."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import (
    column_ranks, comonotone_laws_pair, count_eighs, level_grid, step_unit_integral,
    tail_panels,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from tailjoint import covariance, inference, numerics
from tailjoint.covariance import (
    _sigma_laws_cross_diag,
    estimate_bias_qb,
    estimate_sigma_laws,
    theoretical_sigma_laws,
    theoretical_sigma_q,
    theoretical_v_star_laws,
    theoretical_v_star_qb,
)
from tailjoint.errors import (
    RAISE,
    Checks,
    DomainError,
    NotPositiveSemidefiniteError,
    TailjointError,
)
from tailjoint.inference import estimate_covariance
from tailjoint.marginal import (
    _fit_sorted,
    asymmetric_weight,
    estimate_margins,
    fit_column,
    laws_expectile,
    m_function,
)
from tailjoint.numerics import _QUAD_TOL, CLIP_RTOL, SpdMatrix
from tailjoint.sample import (
    MultivariateSample, TailLevelPair, _stack_columns, effective_k, tau_from_k,
)
from tailjoint.simulation import SimulationModel, rng_stream, sample_model
from tailjoint.taildep import OracleTailCopula, empirical_tail_copula


IND = OracleTailCopula.independent()
COM = OracleTailCopula.comonotone()
LOG3 = OracleTailCopula.logistic(3.0)


def v_laws(gammas, oracle) -> np.ndarray:
    """The intermediate LAWS covariance: the LAWS block of
    theoretical_sigma_laws."""
    return theoretical_sigma_laws(gammas, oracle).entries[1::2, 1::2]


def blocks(sigma: np.ndarray) -> tuple:
    """The (Hill, cross, X) d x d blocks of an interleaved 2d x 2d
    covariance of (Hill_1, X_1, ..., Hill_d, X_d), as _contract reads them."""
    return sigma[..., 0::2, 0::2], sigma[..., 0::2, 1::2], sigma[..., 1::2, 1::2]


def v_qb(gammas, oracle) -> np.ndarray:
    """The intermediate QB covariance: the contraction of
    theoretical_sigma_q with the QB weights (m(g), 1)."""
    g = np.asarray(gammas, dtype=float)
    sigma = theoretical_sigma_q(g, oracle).entries
    return covariance._contract(*blocks(sigma), *covariance._qb_weights(g))


def hill(column, tau) -> float:
    """The Hill estimate of fit_column at tau."""
    return float(fit_column(column, tau).gamma_hat[0])


def seed1_sample(n=200, d=2, comonotone=False):
    rng = np.random.default_rng(1)
    if comonotone:
        x = rng.pareto(3.0, size=n) + 1.0
        values = np.column_stack([x, 2.0 * x])
    else:
        values = rng.pareto(3.0, size=(n, d)) + 1.0
    return MultivariateSample(values, tuple(f"X{j}" for j in range(values.shape[1])))


class TestTheoreticalVLaws:
    def test_diagonal_value(self):
        v = v_laws([1.0 / 3.0, 1.0 / 3.0], IND)
        assert v[0, 0] == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_independent_offdiag_zero(self):
        v = v_laws([0.3, 0.25], IND)
        assert abs(v[0, 1]) < 1e-10

    def test_comonotone_equals_diagonal(self):
        # Quadrature anchor: with the R=min oracle and equal gamma = 1/3 the
        # off-diagonal integral collapses to the diagonal 2 g^3/(1-2g) = 2/9,
        # so the correlation is exactly 1.
        # (tiny PSD clip of the rank-one matrix perturbs entries at ~1e-9)
        v = v_laws([1.0 / 3.0, 1.0 / 3.0], COM)
        assert v[0, 0] == pytest.approx(2.0 / 9.0, abs=1e-6)
        assert v[0, 1] == pytest.approx(2.0 / 9.0, abs=1e-6)

    def test_heavy_tail_rejected(self):
        with pytest.raises(DomainError):
            v_laws([0.5, 0.3], IND)

    @pytest.mark.parametrize("g1", [0.05, 0.2, 1.0 / 3.0, 0.4, 0.49])
    @pytest.mark.parametrize("g2", [0.05, 0.2, 1.0 / 3.0, 0.4, 0.49])
    def test_comonotone_closed_form(self, g1, g2):
        v = v_laws([g1, g2], COM)
        assert v[0, 1] == pytest.approx(comonotone_laws_pair(g1, g2), rel=1e-10)

    def test_comonotone_asymmetric_anchor(self):
        assert comonotone_laws_pair(0.2, 0.4) == pytest.approx(0.10250930256796174, rel=1e-14)

    LOGISTIC_POINTS = [
        (0.2, 0.4, 3.0), (0.25, 1.0 / 3.0, 2.0), (0.15, 0.25, 2.0), (0.1, 0.45, 1.5),
        (0.3, 0.3, 5.0),
    ]

    @pytest.mark.parametrize("g1,g2,theta", LOGISTIC_POINTS)
    def test_logistic_matches_log_coordinate_dblquad(self, g1, g2, theta):
        # At the quadrature's claimed tolerance, against an independent 2-D
        # rule whose own tolerance is 100 times finer.
        c1, c2 = 1.0 / g1 - 1.0, 1.0 / g2 - 1.0
        r = logistic_r(theta)

        def f(b, a):
            # x = e^(g1 a), y = e^(g2 b): dx dy = g1 g2 e^(g1 a + g2 b) da db
            return weighted(r(c1 * math.exp(-a), c2 * math.exp(-b)), g1 * a + g2 * b)

        ref, _ = integrate.dblquad(f, 0.0, np.inf, 0.0, np.inf, epsabs=0.0, epsrel=1e-12)
        ref *= (g1 * g2) ** 2
        sigma = theoretical_sigma_laws([g1, g2], OracleTailCopula.logistic(theta))
        assert sigma.clip_magnitude == 0.0
        assert sigma.entries[1, 3] == pytest.approx(ref, rel=_QUAD_TOL, abs=0.0)

    @pytest.mark.parametrize("g1,g2,theta", LOGISTIC_POINTS)
    def test_logistic_cross_terms_match_log_coordinate_quadrature(self, g1, g2, theta):
        # Cov(Hill_j, LAWS_l) = g_l D - g_j g_l S, D the integral over
        # [1,inf)^2 of R(x^(-1/g_j), c_l y^(-1/g_l)) / x and S that of
        # R(1, c_l y^(-1/g_l)) over [1,inf), c_l = 1/g_l - 1, each by an
        # independent rule 100 times finer than the claimed tolerance.
        r = logistic_r(theta)

        def cross(gj, gl):
            cl = 1.0 / gl - 1.0

            def f(b, a):
                # x = e^(gj a), y = e^(gl b): dx/x dy = gj gl e^(gl b) da db
                return weighted(r(math.exp(-a), cl * math.exp(-b)), gl * b)

            double, _ = integrate.dblquad(
                f, 0.0, np.inf, 0.0, np.inf, epsabs=0.0, epsrel=1e-12
            )
            single, _ = integrate.quad(
                lambda b: weighted(r(1.0, cl * math.exp(-b)), gl * b),
                0.0, np.inf, epsabs=0.0, epsrel=1e-12,
            )
            return gl * (gj * gl * double) - gj * gl * (gl * single)

        sigma = theoretical_sigma_laws([g1, g2], OracleTailCopula.logistic(theta))
        assert sigma.clip_magnitude == 0.0
        assert sigma.entries[0, 3] == pytest.approx(cross(g1, g2), rel=_QUAD_TOL, abs=0.0)
        assert sigma.entries[2, 1] == pytest.approx(cross(g2, g1), rel=_QUAD_TOL, abs=0.0)


def logistic_r(theta: float):
    """The logistic tail copula R(u, v) of two floats, without the
    cancellation of u + v - (u^theta + v^theta)^(1/theta)."""

    def r(u, v):
        lo, hi = min(u, v), max(u, v)
        if lo == 0.0:
            return 0.0
        return lo - hi * math.expm1(math.log1p((lo / hi) ** theta) / theta)

    return r


def weighted(value: float, log_weight: float) -> float:
    """value e^log_weight, 0 where value is, without overflow of the weight."""
    return math.exp(math.log(value) + log_weight) if value > 0.0 else 0.0


class TestTheoreticalSigmaQ:
    def test_independent_block_diagonal(self):
        g = [0.3, 0.2]
        m = theoretical_sigma_q(g, IND).entries
        assert np.allclose(m, np.diag([0.09, 0.09, 0.04, 0.04]), atol=1e-12)

    def test_comonotone_cross_block(self):
        g = 1.0 / 3.0
        m = theoretical_sigma_q([g, g], COM).entries
        # off-block (1,1) entry = g^2 R(1,1) = g^2; unit integral 1 makes
        # the (1,2) entry g^2 (1 - 1) = 0.
        assert m[0, 2] == pytest.approx(g * g, rel=1e-10)
        assert m[0, 3] == pytest.approx(0.0, abs=1e-10)


class TestTheoreticalVQb:
    def test_diagonal_one_third(self):
        v = v_qb([1.0 / 3.0, 1.0 / 3.0], IND)
        expected = (1.0 / 9.0) * (1.0 + m_function(1.0 / 3.0) ** 2)
        assert expected == pytest.approx(0.183446, abs=1e-6)
        assert v[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_diagonal_one_half(self):
        v = v_qb([0.5, 0.5], IND)
        assert v[0, 0] == pytest.approx(1.25, rel=1e-12)

    def test_independent_offdiag_zero(self):
        v = v_qb([0.3, 0.4], IND)
        assert abs(v[0, 1]) < 1e-12


class TestTheoreticalSigmaLaws:
    def test_cross_term_one_third(self):
        g = 1.0 / 3.0
        m = theoretical_sigma_laws([g, g], IND).entries
        expected = g**3 * (1.0 / g - 1.0) ** g / (1.0 - g) ** 2
        # closed form: 2^(1/3)/12
        assert expected == pytest.approx(2.0 ** (1.0 / 3.0) / 12.0, rel=1e-14)
        assert expected == pytest.approx(0.10499, abs=1e-5)
        assert m[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_independent_off_blocks_zero(self):
        m = theoretical_sigma_laws([0.3, 0.25], IND).entries
        assert np.allclose(m[0:2, 2:4], 0.0, atol=1e-12)

    def test_laws_diagonal_closed_form(self):
        g = np.array([1.0 / 3.0, 0.3])
        sig = theoretical_sigma_laws(g, LOG3).entries
        assert np.diag(sig)[1::2] == pytest.approx(2.0 * g**3 / (1.0 - 2.0 * g), rel=1e-12)

    @pytest.mark.parametrize("gammas", [(0.2, 0.4), (0.4, 0.2), (0.05, 0.49), (0.3, 0.3)])
    def test_comonotone_hill_laws_cross_closed_form(self, gammas):
        # Cov(Hill_j, LAWS_l) = g_l D - g_j g_l L with D the dx/x-weighted
        # integral of min(x^(-1/g_j), c_l y^(-1/g_l)) over [1,inf)^2 and L
        # the integral of min(1, c_l y^(-1/g_l)) over [1,inf).  Integrating
        # in u = x^(-1/g_j), v = c_l y^(-1/g_l) (c_l > 1):
        #   D = g_j g_l c_l^g_l (1/(g_l (1-g_l)^2) - c_l^(-g_l)/g_l),
        #   L = c_l^g_l - 1 + c_l^(g_l-1),
        # which leaves g_j g_l^2 c_l^g_l / (1-g_l)^2: at g_j = g_l the
        # diagonal cross term.
        m = theoretical_sigma_laws(list(gammas), COM).entries
        for j, ell in ((0, 1), (1, 0)):
            gj, gl = gammas[j], gammas[ell]
            cl = 1.0 / gl - 1.0
            closed = gj * gl**2 * cl**gl / (1.0 - gl) ** 2
            assert m[2 * j, 2 * ell + 1] == pytest.approx(closed, rel=1e-10)


def count_passes(monkeypatch) -> tuple:
    """The oracle's R evaluations, and the levels of each quadrature pass of
    the covariance builders (one entry per pass)."""
    calls, passes = [], []
    formula, de_integral = OracleTailCopula._formula, covariance._de_integral

    def counted_formula(self, x, y):
        calls.append(np.size(x))
        return formula(self, x, y)

    def counted_pass(f, *args):
        passes.append(0)

        def level(x):
            passes[-1] += 1
            return f(x)

        return de_integral(level, *args)

    monkeypatch.setattr(OracleTailCopula, "_formula", counted_formula)
    monkeypatch.setattr(covariance, "_de_integral", counted_pass)
    return calls, passes


class TestQuadraturePasses:
    # Each pair's LAWS entry and cross terms take one pass, which evaluates
    # R once per level: a later change that splits the pass shows here.
    def test_oracle_inputs_take_one_pass(self, monkeypatch):
        calls, passes = count_passes(monkeypatch)
        theoretical_sigma_laws([0.15, 0.25], OracleTailCopula.logistic(2.0))
        assert len(passes) == 1
        assert len(calls) == passes[0] <= 2

    def test_one_pass_per_pair_and_one_r_per_level(self, monkeypatch):
        calls, passes = count_passes(monkeypatch)
        theoretical_sigma_laws([0.1, 0.2, 0.3], LOG3)
        assert len(passes) == 3
        assert len(calls) == sum(passes)

    @pytest.mark.parametrize("build", [theoretical_v_star_laws, theoretical_v_star_qb])
    def test_star_builders_take_one_pass_and_one_check(self, monkeypatch, build):
        # On the oracle inputs: one pass (the pair's, or the unit integral's
        # through integrate_unit_log), one SPD check, and a contraction read
        # from the blocks, never from the interleaved 2d x 2d matrix.
        calls, passes = count_passes(monkeypatch)
        monkeypatch.setattr(numerics, "_de_integral", covariance._de_integral)
        checks, spd_stack = [], numerics._spd_stack
        monkeypatch.setattr(numerics, "_spd_stack", lambda *a: checks.append(0) or spd_stack(*a))
        monkeypatch.setattr(covariance, "_interleave", mock.Mock(side_effect=AssertionError))
        build([0.15, 0.25], OracleTailCopula.logistic(2.0), math.log(50.0))
        assert len(passes) == 1 and len(checks) == 1


SWEEP_ORACLES = [IND, COM, *(OracleTailCopula.logistic(t) for t in (1.0, 2.0, 1e6, math.inf))]
SWEEP_GAMMAS = [math.nan, math.inf, -math.inf, 0.0, 0.5, 1.0, 5e-324, 1e-300]
SWEEP_ENTRIES = [0.0, 1.0, -1.0, 1e308, -1e308, 1e-308, -5e-324, np.finfo(float).max, math.nan, math.inf]


@st.composite
def sweep_matrices(draw):
    """A d x d matrix, d from 0 to 5, of small floats and of entries near
    1e+-308 and the float max, some non-finite; as drawn, symmetrized, or a
    Gram matrix scaled to 1e+-300."""
    d = draw(st.integers(0, 5))
    entries = st.one_of(st.sampled_from(SWEEP_ENTRIES), st.floats(-10.0, 10.0))
    m = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
    form = draw(st.sampled_from(["drawn", "symmetrized", "gram"]))
    with np.errstate(all="ignore"):
        if form == "symmetrized":
            m = 0.5 * m + 0.5 * m.T
        elif form == "gram":
            m = m @ m.T * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    return m


def finite_or_typed(call, *args) -> None:
    """call(*args) with warnings as errors returns a finite SpdMatrix or
    raises a TailjointError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            m = call(*args)
        except TailjointError:
            return
    assert np.isfinite(m.entries).all() and math.isfinite(m.clip_magnitude)


@st.composite
def sweep_gammas(draw):
    """0 to 3 tail indices in (0, 1/2), one of them replaced, half the time,
    by an edge value (NaN, +-inf, 0, a bound, a tiny one) or any value
    around [0, 1]."""
    g = draw(st.lists(st.floats(0.02, 0.48), max_size=3))
    if g and draw(st.booleans()):
        edge = st.one_of(st.sampled_from(SWEEP_GAMMAS), st.floats(-0.1, 1.1))
        g[draw(st.integers(0, len(g) - 1))] = draw(edge)
    return g


@given(
    sweep_gammas(),
    st.sampled_from(SWEEP_ORACLES),
    st.one_of(st.sampled_from([0.0, math.nan, math.inf, 5e-324, 1e-300]), st.floats(-1.0, 50.0)),
    sweep_matrices(),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_theoretical_path_edge_sweep(gammas, oracle, log_dn, m):
    # The public entry points of the theoretical covariances and the SPD
    # check at edge inputs: a defined result or a typed error, no warning.
    finite_or_typed(theoretical_sigma_q, gammas, oracle)
    finite_or_typed(theoretical_sigma_laws, gammas, oracle)
    finite_or_typed(theoretical_v_star_laws, gammas, oracle, log_dn)
    finite_or_typed(theoretical_v_star_qb, gammas, oracle, log_dn)
    finite_or_typed(SpdMatrix.from_array, m)


class TestOracleSymmetry:
    @given(
        g1=st.floats(0.02, 0.48),
        g2=st.floats(0.02, 0.48),
        oracle=st.one_of(
            st.just(COM), st.floats(1.0, 8.0).map(OracleTailCopula.logistic)
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_swapping_margins_swaps_entries(self, g1, g2, oracle):
        perm = [2, 3, 0, 1]
        fwd, rev = theoretical_sigma_laws([g1, g2], oracle), theoretical_sigma_laws([g2, g1], oracle)
        assert np.allclose(rev.entries, fwd.entries[np.ix_(perm, perm)], rtol=1e-9, atol=1e-13)
        for v in (fwd, rev):
            assert v.clip_magnitude <= CLIP_RTOL * np.trace(v.entries)


class TestLogisticLimit:
    # As theta grows the logistic tail copula tends to the comonotone one:
    # R(t, 1) differs from min(t, 1) by at most log(2)/theta, and only for t
    # within about 1/theta of 1, so the integrals agree to about 1/theta^2.
    @pytest.mark.parametrize("theta", [1e6, math.inf])
    def test_v_laws_matches_comonotone(self, theta):
        g = (0.2, 0.3)
        v = v_laws(g, OracleTailCopula.logistic(theta))
        assert np.allclose(v, v_laws(g, COM), rtol=1e-10, atol=0.0)

    def test_infinite_theta_is_comonotone(self):
        # R(1,1) = 2 - 2^(1/theta) and the unit integral reach their
        # comonotone values only at theta = inf.
        g = (0.2, 0.3)
        orc = OracleTailCopula.logistic(math.inf)
        assert orc.evaluate([0.5, 2.0, 3.0], [1.0, 1.0, 0.0]).tolist() == [0.5, 1.0, 0.0]
        for build in (theoretical_sigma_laws, theoretical_sigma_q):
            assert np.allclose(
                build(g, orc).entries, build(g, COM).entries, rtol=1e-10, atol=0.0
            )

    def test_large_theta_does_not_overflow(self):
        val = OracleTailCopula.logistic(1e6).evaluate([1e-300, 1.0, 1e300], 1.0)
        assert val.tolist() == [1e-300, pytest.approx(1.0 - math.log(2.0) / 1e6), 1.0]


def test_dict_oracle_missing_pair_names_it():
    oracle = {(0, 1): OracleTailCopula.logistic(2.0)}
    with pytest.raises(DomainError, match=r"pair \(0, 2\)"):
        theoretical_sigma_laws((0.2, 0.3, 0.25), oracle)


BUILDERS = {
    "sigma_q": lambda g: theoretical_sigma_q(g, LOG3),
    "sigma_laws": lambda g: theoretical_sigma_laws(g, LOG3),
    "v_star_laws": lambda g: theoretical_v_star_laws(g, LOG3, 2.0),
    "v_star_qb": lambda g: theoretical_v_star_qb(g, LOG3, 2.0),
}


class TestTheoreticalVStar:
    @pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
    @pytest.mark.parametrize("gammas", [[math.nan, 0.2], [0.2, math.nan], [1e-310, 0.2]])
    def test_out_of_range_gammas_raise_before_any_quadrature(self, build, gammas):
        # NaN fails the in-range mask; below 1/max, 1/gamma overflows.
        ran = AssertionError("a quadrature ran")
        with mock.patch.object(covariance, "_de_integral", side_effect=ran), \
                mock.patch.object(OracleTailCopula, "_formula", side_effect=ran):
            with pytest.raises(DomainError, match="tail indices lie in"):
                build(gammas)

    @pytest.mark.parametrize("log_dn", [0.0, -1.0, math.nan, math.inf])
    def test_bad_log_dn_raises_before_any_quadrature(self, log_dn):
        ran = AssertionError("a quadrature ran")
        with mock.patch.object(covariance, "_de_integral", side_effect=ran), \
                mock.patch.object(OracleTailCopula, "_formula", side_effect=ran):
            with pytest.raises(
                DomainError, match=r"^contraction requires a finite log d_n > 0$"
            ):
                theoretical_v_star_laws([0.2, 0.3], LOG3, log_dn)
            # The tail indices are checked first.
            with pytest.raises(DomainError, match="tail indices lie in"):
                theoretical_v_star_laws([0.5, 0.3], LOG3, log_dn)

    def test_star_laws_contraction_limit(self):
        # As log d_n grows the contraction keeps only the Hill block.
        g = [1.0 / 3.0, 0.3]
        big = theoretical_v_star_laws(g, LOG3, 1e8).entries
        sig = theoretical_sigma_laws(g, LOG3).entries
        assert big[0, 0] == pytest.approx(sig[0, 0], abs=1e-6)
        assert big[0, 1] == pytest.approx(sig[0, 2], abs=1e-6)

    def test_star_laws_contracts_the_raw_sigma_and_checks_once(self, monkeypatch):
        g, log_dn = [0.15, 0.25, 0.2], math.log(50.0)
        sig = theoretical_sigma_laws(g, LOG3).entries
        eighs = count_eighs(monkeypatch)
        m = theoretical_v_star_laws(g, LOG3, log_dn).entries
        assert eighs == [1]
        # W Sigma W^T with W's row j holding (1, 1/log d_n) at margin j's
        # (Hill_j, LAWS_j) columns, entry by entry.
        w, d = 1.0 / log_dn, len(g)
        want = np.array([[
            (1.0 * 1.0 * sig[2 * j, 2 * ell] + w * w * sig[2 * j + 1, 2 * ell + 1])
            + (1.0 * w * sig[2 * j, 2 * ell + 1] + w * 1.0 * sig[2 * j + 1, 2 * ell])
            for ell in range(d)] for j in range(d)])
        assert np.array_equal(m, want)


class TestEstimateBiasQb:
    def test_hand_values(self):
        # gamma-hat = 1/2 makes the QB factor 1; with unit column mean,
        # q-hat = 10 and n(1-tau) = 100 the bias is -0.5 * 10/10 = -0.5.
        g, mean, q, root = 0.5, 1.0, 10.0, 10.0
        expected = -g * (1.0 / g - 1.0) ** g * mean * root / q
        assert expected == -0.5

    def test_sign_matches_negated_mean(self):
        s = seed1_sample()
        b = estimate_bias_qb(s, 0.9)
        means = s.values.mean(axis=0)
        assert np.all(np.sign(b) == -np.sign(means))

    def test_zero_mean_zero_bias(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=300)
        x = x - x.mean()
        s = MultivariateSample(np.column_stack([x, x + 10.0]), ("a", "b"))
        b = estimate_bias_qb(s, 0.9)
        assert b[0] == pytest.approx(0.0, abs=1e-12)

    def test_straight_line_re_evaluation(self):
        s = seed1_sample()
        tau = 0.9
        b = estimate_bias_qb(s, tau)
        root = math.sqrt(s.n * (1.0 - tau))
        for j in range(s.d):
            col = s.column(j)
            g = hill(col, tau)
            q = float(fit_column(col, tau).q_hat[0])
            expected = -g * (1.0 / g - 1.0) ** g * col.mean() * root / q
            assert b[j] == pytest.approx(expected, rel=1e-12)

    def test_components_beyond_the_float_range_raise(self):
        # Half the column at -8e307: each component is finite, about 9e307,
        # until it is scaled by sqrt(n(1 - tau)) = sqrt(10).
        rng = np.random.default_rng(0)
        x = np.concatenate([
            np.full(50, -8e307), np.full(39, 0.1), [0.2], 0.2 * np.exp(rng.exponential(0.3, 10)),
        ])
        s = MultivariateSample(x[:, None], ("a",))
        stack, g, q, _ = covariance._one(s, 0.9)
        assert np.isfinite(covariance._bias_qb(stack, g, q, RAISE)).all()
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError, match="bias components must be finite"):
                estimate_bias_qb(s, 0.9)


def laws_variance_oracle(sample, tau):
    """Independent straight-line evaluation of the intermediate LAWS
    covariance display."""
    d = sample.d
    g = np.array([hill(sample.column(j), tau) for j in range(d)])
    xi = np.array([laws_expectile(sample.column(j), tau) for j in range(d)])
    out = np.empty((d, d))
    for j in range(d):
        surv = np.mean(sample.column(j) > xi[j])
        ratio = surv / (1.0 - tau)
        out[j, j] = (
            2.0 * g[j] ** 2 / (1.0 - 2.0 * g[j])
            * (1.0 + ratio)
            / (1.0 + (2.0 * tau - 1.0) * ratio) ** 2
        )
    for j in range(d):
        for ell in range(d):
            if j == ell:
                continue
            phi_j = asymmetric_weight(sample.column(j) - xi[j], tau)
            phi_l = asymmetric_weight(sample.column(ell) - xi[ell], tau)
            mbar = float(np.mean(phi_j * phi_l))
            out[j, ell] = g[j] * g[ell] * mbar / ((1.0 - tau) * xi[j] * xi[ell])
    return out


class TestEstimateVLaws:
    def test_straight_line_oracle(self):
        s = seed1_sample()
        tau = 0.9
        est = estimate_covariance(s, tau, None, "laws").entries
        assert np.allclose(est, laws_variance_oracle(s, tau), rtol=1e-12, atol=1e-14)

    def test_duplicated_column_offdiag(self):
        s = seed1_sample()
        dup = MultivariateSample(
            np.column_stack([s.column(0), s.column(0) * 1.0 + 0.0, s.column(1)]),
            ("a", "a2", "b"),
        )
        tau = 0.9
        est = estimate_covariance(dup, tau, None, "laws").entries
        oracle = laws_variance_oracle(dup, tau)
        assert est[0, 1] == pytest.approx(oracle[0, 1], rel=1e-12)

    def test_heavy_tail_hard_error(self):
        rng = np.random.default_rng(15)
        x = rng.pareto(1.2, size=500) + 1.0  # gamma ~ 0.83
        s = MultivariateSample(np.column_stack([x, x + rng.random(500)]), ("a", "b"))
        with pytest.raises(DomainError, match="use QB"):
            estimate_covariance(s, 0.9, None, "laws")

    def test_mc_consistency_diagonal_and_offdiag(self):
        # Independent Pareto(1/3) margins: the estimated diagonal tracks
        # the population value of the displayed survival-corrected formula
        # at the working level, and the off-diagonals vanish.  The display
        # approaches the asymptotic 2/9 only as tau -> 1, so the finite-tau
        # population value (not the limit) is the consistency target.
        from tailjoint.simulation import MarginOracle

        g, tau, n = 1.0 / 3.0, 0.99, 10_000
        xi = MarginOracle("pareto", g).true_expectile(tau)
        ratio = xi ** (-1.0 / g) / (1.0 - tau)
        population = (
            2.0 * g**2 / (1.0 - 2.0 * g)
            * (1.0 + ratio)
            / (1.0 + (2.0 * tau - 1.0) * ratio) ** 2
        )
        diag, off = [], []
        for i in range(60):
            rng = np.random.default_rng([3, i])
            x = (1.0 - rng.random((n, 2))) ** -g
            s = MultivariateSample(x, ("a", "b"))
            m = estimate_covariance(s, tau, None, "laws").entries
            diag.append(m[0, 0])
            off.append(abs(m[0, 1]))
        assert np.mean(diag) == pytest.approx(population, abs=0.03)
        assert np.mean(off) < 0.05
        # the display itself tends to the asymptotic diagonal as tau -> 1
        limits = []
        for t in (0.99, 0.999, 0.9999):
            xi_t = MarginOracle("pareto", g).true_expectile(t)
            r_t = xi_t ** (-1.0 / g) / (1.0 - t)
            limits.append(
                2.0 * g**2 / (1.0 - 2.0 * g)
                * (1.0 + r_t)
                / (1.0 + (2.0 * t - 1.0) * r_t) ** 2
            )
        assert all(
            abs(a - 2.0 / 9.0) > abs(b - 2.0 / 9.0) for a, b in zip(limits, limits[1:])
        )


def broadcast_mean_cross(x, phi, thresholds, g):
    """Cov(Hill_j, LAWS_l) numerators with each mean taken over the whole
    panel, one pair at a time: the reference for _hill_laws_cross."""
    rows = np.ascontiguousarray(x.T)
    phi_rows = np.ascontiguousarray(phi.T)[None, :, :]
    exceed = rows > thresholds[:, None]
    logex = np.zeros(rows.shape)
    logex[exceed] = np.log((rows / thresholds[:, None])[exceed])
    s1 = np.mean(logex[:, None, :] * phi_rows, axis=2)
    s2 = np.mean(exceed[:, None, :] * phi_rows, axis=2)
    return g * s1 - np.outer(g, g) * s2


class TestEstimateSigmaLawsExactness:
    @given(tail_panels())
    @settings(max_examples=60, deadline=None)
    def test_diagonal_exact_and_cross_terms_close(self, s):
        n = s.n
        for tau in level_grid(n):
            try:
                sigma = estimate_sigma_laws(s, tau)
            except TailjointError:
                continue
            fit = estimate_margins(s, tau)
            g, xi, omt = fit.gamma_hat, fit.xi_laws, 1.0 - tau
            surv = np.count_nonzero(s.values > xi, axis=0) / n
            vdiag = (
                2.0 * g**2 / (1.0 - 2.0 * g)
                * (1.0 + surv / omt)
                / (1.0 + (2.0 * tau - 1.0) * surv / omt) ** 2
            )
            cdiag = np.array([_sigma_laws_cross_diag(gj) for gj in g])
            assert np.array_equal(np.diag(sigma)[0::2], g**2)
            assert np.array_equal(np.diag(sigma)[1::2], vdiag)
            assert np.array_equal(np.diag(sigma[0::2, 1::2]), cdiag)
            phi = asymmetric_weight(s.values - xi, tau)
            cross = broadcast_mean_cross(s.values, phi, fit.q_hat, g) / (omt * xi)
            np.fill_diagonal(cross, cdiag)
            want = sigma.copy()
            want[0::2, 1::2], want[1::2, 0::2] = cross, cross.T
            scale = np.max(np.abs(want))
            assert np.max(np.abs(sigma - want)) <= 1e-13 * scale


@st.composite
def tied_stacks(draw) -> np.ndarray:
    """A (B, n, d) stack of B = 1..3 panels (n = 20..80, d = 1..3) of
    Pareto-tailed columns rounded to 0, 1 or 2 decimals: ties at xi-hat,
    at the Hill threshold and at R-hat's cut-off."""
    b, n, d = draw(st.integers(1, 3)), draw(st.integers(20, 80)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (1.0 - rng.random((b, n, d))) ** -draw(st.floats(0.05, 0.45))
    return np.round(draw(st.sampled_from([1.0, 4.0])) * x, draw(st.integers(0, 2)))


def row_major_laws(st, g, q, xi, tau, by_rank=False):
    """The raw LAWS covariance and the Hill/LAWS cross terms of each sample
    of the stack st, built on its row-major (n, d) values: the residuals
    phi = asymmetric_weight(x - xi) with the weight chosen by sign, or, by
    rank, tau on each margin's top surv ranks (surv its values above xi)
    and 1 - tau below, their Gram phi^T phi, and the cross terms from the
    (k, d) rows of phi that each margin's top k rows hold.  The reference
    that the column-major builder (covariance._v_laws_raw) equals bit for
    bit."""
    n, d = st.n, g.shape[-1]
    omt, k = 1.0 - tau, effective_k(n, tau)
    rows = np.ascontiguousarray(np.swapaxes(st.columns, -1, -2))
    vlaws, cross = np.empty((len(g), d, d)), np.empty((len(g), d, d))
    for b, gb in enumerate(g):
        count = (st.sorted_columns[b] > xi[b][:, None]).sum(axis=-1)
        if by_rank:
            above = column_ranks(st.order[b]).T > n - count
            phi = np.where(above, tau, 1.0 - tau) * (rows[b] - xi[b])
        else:
            phi = asymmetric_weight(rows[b] - xi[b], tau)
        surv = count / n
        vlaws[b] = np.outer(gb, gb) * (phi.T @ phi / n) / (omt * np.outer(xi[b], xi[b]))
        np.fill_diagonal(
            vlaws[b],
            2.0 * gb**2 / (1.0 - 2.0 * gb)
            * (1.0 + surv / omt)
            / (1.0 + (2.0 * tau - 1.0) * surv / omt) ** 2,
        )
        top = phi[st.order[b][:, st.order.shape[-1] - k :]]  # (d, k, d)
        values, thresholds = st.sorted_columns[b][:, n - k :], q[b][:, None]
        s1 = (np.log(values / thresholds)[:, None, :] @ top)[:, 0, :]
        s2 = np.where((values > thresholds)[..., None], top, 0.0).sum(axis=-2)
        cross[b] = gb[None, :] * (s1 / n) - np.outer(gb, gb) * (s2 / n)
        cross[b] /= omt * xi[b][None, :]
    return vlaws, cross


class TestColumnMajorLaws:
    """The LAWS covariance on column-major (B, d, n) rows, with each
    margin's residuals scaled by a power of two, is the row-major
    construction to the bit, for a stack of samples and for one sample."""

    @staticmethod
    def assert_bit_for_bit(st, fit, tau):
        g, q, xi = fit.gamma_hat, fit.q_hat, fit.xi_laws
        vlaws, cross = row_major_laws(st, g, q, xi, tau)
        got_vlaws, got_cross = covariance._v_laws_raw(st, g, q, xi, tau, RAISE)
        assert np.array_equal(got_vlaws, vlaws)
        assert np.array_equal(got_cross, cross)
        _, sigma_cross, sigma_laws = covariance._sigma_laws(st, g, q, xi, tau, RAISE)
        off = ~np.eye(g.shape[-1], dtype=bool)
        assert np.array_equal(sigma_laws, vlaws)
        assert np.array_equal(sigma_cross[:, off], cross[:, off])

    @given(tied_stacks())
    @settings(max_examples=60, deadline=None)
    def test_weight_above_xi_is_the_weight_of_the_top_ranks(self, values):
        # phi's weight is tau where a value lies above xi-hat; the reference
        # puts it on each margin's top surv ranks.  Every level of the
        # samples that pass their checks, with ties at xi-hat, at the Hill
        # threshold and at R-hat's cut-off.
        stack, n = _stack_columns(values.swapaxes(1, 2), 0.0), values.shape[1]
        for k in range(1, n):
            tau = tau_from_k(n, k)
            checks = Checks(len(values))
            with np.errstate(all="ignore"):
                fit = _fit_sorted(stack.sorted_columns, tau, checks)
                g, q, xi = fit.gamma_hat, fit.q_hat, fit.xi_laws
                got = covariance._v_laws_raw(stack, g, q, xi, tau, checks)
                want = row_major_laws(stack, g, q, xi, tau, by_rank=True)
            ok = np.array([error is None for error in checks.first])
            for a, b in zip(got, want):
                assert np.array_equal(a[ok], b[ok])

    @given(tied_stacks())
    @settings(max_examples=60, deadline=None)
    def test_stack_ordering_only_its_ordered_rows_gives_the_same_covariance(self, values):
        # A stack orders only the top rows that the Hill/LAWS cross terms
        # read (sample._ordered_rows); at every level, the
        # samples that pass their checks get the fully ordered stack's LAWS
        # covariance and cross terms to the bit, ties at k-hat included.
        columns, n = values.swapaxes(1, 2), values.shape[1]
        full = _stack_columns(columns, 0.0)
        for k in range(1, n):
            tau = tau_from_k(n, k)
            part = _stack_columns(columns, tau)
            checks = Checks(len(values))
            with np.errstate(all="ignore"):
                fit = _fit_sorted(part.sorted_columns, tau, checks)
                g, q, xi = fit.gamma_hat, fit.q_hat, fit.xi_laws
                got = covariance._v_laws_raw(part, g, q, xi, tau, checks)
                want = covariance._v_laws_raw(full, g, q, xi, tau, Checks(len(values)))
            ok = np.array([error is None for error in checks.first])
            for a, b in zip(got, want):
                assert np.array_equal(a[ok], b[ok])

    def test_replication_stack(self):
        model = SimulationModel.gumbel_frechet(d=3, gamma=0.25)
        values = np.stack(
            [sample_model(model, 400, rng_stream(5, i)).values for i in range(6)]
        )
        values[3] -= 0.6  # a negative value in one sample
        st = _stack_columns(values.swapaxes(1, 2), 0.9)
        self.assert_bit_for_bit(st, _fit_sorted(st.sorted_columns, 0.9, RAISE), 0.9)

    def test_one_sample_with_expectile_on_an_observation(self):
        # Integer values: at k = 10 margin 1's LAWS expectile is exactly 7,
        # so the survival count must leave out the observations equal to it.
        s = integer_panel()
        tau = tau_from_k(s.n, 10)
        fit = estimate_margins(s, tau)
        assert fit.xi_laws[1] == 7.0 and 7.0 in s.column(1)
        one = type(fit)(tau, *(a[None] for a in (fit.gamma_hat, fit.q_hat, fit.xi_laws)))
        self.assert_bit_for_bit(s._stack(tau), one, tau)


class TestEstimateVQb:
    def test_straight_line_oracle(self):
        s = seed1_sample()
        tau = 0.9
        est = estimate_covariance(s, tau, None, "qb").entries
        d = s.d
        g = np.array([hill(s.column(j), tau) for j in range(d)])
        mg = np.array([m_function(x) for x in g])
        tc = empirical_tail_copula(s, tau, 0, 1)
        r11 = tc.evaluate(1.0, 1.0)
        iu, iv = step_unit_integral(tc, 0), step_unit_integral(tc, 1)
        off = g[0] * g[1] * (
            r11 * (mg[0] - 1.0) * (mg[1] - 1.0) + mg[0] * iu + mg[1] * iv
        )
        assert est[0, 0] == pytest.approx(g[0] ** 2 * (1.0 + mg[0] ** 2), rel=1e-12)
        assert est[0, 1] == pytest.approx(off, rel=1e-12)

    def test_tail_independent_offdiag_zero(self):
        # Antimonotone positive columns: the top-k ranks never coincide,
        # so every empirical tail-copula quantity vanishes.
        x = np.arange(1.0, 101.0)
        s = MultivariateSample(np.column_stack([x, x[::-1]]), ("a", "b"))
        est = estimate_covariance(s, 0.9, None, "qb").entries
        assert est[0, 1] == pytest.approx(0.0, abs=1e-14)


class TestEstimateVStarLaws:
    def test_straight_line_oracle_comonotone(self):
        s = seed1_sample(comonotone=True)
        tau, tau_prime = 0.9, 0.999
        est = estimate_covariance(s, tau, tau_prime, "laws").entries
        # Independent re-evaluation: rebuild the interleaved block matrix
        # from first principles and contract with (1, 1/log dn).
        n, d = s.n, s.d
        k = effective_k(n, tau)
        log_dn = math.log((1.0 - tau) / (1.0 - tau_prime))
        g = np.array([hill(s.column(j), tau) for j in range(d)])
        xi = np.array([laws_expectile(s.column(j), tau) for j in range(d)])
        vlaws = laws_variance_oracle(s, tau)
        tc = empirical_tail_copula(s, tau, 0, 1)
        r11 = tc.evaluate(1.0, 1.0)

        def cross(j, ell):
            col = np.sort(s.column(j))
            thresh = col[n - k - 1]
            exceed = s.column(j) > thresh
            logex = np.where(exceed, np.log(np.maximum(s.column(j), thresh) / thresh), 0.0)
            phi_l = asymmetric_weight(s.column(ell) - xi[ell], tau)
            s1 = float(np.mean(logex * phi_l))
            s2 = float(np.mean(exceed * phi_l))
            return (g[ell] * s1 - g[j] * g[ell] * s2) / ((1.0 - tau) * xi[ell])

        sigma = np.zeros((4, 4))
        for j in range(2):
            sigma[2 * j, 2 * j] = g[j] ** 2
            cross_diag = g[j] ** 3 * (1.0 / g[j] - 1.0) ** g[j] / (1.0 - g[j]) ** 2
            sigma[2 * j, 2 * j + 1] = sigma[2 * j + 1, 2 * j] = cross_diag
            sigma[2 * j + 1, 2 * j + 1] = vlaws[j, j]
        sigma[0, 2] = sigma[2, 0] = g[0] * g[1] * r11
        sigma[1, 3] = sigma[3, 1] = vlaws[0, 1]
        e12, e21 = cross(0, 1), cross(1, 0)
        sigma[0, 3] = sigma[3, 0] = e12
        sigma[1, 2] = sigma[2, 1] = e21
        w = np.array([1.0, 1.0 / log_dn])
        expected = np.empty((2, 2))
        for j in range(2):
            for ell in range(2):
                block = sigma[2 * j : 2 * j + 2, 2 * ell : 2 * ell + 2]
                expected[j, ell] = w @ block @ w
        expected = 0.5 * (expected + expected.T)
        assert np.allclose(est, expected, rtol=1e-12, atol=1e-14)

    def test_contraction_consistency(self):
        # Two tau_prime values differ only through log d_n; recomputing the
        # contraction from the cached block matrix reproduces both.
        s = seed1_sample()
        tau = 0.9
        sigma = estimate_sigma_laws(s, tau)
        for tau_prime in (0.995, 0.9999):
            log_dn = math.log((1.0 - tau) / (1.0 - tau_prime))
            w = np.array([1.0, 1.0 / log_dn])
            expected = np.empty((2, 2))
            for j in range(2):
                for ell in range(2):
                    block = sigma[2 * j : 2 * j + 2, 2 * ell : 2 * ell + 2]
                    expected[j, ell] = w @ block @ w
            est = estimate_covariance(s, tau, tau_prime, "laws").entries
            assert np.allclose(est, 0.5 * (expected + expected.T), rtol=1e-12)

    def test_large_log_dn_tends_to_hill_block(self):
        s = seed1_sample()
        tau = 0.9
        sigma = estimate_sigma_laws(s, tau)
        est = estimate_covariance(s, tau, 1.0 - 1e-12, "laws").entries
        assert est[0, 0] == pytest.approx(sigma[0, 0], rel=0.3)


class TestEstimateVStarQb:
    def test_forced_gamma_diagonal(self):
        # gamma-hat = 1/2, log d_n = 1: diagonal 0.25 (1 + (2+1)^2) / 1 = 2.5.
        g, log_dn = 0.5, 1.0
        mg = m_function(g) + log_dn
        assert g**2 * (1.0 + mg**2) / log_dn**2 == pytest.approx(2.5, rel=1e-12)

    def test_straight_line_oracle(self):
        s = seed1_sample()
        tau, tau_prime = 0.9, 0.999
        est = estimate_covariance(s, tau, tau_prime, "qb").entries
        d = s.d
        log_dn = math.log((1.0 - tau) / (1.0 - tau_prime))
        g = np.array([hill(s.column(j), tau) for j in range(d)])
        mg = np.array([m_function(x) for x in g]) + log_dn
        tc = empirical_tail_copula(s, tau, 0, 1)
        r11 = tc.evaluate(1.0, 1.0)
        iu, iv = step_unit_integral(tc, 0), step_unit_integral(tc, 1)
        off = g[0] * g[1] * (
            r11 * (mg[0] - 1.0) * (mg[1] - 1.0) + mg[0] * iu + mg[1] * iv
        ) / log_dn**2
        diag0 = g[0] ** 2 * (1.0 + mg[0] ** 2) / log_dn**2
        assert est[0, 0] == pytest.approx(diag0, rel=1e-12)
        assert est[0, 1] == pytest.approx(off, rel=1e-12)

    def test_one_top_pairs_gather(self):
        # R-hat(1,1) and the unit integrals read the same mask.
        with mock.patch.object(
            covariance, "_top_pairs", side_effect=covariance._top_pairs
        ) as top_pairs:
            estimate_covariance(seed1_sample(), 0.9, 0.999, "qb")
        assert top_pairs.call_count == 1

    def test_large_log_dn_diagonal_tends_to_gamma_sq(self):
        s = seed1_sample()
        tau = 0.9
        g0 = hill(s.column(0), tau)
        est = estimate_covariance(s, tau, 1.0 - 1e-12, "qb").entries
        assert est[0, 0] == pytest.approx(g0**2, rel=0.3)

    def test_mc_consistency_with_logistic_oracle(self):
        # Model-(iii)-style check at reduced scale: plug-in entries track
        # the theoretical star-QB values with the logistic(3) oracle.
        from tailjoint.covariance import theoretical_v_star_qb
        from tailjoint.simulation import SimulationModel, rng_stream, sample_model

        model = SimulationModel.gumbel_frechet(2)
        n, k, tau_prime = 10_000, 100, 0.9999
        tau = 1.0 - k / n
        log_dn = math.log((1.0 - tau) / (1.0 - tau_prime))
        theo = theoretical_v_star_qb(model.gammas, LOG3, log_dn).entries
        ests = []
        for i in range(50):
            s = sample_model(model, n, rng_stream(5, i))
            ests.append(estimate_covariance(s, tau, tau_prime, "qb").entries)
        mean_est = np.mean(ests, axis=0)
        assert np.allclose(mean_est, theo, atol=0.1)


def qb_reference(g, r11, unit, log_dn=0.0) -> np.ndarray:
    """The paper's QB covariance written out: g_j g_l (R (m_j - 1)(m_l - 1)
    + m_j I[j,l] + m_l I[l,j]) off the diagonal and g_j^2 (1 + m_j^2) on it,
    with m_j = m(g_j) + log d_n and I[j,l] on margin j's axis; divided by
    log d_n^2 when extrapolated (log d_n > 0), on the log scale."""
    mg = np.array([m_function(x) for x in g]) + log_dn
    mi = mg[:, None] * unit
    m = np.outer(g, g) * (r11 * np.outer(mg - 1.0, mg - 1.0) + mi + mi.T)
    np.fill_diagonal(m, g**2 * (1.0 + mg**2))
    return m / log_dn**2 if log_dn else m


def assert_close_to_largest(got, want, rtol=1e-14) -> None:
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def dispatched(sample, tau, tau_prime, method, naive=False) -> np.ndarray:
    """The raw matrix that inference._estimate hands to its SPD check, which
    may fail it."""
    with mock.patch.object(inference, "_spd_stack", side_effect=inference._spd_stack) as spd:
        try:
            inference._estimate_sample(sample, tau, tau_prime, method, naive).covariance()
        except TailjointError:
            pass
    return spd.call_args.args[0][0]


class TestOneContraction:
    """Every plug-in and theoretical covariance is W Sigma W^T of one (Hill,
    X) covariance: QB matches the paper's closed form, and the weight-0
    variants give their block to the bit."""

    @settings(max_examples=60, deadline=None)
    @given(tail_panels(), st.integers(2, 40), st.sampled_from([None, 0.999]))
    def test_plug_in_qb_is_the_closed_form(self, sample, k, tau_prime):
        tau = tau_from_k(sample.n, min(k, sample.n - 1))
        try:
            g = estimate_margins(sample, tau).gamma_hat
            log_dn = 0.0 if tau_prime is None else TailLevelPair(tau, tau_prime, sample.n).log_dn
        except TailjointError:
            return
        if np.any((g <= 0.0) | (g >= 1.0)):
            return
        top = covariance._top_pairs(sample._stack(tau), tau)
        r11 = covariance._r11_matrix(top, sample.n, tau)[0]
        unit = covariance._unit_integral_matrix(top, sample.n, tau)[0]
        want = qb_reference(g, r11, unit, log_dn)
        assert_close_to_largest(dispatched(sample, tau, tau_prime, "qb"), want)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0.02, 0.98), min_size=1, max_size=4),
        st.sampled_from([IND, COM, LOG3, OracleTailCopula.logistic(1.5)]),
        st.floats(0.1, 20.0),
    )
    def test_theoretical_qb_is_the_closed_form(self, gammas, oracle, log_dn):
        g, d = np.array(gammas), len(gammas)
        r11 = covariance._oracle_matrix(oracle, d, OracleTailCopula.r11)
        unit = covariance._oracle_matrix(oracle, d, OracleTailCopula.unit_integral)
        sigma = covariance._theoretical_sigma_q(g, oracle)
        for weights, ld in ((covariance._qb_weights(g), 0.0),
                            (covariance._qb_weights(g, log_dn), log_dn)):
            want = qb_reference(g, r11, unit, ld)
            assert_close_to_largest(covariance._contract(*sigma, *weights), want)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_weight_zero_variants_are_their_blocks(self, d):
        s = seed1_sample(n=400, d=d)
        tau = 0.9
        st_, g, q, xi = covariance._one(s, tau)
        laws = covariance._v_laws_raw(st_, g, q, xi, tau, RAISE)[0][0]
        hill = covariance._hill_block(
            g, covariance._r11_matrix(covariance._top_pairs(st_, tau), s.n, tau)
        )[0]
        assert np.array_equal(dispatched(s, tau, None, "laws"), laws)
        assert np.array_equal(dispatched(s, tau, 0.999, "quantile"), hill)
        g = g[0]
        naive = {
            (None, "laws"): 2.0 * g**3 / (1.0 - 2.0 * g),
            (None, "qb"): 2.0 * g**2 / (1.0 - 2.0 * g),
            (0.999, "laws"): g**2,
            (0.999, "qb"): g**2,
        }
        for (tau_prime, method), diag in naive.items():
            got = dispatched(s, tau, tau_prime, method, naive=True)
            assert np.array_equal(got, np.diag(diag))

    def test_scan_weights_broadcast_per_level(self):
        # An (L, 1) array of 1/log d_n contracts each level's matrix with
        # its own weight, as one call per level does.
        rng = np.random.default_rng(4)
        sigma = rng.normal(size=(3, 6, 6))
        sigma = sigma @ sigma.transpose(0, 2, 1)
        w = np.array([[0.5], [0.25], [0.125]])
        got = covariance._contract(*blocks(sigma), 1.0, w)
        for i in range(3):
            assert np.array_equal(got[i], covariance._contract(*blocks(sigma[i]), 1.0, w[i, 0]))


def flat_topped_panel() -> MultivariateSample:
    """A Pareto panel whose first column has its top 30 values tied: its
    Hill estimate is 0 for k < 30."""
    rng = np.random.default_rng(9)
    x = (1.0 - rng.random((200, 3))) ** -0.3
    x[np.argsort(x[:, 0])[-30:], 0] = 10.0
    return MultivariateSample(x, ("A", "B", "C"))


def integer_panel() -> MultivariateSample:
    """A 40 x 2 panel of integers: at k = 10 margin 1's LAWS expectile is
    exactly 7, one of its values."""
    x = np.floor((1.0 - np.random.default_rng(0).random((40, 2))) ** -0.3 * 4.0)
    return MultivariateSample(x, ("a", "b"))


def tied_panel() -> MultivariateSample:
    """A Gumbel draw rounded to two decimals: ties in every column."""
    model = SimulationModel.gumbel_frechet(d=3, gamma=0.25)
    x = sample_model(model, 600, rng_stream(6, 0)).values
    return MultivariateSample(np.round(x, 2), ("a", "b", "c"))


@st.composite
def scan_panels(draw) -> MultivariateSample:
    """An n x d panel (n = 5..60, d = 1, 2, 3 or 5) of Pareto-tailed
    columns: plain, rounded (ties) or integer, shifted to hold negative
    values or not, with its last column a copy of its first or not, and
    scaled by 1, 1e300 or 1e-300."""
    n, d = draw(st.integers(5, 60)), draw(st.sampled_from([1, 2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (1.0 - rng.random((n, d))) ** -draw(st.floats(0.05, 0.45))
    kind = draw(st.sampled_from(["plain", "rounded", "integer"]))
    if kind == "rounded":
        x = np.round(x, draw(st.integers(1, 3)))
    elif kind == "integer":
        x = np.floor(4.0 * x)
    x -= draw(st.sampled_from([0.0, 0.5, 1.5]))
    if d > 1 and draw(st.booleans()):
        x[:, -1] = x[:, 0]
    x *= draw(st.sampled_from([1.0, 1e300, 1e-300]))
    return MultivariateSample(x, tuple(f"X{j}" for j in range(d)))


def scan_with_clips(sample, ks, tau_prime):
    """_scan_traces of the sample at k = ks and tau_prime, and the clip
    magnitude of each level's checked diagonal matrix."""
    levels = [TailLevelPair(tau_from_k(sample.n, k), tau_prime, sample.n) for k in ks]
    spd_stack, clips = covariance._spd_stack, []

    def recording(*args):
        checked = spd_stack(*args)
        clips.extend(checked.clip)
        return checked

    with mock.patch.object(covariance, "_spd_stack", recording):
        got = covariance._scan_traces(sample, levels)
    return levels, got, clips


def assert_scan_matches_single_levels(sample, ks, tau_prime=0.999) -> set:
    """Each level of a scan of the sample against estimate_covariance for
    "laws": the same failure class and message; where that call fails the
    joint matrix's PSD check, ok with the trace of the raw contraction of
    estimate_sigma_laws; else, where neither clips, the same trace.  Each
    trace to the bit.  Returns the kinds of failure of the single-level
    calls."""
    kinds = set()
    for lv, got, clip in zip(*scan_with_clips(sample, ks, tau_prime)):
        try:
            want = estimate_covariance(sample, lv.tau, lv.tau_prime, "laws")
        except NotPositiveSemidefiniteError as exc:
            kinds.add(type(exc).__name__)
            raw = covariance._contract(
                *blocks(estimate_sigma_laws(sample, lv.tau)), 1.0, 1.0 / lv.log_dn
            )
            assert not isinstance(got, TailjointError), got
            assert got == np.trace(raw)
            continue
        except TailjointError as exc:
            assert (type(got), str(got)) == (type(exc), str(exc))
            kinds.add(str(exc).split(" (")[0])
            continue
        assert not isinstance(got, TailjointError), got
        if clip == 0.0 and want.clip_magnitude == 0.0:
            assert got == np.trace(want.entries)
    return kinds


def outcome(result):
    """A scan's trace, or its failure as (class, message)."""
    return (type(result), str(result)) if isinstance(result, TailjointError) else result


class TestScanTraces:
    def test_each_level_equals_its_single_level_call(self):
        # At k = 44..56 this Gumbel draw has star-LAWS matrices that are
        # not PSD next to valid ones: the scan reports their traces, which
        # read only the per-margin blocks.  The flat-topped panel has Hill
        # estimates of 0 and of 1/2 and more.
        gumbel = sample_model(SimulationModel.gumbel_frechet(d=2), 1000, rng_stream(1, 30))
        kinds = set()
        for sample, ks in ((gumbel, range(44, 57)), (flat_topped_panel(), range(2, 199))):
            kinds |= assert_scan_matches_single_levels(sample, ks)
        assert kinds == {
            "NotPositiveSemidefiniteError",
            "LAWS variance requires positive Hill estimates",
            "tail too heavy for LAWS variance",
        }

    def test_tied_and_integer_panels(self):
        # Ties in every column, and an expectile equal to an observation at
        # k = 10 of the integer panel: a value equal to xi is not above it.
        assert_scan_matches_single_levels(tied_panel(), range(20, 240, 9))
        s = integer_panel()
        assert estimate_margins(s, tau_from_k(s.n, 10)).xi_laws[1] == 7.0
        assert_scan_matches_single_levels(s, range(2, 40))

    @given(scan_panels())
    @example(MultivariateSample(np.full((50, 1), 4e-300), ("X0",)))
    @settings(max_examples=40, deadline=None)
    def test_every_level_matches_its_single_level_call(self, s):
        assert_scan_matches_single_levels(s, range(2, s.n), 1.0 - 0.5 / s.n)

    @pytest.mark.parametrize("n", [50, 51, 137])
    @pytest.mark.parametrize("c", [7.3, 1e-10, 4e-300])
    def test_constant_column_fails_level_by_level(self, c, n):
        # A constant column's LAWS expectiles equal its value at every
        # level: each level keeps its own failure.
        x = np.column_stack([np.linspace(1.0, 9.0, n) ** 3, np.full(n, c)])
        for values in (x[:, 1:], x):
            s = MultivariateSample(values, ("a", "b")[: values.shape[1]])
            assert assert_scan_matches_single_levels(s, range(2, n), 1.0 - 0.5 / n)

    def test_levels_in_any_order_give_the_same_rows(self):
        # Ok and failed levels of the flat-topped panel, ascending, reversed
        # and shuffled: each level gives the same trace or failure.
        s = flat_topped_panel()
        levels = [TailLevelPair(tau_from_k(s.n, k), 0.999, s.n) for k in range(2, 199)]
        want = [outcome(r) for r in covariance._scan_traces(s, levels)]
        for order in (np.arange(len(levels))[::-1], np.random.default_rng(3).permutation(len(levels))):
            got = covariance._scan_traces(s, [levels[i] for i in order])
            assert [outcome(r) for r in got] == [want[i] for i in order]

    def test_memory_does_not_grow_by_rows_per_level(self):
        # Beyond its (L, d, d) checked matrices, a scan of L levels holds
        # nothing per level: no (L, n) array.  So adding 400 levels raises
        # its peak by far less than one n-long row of floats per level.
        s = sample_model(SimulationModel.gumbel_frechet(d=3), 4000, rng_stream(2, 0))
        s.sorted_columns  # sorted before tracing
        peaks = []
        for ks in (range(50, 60), range(50, 460)):
            levels = [TailLevelPair(tau_from_k(s.n, k), 0.9999, s.n) for k in ks]
            tracemalloc.start()
            covariance._scan_traces(s, levels)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 400 * s.n * 8 / 4
