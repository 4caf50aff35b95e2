"""Theoretical covariance/bias oracles and their plug-in estimators."""

import math

import numpy as np
import pytest
from conftest import level_grid, step_unit_integral, tail_panels
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from tailjoint import covariance
from tailjoint.covariance import (
    _sigma_laws_cross_diag,
    estimate_bias_qb,
    estimate_sigma_laws,
    estimate_v_laws,
    estimate_v_qb,
    estimate_v_star_laws,
    estimate_v_star_qb,
    theoretical_sigma_laws,
    theoretical_sigma_q,
    theoretical_v_laws,
    theoretical_v_qb,
    theoretical_v_star_laws,
)
from tailjoint.errors import (
    DomainError,
    NotPositiveSemidefiniteError,
    TailjointError,
)
from tailjoint.marginal import (
    asymmetric_weight,
    empirical_quantile,
    estimate_margins,
    hill_estimator,
    laws_expectile,
    m_function,
)
from tailjoint.numerics import CLIP_RTOL
from tailjoint.sample import MultivariateSample, TailLevelPair, effective_k, tau_from_k
from tailjoint.simulation import SimulationModel, rng_stream, sample_model
from tailjoint.taildep import OracleTailCopula, empirical_tail_copula


IND = OracleTailCopula.independent()
COM = OracleTailCopula.comonotone()
LOG3 = OracleTailCopula.logistic(3.0)


def seed1_sample(n=200, d=2, comonotone=False):
    rng = np.random.default_rng(1)
    if comonotone:
        x = rng.pareto(3.0, size=n) + 1.0
        values = np.column_stack([x, 2.0 * x])
    else:
        values = rng.pareto(3.0, size=(n, d)) + 1.0
    return MultivariateSample(values, tuple(f"X{j}" for j in range(values.shape[1])))


def comonotone_laws_pair(g1, g2):
    """Closed form of the comonotone LAWS off-diagonal g1 g2 times the
    integral over [1,inf)^2 of min(c1 x^(-1/g1), c2 y^(-1/g2)), c = 1/g - 1.

    With u = c1 x^(-1/g1), v = c2 y^(-1/g2) it is g1^2 g2^2 c1^g1 c2^g2 times
    the integral of min(u,v) u^(-g1-1) v^(-g2-1) over (0,c1] x (0,c2], a sum
    of power integrals split at u = v and u = c2."""
    c1, c2 = 1.0 / g1 - 1.0, 1.0 / g2 - 1.0
    a = min(c1, c2)
    box = a ** (1.0 - g1 - g2) / ((1.0 - g1 - g2) * g2 * (1.0 - g2)) - a ** (
        1.0 - g1
    ) * c2**-g2 / (g2 * (1.0 - g1))
    if c1 > c2:
        box += c2 ** (1.0 - g2) / (1.0 - g2) * (c2**-g1 - c1**-g1) / g1
    return (g1 * g2) ** 2 * c1**g1 * c2**g2 * box


class TestTheoreticalVLaws:
    def test_diagonal_value(self):
        v = theoretical_v_laws([1.0 / 3.0, 1.0 / 3.0], IND)
        assert v.entries[0, 0] == pytest.approx(2.0 / 9.0, rel=1e-12)

    def test_independent_offdiag_zero(self):
        v = theoretical_v_laws([0.3, 0.25], IND)
        assert abs(v.entries[0, 1]) < 1e-10

    def test_comonotone_equals_diagonal(self):
        # Quadrature anchor: with the R=min oracle and equal gamma = 1/3 the
        # off-diagonal integral collapses to the diagonal 2 g^3/(1-2g) = 2/9,
        # so the correlation is exactly 1.
        # (tiny PSD clip of the rank-one matrix perturbs entries at ~1e-9)
        v = theoretical_v_laws([1.0 / 3.0, 1.0 / 3.0], COM)
        assert v.entries[0, 0] == pytest.approx(2.0 / 9.0, abs=1e-6)
        assert v.entries[0, 1] == pytest.approx(2.0 / 9.0, abs=1e-6)

    def test_heavy_tail_rejected(self):
        with pytest.raises(DomainError):
            theoretical_v_laws([0.5, 0.3], IND)

    @pytest.mark.parametrize("g1", [0.05, 0.2, 1.0 / 3.0, 0.4, 0.49])
    @pytest.mark.parametrize("g2", [0.05, 0.2, 1.0 / 3.0, 0.4, 0.49])
    def test_comonotone_closed_form(self, g1, g2):
        v = theoretical_v_laws([g1, g2], COM).entries
        assert v[0, 1] == pytest.approx(comonotone_laws_pair(g1, g2), rel=1e-10)

    def test_comonotone_asymmetric_anchor(self):
        assert comonotone_laws_pair(0.2, 0.4) == pytest.approx(0.10250930256796174, rel=1e-14)

    def test_logistic_matches_log_coordinate_dblquad(self):
        g1, g2, theta = 0.2, 0.4, 3.0
        c1, c2 = 1.0 / g1 - 1.0, 1.0 / g2 - 1.0

        def r(u, v):
            # logistic tail copula without the cancellation of u + v - (...)
            lo, hi = min(u, v), max(u, v)
            if lo == 0.0:
                return 0.0
            return lo - hi * math.expm1(math.log1p((lo / hi) ** theta) / theta)

        def f(b, a):
            # x = e^(g1 a), y = e^(g2 b): dx dy = g1 g2 e^(g1 a + g2 b) da db
            val = r(c1 * math.exp(-a), c2 * math.exp(-b))
            return math.exp(math.log(val) + g1 * a + g2 * b) if val > 0.0 else 0.0

        ref, _ = integrate.dblquad(f, 0.0, np.inf, 0.0, np.inf, epsabs=0.0, epsrel=1e-10)
        ref *= (g1 * g2) ** 2
        v = theoretical_v_laws([g1, g2], LOG3).entries
        assert v[0, 1] == pytest.approx(ref, rel=1e-6)


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
        v = theoretical_v_qb([1.0 / 3.0, 1.0 / 3.0], IND)
        expected = (1.0 / 9.0) * (1.0 + m_function(1.0 / 3.0) ** 2)
        assert expected == pytest.approx(0.183446, abs=1e-6)
        assert v.entries[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_diagonal_one_half(self):
        v = theoretical_v_qb([0.5, 0.5], IND)
        assert v.entries[0, 0] == pytest.approx(1.25, rel=1e-12)

    def test_independent_offdiag_zero(self):
        v = theoretical_v_qb([0.3, 0.4], IND)
        assert abs(v.entries[0, 1]) < 1e-12


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

    def test_22_entry_matches_v_laws(self):
        g = [1.0 / 3.0, 0.3]
        sig = theoretical_sigma_laws(g, LOG3).entries
        v = theoretical_v_laws(g, LOG3).entries
        assert sig[1, 3] == pytest.approx(v[0, 1], rel=1e-8)
        assert sig[1, 1] == pytest.approx(v[0, 0], rel=1e-12)

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
        for build, order in ((theoretical_v_laws, [1, 0]), (theoretical_sigma_laws, perm)):
            fwd, rev = build([g1, g2], oracle), build([g2, g1], oracle)
            assert np.allclose(
                rev.entries, fwd.entries[np.ix_(order, order)], rtol=1e-9, atol=1e-13
            )
            for v in (fwd, rev):
                assert v.clip_magnitude <= CLIP_RTOL * np.trace(v.entries)


class TestTheoreticalVStar:
    def test_star_laws_contraction_limit(self):
        # As log d_n grows the contraction keeps only the Hill block.
        g = [1.0 / 3.0, 0.3]
        big = theoretical_v_star_laws(g, LOG3, 1e8).entries
        sig = theoretical_sigma_laws(g, LOG3).entries
        assert big[0, 0] == pytest.approx(sig[0, 0], abs=1e-6)
        assert big[0, 1] == pytest.approx(sig[0, 2], abs=1e-6)


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
            g = hill_estimator(col, effective_k(s.n, tau))
            q = empirical_quantile(col, tau)
            expected = -g * (1.0 / g - 1.0) ** g * col.mean() * root / q
            assert b[j] == pytest.approx(expected, rel=1e-12)


def laws_variance_oracle(sample, tau):
    """Independent straight-line evaluation of the intermediate LAWS
    covariance display."""
    n, d = sample.n, sample.d
    k = effective_k(n, tau)
    g = np.array([hill_estimator(sample.column(j), k) for j in range(d)])
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
        est = estimate_v_laws(s, tau).entries
        assert np.allclose(est, laws_variance_oracle(s, tau), rtol=1e-12, atol=1e-14)

    def test_duplicated_column_offdiag(self):
        s = seed1_sample()
        dup = MultivariateSample(
            np.column_stack([s.column(0), s.column(0) * 1.0 + 0.0, s.column(1)]),
            ("a", "a2", "b"),
        )
        tau = 0.9
        est = estimate_v_laws(dup, tau).entries
        oracle = laws_variance_oracle(dup, tau)
        assert est[0, 1] == pytest.approx(oracle[0, 1], rel=1e-12)

    def test_heavy_tail_hard_error(self):
        rng = np.random.default_rng(15)
        x = rng.pareto(1.2, size=500) + 1.0  # gamma ~ 0.83
        s = MultivariateSample(np.column_stack([x, x + rng.random(500)]), ("a", "b"))
        with pytest.raises(DomainError, match="use QB"):
            estimate_v_laws(s, 0.9)

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
            m = estimate_v_laws(s, tau).entries
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


class TestEstimateVQb:
    def test_straight_line_oracle(self):
        s = seed1_sample()
        tau = 0.9
        est = estimate_v_qb(s, tau).entries
        n, d = s.n, s.d
        k = effective_k(n, tau)
        g = np.array([hill_estimator(s.column(j), k) for j in range(d)])
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
        est = estimate_v_qb(s, 0.9).entries
        assert est[0, 1] == pytest.approx(0.0, abs=1e-14)


class TestEstimateVStarLaws:
    def test_straight_line_oracle_comonotone(self):
        s = seed1_sample(comonotone=True)
        tau, tau_prime = 0.9, 0.999
        est = estimate_v_star_laws(s, tau, tau_prime).entries
        # Independent re-evaluation: rebuild the interleaved block matrix
        # from first principles and contract with (1, 1/log dn).
        n, d = s.n, s.d
        k = effective_k(n, tau)
        log_dn = math.log((1.0 - tau) / (1.0 - tau_prime))
        g = np.array([hill_estimator(s.column(j), k) for j in range(d)])
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
            est = estimate_v_star_laws(s, tau, tau_prime).entries
            assert np.allclose(est, 0.5 * (expected + expected.T), rtol=1e-12)

    def test_large_log_dn_tends_to_hill_block(self):
        s = seed1_sample()
        tau = 0.9
        sigma = estimate_sigma_laws(s, tau)
        est = estimate_v_star_laws(s, tau, 1.0 - 1e-12).entries
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
        est = estimate_v_star_qb(s, tau, tau_prime).entries
        n, d = s.n, s.d
        k = effective_k(n, tau)
        log_dn = math.log((1.0 - tau) / (1.0 - tau_prime))
        g = np.array([hill_estimator(s.column(j), k) for j in range(d)])
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

    def test_large_log_dn_diagonal_tends_to_gamma_sq(self):
        s = seed1_sample()
        tau = 0.9
        k = effective_k(s.n, tau)
        g0 = hill_estimator(s.column(0), k)
        est = estimate_v_star_qb(s, tau, 1.0 - 1e-12).entries
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
            ests.append(estimate_v_star_qb(s, tau, tau_prime).entries)
        mean_est = np.mean(ests, axis=0)
        assert np.allclose(mean_est, theo, atol=0.1)


def flat_topped_panel() -> MultivariateSample:
    """A Pareto panel whose first column has its top 30 values tied: its
    Hill estimate is 0 for k < 30."""
    rng = np.random.default_rng(9)
    x = (1.0 - rng.random((200, 3))) ** -0.3
    x[np.argsort(x[:, 0])[-30:], 0] = 10.0
    return MultivariateSample(x, ("A", "B", "C"))


class TestScanVStarLaws:
    def test_each_level_equals_its_single_level_call(self, monkeypatch):
        # Chunks of three levels.  At k = 44..56 this Gumbel draw has
        # star-LAWS matrices that are not PSD next to valid ones; the
        # flat-topped panel has Hill estimates of 0 and of 1/2 and more.
        # Whole matrices are compared: their trace reads only diagonals
        # that phi and the cross terms do not reach.
        gumbel = sample_model(SimulationModel.gumbel_frechet(d=2), 1000, rng_stream(1, 30))
        kinds = set()
        for sample, ks in ((gumbel, range(44, 57)), (flat_topped_panel(), range(2, 199))):
            monkeypatch.setattr(covariance, "_SCAN_BYTES", 3 * sample.n * sample.d**2)
            levels = [TailLevelPair(tau_from_k(sample.n, k), 0.999, sample.n) for k in ks]
            for lv, got in zip(levels, covariance._scan_v_star_laws(sample, levels)):
                try:
                    want = estimate_v_star_laws(sample, lv.tau, lv.tau_prime).entries
                except TailjointError as exc:
                    assert type(got) is type(exc) and str(got) == str(exc)
                    psd = isinstance(exc, NotPositiveSemidefiniteError)
                    kinds.add(type(exc).__name__ if psd else str(exc).split(" (")[0])
                    continue
                assert np.array_equal(got, want)
        assert kinds == {
            "NotPositiveSemidefiniteError",
            "LAWS variance requires positive Hill estimates",
            "tail too heavy for LAWS variance",
        }
