"""Asymptotic covariance and bias machinery for joint expectile inference.

Theoretical matrices are exact functionals of the tail indices and a tail
copula oracle; by the oracle's homogeneity each of their integrals over
[1,inf)^2 is one 1-D quadrature (``numerics.integrate_tail_box``).
Estimated matrices plug the marginal estimators and the empirical tail
copula into the same displays; each estimated builder takes only the sample
and its levels and reads the fit that ``marginal.estimate_margins`` keeps
on the sample, so one (sample, tau) is fitted once however many builders
read it.  Every covariance builder, the Weissman (quantile-test) one
included, returns the
symmetrized, PSD-clipped :class:`~tailjoint.numerics.SpdMatrix` it builds,
except ``estimate_sigma_laws``, which returns the raw array; the QB bias is
returned as its array of per-margin components.

The Hill and QB displays (``_hill_block``, ``_qb_matrix``) read tail
dependence only through two d x d pair matrices, R(1,1) and the unit
integrals I, given by the oracle (``_oracle_matrix``) or by the ranks.

An estimated star-LAWS covariance at one level passes over the whole
n x d panel only for the asymmetric residuals phi, their Gram product and
the top-rank indicators of R-hat(1,1), a comparison with one rank cut-off.
The rest reads the sample's cached order statistics, ranks and LAWS sums:
the LAWS root is one scan of tau A + (1 - tau) B, the survival counts are
searches on the sorted columns, and the Hill/LAWS cross terms read only
each margin's exceedances.  So a scan over many levels, such as
``trace-scan``, sorts and sums the panel once.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import DomainError
from .marginal import asymmetric_weight, estimate_margins, m_function, qb_factor
from .numerics import SpdMatrix, integrate_1d_tail, integrate_tail_box
from .sample import MultivariateSample, TailLevelPair
from .taildep import OracleTailCopula, _r11_matrix, _unit_integral_matrix


def _gammas(gammas, upper: float, what: str) -> np.ndarray:
    g = np.asarray(gammas, dtype=float).ravel()
    if g.size < 1:
        raise DomainError("need at least one tail index")
    if np.any(g <= 0.0) or np.any(g >= upper):
        raise DomainError(
            f"{what} undefined unless all tail indices lie in (0, {upper})"
        )
    return g


def _pair_oracle(oracle, j: int, ell: int) -> OracleTailCopula:
    if isinstance(oracle, OracleTailCopula):
        return oracle
    try:
        return oracle[(j, ell)]
    except KeyError:
        return oracle[(ell, j)]


def _oracle_matrix(oracle, d: int, functional) -> np.ndarray:
    """The symmetric d x d matrix of a pair functional of the oracle, such
    as OracleTailCopula.r11 or .unit_integral, with a zero diagonal."""
    m = np.zeros((d, d))
    for j in range(d):
        for ell in range(j + 1, d):
            m[j, ell] = m[ell, j] = functional(_pair_oracle(oracle, j, ell))
    return m


_R11, _UNIT = OracleTailCopula.r11, OracleTailCopula.unit_integral


def _hill_block(g: np.ndarray, r11: np.ndarray) -> np.ndarray:
    """Cov(Hill_j, Hill_l) = g_j g_l R_jl(1,1), with g_j^2 on the diagonal."""
    m = np.outer(g, g) * r11
    np.fill_diagonal(m, g**2)
    return m


def _qb_matrix(
    g: np.ndarray, r11: np.ndarray, unit: np.ndarray, log_dn: float
) -> np.ndarray:
    """QB covariance: g_j g_l (R (m_j-1)(m_l-1) + m_j I[j,l] + m_l I[l,j]) off
    the diagonal and g^2 (1 + m^2) on it, with m_j = m(g_j) + log_dn and
    I[j, l] on margin j's axis.  log_dn = 0 gives the intermediate
    (linear-scale) matrix; log_dn > 0 divides by log d_n^2, giving the
    covariance of the extrapolating estimators on the log scale."""
    mg = np.array([m_function(x) for x in g]) + log_dn
    mi = mg[:, None] * unit  # m_j I[j, l]
    m = np.outer(g, g) * (r11 * np.outer(mg - 1.0, mg - 1.0) + (mi + mi.T))
    np.fill_diagonal(m, g**2 * (1.0 + mg**2))
    return m / log_dn**2 if log_dn else m


def _laws_pair_integral(orc: OracleTailCopula, gj: float, gl: float) -> float:
    """Limit covariance of the intermediate LAWS estimators of one pair:
    gj gl times the integral over [1,inf)^2 of R(cj x^{-1/gj}, cl y^{-1/gl})
    with c = 1/g - 1; zero for tail-independent margins."""
    if orc.kind == "independent":
        return 0.0
    cj, cl = 1.0 / gj - 1.0, 1.0 / gl - 1.0
    return gj * gl * integrate_tail_box(orc.evaluate, cj, cl, gj, gl, 0)


def _theoretical_laws_block(g: np.ndarray, oracle) -> np.ndarray:
    """Limit covariance of the intermediate LAWS estimators: 2g^3/(1-2g) on
    the diagonal, _laws_pair_integral off it."""
    m = np.diag(2.0 * g**3 / (1.0 - 2.0 * g))
    for j in range(g.size):
        for ell in range(j + 1, g.size):
            m[j, ell] = m[ell, j] = _laws_pair_integral(
                _pair_oracle(oracle, j, ell), g[j], g[ell]
            )
    return m


def theoretical_v_laws(gammas, oracle) -> SpdMatrix:
    """Asymptotic covariance of the joint intermediate LAWS estimators."""
    g = _gammas(gammas, 0.5, "variance formula")
    return SpdMatrix.from_array(
        _theoretical_laws_block(g, oracle), "theoretical LAWS covariance"
    )


def _interleave(hill: np.ndarray, cross: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The 2d x 2d covariance of (Hill_1, X_1, ..., Hill_d, X_d) from its
    d x d blocks: Cov(Hill, Hill), Cov(Hill_j, X_l) at (j, l), and Cov(X, X)."""
    d = hill.shape[0]
    m = np.empty((2 * d, 2 * d))
    m[0::2, 0::2], m[0::2, 1::2] = hill, cross
    m[1::2, 0::2], m[1::2, 1::2] = cross.T, other
    return m


def theoretical_sigma_q(gammas, oracle) -> SpdMatrix:
    """2d x 2d covariance of (Hill, intermediate quantile) across margins.

    Coordinates are interleaved per margin: (gamma_1, q_1, gamma_2, q_2, ...).
    """
    g = _gammas(gammas, 1.0, "covariance formula")
    r11 = _oracle_matrix(oracle, g.size, _R11)
    hill = _hill_block(g, r11)
    cross = np.outer(g, g) * (_oracle_matrix(oracle, g.size, _UNIT) - r11)
    return SpdMatrix.from_array(
        _interleave(hill, cross, hill), "theoretical Hill/quantile covariance"
    )


def theoretical_v_qb(gammas, oracle) -> SpdMatrix:
    """Asymptotic covariance of the joint intermediate QB estimators."""
    g = _gammas(gammas, 1.0, "covariance formula")
    d = g.size
    r11, unit = _oracle_matrix(oracle, d, _R11), _oracle_matrix(oracle, d, _UNIT)
    return SpdMatrix.from_array(
        _qb_matrix(g, r11, unit, 0.0), "theoretical QB covariance"
    )


def _sigma_laws_cross_diag(g: float) -> float:
    """Hill/LAWS cross term gamma^3 (gamma^{-1}-1)^gamma / (1-gamma)^2."""
    return g**3 * (1.0 / g - 1.0) ** g / (1.0 - g) ** 2


def theoretical_sigma_laws(gammas, oracle) -> SpdMatrix:
    """2d x 2d covariance of (Hill, intermediate LAWS) across margins.

    Coordinates are interleaved per margin, as in theoretical_sigma_q.
    """
    g = _gammas(gammas, 0.5, "covariance formula")
    d = g.size
    cross = np.diag([_sigma_laws_cross_diag(gj) for gj in g])

    def cross_entry(orc, gj, gl):
        # Cov(Hill_j, LAWS_l): double integral with a dx/x weight on the
        # first axis minus a single tail integral in the second variable.
        if orc.kind == "independent":
            return 0.0
        cl, al = 1.0 / gl - 1.0, 1.0 / gl
        double = integrate_tail_box(orc.evaluate, 1.0, cl, gj, gl, 1)
        single = integrate_1d_tail(lambda y: orc.evaluate(1.0, cl * y**-al))
        return gl * double - gj * gl * single

    hill = _hill_block(g, _oracle_matrix(oracle, d, _R11))
    laws = _theoretical_laws_block(g, oracle)
    for j in range(d):
        for ell in range(j + 1, d):
            orc = _pair_oracle(oracle, j, ell)
            cross[j, ell] = cross_entry(orc, g[j], g[ell])
            cross[ell, j] = cross_entry(orc, g[ell], g[j])
    return SpdMatrix.from_array(
        _interleave(hill, cross, laws), "theoretical Hill/LAWS covariance"
    )


def _contract_blocks(sigma: np.ndarray, log_dn: float) -> np.ndarray:
    """(1, 1/log dn)^T Sigma_block (1, 1/log dn) applied to every 2x2 block."""
    if log_dn <= 0.0:
        raise DomainError("contraction requires log d_n > 0")
    w = 1.0 / log_dn
    b00, b01 = sigma[0::2, 0::2], sigma[0::2, 1::2]
    b10, b11 = sigma[1::2, 0::2], sigma[1::2, 1::2]
    return b00 + (b01 + b10) * w + b11 * w * w


def theoretical_v_star_laws(gammas, oracle, log_dn: float) -> SpdMatrix:
    """Finite-n covariance of the LAWS extrapolating estimators (log scale)."""
    sigma = theoretical_sigma_laws(gammas, oracle).entries
    return SpdMatrix.from_array(
        _contract_blocks(sigma, log_dn), "theoretical star-LAWS covariance"
    )


def theoretical_v_star_qb(gammas, oracle, log_dn: float) -> SpdMatrix:
    """Finite-n covariance of the QB extrapolating estimators (log scale)."""
    g = _gammas(gammas, 1.0, "covariance formula")
    if log_dn <= 0.0:
        raise DomainError("star-QB covariance requires log d_n > 0")
    d = g.size
    r11, unit = _oracle_matrix(oracle, d, _R11), _oracle_matrix(oracle, d, _UNIT)
    return SpdMatrix.from_array(
        _qb_matrix(g, r11, unit, log_dn), "theoretical star-QB covariance"
    )


def _v_laws_raw(
    sample: MultivariateSample, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Unclipped intermediate LAWS covariance, and the asymmetric residuals
    phi of the fit at tau that it reads.  The Hill estimates are checked
    before any n x d work."""
    fit = estimate_margins(sample, tau)
    g, xi = fit.gamma_hat, fit.xi_laws
    if np.any(g >= 0.5):
        raise DomainError(
            "tail too heavy for LAWS variance (Hill estimate >= 1/2) -- use QB"
        )
    if np.any(g <= 0.0):
        raise DomainError("LAWS variance requires positive Hill estimates")
    n = sample.n
    omt = 1.0 - tau
    # The number of observations above xi, counted on the sorted columns.
    at_or_below = [np.searchsorted(col, v, side="right")
                   for col, v in zip(sample.sorted_columns, xi)]
    surv = (n - np.array(at_or_below)) / n
    diag = (
        2.0 * g**2 / (1.0 - 2.0 * g)
        * (1.0 + surv / omt)
        / (1.0 + (2.0 * tau - 1.0) * surv / omt) ** 2
    )
    phi = asymmetric_weight(sample.values - xi, tau)
    mbar = phi.T @ phi / n
    m = np.outer(g, g) * mbar / (omt * np.outer(xi, xi))
    np.fill_diagonal(m, diag)
    return m, phi


def estimate_v_laws(sample: MultivariateSample, tau: float) -> SpdMatrix:
    """Plug-in estimate of the intermediate LAWS covariance matrix."""
    return SpdMatrix.from_array(_v_laws_raw(sample, tau)[0], "LAWS covariance")


def estimate_bias_qb(sample: MultivariateSample, tau: float) -> np.ndarray:
    """First-order bias of the QB estimator, one component per margin:
    -gamma (gamma^{-1}-1)^gamma Xbar sqrt(n(1-tau)) / q-hat."""
    # q-hat is the Hill threshold order statistic, which estimate_margins
    # has already required to be positive.
    fit = estimate_margins(sample, tau)
    g, q = fit.gamma_hat, fit.q_hat
    for gj in g:
        qb_factor(gj)  # raises where the factor (1/g - 1)^g below is undefined
    means = sample.values.mean(axis=0)
    root = math.sqrt(sample.n * (1.0 - tau))
    comps = -g * (1.0 / g - 1.0) ** g * means * root / q
    if not np.all(np.isfinite(comps)):
        raise DomainError("bias components must be finite")
    return comps


def _v_qb(sample: MultivariateSample, tau: float, log_dn: float) -> SpdMatrix:
    """Plug-in QB covariance: _qb_matrix read from the ranks."""
    g = estimate_margins(sample, tau).gamma_hat
    ranks = sample.ranks
    r11, unit = _r11_matrix(ranks, tau), _unit_integral_matrix(ranks, tau)
    m = _qb_matrix(g, r11, unit, log_dn)
    return SpdMatrix.from_array(m, "star-QB covariance" if log_dn else "QB covariance")


def estimate_v_qb(sample: MultivariateSample, tau: float) -> SpdMatrix:
    """Plug-in estimate of the intermediate QB covariance matrix."""
    return _v_qb(sample, tau, 0.0)


def estimate_sigma_laws(sample: MultivariateSample, tau: float) -> np.ndarray:
    """Raw 2d x 2d plug-in estimate of the joint (Hill, LAWS) covariance.

    Coordinates are interleaved per margin.  Returned unclipped so that the
    log d_n contraction is an exact linear function of these blocks.
    """
    fit = estimate_margins(sample, tau)
    g, xi = fit.gamma_hat, fit.xi_laws
    vlaws, phi = _v_laws_raw(sample, tau)
    hill = _hill_block(g, _r11_matrix(sample.ranks, tau))
    # q-hat is the Hill threshold order statistic X_{n-k,n}.
    cross = _hill_laws_cross(sample, phi, fit.q_hat, g) / ((1.0 - tau) * xi)
    np.fill_diagonal(cross, [_sigma_laws_cross_diag(gj) for gj in g])
    return _interleave(hill, cross, vlaws)


def _hill_laws_cross(sample: MultivariateSample, phi, thresholds, g) -> np.ndarray:
    """Numerators of the empirical Cov(Hill_j, LAWS_l) for every pair (j, l).

    Entry (j, l) is g_l times the mean of margin j's log-excesses over its
    threshold times margin l's asymmetric residual, minus g_j g_l times the
    mean of the exceedance indicator times that residual.  Margin j's
    exceedances are the top of its sorted column, so its row of means is
    one product of their log-excesses with the rows of phi they sit in, and
    one sum of those rows; the log is taken only on exceedances.
    """
    n, d = sample.n, sample.d
    s1, s2 = np.empty((d, d)), np.empty((d, d))
    for j, (col, order, q) in enumerate(
        zip(sample.sorted_columns, sample._order, thresholds)
    ):
        first = np.searchsorted(col, q, side="right")
        top = phi[order[first:]]
        s1[j] = np.log(col[first:] / q) @ top
        s2[j] = top.sum(axis=0)
    return g * (s1 / n) - np.outer(g, g) * (s2 / n)


def estimate_v_star_laws(
    sample: MultivariateSample, tau: float, tau_prime: float
) -> SpdMatrix:
    """Plug-in covariance of the LAWS extrapolating estimators (log scale)."""
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    m = _contract_blocks(estimate_sigma_laws(sample, tau), levels.log_dn)
    return SpdMatrix.from_array(m, "star-LAWS covariance")


def estimate_v_star_qb(
    sample: MultivariateSample, tau: float, tau_prime: float
) -> SpdMatrix:
    """Plug-in covariance of the QB extrapolating estimators (log scale)."""
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    return _v_qb(sample, tau, levels.log_dn)


def _v_star_quantile(sample: MultivariateSample, tau: float) -> SpdMatrix:
    """Plug-in covariance of the Weissman extrapolating estimators (log
    scale): the Hill block, g_j g_l R-hat_jl(1,1) off the diagonal."""
    g = estimate_margins(sample, tau).gamma_hat
    return SpdMatrix.from_array(
        _hill_block(g, _r11_matrix(sample.ranks, tau)), "quantile test covariance"
    )
