"""Asymptotic covariance and bias machinery for joint expectile inference.

Theoretical matrices are exact functionals of the tail indices and a tail
copula oracle; by the oracle's homogeneity each of their integrals over
[1,inf)^2 is one 1-D quadrature (``numerics.integrate_tail_box``).
Estimated matrices plug the marginal estimators and the empirical tail
copula into the same displays; every estimated matrix is symmetrized and
PSD-clipped through :class:`~tailjoint.numerics.SpdMatrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .marginal import (
    MarginalTailEstimates,
    asymmetric_weight,
    estimate_margins,
    m_function,
    qb_factor,
)
from .numerics import SpdMatrix, integrate_1d_tail, integrate_tail_box
from .sample import MultivariateSample, TailLevelPair, compute_ranks, effective_k
from .taildep import OracleTailCopula, _r11_matrix, _tail_copula_from_ranks


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """A symmetric PSD covariance matrix tagged with its provenance."""

    kind: str
    matrix: SpdMatrix
    tau: float | None = None
    tau_prime: float | None = None

    @property
    def entries(self) -> np.ndarray:
        return self.matrix.entries

    @property
    def dim(self) -> int:
        return self.matrix.dim


@dataclass(frozen=True, eq=False)
class BiasEstimate:
    """First-order bias components of the quantile-based estimator."""

    components: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.components, dtype=float)
        if not np.all(np.isfinite(c)):
            raise DomainError("bias components must be finite")
        object.__setattr__(self, "components", c)


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


def _laws_pair_integral(orc: OracleTailCopula, gj: float, gl: float) -> float:
    """Limit covariance of the intermediate LAWS estimators of one pair:
    gj gl times the integral over [1,inf)^2 of R(cj x^{-1/gj}, cl y^{-1/gl})
    with c = 1/g - 1; zero for tail-independent margins."""
    if orc.kind == "independent":
        return 0.0
    cj, cl = 1.0 / gj - 1.0, 1.0 / gl - 1.0
    return gj * gl * integrate_tail_box(orc.evaluate, cj, cl, gj, gl, 0)


def theoretical_v_laws(gammas, oracle) -> CovarianceEstimate:
    """Asymptotic covariance of the joint intermediate LAWS estimators."""
    g = _gammas(gammas, 0.5, "variance formula")
    d = g.size
    m = np.diag(2.0 * g**3 / (1.0 - 2.0 * g))
    for j in range(d):
        for ell in range(j + 1, d):
            m[j, ell] = m[ell, j] = _laws_pair_integral(
                _pair_oracle(oracle, j, ell), g[j], g[ell]
            )
    return CovarianceEstimate(
        "theoretical_laws", SpdMatrix.from_array(m, "theoretical LAWS covariance")
    )


def _interleave(hill: np.ndarray, cross: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The 2d x 2d covariance of (Hill_1, X_1, ..., Hill_d, X_d) from its
    d x d blocks: Cov(Hill, Hill), Cov(Hill_j, X_l) at (j, l), and Cov(X, X)."""
    d = hill.shape[0]
    m = np.empty((2 * d, 2 * d))
    m[0::2, 0::2], m[0::2, 1::2] = hill, cross
    m[1::2, 0::2], m[1::2, 1::2] = cross.T, other
    return m


def theoretical_sigma_q(gammas, oracle) -> CovarianceEstimate:
    """2d x 2d covariance of (Hill, intermediate quantile) across margins.

    Coordinates are interleaved per margin: (gamma_1, q_1, gamma_2, q_2, ...).
    """
    g = _gammas(gammas, 1.0, "covariance formula")
    d = g.size
    hill, cross = np.diag(g**2), np.zeros((d, d))
    for j in range(d):
        for ell in range(j + 1, d):
            orc = _pair_oracle(oracle, j, ell)
            r11 = orc.r11()
            iu = orc.unit_integral()
            hill[j, ell] = hill[ell, j] = g[j] * g[ell] * r11
            cross[j, ell] = cross[ell, j] = g[j] * g[ell] * (iu - r11)
    return CovarianceEstimate(
        "theoretical_sigma_q",
        SpdMatrix.from_array(
            _interleave(hill, cross, hill), "theoretical Hill/quantile covariance"
        ),
    )


def _theoretical_qb(g: np.ndarray, oracle, log_dn: float) -> np.ndarray:
    """Limit QB covariance.  log_dn = 0 gives the intermediate (linear-scale)
    matrix; log_dn > 0 shifts m by log d_n and divides by log d_n^2, giving
    the covariance of the extrapolating estimators on the log scale."""
    d = g.size
    mg = np.array([m_function(x) for x in g]) + log_dn
    m = np.diag(g**2 * (1.0 + mg**2))
    for j in range(d):
        for ell in range(j + 1, d):
            orc = _pair_oracle(oracle, j, ell)
            r11 = orc.r11()
            iu = orc.unit_integral()
            m[j, ell] = m[ell, j] = g[j] * g[ell] * (
                r11 * (mg[j] - 1.0) * (mg[ell] - 1.0) + (mg[j] + mg[ell]) * iu
            )
    return m / log_dn**2 if log_dn else m


def theoretical_v_qb(gammas, oracle) -> CovarianceEstimate:
    """Asymptotic covariance of the joint intermediate QB estimators."""
    g = _gammas(gammas, 1.0, "covariance formula")
    return CovarianceEstimate(
        "theoretical_qb",
        SpdMatrix.from_array(_theoretical_qb(g, oracle, 0.0), "theoretical QB covariance"),
    )


def _sigma_laws_cross_diag(g: float) -> float:
    """Hill/LAWS cross term gamma^3 (gamma^{-1}-1)^gamma / (1-gamma)^2."""
    return g**3 * (1.0 / g - 1.0) ** g / (1.0 - g) ** 2


def theoretical_sigma_laws(gammas, oracle) -> CovarianceEstimate:
    """2d x 2d covariance of (Hill, intermediate LAWS) across margins.

    Coordinates are interleaved per margin, as in theoretical_sigma_q.
    """
    g = _gammas(gammas, 0.5, "covariance formula")
    d = g.size
    hill = np.diag(g**2)
    cross = np.diag([_sigma_laws_cross_diag(gj) for gj in g])
    laws = np.diag(2.0 * g**3 / (1.0 - 2.0 * g))

    def cross_entry(orc, gj, gl):
        # Cov(Hill_j, LAWS_l): double integral with a dx/x weight on the
        # first axis minus a single tail integral in the second variable.
        if orc.kind == "independent":
            return 0.0
        cl, al = 1.0 / gl - 1.0, 1.0 / gl
        double = integrate_tail_box(orc.evaluate, 1.0, cl, gj, gl, 1)
        single = integrate_1d_tail(lambda y: orc.evaluate(1.0, cl * y**-al))
        return gl * double - gj * gl * single

    for j in range(d):
        for ell in range(j + 1, d):
            orc = _pair_oracle(oracle, j, ell)
            hill[j, ell] = hill[ell, j] = g[j] * g[ell] * orc.r11()
            laws[j, ell] = laws[ell, j] = _laws_pair_integral(orc, g[j], g[ell])
            cross[j, ell] = cross_entry(orc, g[j], g[ell])
            cross[ell, j] = cross_entry(orc, g[ell], g[j])
    return CovarianceEstimate(
        "theoretical_sigma_laws",
        SpdMatrix.from_array(
            _interleave(hill, cross, laws), "theoretical Hill/LAWS covariance"
        ),
    )


def _contract_blocks(sigma: np.ndarray, log_dn: float) -> np.ndarray:
    """(1, 1/log dn)^T Sigma_block (1, 1/log dn) applied to every 2x2 block."""
    if log_dn <= 0.0:
        raise DomainError("contraction requires log d_n > 0")
    w = 1.0 / log_dn
    b00, b01 = sigma[0::2, 0::2], sigma[0::2, 1::2]
    b10, b11 = sigma[1::2, 0::2], sigma[1::2, 1::2]
    return b00 + (b01 + b10) * w + b11 * w * w


def theoretical_v_star_laws(gammas, oracle, log_dn: float) -> CovarianceEstimate:
    """Finite-n covariance of the LAWS extrapolating estimators (log scale)."""
    sigma = theoretical_sigma_laws(gammas, oracle).entries
    return CovarianceEstimate(
        "theoretical_star_laws",
        SpdMatrix.from_array(
            _contract_blocks(sigma, log_dn), "theoretical star-LAWS covariance"
        ),
    )


def theoretical_v_star_qb(gammas, oracle, log_dn: float) -> CovarianceEstimate:
    """Finite-n covariance of the QB extrapolating estimators (log scale)."""
    g = _gammas(gammas, 1.0, "covariance formula")
    if log_dn <= 0.0:
        raise DomainError("star-QB covariance requires log d_n > 0")
    return CovarianceEstimate(
        "theoretical_star_qb",
        SpdMatrix.from_array(
            _theoretical_qb(g, oracle, log_dn), "theoretical star-QB covariance"
        ),
    )


def _v_laws_raw(
    sample: MultivariateSample, tau: float, fit: MarginalTailEstimates, phi: np.ndarray
) -> np.ndarray:
    """Unclipped intermediate LAWS covariance, given the fit at tau and its
    asymmetric residuals phi."""
    g, xi = fit.gamma_hat, fit.xi_laws
    if np.any(g >= 0.5):
        raise DomainError(
            "tail too heavy for LAWS variance (Hill estimate >= 1/2) -- use QB"
        )
    if np.any(g <= 0.0):
        raise DomainError("LAWS variance requires positive Hill estimates")
    x = sample.values
    n = sample.n
    omt = 1.0 - tau
    surv = np.count_nonzero(x > xi, axis=0) / n
    diag = (
        2.0 * g**2 / (1.0 - 2.0 * g)
        * (1.0 + surv / omt)
        / (1.0 + (2.0 * tau - 1.0) * surv / omt) ** 2
    )
    mbar = phi.T @ phi / n
    m = np.outer(g, g) * mbar / (omt * np.outer(xi, xi))
    np.fill_diagonal(m, diag)
    return m


def _v_laws(sample: MultivariateSample, tau: float, fit: MarginalTailEstimates) -> SpdMatrix:
    phi = asymmetric_weight(sample.values - fit.xi_laws, tau)
    return SpdMatrix.from_array(_v_laws_raw(sample, tau, fit, phi), "LAWS covariance")


def estimate_v_laws(sample: MultivariateSample, tau: float) -> CovarianceEstimate:
    """Plug-in estimate of the intermediate LAWS covariance matrix."""
    return CovarianceEstimate(
        "laws", _v_laws(sample, tau, estimate_margins(sample, tau)), tau=tau
    )


def _bias_qb(
    sample: MultivariateSample, tau: float, fit: MarginalTailEstimates
) -> BiasEstimate:
    g, q = fit.gamma_hat, fit.q_hat
    for gj in g:
        qb_factor(gj)  # raises where the factor (1/g - 1)^g below is undefined
    if np.any(q == 0.0):
        raise DomainError("QB bias undefined: intermediate quantile is zero")
    means = sample.values.mean(axis=0)
    root = math.sqrt(sample.n * (1.0 - tau))
    comps = -g * (1.0 / g - 1.0) ** g * means * root / q
    return BiasEstimate(comps)


def estimate_bias_qb(sample: MultivariateSample, tau: float) -> BiasEstimate:
    """First-order bias of the QB estimator, -gamma (gamma^{-1}-1)^gamma
    Xbar sqrt(n(1-tau)) / q-hat per margin."""
    return _bias_qb(sample, tau, estimate_margins(sample, tau))


def _v_qb(
    sample: MultivariateSample, tau: float, fit: MarginalTailEstimates, log_dn: float
) -> SpdMatrix:
    """Plug-in QB covariance.  log_dn = 0 gives the intermediate
    (linear-scale) matrix; log_dn > 0 shifts m by log d_n and divides by
    log d_n^2, giving the covariance of the extrapolating estimators on the
    log scale."""
    g = fit.gamma_hat
    mg = np.array([m_function(x) for x in g]) + log_dn
    d = sample.d
    m = np.diag(g**2 * (1.0 + mg**2))
    ranks = compute_ranks(sample)
    for j in range(d):
        for ell in range(j + 1, d):
            tc = _tail_copula_from_ranks(ranks, tau, j, ell)
            r11 = tc.evaluate(1.0, 1.0)
            iu = tc.unit_integral(0)
            iv = tc.unit_integral(1)
            m[j, ell] = m[ell, j] = g[j] * g[ell] * (
                r11 * (mg[j] - 1.0) * (mg[ell] - 1.0) + mg[j] * iu + mg[ell] * iv
            )
    if not log_dn:
        return SpdMatrix.from_array(m, "QB covariance")
    return SpdMatrix.from_array(m / log_dn**2, "star-QB covariance")


def estimate_v_qb(sample: MultivariateSample, tau: float) -> CovarianceEstimate:
    """Plug-in estimate of the intermediate QB covariance matrix."""
    return CovarianceEstimate(
        "qb", _v_qb(sample, tau, estimate_margins(sample, tau), 0.0), tau=tau
    )


def _sigma_laws(
    sample: MultivariateSample, tau: float, fit: MarginalTailEstimates
) -> np.ndarray:
    g, xi = fit.gamma_hat, fit.xi_laws
    x = sample.values
    phi = asymmetric_weight(x - xi, tau)
    vlaws = _v_laws_raw(sample, tau, fit, phi)
    n = sample.n
    k = effective_k(n, tau)
    omt = 1.0 - tau
    thresholds = sample.sorted_columns[:, n - k - 1]
    hill = np.outer(g, g) * _r11_matrix(compute_ranks(sample), tau)
    np.fill_diagonal(hill, g**2)
    cross = _hill_laws_cross(x, phi, thresholds, g) / (omt * xi)
    np.fill_diagonal(cross, [_sigma_laws_cross_diag(gj) for gj in g])
    return _interleave(hill, cross, vlaws)


def estimate_sigma_laws(sample: MultivariateSample, tau: float) -> np.ndarray:
    """Raw 2d x 2d plug-in estimate of the joint (Hill, LAWS) covariance.

    Coordinates are interleaved per margin.  Returned unclipped so that the
    log d_n contraction is an exact linear function of these blocks.
    """
    return _sigma_laws(sample, tau, estimate_margins(sample, tau))


def _hill_laws_cross(x, phi, thresholds, g) -> np.ndarray:
    """Numerators of the empirical Cov(Hill_j, LAWS_l) for every pair (j, l).

    Entry (j, l) is g_l times the mean of margin j's log-excesses over its
    threshold times margin l's asymmetric residual, minus g_j g_l times the
    mean of the exceedance indicator times that residual.  Each mean is a
    separate contiguous reduction, summed exactly as a one-pair mean is.
    """
    rows = np.ascontiguousarray(x.T)
    phi_rows = np.ascontiguousarray(phi.T)[None, :, :]
    exceed = rows > thresholds[:, None]
    logex = np.zeros(rows.shape)
    logex[exceed] = np.log((rows / thresholds[:, None])[exceed])
    s1 = np.mean(logex[:, None, :] * phi_rows, axis=2)
    s2 = np.mean(exceed[:, None, :] * phi_rows, axis=2)
    return g * s1 - np.outer(g, g) * s2


def _v_star_laws(
    sample: MultivariateSample, tau: float, fit: MarginalTailEstimates, log_dn: float
) -> SpdMatrix:
    return SpdMatrix.from_array(
        _contract_blocks(_sigma_laws(sample, tau, fit), log_dn), "star-LAWS covariance"
    )


def estimate_v_star_laws(
    sample: MultivariateSample, tau: float, tau_prime: float
) -> CovarianceEstimate:
    """Plug-in covariance of the LAWS extrapolating estimators (log scale)."""
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    return CovarianceEstimate(
        "star_laws",
        _v_star_laws(sample, tau, estimate_margins(sample, tau), levels.log_dn),
        tau=tau,
        tau_prime=tau_prime,
    )


def estimate_v_star_qb(
    sample: MultivariateSample, tau: float, tau_prime: float
) -> CovarianceEstimate:
    """Plug-in covariance of the QB extrapolating estimators (log scale)."""
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    return CovarianceEstimate(
        "star_qb",
        _v_qb(sample, tau, estimate_margins(sample, tau), levels.log_dn),
        tau=tau,
        tau_prime=tau_prime,
    )
