"""Asymptotic covariance and bias machinery for joint expectile inference.

Theoretical matrices are exact functionals of the tail indices and a tail
copula oracle, evaluated by adaptive quadrature.  Estimated matrices plug
the marginal estimators and the empirical tail copula into the same
displays; every estimated matrix is symmetrized and PSD-clipped through
:class:`~tailjoint.numerics.SpdMatrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .marginal import (
    asymmetric_weight,
    estimate_margins,
    m_function,
)
from .numerics import (
    SpdMatrix,
    integrate_1d_tail,
    integrate_2d_tailbox_adaptive,
)
from .sample import MultivariateSample, TailLevelPair, compute_ranks, effective_k
from .taildep import OracleTailCopula, _r11_matrix, _tail_copula_from_ranks


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def theoretical_v_laws(gammas, oracle) -> CovarianceEstimate:
    """Asymptotic covariance of the joint intermediate LAWS estimators."""
    g = _gammas(gammas, 0.5, "variance formula")
    d = g.size
    m = np.diag(2.0 * g**3 / (1.0 - 2.0 * g))
    for j in range(d):
        for ell in range(j + 1, d):
            orc = _pair_oracle(oracle, j, ell)
            if orc.kind == "independent":
                continue
            cj, cl = 1.0 / g[j] - 1.0, 1.0 / g[ell] - 1.0
            aj, al = 1.0 / g[j], 1.0 / g[ell]
            m[j, ell] = m[ell, j] = g[j] * g[ell] * integrate_2d_tailbox_adaptive(
                lambda x, y: orc.evaluate(cj * x**-aj, cl * y**-al)
            )
    return CovarianceEstimate(
        "theoretical_laws", SpdMatrix.from_array(m, "theoretical LAWS covariance")
    )


def theoretical_sigma_q(gammas, oracle) -> CovarianceEstimate:
    """2d x 2d covariance of (Hill, intermediate quantile) across margins.

    Coordinates are interleaved per margin: (gamma_1, q_1, gamma_2, q_2, ...).
    """
    g = _gammas(gammas, 1.0, "covariance formula")
    d = g.size
    m = np.zeros((2 * d, 2 * d))
    for j in range(d):
        m[2 * j, 2 * j] = m[2 * j + 1, 2 * j + 1] = g[j] ** 2
    for j in range(d):
        for ell in range(j + 1, d):
            orc = _pair_oracle(oracle, j, ell)
            r11 = orc.r11()
            iu = orc.unit_integral()
            block = g[j] * g[ell] * np.array(
                [[r11, iu - r11], [iu - r11, r11]]
            )
            m[2 * j : 2 * j + 2, 2 * ell : 2 * ell + 2] = block
            m[2 * ell : 2 * ell + 2, 2 * j : 2 * j + 2] = block.T
    return CovarianceEstimate(
        "theoretical_sigma_q", SpdMatrix.from_array(m, "theoretical Hill/quantile covariance")
    )


def theoretical_v_qb(gammas, oracle) -> CovarianceEstimate:
    """Asymptotic covariance of the joint intermediate QB estimators."""
    g = _gammas(gammas, 1.0, "covariance formula")
    d = g.size
    mg = np.array([m_function(x) for x in g])
    m = np.diag(g**2 * (1.0 + mg**2))
    for j in range(d):
        for ell in range(j + 1, d):
            orc = _pair_oracle(oracle, j, ell)
            r11 = orc.r11()
            iu = orc.unit_integral()
            m[j, ell] = m[ell, j] = g[j] * g[ell] * (
                r11 * (mg[j] - 1.0) * (mg[ell] - 1.0)
                + mg[j] * iu
                + mg[ell] * iu
            )
    return CovarianceEstimate(
        "theoretical_qb", SpdMatrix.from_array(m, "theoretical QB covariance")
    )


def theoretical_v_star(gammas, oracle) -> CovarianceEstimate:
    """Leading-order covariance of the extrapolating estimators."""
    g = _gammas(gammas, 1.0, "covariance formula")
    d = g.size
    m = np.diag(g**2)
    for j in range(d):
        for ell in range(j + 1, d):
            m[j, ell] = m[ell, j] = (
                g[j] * g[ell] * _pair_oracle(oracle, j, ell).r11()
            )
    return CovarianceEstimate(
        "theoretical_star", SpdMatrix.from_array(m, "theoretical star covariance")
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
    m = np.zeros((2 * d, 2 * d))
    for j in range(d):
        cross = _sigma_laws_cross_diag(g[j])
        m[2 * j, 2 * j] = g[j] ** 2
        m[2 * j, 2 * j + 1] = m[2 * j + 1, 2 * j] = cross
        m[2 * j + 1, 2 * j + 1] = 2.0 * g[j] ** 3 / (1.0 - 2.0 * g[j])

    def cross_entry(orc, gj, gl):
        # Cov(Hill_j, LAWS_l): double integral with a dx/x weight on the
        # first axis minus a single tail integral in the second variable.
        if orc.kind == "independent":
            return 0.0
        cl, aj, al = 1.0 / gl - 1.0, 1.0 / gj, 1.0 / gl
        double = integrate_2d_tailbox_adaptive(
            lambda x, y: orc.evaluate(x**-aj, cl * y**-al), weight_x=1
        )
        single = integrate_1d_tail(lambda y: orc.evaluate(1.0, cl * y**-al))
        return gl * double - gj * gl * single

    for j in range(d):
        for ell in range(j + 1, d):
            orc = _pair_oracle(oracle, j, ell)
            r11 = orc.r11()
            m[2 * j, 2 * ell] = m[2 * ell, 2 * j] = g[j] * g[ell] * r11
            if orc.kind == "independent":
                v22 = 0.0
            else:
                cj, cl = 1.0 / g[j] - 1.0, 1.0 / g[ell] - 1.0
                aj, al = 1.0 / g[j], 1.0 / g[ell]
                v22 = g[j] * g[ell] * integrate_2d_tailbox_adaptive(
                    lambda x, y: orc.evaluate(cj * x**-aj, cl * y**-al)
                )
            m[2 * j + 1, 2 * ell + 1] = m[2 * ell + 1, 2 * j + 1] = v22
            e12 = cross_entry(orc, g[j], g[ell])
            e21 = cross_entry(orc, g[ell], g[j])
            m[2 * j, 2 * ell + 1] = m[2 * ell + 1, 2 * j] = e12
            m[2 * j + 1, 2 * ell] = m[2 * ell, 2 * j + 1] = e21
    return CovarianceEstimate(
        "theoretical_sigma_laws",
        SpdMatrix.from_array(m, "theoretical Hill/LAWS covariance"),
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
    m /= log_dn**2
    return CovarianceEstimate(
        "theoretical_star_qb",
        SpdMatrix.from_array(m, "theoretical star-QB covariance"),
    )


def theoretical_bias_star(lambdas, rhos) -> BiasEstimate:
    """Second-order extrapolation bias components lambda_j / (1 - rho_j)."""
    lam = np.asarray(lambdas, dtype=float).ravel()
    rho = np.asarray(rhos, dtype=float).ravel()
    if lam.shape != rho.shape:
        raise DomainError("lambda and rho vectors must have equal length")
    if np.any(rho > 0.0):
        raise DomainError("second-order parameters must satisfy rho <= 0")
    return BiasEstimate(lam / (1.0 - rho))


def _v_laws_raw(
    sample: MultivariateSample, tau: float, margins=None, phi=None
) -> np.ndarray:
    margins = margins or estimate_margins(sample, tau)
    g, xi = margins.gamma_hat, margins.xi_laws
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
    if phi is None:
        phi = asymmetric_weight(x - xi, tau)
    mbar = phi.T @ phi / n
    m = np.outer(g, g) * mbar / (omt * np.outer(xi, xi))
    np.fill_diagonal(m, diag)
    return m


def estimate_v_laws(sample: MultivariateSample, tau: float) -> CovarianceEstimate:
    """Plug-in estimate of the intermediate LAWS covariance matrix."""
    return CovarianceEstimate(
        "laws",
        SpdMatrix.from_array(_v_laws_raw(sample, tau), "LAWS covariance"),
        tau=tau,
    )


def estimate_bias_qb(sample: MultivariateSample, tau: float) -> BiasEstimate:
    """First-order bias of the QB estimator, -gamma (gamma^{-1}-1)^gamma
    Xbar sqrt(n(1-tau)) / q-hat per margin."""
    margins = estimate_margins(sample, tau)
    g, q = margins.gamma_hat, margins.q_hat
    if np.any(q == 0.0):
        raise DomainError("QB bias undefined: intermediate quantile is zero")
    means = sample.values.mean(axis=0)
    root = math.sqrt(sample.n * (1.0 - tau))
    comps = -g * (1.0 / g - 1.0) ** g * means * root / q
    return BiasEstimate(comps)


def _v_qb_raw(sample: MultivariateSample, tau: float, margins=None) -> np.ndarray:
    margins = margins or estimate_margins(sample, tau)
    g = margins.gamma_hat
    mg = np.array([m_function(x) for x in g])
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
    return m


def estimate_v_qb(sample: MultivariateSample, tau: float) -> CovarianceEstimate:
    """Plug-in estimate of the intermediate QB covariance matrix."""
    return CovarianceEstimate(
        "qb",
        SpdMatrix.from_array(_v_qb_raw(sample, tau), "QB covariance"),
        tau=tau,
    )


def estimate_sigma_laws(sample: MultivariateSample, tau: float) -> np.ndarray:
    """Raw 2d x 2d plug-in estimate of the joint (Hill, LAWS) covariance.

    Coordinates are interleaved per margin.  Returned unclipped so that the
    log d_n contraction is an exact linear function of these blocks.
    """
    margins = estimate_margins(sample, tau)
    g, xi = margins.gamma_hat, margins.xi_laws
    x = sample.values
    phi = asymmetric_weight(x - xi, tau)
    vlaws = _v_laws_raw(sample, tau, margins, phi)
    n, d = sample.n, sample.d
    k = effective_k(n, tau)
    omt = 1.0 - tau
    thresholds = sample.sorted_columns[:, n - k - 1]
    r11 = _r11_matrix(compute_ranks(sample), tau)
    cross = _hill_laws_cross(x, phi, thresholds, g) / (omt * xi)

    sigma = np.zeros((2 * d, 2 * d))
    for j in range(d):
        sigma[2 * j, 2 * j] = g[j] ** 2
        sigma[2 * j, 2 * j + 1] = sigma[2 * j + 1, 2 * j] = _sigma_laws_cross_diag(g[j])
        sigma[2 * j + 1, 2 * j + 1] = vlaws[j, j]
    for j in range(d):
        for ell in range(j + 1, d):
            sigma[2 * j, 2 * ell] = sigma[2 * ell, 2 * j] = g[j] * g[ell] * r11[j, ell]
            sigma[2 * j + 1, 2 * ell + 1] = sigma[2 * ell + 1, 2 * j + 1] = vlaws[j, ell]
            sigma[2 * j, 2 * ell + 1] = sigma[2 * ell + 1, 2 * j] = cross[j, ell]
            sigma[2 * j + 1, 2 * ell] = sigma[2 * ell, 2 * j + 1] = cross[ell, j]
    return sigma


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


def estimate_v_star_laws(
    sample: MultivariateSample, tau: float, tau_prime: float
) -> CovarianceEstimate:
    """Plug-in covariance of the LAWS extrapolating estimators (log scale)."""
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    sigma = estimate_sigma_laws(sample, tau)
    return CovarianceEstimate(
        "star_laws",
        SpdMatrix.from_array(
            _contract_blocks(sigma, levels.log_dn), "star-LAWS covariance"
        ),
        tau=tau,
        tau_prime=tau_prime,
    )


def estimate_v_star_qb(
    sample: MultivariateSample, tau: float, tau_prime: float
) -> CovarianceEstimate:
    """Plug-in covariance of the QB extrapolating estimators (log scale)."""
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    log_dn = levels.log_dn
    margins = estimate_margins(sample, tau)
    g = margins.gamma_hat
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
    m /= log_dn**2
    return CovarianceEstimate(
        "star_qb",
        SpdMatrix.from_array(m, "star-QB covariance"),
        tau=tau,
        tau_prime=tau_prime,
    )
