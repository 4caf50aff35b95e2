"""Deviance tests for equality of extreme expectiles and quantiles.

The statistic is the GLS residual quadratic form of the log-scale estimate
vector, compared to a chi-square with d-1 degrees of freedom.  The working
covariance is the extrapolation covariance matrix multiplied by the squared
scale factor (log[(1-tau)/(1-tau')] / sqrt(n(1-tau)))**2, which is the
variance scale of the limiting normal approximation for the log estimates;
the factor actually applied is recorded on the result so the convention can
be audited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import (
    estimate_bias_qb,
    estimate_v_star_laws,
    estimate_v_star_qb,
)
from .errors import DomainError
from .marginal import estimate_margins
from .numerics import SpdMatrix, chi_square_cdf, chi_square_quantile
from .sample import MultivariateSample, TailLevelPair, compute_ranks
from .taildep import _r11_matrix


@dataclass(frozen=True)
class TestResult:
    kind: str
    statistic: float
    df: int
    p_value: float
    reject: bool
    alpha: float
    tau: float
    tau_prime: float
    k: int
    common_mean: float
    covariance_scale: float

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "statistic": self.statistic,
            "df": self.df,
            "p_value": self.p_value,
            "reject": self.reject,
            "alpha": self.alpha,
            "tau": self.tau,
            "tau_prime": self.tau_prime,
            "k": self.k,
            "common_mean": self.common_mean,
            "covariance_scale": self.covariance_scale,
        }


def gls_common_mean(z, v: SpdMatrix) -> float:
    """Generalized least squares estimate of a common mean under covariance v."""
    z = np.asarray(z, dtype=float)
    if z.shape != (v.dim,):
        raise DomainError("mean estimation: vector and covariance dimensions differ")
    w = v.solve(np.ones(v.dim), "test")
    return float(z @ w / w.sum())


def deviance_statistic(z, v: SpdMatrix) -> float:
    """(z - m 1)^T v^{-1} (z - m 1) with m the GLS common mean."""
    z = np.asarray(z, dtype=float)
    residual = z - gls_common_mean(z, v)
    return v.quadratic_form(residual, "test")


def _build_result(
    kind: str,
    z: np.ndarray,
    cov: np.ndarray,
    levels: TailLevelPair,
    alpha: float,
) -> TestResult:
    d = z.size
    if d < 2:
        raise DomainError("equality test requires at least two margins")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    scale = (levels.log_dn / math.sqrt(levels.n * (1.0 - levels.tau))) ** 2
    v = SpdMatrix.from_array(scale * cov, f"{kind} test covariance")
    stat = deviance_statistic(z, v)
    mean = gls_common_mean(z, v)
    p = 1.0 - chi_square_cdf(stat, d - 1)
    return TestResult(
        kind=kind,
        statistic=stat,
        df=d - 1,
        p_value=p,
        reject=stat > chi_square_quantile(1.0 - alpha, d - 1),
        alpha=alpha,
        tau=levels.tau,
        tau_prime=levels.tau_prime,
        k=levels.k,
        common_mean=mean,
        covariance_scale=scale,
    )


def test_equal_expectiles_laws(
    sample: MultivariateSample, tau: float, tau_prime: float, alpha: float = 0.05
) -> TestResult:
    """Deviance test of equal extreme expectiles, LAWS-extrapolated."""
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    est = estimate_margins(sample, tau).xi_star_laws(tau_prime)
    if np.any(est <= 0.0):
        raise DomainError("LAWS test requires positive extrapolated estimates")
    bias = estimate_bias_qb(sample, tau).components
    z = np.log(est) + bias / math.sqrt(sample.n * (1.0 - tau))
    cov = estimate_v_star_laws(sample, tau, tau_prime).entries
    return _build_result("laws", z, cov, levels, alpha)


def test_equal_expectiles_qb(
    sample: MultivariateSample, tau: float, tau_prime: float, alpha: float = 0.05
) -> TestResult:
    """Deviance test of equal extreme expectiles, QB-extrapolated."""
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    est = estimate_margins(sample, tau).xi_star_qb(tau_prime)
    if np.any(est <= 0.0):
        raise DomainError("QB test requires positive extrapolated estimates")
    cov = estimate_v_star_qb(sample, tau, tau_prime).entries
    return _build_result("qb", np.log(est), cov, levels, alpha)


def test_equal_quantiles(
    sample: MultivariateSample, tau: float, tau_prime: float, alpha: float = 0.05
) -> TestResult:
    """Deviance test of equal extreme quantiles via Weissman extrapolation."""
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    margins = estimate_margins(sample, tau)
    est = margins.weissman_quantiles(tau_prime)
    if np.any(est <= 0.0):
        raise DomainError("quantile test requires positive extrapolated estimates")
    g = margins.gamma_hat
    cov = np.outer(g, g) * _r11_matrix(compute_ranks(sample), tau)
    np.fill_diagonal(cov, g**2)
    return _build_result("quantile", np.log(est), cov, levels, alpha)
