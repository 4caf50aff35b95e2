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

from .errors import DomainError
from .inference import _check_alpha, _estimate, _Estimate
from .numerics import SpdMatrix, chi_square_cdf, chi_square_quantile
from .sample import MultivariateSample


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


_TEST_NAMES = {"laws": "LAWS", "qb": "QB", "quantile": "quantile"}


def _equality_test(est: _Estimate, alpha: float) -> TestResult:
    if np.any(est.center <= 0.0):
        raise DomainError(
            f"{_TEST_NAMES[est.method]} test requires positive extrapolated estimates"
        )
    z = np.log(est.center) + est.shift()
    cov = est.covariance()
    if isinstance(cov, SpdMatrix):
        cov = cov.entries
    levels = est.levels
    d = z.size
    if d < 2:
        raise DomainError("equality test requires at least two margins")
    _check_alpha(alpha)
    scale = (levels.log_dn / math.sqrt(levels.n * (1.0 - levels.tau))) ** 2
    v = SpdMatrix.from_array(scale * cov, f"{est.method} test covariance")
    stat = deviance_statistic(z, v)
    mean = gls_common_mean(z, v)
    p = 1.0 - chi_square_cdf(stat, d - 1)
    return TestResult(
        kind=est.method,
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
    return _equality_test(_estimate(sample, tau, tau_prime, "laws"), alpha)


def test_equal_expectiles_qb(
    sample: MultivariateSample, tau: float, tau_prime: float, alpha: float = 0.05
) -> TestResult:
    """Deviance test of equal extreme expectiles, QB-extrapolated."""
    return _equality_test(_estimate(sample, tau, tau_prime, "qb"), alpha)


def test_equal_quantiles(
    sample: MultivariateSample, tau: float, tau_prime: float, alpha: float = 0.05
) -> TestResult:
    """Deviance test of equal extreme quantiles via Weissman extrapolation."""
    return _equality_test(_estimate(sample, tau, tau_prime, "quantile"), alpha)
