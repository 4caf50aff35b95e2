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
from dataclasses import asdict, dataclass

import numpy as np

from .covariance import _bias_qb, _v_qb_raw, _v_star_laws
from .errors import RAISE, DomainError, SingularCovarianceError
from .inference import _check_alpha, _estimate, _Estimate
from .numerics import (
    SpdMatrix, _cho_solve, _cholesky, _forward, _singular, _spd_stack,
    _squared_norm, chi_square_quantile, chi_square_sf,
)
from .sample import MultivariateSample, TailLevelPair


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
        return asdict(self)


def _singular_test(j: int) -> SingularCovarianceError:
    return SingularCovarianceError("singular test matrix")


def _common_mean(z: np.ndarray, v: np.ndarray, checks):
    """GLS common mean of each row of z (B, d) under the matching covariance
    of v (B, d, d), and the Cholesky factors; a sample whose factorization
    breaks down fails."""
    c = _cholesky(v)
    checks(~(np.diagonal(c, axis1=-2, axis2=-1) > 0.0).all(axis=-1), _singular_test)
    w = _cho_solve(c, np.ones_like(z))
    return (z * w).sum(axis=-1) / w.sum(axis=-1), c


def _deviance(z: np.ndarray, v: np.ndarray, checks):
    """The GLS common mean and the deviance (z - m 1)^T v^{-1} (z - m 1) of
    each row of z (B, d) under the matching covariance of v (B, d, d)."""
    mean, c = _common_mean(z, v, checks)
    checks(_singular(c, v), _singular_test)
    return mean, _squared_norm(_forward(c, z - mean[:, None]))


def _vector(z, v: SpdMatrix) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (v.dim,):
        raise DomainError("mean estimation: vector and covariance dimensions differ")
    return z


def gls_common_mean(z, v: SpdMatrix) -> float:
    """Generalized least squares estimate of a common mean under covariance v."""
    return float(_common_mean(_vector(z, v)[None], v.entries[None], RAISE)[0][0])


def deviance_statistic(z, v: SpdMatrix) -> float:
    """(z - m 1)^T v^{-1} (z - m 1) with m the GLS common mean."""
    return float(_deviance(_vector(z, v)[None], v.entries[None], RAISE)[1][0])


_TEST_NAMES = {"laws": "LAWS", "qb": "QB", "quantile": "quantile"}


def _statistic(center, shift, covariance, levels: TailLevelPair, method: str, checks):
    """The deviance statistic, GLS common mean and covariance scale of each
    sample of a stack: from its extrapolated estimates center (B, d), which
    must be positive, then shift() (B, d) and covariance() (B, d, d), the
    checked covariance entries, built in that order."""
    checks(
        center <= 0.0,
        lambda j: DomainError(
            f"{_TEST_NAMES[method]} test requires positive extrapolated estimates"
        ),
    )
    z = np.log(center) + shift()
    scale = (levels.log_dn / math.sqrt(levels.n * (1.0 - levels.tau))) ** 2
    # The builder has checked the covariance: finite, symmetric and PSD, all
    # kept by a positive scale.
    mean, stat = _deviance(z, scale * covariance(), checks)
    return stat, mean, scale


def _stacked_statistic(st, fit, levels: TailLevelPair, method: str, checks) -> np.ndarray:
    """The LAWS or QB test statistic of every sample of the stack st, whose
    fit at levels.tau holds (B, d) arrays: the arithmetic and checks of
    test_equal_expectiles_laws and _qb, in their order."""
    tau, log_dn = levels.tau, levels.log_dn
    g, q, xi = fit.gamma_hat, fit.q_hat, fit.xi_laws
    if method == "laws":
        center = fit.xi_star_laws(levels.tau_prime)

        def shift():
            return _bias_qb(st, g, q, tau, checks) / math.sqrt(st.n * (1.0 - tau))

        def raw():
            return _v_star_laws(st, g, q, xi, tau, log_dn, checks)
    else:
        center = fit.xi_star_qb(levels.tau_prime, checks)

        def shift():
            return 0.0

        def raw():
            return _v_qb_raw(st, g, tau, log_dn, checks)

    def covariance():
        return _spd_stack(raw(), f"star-{_TEST_NAMES[method]} covariance", checks)[0]

    return _statistic(center, shift, covariance, levels, method, checks)[0]


def _equality_test(est: _Estimate, alpha: float) -> TestResult:
    d = est.center.size
    if d < 2:
        raise DomainError("equality test requires at least two margins")
    _check_alpha(alpha)
    stat, mean, scale = _statistic(
        est.center[None],
        lambda: est.shift()[None],
        lambda: est.covariance().entries[None],
        est.levels,
        est.method,
        RAISE,
    )
    stat, mean = float(stat[0]), float(mean[0])
    p = chi_square_sf(stat, d - 1)
    levels = est.levels
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
