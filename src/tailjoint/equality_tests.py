"""Deviance tests for equality of extreme expectiles and quantiles.

The statistic is the GLS residual quadratic form of the log-scale estimate
vector, compared to a chi-square with d-1 degrees of freedom.  The working
covariance is the extrapolation covariance matrix multiplied by the squared
scale factor (log[(1-tau)/(1-tau')] / sqrt(n(1-tau)))**2, which is the
variance scale of the limiting normal approximation for the log estimates;
the factor actually applied is recorded on the result so the convention can
be audited.

Every test reads its center, bias shift and checked covariance from
``inference._estimate``, the one LAWS / QB / quantile dispatch of the
regions and intervals too, over a stack of samples: a single-sample test is
its stack of one, and ``simulation.run_mc_power`` runs the same code on
stacks of replications.  The GLS mean and the deviance read the eigenpairs
kept by the covariance's PSD check; a covariance whose smallest eigenvalue
is at most 1e-10 times its trace is singular.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, NumericError, SingularCovarianceError
from .inference import _check_alpha, _check_method, _estimate_sample, _Estimate, _per_sample
from .numerics import _SpdStack, chi_square_quantile, chi_square_sf
from .sample import MultivariateSample


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest test class

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


def _deviance(z: np.ndarray, v: _SpdStack, checks):
    """The GLS common mean m and the deviance (z - m 1)^T v^{-1} (z - m 1)
    of each row of z (B, d) under the matching matrix of the checked stack
    v, from its eigenpairs; a sample whose matrix is singular fails."""
    checks(v.singular(), lambda j: SingularCovarianceError("singular test matrix"))
    a, b = v.whiten(z), v.whiten(np.ones_like(z))
    mean = (a * b).sum(axis=-1) / (b * b).sum(axis=-1)
    return mean, (v.whiten(z - mean[:, None]) ** 2).sum(axis=-1)


_TEST_NAMES = {"laws": "LAWS", "qb": "QB", "quantile": "quantile"}


def _statistic(est: _Estimate):
    """The deviance statistic, GLS common mean and covariance scale of each
    sample of the estimate's stack: from its extrapolated center (B, d),
    which must be positive, then its checked covariance and its shift,
    built in that order; a center that is not finite fails after them."""
    levels, checks, name = est.levels, est.checks, _TEST_NAMES[est.method]
    checks(
        est.center <= 0.0,
        lambda j: DomainError(f"{name} test requires positive extrapolated estimates"),
    )
    covariance, z = est.covariance(), np.log(est.center) + est.shift()
    checks(
        ~np.isfinite(est.center),
        lambda j: NumericError(f"{name} test requires finite extrapolated estimates"),
    )
    scale = (levels.log_dn / math.sqrt(levels.n * (1.0 - levels.tau))) ** 2
    # The GLS mean is the same under the scaled covariance, and the
    # deviance is divided by the scale.
    mean, stat = _deviance(z, covariance, checks)
    return stat / scale, mean, scale


def equality_test(
    sample: MultivariateSample, tau: float, tau_prime: float, kind: str, alpha: float = 0.05
) -> TestResult:
    """Deviance test of equal extreme expectiles at tau_prime, LAWS- or
    QB-extrapolated (kind "laws" or "qb"), or of equal extreme quantiles by
    Weissman extrapolation (kind "quantile")."""
    _check_method(kind, tuple(_TEST_NAMES))
    if sample.d < 2:
        raise DomainError("equality test requires at least two margins")
    est = _estimate_sample(sample, tau, tau_prime, kind, extreme=True)
    return _results(est, alpha)[0]


def _results(est: _Estimate, alpha: float) -> list:
    """The test of each sample of the estimate's stack, of its method's
    kind (``inference._per_sample``)."""
    _check_alpha(alpha)
    stat, mean, scale = _statistic(est)
    df = est.center.shape[-1] - 1
    quantile = chi_square_quantile(1.0 - alpha, df)

    def result(b: int) -> TestResult:
        s = float(stat[b])
        return TestResult(
            kind=est.method,
            statistic=s,
            df=df,
            p_value=chi_square_sf(s, df),
            reject=s > quantile,
            alpha=alpha,
            tau=est.tau,
            tau_prime=est.levels.tau_prime,
            k=est.levels.k,
            common_mean=float(mean[b]),
            covariance_scale=scale,
        )

    return _per_sample(est, result)
