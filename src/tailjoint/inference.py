"""Confidence ellipsoids and marginal intervals for joint expectile inference.

Intermediate regions live on the linear (relative-error) scale, extreme
regions on the log scale.  A region is the set of points z such that the
residual g(z / center) - bias_shift, with g(x) = x - 1 on the linear scale
and g = log on the log scale, lies in the ellipsoid shape^{1/2} B(0, radius).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .covariance import _bias_qb, _v_laws, _v_qb, _v_star_laws
from .errors import DomainError
from .marginal import estimate_margins
from .numerics import SpdMatrix, chi_square_quantile, std_normal_quantile
from .sample import MultivariateSample, TailLevelPair, compute_ranks
from .taildep import _r11_matrix

# Relative slack when comparing the membership quadratic form to radius^2,
# so that analytically constructed boundary points test as inside.
_BOUNDARY_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class ConfidenceRegion:
    kind: str
    scale: str
    alpha: float
    tau: float
    tau_prime: float | None
    center: np.ndarray
    bias_shift: np.ndarray
    shape: SpdMatrix
    radius: float

    def __post_init__(self):
        if self.scale not in ("linear", "log"):
            raise DomainError(f"unknown region scale {self.scale!r}")
        center = np.asarray(self.center, dtype=float)
        shift = np.asarray(self.bias_shift, dtype=float)
        if center.shape != shift.shape or center.ndim != 1:
            raise DomainError("center and bias shift must be equal-length vectors")
        if center.size != self.shape.dim:
            raise DomainError("region dimension mismatch")
        if not self.radius > 0.0:
            raise DomainError("region radius must be positive")
        if self.scale == "log" and np.any(center <= 0.0):
            raise DomainError("log-scale regions require positive centers")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "bias_shift", shift)

    @property
    def dim(self) -> int:
        return self.center.size

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "scale": self.scale,
            "alpha": self.alpha,
            "tau": self.tau,
            "tau_prime": self.tau_prime,
            "center": self.center.tolist(),
            "bias_shift": self.bias_shift.tolist(),
            "shape": self.shape.entries.tolist(),
            "radius": self.radius,
        }


@dataclass(frozen=True)
class MarginalInterval:
    lower: float
    upper: float
    margin: int
    alpha: float

    def __post_init__(self):
        if self.lower > self.upper:
            raise DomainError("interval endpoints out of order")

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper


def _naive_diagonal(g: np.ndarray, power: int, name: str) -> SpdMatrix:
    """Independence-case diagonal shape matrix 2*g^power/(1-2g) used by the
    naive regions, which ignore both the tail dependence and the finite-n
    variance corrections (power 3 for LAWS, per the first-order variance of
    the intermediate expectile estimator; power 2 for QB)."""
    if np.any(g >= 0.5):
        raise DomainError(
            "tail too heavy for the naive variance (Hill estimate >= 1/2)"
        )
    return SpdMatrix.from_array(np.diag(2.0 * g**power / (1.0 - 2.0 * g)), name)


class _Estimate(NamedTuple):
    """The three inputs of a region, an interval or a test, read from one
    marginal fit: a center, a bias shift and a covariance.

    shift and covariance are built on first call and then reused; each
    consumer calls them in its own order, which fixes the error it raises
    when more than one input is undefined.
    """

    sample: MultivariateSample
    tau: float
    method: str
    naive: bool
    levels: TailLevelPair | None
    center: np.ndarray
    shift: Callable[[], np.ndarray]
    covariance: Callable[[], SpdMatrix | np.ndarray]


def _estimate(
    sample: MultivariateSample,
    tau: float,
    tau_prime: float | None,
    method: str,
    naive: bool = False,
) -> _Estimate:
    """The center, bias shift and covariance of one estimator vector.

    tau_prime=None is the intermediate level on the linear scale; otherwise
    the extrapolation to tau_prime on the log scale.  method is "laws", "qb"
    or, extrapolated only, "quantile" (Weissman), whose covariance is
    returned unclipped as an array.  The naive variants assume independent
    margins: a diagonal covariance and, extrapolated, no bias shift.
    """
    levels = None if tau_prime is None else TailLevelPair(tau, tau_prime, sample.n)
    fit = estimate_margins(sample, tau)
    g = fit.gamma_hat
    zero = partial(np.zeros, sample.d)

    def bias() -> np.ndarray:
        return _bias_qb(sample, tau, fit).components / math.sqrt(sample.n * (1.0 - tau))

    def quantile_covariance() -> np.ndarray:
        cov = np.outer(g, g) * _r11_matrix(compute_ranks(sample), tau)
        np.fill_diagonal(cov, g**2)
        return cov

    if levels is None:
        if method == "laws":
            center, shift, power = fit.xi_laws, zero, 3
            cov = partial(_v_laws, sample, tau, fit)
        else:
            center, shift, power = fit.xi_qb, lambda: -bias(), 2
            cov = partial(_v_qb, sample, tau, fit, 0.0)
        if naive:
            cov = partial(_naive_diagonal, g, power, f"naive {method.upper()} covariance")
    else:
        if method == "laws":
            center, shift = fit.xi_star_laws(tau_prime), bias
            cov = partial(_v_star_laws, sample, tau, fit, levels.log_dn)
        elif method == "qb":
            center, shift = fit.xi_star_qb(tau_prime), zero
            cov = partial(_v_qb, sample, tau, fit, levels.log_dn)
        else:
            center, shift = fit.weissman_quantiles(tau_prime), zero
            cov = quantile_covariance
        if naive:
            shift = zero
            cov = partial(SpdMatrix.from_array, np.diag(g**2), "naive star covariance")
    return _Estimate(
        sample, tau, method, naive, levels, center, cache(shift), cache(cov)
    )


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")


def _region(est: _Estimate, alpha: float) -> ConfidenceRegion:
    shape = est.covariance()
    shift = est.shift()
    _check_alpha(alpha)
    n, d = est.sample.n, est.sample.d
    radius = math.sqrt(chi_square_quantile(1.0 - alpha, d) / (n * (1.0 - est.tau)))
    extreme = est.levels is not None
    return ConfidenceRegion(
        kind=("extreme_" if extreme else "intermediate_")
        + est.method
        + ("_naive" if est.naive else ""),
        scale="log" if extreme else "linear",
        alpha=alpha,
        tau=est.tau,
        tau_prime=est.levels.tau_prime if extreme else None,
        center=est.center,
        bias_shift=shift,
        shape=shape,
        radius=radius * est.levels.log_dn if extreme else radius,
    )


def region_intermediate_laws(
    sample: MultivariateSample, tau: float, alpha: float, naive: bool = False
) -> ConfidenceRegion:
    """Linear-scale joint region for the intermediate expectile vector,
    centered at the LAWS estimates.  The naive variant assumes independent
    margins: diagonal shape matrix with first-order entries 2g^3/(1-2g)."""
    return _region(_estimate(sample, tau, None, "laws", naive), alpha)


def region_intermediate_qb(
    sample: MultivariateSample, tau: float, alpha: float, naive: bool = False
) -> ConfidenceRegion:
    """Linear-scale joint region for the intermediate expectile vector,
    centered at the bias-adjusted QB estimates.  The naive variant assumes
    independent margins: diagonal shape matrix with entries 2g^2/(1-2g)."""
    return _region(_estimate(sample, tau, None, "qb", naive), alpha)


def region_extreme_laws(
    sample: MultivariateSample,
    tau: float,
    tau_prime: float,
    alpha: float,
    naive: bool = False,
) -> ConfidenceRegion:
    """Log-scale joint region for the extreme expectile vector, centered at
    the LAWS extrapolating estimates with the bias adjustment inside the
    exponential.  The naive variant assumes independent margins and drops
    both the adjustment and the finite-n corrections (diagonal gamma-hat^2),
    matching the naive marginal intervals."""
    return _region(_estimate(sample, tau, tau_prime, "laws", naive), alpha)


def region_extreme_qb(
    sample: MultivariateSample,
    tau: float,
    tau_prime: float,
    alpha: float,
    naive: bool = False,
) -> ConfidenceRegion:
    return _region(_estimate(sample, tau, tau_prime, "qb", naive), alpha)


def region_contains(region: ConfidenceRegion, point) -> bool:
    """Closed-region membership via the inverse quadratic form."""
    point = np.asarray(point, dtype=float)
    if point.shape != region.center.shape:
        raise DomainError("point dimension does not match region")
    if region.scale == "log":
        if np.any(point <= 0.0):
            raise DomainError("log-scale membership requires a positive point")
        residual = np.log(point / region.center) - region.bias_shift
    else:
        residual = point / region.center - 1.0 - region.bias_shift
    form = region.shape.quadratic_form(residual, region.kind)
    bound = region.radius**2
    return form <= bound * (1.0 + _BOUNDARY_RTOL)


def region_boundary_points(region: ConfidenceRegion) -> np.ndarray:
    """Plot-ready boundary cloud: 512 points in 2-D, a 64x64 mesh in 3-D."""
    root = region.shape.sqrt().entries
    if region.dim == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        sphere = np.column_stack([np.cos(theta), np.sin(theta)])
    elif region.dim == 3:
        theta, phi = np.meshgrid(
            np.linspace(0.0, np.pi, 64), np.linspace(0.0, 2.0 * np.pi, 64)
        )
        sphere = np.column_stack(
            [
                (np.sin(theta) * np.cos(phi)).ravel(),
                (np.sin(theta) * np.sin(phi)).ravel(),
                np.cos(theta).ravel(),
            ]
        )
    else:
        raise DomainError("boundary export supports dimensions 2 and 3 only")
    w = region.radius * sphere @ root.T + region.bias_shift
    if region.scale == "log":
        return region.center * np.exp(w)
    return region.center * (1.0 + w)


def _interval(est: _Estimate, j: int, alpha: float) -> MarginalInterval:
    center = float(est.center[j])
    if center <= 0.0:
        raise DomainError("log-scale interval requires a positive point estimate")
    root = math.sqrt(est.sample.n * (1.0 - est.tau))
    shift = est.shift()[j]
    var = est.covariance().entries[j, j]
    half = est.levels.log_dn / root * math.sqrt(var) * std_normal_quantile(1.0 - alpha / 2.0)
    return MarginalInterval(
        lower=center * math.exp(shift - half),
        upper=center * math.exp(shift + half),
        margin=j,
        alpha=alpha,
    )


def marginal_interval_laws(
    sample: MultivariateSample,
    tau: float,
    tau_prime: float,
    j: int,
    alpha: float,
    naive: bool = False,
) -> MarginalInterval:
    """Log-scale interval for one extreme expectile, LAWS-extrapolated.

    The naive variant drops the bias adjustment and uses the first-order
    asymptotic variance gamma-hat^2 in place of the finite-n covariance.
    """
    return _interval(_estimate(sample, tau, tau_prime, "laws", naive), j, alpha)


def marginal_interval_qb(
    sample: MultivariateSample,
    tau: float,
    tau_prime: float,
    j: int,
    alpha: float,
    naive: bool = False,
) -> MarginalInterval:
    """Log-scale interval for one extreme expectile, QB-extrapolated."""
    return _interval(_estimate(sample, tau, tau_prime, "qb", naive), j, alpha)
