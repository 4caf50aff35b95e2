"""Confidence ellipsoids and marginal intervals for joint expectile inference.

Intermediate regions live on the linear (relative-error) scale, extreme
regions on the log scale.  A region is the set of points z such that the
residual g(z / center) - bias_shift, with g(x) = x - 1 on the linear scale
and g = log on the log scale, lies in the ellipsoid shape^{1/2} B(0, radius).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import (
    estimate_bias_qb,
    estimate_v_laws,
    estimate_v_qb,
    estimate_v_star_laws,
    estimate_v_star_qb,
)
from .errors import DomainError
from .marginal import estimate_margins
from .numerics import SpdMatrix, chi_square_quantile, std_normal_quantile
from .sample import MultivariateSample, TailLevelPair

# Relative slack when comparing the membership quadratic form to radius^2,
# so that analytically constructed boundary points test as inside.
_BOUNDARY_RTOL = 1e-9


@dataclass(frozen=True)
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


def _radius(n: int, tau: float, alpha: float, d: int, log_dn: float | None) -> float:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")
    r = math.sqrt(chi_square_quantile(1.0 - alpha, d) / (n * (1.0 - tau)))
    return r * log_dn if log_dn is not None else r


def _naive_diagonal(gamma_hat: np.ndarray, power: int, name: str) -> SpdMatrix:
    """Independence-case diagonal shape matrix 2*g^power/(1-2g) used by the
    naive regions, which ignore both the tail dependence and the finite-n
    variance corrections (power 3 for LAWS, per the first-order variance of
    the intermediate expectile estimator; power 2 for QB)."""
    g = np.asarray(gamma_hat, dtype=float)
    if np.any(g >= 0.5):
        raise DomainError(
            "tail too heavy for the naive variance (Hill estimate >= 1/2)"
        )
    return SpdMatrix.from_array(np.diag(2.0 * g**power / (1.0 - 2.0 * g)), name)


def region_intermediate_laws(
    sample: MultivariateSample, tau: float, alpha: float, naive: bool = False
) -> ConfidenceRegion:
    """Linear-scale joint region for the intermediate expectile vector,
    centered at the LAWS estimates.  The naive variant assumes independent
    margins: diagonal shape matrix with first-order entries 2g^3/(1-2g)."""
    margins = estimate_margins(sample, tau)
    if naive:
        shape = _naive_diagonal(margins.gamma_hat, 3, "naive LAWS covariance")
    else:
        shape = estimate_v_laws(sample, tau).matrix
    return ConfidenceRegion(
        kind="intermediate_laws" + ("_naive" if naive else ""),
        scale="linear",
        alpha=alpha,
        tau=tau,
        tau_prime=None,
        center=margins.xi_laws,
        bias_shift=np.zeros(sample.d),
        shape=shape,
        radius=_radius(sample.n, tau, alpha, sample.d, None),
    )


def region_intermediate_qb(
    sample: MultivariateSample, tau: float, alpha: float, naive: bool = False
) -> ConfidenceRegion:
    """Linear-scale joint region for the intermediate expectile vector,
    centered at the bias-adjusted QB estimates.  The naive variant assumes
    independent margins: diagonal shape matrix with entries 2g^2/(1-2g)."""
    margins = estimate_margins(sample, tau)
    if naive:
        shape = _naive_diagonal(margins.gamma_hat, 2, "naive QB covariance")
    else:
        shape = estimate_v_qb(sample, tau).matrix
    bias = estimate_bias_qb(sample, tau).components
    root = math.sqrt(sample.n * (1.0 - tau))
    return ConfidenceRegion(
        kind="intermediate_qb" + ("_naive" if naive else ""),
        scale="linear",
        alpha=alpha,
        tau=tau,
        tau_prime=None,
        center=margins.xi_qb,
        bias_shift=-bias / root,
        shape=shape,
        radius=_radius(sample.n, tau, alpha, sample.d, None),
    )


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
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    margins = estimate_margins(sample, tau)
    center = margins.xi_star_laws(tau_prime)
    if naive:
        g = margins.gamma_hat
        shape = SpdMatrix.from_array(np.diag(g**2), "naive star covariance")
        shift = np.zeros(sample.d)
    else:
        shape = estimate_v_star_laws(sample, tau, tau_prime).matrix
        root = math.sqrt(sample.n * (1.0 - tau))
        shift = estimate_bias_qb(sample, tau).components / root
    return ConfidenceRegion(
        kind="extreme_laws" + ("_naive" if naive else ""),
        scale="log",
        alpha=alpha,
        tau=tau,
        tau_prime=tau_prime,
        center=center,
        bias_shift=shift,
        shape=shape,
        radius=_radius(sample.n, tau, alpha, sample.d, levels.log_dn),
    )


def region_extreme_qb(
    sample: MultivariateSample,
    tau: float,
    tau_prime: float,
    alpha: float,
    naive: bool = False,
) -> ConfidenceRegion:
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    margins = estimate_margins(sample, tau)
    center = margins.xi_star_qb(tau_prime)
    if naive:
        g = margins.gamma_hat
        shape = SpdMatrix.from_array(np.diag(g**2), "naive star covariance")
    else:
        shape = estimate_v_star_qb(sample, tau, tau_prime).matrix
    return ConfidenceRegion(
        kind="extreme_qb" + ("_naive" if naive else ""),
        scale="log",
        alpha=alpha,
        tau=tau,
        tau_prime=tau_prime,
        center=center,
        bias_shift=np.zeros(sample.d),
        shape=shape,
        radius=_radius(sample.n, tau, alpha, sample.d, levels.log_dn),
    )


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
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    margins = estimate_margins(sample, tau)
    center = float(margins.xi_star_laws(tau_prime)[j])
    if center <= 0.0:
        raise DomainError("log-scale interval requires a positive point estimate")
    root = math.sqrt(sample.n * (1.0 - tau))
    if naive:
        shift = 0.0
        var = margins.gamma_hat[j] ** 2
    else:
        shift = estimate_bias_qb(sample, tau).components[j] / root
        var = estimate_v_star_laws(sample, tau, tau_prime).entries[j, j]
    half = levels.log_dn / root * math.sqrt(var) * std_normal_quantile(1.0 - alpha / 2.0)
    return MarginalInterval(
        lower=center * math.exp(shift - half),
        upper=center * math.exp(shift + half),
        margin=j,
        alpha=alpha,
    )


def marginal_interval_qb(
    sample: MultivariateSample,
    tau: float,
    tau_prime: float,
    j: int,
    alpha: float,
    naive: bool = False,
) -> MarginalInterval:
    """Log-scale interval for one extreme expectile, QB-extrapolated."""
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    margins = estimate_margins(sample, tau)
    center = float(margins.xi_star_qb(tau_prime)[j])
    if center <= 0.0:
        raise DomainError("log-scale interval requires a positive point estimate")
    root = math.sqrt(sample.n * (1.0 - tau))
    if naive:
        var = margins.gamma_hat[j] ** 2
    else:
        var = estimate_v_star_qb(sample, tau, tau_prime).entries[j, j]
    half = levels.log_dn / root * math.sqrt(var) * std_normal_quantile(1.0 - alpha / 2.0)
    return MarginalInterval(
        lower=center * math.exp(-half),
        upper=center * math.exp(half),
        margin=j,
        alpha=alpha,
    )
