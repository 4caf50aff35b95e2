"""Confidence ellipsoids and marginal intervals for joint expectile inference.

Intermediate regions live on the linear (relative-error) scale, extreme
regions on the log scale.  A region is the set of points z such that the
residual g(z / center) - bias_shift, with g(x) = x - 1 on the linear scale
and g = log on the log scale, lies in the ellipsoid shape^{1/2} B(0, radius).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .covariance import _bias_qb, _contract, _diagonal, _one, _qb_weights, _sigma_laws, _sigma_q
from .errors import RAISE, Checks, DomainError, LevelError, NumericError, TailjointError
from .marginal import MarginalTailEstimates, _fit_sorted, _qb_factors
from .numerics import (
    SpdMatrix, _spd_stack, _SpdStack, chi_square_quantile, std_normal_quantile,
)
from .sample import MultivariateSample, TailLevelPair, _check_margin, _Stack

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
        if self.scale == "log":
            _check_log_centers(center, RAISE)
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


def _check_log_centers(center: np.ndarray, checks) -> None:
    """Fail each sample with a non-positive center entry, which a log-scale
    region cannot hold."""
    checks(center <= 0.0, lambda j: DomainError("log-scale regions require positive centers"))


class _Estimate(NamedTuple):
    """The three inputs of a region, an interval or a test of each sample of
    a stack, each read from the stack's one marginal fit at tau: centers
    (B, d), bias shifts (B, d) and a checked covariance stack
    (``numerics._SpdStack``), whose checks fail samples through ``checks``.

    The stack is one sample (``_estimate_sample``: the single-sample
    regions, intervals, tests and ``estimate_covariance``, and the centers
    of the ``estimate`` command) or a stack of Monte Carlo replications
    (``simulation``), read by the same consumers: the region parts, the
    interval endpoints and the test statistic.  shift and covariance are
    built on first call and then reused; every consumer builds the
    covariance first, so a LAWS estimate fails the LAWS check of its Hill
    estimates before the QB check of its bias shift.
    """

    n: int
    tau: float
    method: str
    naive: bool
    levels: TailLevelPair | None
    checks: Checks
    center: np.ndarray
    shift: Callable[[], np.ndarray]
    covariance: Callable[[], _SpdStack]


def _estimate(
    st: _Stack,
    fit: MarginalTailEstimates,
    levels: TailLevelPair | None,
    method: str,
    naive: bool,
    checks: Checks,
) -> _Estimate:
    """The center, bias shift and covariance of one estimator vector of each
    sample of the stack st, whose fit at tau = fit.tau holds (B, d) arrays.

    levels=None is the intermediate level tau on the linear scale;
    otherwise the extrapolation to levels.tau_prime on the log scale.
    method is "laws", "qb" or, extrapolated only, "quantile" (Weissman).
    Each part is built for the whole stack by the stacked builders of
    ``covariance``: each covariance is a contraction W Sigma W^T of the
    (Hill, LAWS) or (Hill, quantile) covariance (``covariance._contract``),
    checked by one ``_spd_stack`` under its name ("star-LAWS covariance",
    ...); a failed check fails its sample through checks.  The naive
    variants assume independent margins: a diagonal covariance and,
    extrapolated, no bias shift.
    """
    tau = fit.tau
    g, q, xi = fit.gamma_hat, fit.q_hat, fit.xi_laws
    zero = partial(np.zeros, g.shape)
    bias = partial(_bias_qb, st, g, q, checks)

    def naive_diagonal(power: int) -> np.ndarray:
        # The independence-case variance 2g^power/(1-2g), ignoring both the
        # tail dependence and the finite-n corrections (power 3 for LAWS,
        # per the first-order variance of the intermediate expectile
        # estimator; power 2 for QB).
        checks(
            g >= 0.5,
            lambda j: DomainError(
                "tail too heavy for the naive variance (Hill estimate >= 1/2)"
            ),
        )
        return _diagonal(2.0 * g**power / (1.0 - 2.0 * g))

    def raw() -> np.ndarray:
        return _contract(sigma(), *weights)

    laws = partial(_sigma_laws, st, g, q, xi, tau, checks)
    quantile = partial(_sigma_q, st, g, tau)
    name = f"{method.upper()} covariance"
    if levels is None:
        if method == "laws":
            center, shift, power = xi, zero, 3
            sigma, weights = laws, (0.0, 1.0)
        else:
            center, shift, power = _qb_factors(g, checks) * q, lambda: -bias(), 2
            sigma, weights = quantile, _qb_weights(g)
        if naive:
            raw, name = partial(naive_diagonal, power), "naive " + name
    else:
        tau_prime, log_dn = levels.tau_prime, levels.log_dn
        name = "star-" + name
        if method == "laws":
            center, shift = fit.xi_star_laws(tau_prime), bias
            sigma, weights = laws, (1.0, 1.0 / log_dn)
        elif method == "qb":
            center, shift = fit.xi_star_qb(tau_prime, checks), zero
            sigma, weights = quantile, _qb_weights(g, log_dn)
        else:
            center, shift = fit.weissman_quantiles(tau_prime), zero
            sigma, weights, name = quantile, (1.0, 0.0), "quantile test covariance"
        if naive:
            shift, raw = zero, partial(_diagonal, g**2)
            name = "naive star covariance"
    return _Estimate(
        st.n, tau, method, naive, levels, checks, center, cache(shift),
        cache(lambda: _spd_stack(raw(), name, checks)),
    )


def _estimate_sample(
    sample: MultivariateSample,
    tau: float,
    tau_prime: float | None,
    method: str,
    naive: bool = False,
    extreme: bool = False,
) -> _Estimate:
    """_estimate of the sample as a stack of one, which raises its first
    failure: the estimate of every single-sample region, interval, test and
    covariance, read from the fit that estimate_margins keeps on the sample.
    An interval or a test (extreme) requires tau_prime."""
    if extreme:
        _require_tau_prime(tau_prime)
    levels = None if tau_prime is None else TailLevelPair(tau, tau_prime, sample.n)
    st, *fit = _one(sample, tau)
    return _estimate(st, MarginalTailEstimates(tau, *fit), levels, method, naive, RAISE)


def _require_tau_prime(tau_prime: float | None) -> None:
    """The check of every interval and test, which need an extreme level."""
    if tau_prime is None:
        raise LevelError("an extreme level tau_prime is required, got None")


def _check_method(method: str, methods: tuple[str, ...] = ("laws", "qb")) -> None:
    """The one check of a method name: _estimate reads any name but "laws"
    as QB, or extrapolated as Weissman."""
    if method not in methods:
        raise DomainError(f"unknown method {method!r}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0,1), got {alpha}")


def _region_parts(est: _Estimate, alpha: float):
    """The kind, checked covariance stack, bias shifts (B, d) and radius of
    the region of each sample of the estimate's stack, built in this order:
    the covariance, the shift and, on the log scale, the positive-center
    check.  The single-sample regions and the coverage harness read them."""
    _check_alpha(alpha)
    covariance, shift = est.covariance(), est.shift()
    extreme = est.levels is not None
    if extreme:
        _check_log_centers(est.center, est.checks)
    kind = ("extreme_" if extreme else "intermediate_") + est.method
    kind += "_naive" if est.naive else ""
    d = est.center.shape[-1]
    radius = math.sqrt(chi_square_quantile(1.0 - alpha, d) / (est.n * (1.0 - est.tau)))
    if extreme:
        radius *= est.levels.log_dn
    return kind, covariance, shift, radius


def _per_sample(est: _Estimate, build) -> list:
    """build(b) for each sample b of the estimate's stack, or the error of
    the first check that failed the sample."""
    failed = est.checks.first or [None] * len(est.center)
    return [build(b) if error is None else error for b, error in enumerate(failed)]


def _regions(est: _Estimate, alpha: float) -> list:
    """The region of each sample of the estimate's stack (``_per_sample``)."""
    kind, covariance, shift, radius = _region_parts(est, alpha)
    scale, tau_prime = ("linear", None) if est.levels is None else ("log", est.levels.tau_prime)
    return _per_sample(est, lambda b: ConfidenceRegion(
        kind=kind, scale=scale, alpha=alpha, tau=est.tau, tau_prime=tau_prime,
        center=est.center[b], bias_shift=shift[b],
        shape=SpdMatrix(_SpdStack(*(a[b : b + 1] for a in covariance))), radius=radius,
    ))


def _by_group(
    sample: MultivariateSample,
    tau: float,
    tau_prime: float | None,
    sizes: tuple[int, ...],
    methods: tuple[str, ...],
    naive: bool,
    outcomes: Callable[[_Estimate], list],
) -> dict:
    """{group: {method: entry}} for every group of m margins of the sample,
    m in sizes (d for the panel, 2 for every pair), in the order of
    ``itertools.combinations``: the entry of outcomes(est), a region or a
    test, that the same call on ``sample.select(group)`` gives, or its error.

    The panel is fitted once, each margin failing alone; a group fails with
    the error of its first failed margin, and a level that TailLevelPair or
    the fit rejects fails them all.  Each method runs the groups of one
    column offset as one stack (``MultivariateSample._group_stacks``), with
    their fit gathered from the panel's.
    """
    groups = [g for m in sizes for g in itertools.combinations(range(sample.d), m)]
    fitted = Checks(sample.d)
    try:
        levels = None if tau_prime is None else TailLevelPair(tau, tau_prime, sample.n)
        with np.errstate(all="ignore"):
            fit = _fit_sorted(sample.sorted_columns, tau, fitted)
    except TailjointError as exc:
        return {g: dict.fromkeys(methods, exc) for g in groups}
    failed = np.array([error is not None for error in fitted.first])
    out = {}
    for m in sizes:
        for idx, st in sample._group_stacks(m):
            sub = MarginalTailEstimates(
                tau, *(a[idx] for a in (fit.gamma_hat, fit.q_hat, fit.xi_laws))
            )
            for method in methods:
                checks = Checks(len(idx))
                checks(failed[idx], lambda j: fitted.first[idx.flat[j]])
                with np.errstate(all="ignore"):
                    entries = outcomes(_estimate(st, sub, levels, method, naive, checks))
                out.update(zip([(tuple(g), method) for g in idx.tolist()], entries))
    return {g: {method: out[g, method] for method in methods} for g in groups}


def confidence_region(
    sample: MultivariateSample,
    tau: float,
    tau_prime: float | None,
    alpha: float,
    method: str,
    naive: bool = False,
) -> ConfidenceRegion:
    """Joint confidence region for the expectile vector, centered at the
    LAWS or the bias-adjusted QB estimates (method "laws" or "qb").

    With tau_prime=None the region is for the intermediate expectiles at
    tau, on the linear scale; otherwise for the extreme expectiles at
    tau_prime, on the log scale, with the bias adjustment inside the
    exponential.  The naive variant assumes independent margins: a
    diagonal shape matrix with first-order entries 2g^3/(1-2g) (LAWS) or
    2g^2/(1-2g) (QB) at tau, and gamma-hat^2 with no bias adjustment at
    tau_prime, matching the naive marginal intervals."""
    _check_method(method)
    return _regions(_estimate_sample(sample, tau, tau_prime, method, naive), alpha)[0]


def estimate_covariance(
    sample: MultivariateSample,
    tau: float,
    tau_prime: float | None,
    method: str,
    naive: bool = False,
) -> SpdMatrix:
    """Plug-in covariance of the LAWS or QB estimators (method "laws" or
    "qb"): the shape of confidence_region's region with the same arguments.
    With tau_prime=None it is the intermediate covariance at tau, on the
    linear scale; otherwise that of the estimators extrapolated to
    tau_prime, on the log scale.  The naive variant is the independence
    diagonal."""
    _check_method(method)
    return SpdMatrix(_estimate_sample(sample, tau, tau_prime, method, naive).covariance())


def region_contains(region: ConfidenceRegion, point) -> bool:
    """Closed-region membership via the inverse quadratic form."""
    point = np.asarray(point, dtype=float)
    if point.shape != region.center.shape:
        raise DomainError("point dimension does not match region")
    if not np.isfinite(point).all():
        raise DomainError("membership requires a finite point")
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
    """Plot-ready boundary cloud: 512 points in 2-D, a 64x64 mesh in 3-D.
    A point beyond the float range raises NumericError."""
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
    with np.errstate(over="ignore"):
        points = region.center * (np.exp(w) if region.scale == "log" else 1.0 + w)
    if not np.isfinite(points).all():
        raise NumericError("non-finite region boundary point")
    return points


def _endpoints(est: _Estimate, j: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper endpoints (B,) of the log-scale interval for
    margin j of each sample of the estimate's stack, center x exp(shift -+
    half width).  A sample fails on a non-positive center, then on its
    covariance and its shift, built in that order, then on an endpoint
    that overflows."""
    _check_alpha(alpha)
    checks, center = est.checks, est.center[:, j]
    checks(
        center <= 0.0,
        lambda i: DomainError("log-scale interval requires a positive point estimate"),
    )
    root = math.sqrt(est.n * (1.0 - est.tau))
    var = est.covariance().entries[:, j, j]
    shift = est.shift()[:, j]
    half = est.levels.log_dn / root * np.sqrt(var) * std_normal_quantile(1.0 - alpha / 2.0)
    with np.errstate(over="ignore"):
        lower, upper = center * np.exp(shift - half), center * np.exp(shift + half)
    checks(
        ~(np.isfinite(lower) & np.isfinite(upper)),
        lambda i: NumericError("non-finite interval endpoint"),
    )
    return lower, upper


def _interval(est: _Estimate, j: int, alpha: float) -> MarginalInterval:
    lower, upper = _endpoints(est, j, alpha)
    return MarginalInterval(float(lower[0]), float(upper[0]), margin=j, alpha=alpha)


def marginal_interval(
    sample: MultivariateSample,
    tau: float,
    tau_prime: float,
    j: int,
    alpha: float,
    method: str,
    naive: bool = False,
) -> MarginalInterval:
    """Log-scale interval for the extreme expectile of margin j at
    tau_prime, LAWS- or QB-extrapolated (method "laws" or "qb").

    The naive variant drops the bias adjustment and uses the first-order
    asymptotic variance gamma-hat^2 in place of the finite-n covariance.
    """
    _check_method(method)
    _check_margin(j, sample.d)
    est = _estimate_sample(sample, tau, tau_prime, method, naive, extreme=True)
    return _interval(est, j, alpha)
