"""Empirical tail copula, its log-weighted unit integrals, the extremal
coefficient, and analytic tail-copula oracles used for testing."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import integrate_unit_log
from .sample import MultivariateSample, compute_ranks


@dataclass(frozen=True, eq=False)
class EmpiricalTailCopula:
    """Rank-based step-function estimate of the tail copula of one pair.

    Stores the transformed points (n+1-r_{i,j})/((n+1)(1-tau)) so that
    evaluation is an exact count and the unit integrals are closed-form
    sums over breakpoints.
    """

    j: int
    ell: int
    n: int
    tau: float
    u: np.ndarray
    v: np.ndarray

    @property
    def k_effective(self) -> float:
        """n(1-tau), the un-floored normalizing factor."""
        return self.n * (1.0 - self.tau)

    def evaluate(self, u: float, v: float) -> float:
        if u < 0.0 or v < 0.0:
            raise DomainError("tail copula arguments must be nonnegative")
        if u == 0.0 or v == 0.0:
            return 0.0
        count = int(np.count_nonzero((self.u <= u) & (self.v <= v)))
        return count / self.k_effective

    def unit_integral(self, axis: int) -> float:
        """Exact integral over (0,1] of R(u,1)/u (axis 0) or R(1,u)/u (axis 1)."""
        if axis == 0:
            var, other = self.u, self.v
        elif axis == 1:
            var, other = self.v, self.u
        else:
            raise DomainError("axis must be 0 or 1")
        pts = var[other <= 1.0]
        pts = pts[pts <= 1.0]
        if pts.size == 0:
            return 0.0
        breaks, counts = np.unique(pts, return_counts=True)
        cum = np.cumsum(counts) / self.k_effective
        edges = np.append(breaks, 1.0)
        # R vanishes below the smallest breakpoint, so that piece contributes 0.
        return float(np.sum(cum * np.diff(np.log(edges))))


def empirical_tail_copula(
    sample: MultivariateSample, tau: float, j: int, ell: int
) -> EmpiricalTailCopula:
    if j == ell:
        raise DomainError("tail copula is defined for distinct margins")
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must be in (0,1), got {tau}")
    ranks = compute_ranks(sample)
    return _tail_copula_from_ranks(ranks, tau, j, ell)


def _tail_copula_from_ranks(
    ranks: np.ndarray, tau: float, j: int, ell: int
) -> EmpiricalTailCopula:
    n = ranks.shape[0]
    denom = (n + 1) * (1.0 - tau)
    return EmpiricalTailCopula(
        j=j,
        ell=ell,
        n=n,
        tau=tau,
        u=(n + 1 - ranks[:, j]) / denom,
        v=(n + 1 - ranks[:, ell]) / denom,
    )


def _r11_matrix(ranks: np.ndarray, tau: float) -> np.ndarray:
    """R-hat(1,1) of every pair of columns at once: the count that
    EmpiricalTailCopula.evaluate(1, 1) makes, as one product of the
    top-rank indicators.  The diagonal is unused."""
    n = ranks.shape[0]
    top = ((n + 1 - ranks) / ((n + 1) * (1.0 - tau)) <= 1.0).astype(float)
    return top.T @ top / (n * (1.0 - tau))


def extremal_coefficient(
    sample: MultivariateSample, tau: float, j: int, ell: int
) -> float:
    """omega-hat = 2 - R-hat(1,1)."""
    return 2.0 - empirical_tail_copula(sample, tau, j, ell).evaluate(1.0, 1.0)


@dataclass(frozen=True)
class OracleTailCopula:
    """Analytic tail copula: independent, comonotone, or logistic(theta)."""

    kind: str
    theta: float = float("nan")

    def __post_init__(self):
        if self.kind not in ("independent", "comonotone", "logistic"):
            raise DomainError(f"unknown tail copula kind {self.kind!r}")
        if self.kind == "logistic":
            if not self.theta >= 1.0:
                raise DomainError(f"logistic tail copula requires theta >= 1, got {self.theta}")

    @classmethod
    def independent(cls) -> "OracleTailCopula":
        return cls("independent")

    @classmethod
    def comonotone(cls) -> "OracleTailCopula":
        return cls("comonotone")

    @classmethod
    def logistic(cls, theta: float) -> "OracleTailCopula":
        return cls("logistic", theta=theta)

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(x < 0.0) or np.any(y < 0.0):
            raise DomainError("tail copula arguments must be nonnegative")
        if self.kind == "independent":
            return np.zeros(np.broadcast(x, y).shape)[()]
        if self.kind == "comonotone":
            return np.minimum(x, y)[()]
        t = self.theta
        return (x + y - (x**t + y**t) ** (1.0 / t))[()]

    def unit_integral(self) -> float:
        """Integral over (0,1] of R(u,1)/u; both axes agree by symmetry."""
        if self.kind == "independent":
            return 0.0
        if self.kind == "comonotone":
            return 1.0  # integral of min(u,1)/u = 1 on (0,1]
        return integrate_unit_log(lambda u: self.evaluate(u, 1.0))

    def r11(self) -> float:
        if self.kind == "independent":
            return 0.0
        if self.kind == "comonotone":
            return 1.0
        return 2.0 - 2.0 ** (1.0 / self.theta)

