"""Empirical tail copula, its pair matrices R(1,1) and unit integrals (one
matrix product each over the rank-transformed points), the extremal
coefficient, and analytic tail-copula oracles used for testing.  Every
empirical quantity reads the sample's cached ranks, ``sample.ranks``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import integrate_unit_log
from .sample import MultivariateSample


@dataclass(frozen=True, eq=False)
class EmpiricalTailCopula:
    """Rank-based step-function estimate of the tail copula of one pair.

    Stores the pair's transformed points (n+1-r_{i,j})/((n+1)(1-tau)), one
    array per margin, so that evaluation is an exact count.  The covariances
    read R(1,1) and the unit integrals of every pair at once from
    ``_r11_matrix`` and ``_unit_integral_matrix``.
    """

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


def empirical_tail_copula(
    sample: MultivariateSample, tau: float, j: int, ell: int
) -> EmpiricalTailCopula:
    if j == ell:
        raise DomainError("tail copula is defined for distinct margins")
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must be in (0,1), got {tau}")
    u = _tail_points(sample.ranks, tau)
    return EmpiricalTailCopula(sample.n, tau, u[:, j], u[:, ell])


def _tail_points(ranks: np.ndarray, tau: float) -> np.ndarray:
    """U_ij = (n+1-r_ij)/((n+1)(1-tau)) for every observation and margin;
    U_ij <= 1 marks the top ranks of margin j."""
    n = ranks.shape[0]
    return (n + 1 - ranks) / ((n + 1) * (1.0 - tau))


def _r11_matrix(ranks: np.ndarray, tau: float) -> np.ndarray:
    """R-hat(1,1) of every pair of columns at once: the count that
    EmpiricalTailCopula.evaluate(1, 1) makes, as one product of the
    top-rank indicators.  The diagonal is unused.

    U_ij <= 1 holds for every rank at or above the smallest rank c for
    which it holds (U falls as the rank rises), so c is found by that same
    test applied to the ranks 1..n, the indicators are one integer
    comparison with c, and the counts are exact."""
    n = ranks.shape[0]
    c = n + 1 - np.count_nonzero(_tail_points(np.arange(1, n + 1), tau) <= 1.0)
    top = (ranks >= c).astype(float)
    return top.T @ top / (n * (1.0 - tau))


def _unit_integral_matrix(ranks: np.ndarray, tau: float) -> np.ndarray:
    """I[j, l], the integral over (0,1] of R-hat_jl(u,1)/u with u on margin
    j's axis, for every pair of columns at once; the diagonal is unused.
    R-hat_jl(u,1) steps up by 1/(n(1-tau)) at each U_ij <= 1 with U_il <= 1,
    so I[j, l] sums -log U_ij over the points in the top ranks of both
    margins and divides by n(1-tau)."""
    n = ranks.shape[0]
    u = _tail_points(ranks, tau)
    # -log min(U, 1) is -log U on the top ranks and exactly 0 elsewhere.
    return -np.log(np.minimum(u, 1.0)).T @ (u <= 1.0) / (n * (1.0 - tau))


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

