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
    _check_pair(tau, j, ell)
    u = _tail_points(sample.ranks, tau)
    return EmpiricalTailCopula(sample.n, tau, u[:, j], u[:, ell])


def _check_pair(tau: float, j: int, ell: int) -> None:
    if j == ell:
        raise DomainError("tail copula is defined for distinct margins")
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must be in (0,1), got {tau}")


def _tail_points(ranks: np.ndarray, tau: float) -> np.ndarray:
    """U_ij = (n+1-r_ij)/((n+1)(1-tau)) for every observation and margin of
    (..., n, d) ranks; U_ij <= 1 marks the top ranks of margin j."""
    n = ranks.shape[-2]
    return (n + 1 - ranks) / ((n + 1) * (1.0 - tau))


def _r11_matrix(st, tau) -> np.ndarray:
    """R-hat(1,1) of every pair of columns at once: the count that
    EmpiricalTailCopula.evaluate(1, 1) makes, one d x d matrix per entry of
    a stack.  st is a ``sample._Stack`` of B samples at one level tau, or
    of one sample at a (B, 1) array of levels.  The diagonal is unused.

    U_ij <= 1 holds for every rank at or above the smallest rank c for
    which it holds (U falls as the rank rises), so c is found by that same
    test applied to the ranks 1..n.  Entry (j, l) counts the rows whose
    ranks on margins j and l are both at least c: among margin j's rows of
    rank at least the stack's lowest cut-off, read once through its row
    order, those whose pair-minimum rank reaches c.  The counts are exact."""
    n = st.n
    u = _tail_points(np.arange(1, n + 1)[:, None], np.expand_dims(tau, -1))
    cut = n + 1 - (u <= 1.0).sum(axis=(-2, -1))
    low = int(np.min(cut))
    rows = st.order[..., None, low - 1 :]  # (S, d, 1, M): margin j's rows of rank low..n
    by_margin = np.swapaxes(st.ranks, -1, -2)  # (S, d, n): each margin's ranks in row order
    margins = np.arange(by_margin.shape[1])[:, None]
    top = by_margin[np.arange(len(rows))[:, None, None, None], margins, rows]  # (S, d, d, M)
    pair_min = np.minimum(top, np.arange(low, n + 1))
    counts = (pair_min >= np.reshape(cut, (-1, 1, 1, 1))).sum(axis=-1)
    return counts / np.expand_dims(n * (1.0 - tau), -1)


def _unit_integral_matrix(ranks: np.ndarray, tau: float) -> np.ndarray:
    """I[j, l], the integral over (0,1] of R-hat_jl(u,1)/u with u on margin
    j's axis, for every pair of columns at once; the diagonal is unused.
    R-hat_jl(u,1) steps up by 1/(n(1-tau)) at each U_ij <= 1 with U_il <= 1,
    so I[j, l] sums -log U_ij over the points in the top ranks of both
    margins and divides by n(1-tau).  ranks is (..., n, d), as for
    _r11_matrix."""
    n = ranks.shape[-2]
    u = _tail_points(ranks, tau)
    # -log min(U, 1) is -log U on the top ranks and exactly 0 elsewhere.
    logs = np.swapaxes(np.log(np.minimum(u, 1.0)), -1, -2)
    return -logs @ (u <= 1.0) / (n * (1.0 - tau))


def extremal_coefficient(
    sample: MultivariateSample, tau: float, j: int, ell: int
) -> float:
    """omega-hat = 2 - R-hat(1,1), the pair's entry of _r11_matrix."""
    _check_pair(tau, j, ell)
    return 2.0 - float(_r11_matrix(sample._stack, tau)[0, j, ell])


def _independent(x, y, theta):
    return np.zeros(np.broadcast(x, y).shape)[()]


def _comonotone(x, y, theta):
    return np.minimum(x, y)


def _logistic(x, y, theta):
    return x + y - (x**theta + y**theta) ** (1.0 / theta)


# R(x, y) of each kind of oracle, for floats or arrays of x, y >= 0.
_FORMULAS = {"independent": _independent, "comonotone": _comonotone, "logistic": _logistic}


@dataclass(frozen=True)
class OracleTailCopula:
    """Analytic tail copula: independent, comonotone, or logistic(theta)."""

    kind: str
    theta: float = float("nan")

    def __post_init__(self):
        if self.kind not in _FORMULAS:
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
        return self._formula(x, y)

    def _formula(self, x, y):
        """R(x, y) without the argument checks of evaluate: the quadrature
        integrands call it at nonnegative floats."""
        return _FORMULAS[self.kind](x, y, self.theta)

    def unit_integral(self) -> float:
        """Integral over (0,1] of R(u,1)/u; both axes agree by symmetry."""
        if self.kind == "independent":
            return 0.0
        if self.kind == "comonotone":
            return 1.0  # integral of min(u,1)/u = 1 on (0,1]
        return integrate_unit_log(lambda u: self._formula(u, 1.0))

    def r11(self) -> float:
        if self.kind == "independent":
            return 0.0
        if self.kind == "comonotone":
            return 1.0
        return 2.0 - 2.0 ** (1.0 / self.theta)
