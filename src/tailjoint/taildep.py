"""Empirical tail copula, its pair matrices R(1,1) and unit integrals (each a
sum over one mask of the rows in the top ranks of every pair), the
extremal coefficient, and analytic tail-copula oracles used for testing.
Each reads every margin's top rows from the end of its row order in a stack
(``sample._Stack``); the tail copula of one pair orders all n rows."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import integrate_unit_log
from .sample import MultivariateSample, _check_margin, _r11_cut, _row_starts, _tail_points


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
        if not (u >= 0.0 and v >= 0.0):  # NaN included
            raise DomainError("tail copula arguments must be nonnegative")
        if u == 0.0 or v == 0.0:
            return 0.0
        count = int(np.count_nonzero((self.u <= u) & (self.v <= v)))
        return count / self.k_effective


def empirical_tail_copula(
    sample: MultivariateSample, tau: float, j: int, ell: int
) -> EmpiricalTailCopula:
    _check_pair(sample.d, tau, j, ell)
    n, order = sample.n, sample._stack(0.0).order[0]
    u = np.empty(order.shape)
    np.put_along_axis(u, order, _tail_points(np.arange(1, n + 1), tau, n), axis=-1)
    return EmpiricalTailCopula(n, tau, u[j], u[ell])


def _check_pair(d: int, tau: float, j: int, ell: int) -> None:
    _check_margin(j, d)
    _check_margin(ell, d)
    if j == ell:
        raise DomainError("tail copula is defined for distinct margins")
    if not 0.0 < tau < 1.0:
        raise DomainError(f"tau must be in (0,1), got {tau}")


def _top_pairs(st, tau: float) -> np.ndarray:
    """(S, d, d, M) mask of a ``sample._Stack`` at level tau: entry (j, l, m)
    says whether margin j's row of rank cut + m, the m-th of the last M
    rows of its row order, has a rank of at least cut (``_r11_cut``) on
    margin l too, as read from a mask of every margin's last M rows."""
    size = st.n + 1 - _r11_cut(st.n, tau)
    rows = st.order[..., st.order.shape[-1] - size :]  # (S, d, M)
    starts = _row_starts(st.columns.shape)  # (S, d, 1)
    top = np.zeros(st.columns.size, dtype=bool)
    top[rows + starts] = True
    return top[rows[..., None, :] + starts[:, None]]


def _r11_matrix(top: np.ndarray, n: int, tau: float) -> np.ndarray:
    """R-hat(1,1) of every pair of columns at once, from the ``_top_pairs``
    mask of a stack of samples of size n at level tau: the count that
    EmpiricalTailCopula.evaluate(1, 1) makes, one d x d matrix per sample,
    exactly.  The diagonal is unused."""
    return top.sum(axis=-1) / (n * (1.0 - tau))


def _unit_integral_matrix(top: np.ndarray, n: int, tau: float) -> np.ndarray:
    """I[j, l], the integral over (0,1] of R-hat_jl(u,1)/u with u on margin
    j's axis, for every pair of columns of each sample at once, from the
    ``_top_pairs`` mask of a stack of samples of size n at level tau; the
    diagonal is unused.
    R-hat_jl(u,1) steps up by 1/(n(1-tau)) at each U_ij <= 1 with U_il <= 1,
    so I[j, l] sums -log U_ij over the points in the top ranks of both
    margins and divides by n(1-tau).  Margin j's top rows have the ranks
    cut..n, whose U are the same on every margin."""
    logs = np.log(_tail_points(np.arange(n + 1 - top.shape[-1], n + 1), tau, n))
    return top @ -logs / (n * (1.0 - tau))


def extremal_coefficient(
    sample: MultivariateSample, tau: float, j: int, ell: int
) -> float:
    """omega-hat = 2 - R-hat(1,1), the pair's entry of _extremal_coefficients."""
    _check_pair(sample.d, tau, j, ell)
    return float(_extremal_coefficients(sample._stack(tau), tau)[0, j, ell])


def _extremal_coefficients(st, tau: float) -> np.ndarray:
    """omega-hat of every pair of columns of each sample of a stack, from one
    ``_top_pairs`` mask; the diagonal is unused."""
    return 2.0 - _r11_matrix(_top_pairs(st, tau), st.n, tau)


def _independent(x, y, theta):
    return np.zeros(np.broadcast(x, y).shape)[()]


def _comonotone(x, y, theta):
    return np.minimum(x, y)


def _logistic(x, y, theta):
    # x + y - (x^theta + y^theta)^(1/theta), written with lo = min(x, y) and
    # hi = max(x, y) as lo - hi expm1(log1p((lo/hi)^theta)/theta): the power
    # (lo/hi)^theta <= 1 cannot overflow, R(t, 1) near t = 0 is not the
    # difference of two numbers near 1, and theta = inf gives min(x, y).
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    ratio = np.divide(lo, hi, out=np.zeros(np.shape(lo)), where=lo > 0.0)
    return (lo - hi * np.expm1(np.log1p(ratio**theta) / theta))[()]


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
        if not (np.all(x >= 0.0) and np.all(y >= 0.0)):  # NaN included
            raise DomainError("tail copula arguments must be nonnegative")
        return self._formula(x, y)

    def _formula(self, x, y):
        """R(x, y) without the argument checks of evaluate: the quadrature
        integrands call it on arrays of nonnegative nodes."""
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
