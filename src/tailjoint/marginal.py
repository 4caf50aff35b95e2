"""Univariate tail estimators: LAWS expectiles, Hill index, QB expectiles,
Weissman quantiles and their extrapolated versions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LevelError
from .sample import _read_only, _sums_sorted, effective_k


def _column(column) -> np.ndarray:
    x = np.asarray(column, dtype=float).ravel()
    if x.size < 2:
        raise DomainError("need at least 2 observations")
    if not np.all(np.isfinite(x)):
        raise DomainError("observations must be finite")
    return x


def asymmetric_weight(y, tau: float):
    """phi_tau(y) = |tau - 1{y <= 0}| y, the derivative of the check
    function eta_tau / 2."""
    y = np.asarray(y, dtype=float)
    return np.where(y > 0.0, tau * y, (1.0 - tau) * y)


def _sorted_row(column) -> np.ndarray:
    """The column sorted ascending, as the single row of a 1 x n array."""
    return np.sort(_column(column))[None, :]


def laws_expectile(column, tau: float) -> float:
    """Empirical expectile at level tau, solved exactly on the sorted data."""
    xs = _sorted_row(column)
    return float(_laws_sorted(xs, _sums_sorted(xs), tau)[0])


def _laws_sorted(xs: np.ndarray, sums, tau: float) -> np.ndarray:
    """LAWS expectile of each ascending row of the 2-D array xs, given the
    rows' tau-free sums ``_sums_sorted(xs)`` (module ``sample``).

    The estimating function psi(theta) = sum phi_tau(x_i - theta) is
    continuous, strictly decreasing and piecewise linear with breakpoints at
    the observations, and its value at each of them is tau A + (1 - tau) B.
    The root is located by the first breakpoint where psi <= 0 and solved
    in closed form on the segment below it.
    """
    if not 0.0 < tau < 1.0:
        raise DomainError(f"expectile level must be in (0,1), got {tau}")
    cum, a, b = sums
    n = xs.shape[1]
    psi = tau * a + (1.0 - tau) * b
    rows = np.arange(xs.shape[0])
    m = np.argmax(psi <= 0.0, axis=1)  # psi(x_max) <= 0 always
    at_point = (m == 0) | (psi[rows, m] == 0.0)
    # Otherwise the root lies in (xs[m-1], xs[m]); on that segment m points
    # sit at or below.
    s_lo = cum[rows, m - 1]
    s_hi = cum[:, -1] - s_lo
    num = tau * s_hi + (1.0 - tau) * s_lo
    den = tau * (n - m) + (1.0 - tau) * m
    return np.where(at_point, xs[rows, m], num / den)


def empirical_quantile(column, tau: float) -> float:
    """Order statistic X_{n - floor(n(1-tau)), n}."""
    return float(_quantile_sorted(_sorted_row(column), tau)[0])


def _quantile_sorted(xs: np.ndarray, tau: float) -> np.ndarray:
    """The intermediate order statistic of each ascending row of xs."""
    n = xs.shape[1]
    i = n - effective_k(n, tau)
    if i < 1:
        raise LevelError(f"quantile level tau={tau} too small for n={n}")
    return xs[:, i - 1].copy()


def hill_estimator(column, k: int) -> float:
    """Average log-excess of the top k order statistics over the (k+1)-th."""
    return float(_hill_sorted(_sorted_row(column), k)[0])


def _check_hill_size(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise LevelError(f"Hill effective size k={k} outside [1, {n - 1}]")


def _hill_sorted(xs: np.ndarray, k: int) -> np.ndarray:
    """Hill estimate of each ascending row of xs."""
    n = xs.shape[1]
    _check_hill_size(n, k)
    threshold = xs[:, n - k - 1 : n - k]
    if np.any(threshold <= 0.0):
        raise DomainError("Hill requires positive tail: threshold order statistic <= 0")
    return np.mean(np.log(xs[:, n - k :] / threshold), axis=1)


def hill_at_level(column, tau: float) -> float:
    return float(_fit_column(column, tau).gamma_hat[0])


def qb_factor(gamma: float) -> float:
    """(gamma^{-1} - 1)^{-gamma}, the expectile/quantile proportionality."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"QB factor undefined for tail index {gamma}")
    return (1.0 / gamma - 1.0) ** -gamma


def qb_expectile(column, tau: float) -> float:
    """Quantile-based expectile estimator at level tau."""
    return float(_fit_column(column, tau).xi_qb[0])


def weissman_quantile(column, tau: float, tau_prime: float) -> float:
    return float(_fit_column(column, tau).weissman_quantiles(tau_prime)[0])


def extrapolate_expectile_laws(column, tau: float, tau_prime: float) -> float:
    return float(_fit_column(column, tau).xi_star_laws(tau_prime)[0])


def extrapolate_expectile_qb(column, tau: float, tau_prime: float) -> float:
    return float(_fit_column(column, tau).xi_star_qb(tau_prime)[0])


@dataclass(frozen=True, eq=False)
class MarginalTailEstimates:
    """Per-margin tail summaries at a common intermediate level."""

    tau: float
    gamma_hat: np.ndarray
    q_hat: np.ndarray
    xi_laws: np.ndarray

    @property
    def xi_qb(self) -> np.ndarray:
        """QB expectiles at tau, per margin.  Computed on access, so a margin
        with gamma-hat >= 1 fails only what needs the QB factor."""
        return np.array([qb_factor(g) for g in self.gamma_hat]) * self.q_hat

    def _factors(self, tau_prime: float) -> np.ndarray:
        if not 0.0 < self.tau <= tau_prime < 1.0:
            raise LevelError(
                f"extrapolation requires tau <= tau_prime in (0,1), "
                f"got {self.tau}, {tau_prime}"
            )
        ratio = (1.0 - tau_prime) / (1.0 - self.tau)
        return np.array([ratio ** -float(g) for g in self.gamma_hat])

    def weissman_quantiles(self, tau_prime: float) -> np.ndarray:
        """Weissman extrapolated quantiles at level tau_prime, per margin."""
        return self._factors(tau_prime) * self.q_hat

    def xi_star_laws(self, tau_prime: float) -> np.ndarray:
        """LAWS-extrapolated expectiles at level tau_prime, per margin."""
        return self._factors(tau_prime) * self.xi_laws

    def xi_star_qb(self, tau_prime: float) -> np.ndarray:
        """QB-extrapolated expectiles at level tau_prime, per margin."""
        factors = self._factors(tau_prime)
        qb = np.array([qb_factor(float(g)) for g in self.gamma_hat])
        return qb * (factors * self.q_hat)


def _fit_sorted(xs: np.ndarray, sums, tau: float) -> MarginalTailEstimates:
    """The fit of each ascending row of xs at level tau, given the rows'
    LAWS sums, in read-only arrays."""
    gamma = _hill_sorted(xs, effective_k(xs.shape[1], tau))
    q = _quantile_sorted(xs, tau)
    xi = _laws_sorted(xs, sums, tau)
    return MarginalTailEstimates(tau, *(_read_only(a) for a in (gamma, q, xi)))


def _fit_column(column, tau: float) -> MarginalTailEstimates:
    xs = _sorted_row(column)
    return _fit_sorted(xs, _sums_sorted(xs), tau)


def estimate_margins(sample, tau: float) -> MarginalTailEstimates:
    """Hill, intermediate quantile and both expectile estimators per column,
    read from the sample's cached order statistics and LAWS sums.

    The fit is computed once per (sample, tau) and kept on the sample, so
    every estimator, region, interval and test at tau reads the same one; a
    level whose fit raises is not kept, and raises again on the next call.
    """
    fits = sample._fits
    if tau not in fits:
        fits[tau] = _fit_sorted(sample.sorted_columns, sample._laws_sums, tau)
    return fits[tau]


def m_function(x: float) -> float:
    """(1-x)^{-1} - log(x^{-1} - 1), the expectile log-derivative factor."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"m(x) requires x in (0,1), got {x}")
    return 1.0 / (1.0 - x) - math.log(1.0 / x - 1.0)
