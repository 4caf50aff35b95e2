"""Univariate tail estimators: LAWS expectiles, Hill index, QB expectiles,
Weissman quantiles and their extrapolated versions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RAISE, DomainError, LevelError
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
    function eta_tau / 2.  The weight is read from the pair (1 - tau, tau)
    by the sign of y: the same products as a branch per entry, without its
    mispredictions on a mixed-sign y."""
    y = np.asarray(y, dtype=float)
    phi = np.take([1.0 - tau, tau], (y > 0.0).astype(np.intp))
    phi *= y
    return phi


def _sorted_row(column) -> np.ndarray:
    """The column sorted ascending, as the single row of a 1 x n array."""
    return np.sort(_column(column))[None, :]


def laws_expectile(column, tau: float) -> float:
    """Empirical expectile at level tau, solved exactly on the sorted data."""
    xs = _sorted_row(column)
    return float(_laws_sorted(xs, _sums_sorted(xs), tau)[0])


def _laws_sorted(xs: np.ndarray, sums, tau) -> np.ndarray:
    """LAWS expectile of each ascending row of the 2-D array xs, given the
    rows' tau-free sums ``_sums_sorted(xs)`` (module ``sample``): one per
    row at a level tau, or (L, R) for an (L, 1) array of levels and R rows.

    The estimating function psi(theta) = sum phi_tau(x_i - theta) is
    continuous, strictly decreasing and piecewise linear with breakpoints at
    the observations, and its value at each of them is tau A + (1 - tau) B.
    The root is located by the first breakpoint where psi <= 0 and solved
    in closed form on the segment below it.  psi is evaluated one level at
    a time, so it takes R x n values whatever the number of levels.
    """
    levels = np.ravel(tau).tolist()
    if not all(0.0 < t < 1.0 for t in levels):
        raise DomainError(f"expectile level must be in (0,1), got {tau}")
    cum, a, b = sums
    n = xs.shape[1]
    rows = np.arange(xs.shape[0])
    m = np.empty((len(levels), len(rows)), dtype=np.intp)
    at_point = np.empty(m.shape, dtype=bool)
    for i, t in enumerate(levels):
        psi = t * a + (1.0 - t) * b
        m[i] = np.argmax(psi <= 0.0, axis=1)  # psi(x_max) <= 0 always
        at_point[i] = (m[i] == 0) | (psi[rows, m[i]] == 0.0)
    shape = np.shape(tau)[:-1] + rows.shape
    m, at_point = m.reshape(shape), at_point.reshape(shape)
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


def _quantile_sorted(xs: np.ndarray, tau) -> np.ndarray:
    """The intermediate order statistic of each ascending row of xs, at a
    level tau or, as (L, R), at each of an (L, 1) array of levels."""
    n = xs.shape[1]
    i = n - effective_k(n, tau)
    if np.any(i < 1):
        raise LevelError(f"quantile level tau={np.min(tau)} too small for n={n}")
    return xs[np.arange(xs.shape[0]), i - 1]


def hill_estimator(column, k: int) -> float:
    """Average log-excess of the top k order statistics over the (k+1)-th."""
    return float(_hill_sorted(_sorted_row(column), k, RAISE)[0])


def _check_hill_size(n: int, k: int) -> None:
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise LevelError(f"Hill effective size must be an integer, got {k!r}")
    if not 1 <= k <= n - 1:
        raise LevelError(f"Hill effective size k={k} outside [1, {n - 1}]")


def _hill_sorted(xs: np.ndarray, k, checks) -> np.ndarray:
    """Hill estimate of each ascending row of xs: at an effective size k, or,
    as (L, R), at each of an (L, 1) array of sizes.  A row whose threshold
    order statistic is not positive fails its sample or level (see
    errors.Checks).  Each estimate is the mean over exactly its own top k."""
    n = xs.shape[1]
    ks = np.ravel(k).tolist()
    for size in ks:
        _check_hill_size(n, size)
    thresholds = xs[:, [n - 1 - size for size in ks]].T
    checks(
        thresholds <= 0.0,
        lambda j: DomainError("Hill requires positive tail: threshold order statistic <= 0"),
    )
    gamma = np.array([
        np.mean(np.log(xs[:, n - size :] / t[:, None]), axis=1)
        for size, t in zip(ks, thresholds)
    ])
    return gamma.reshape(np.shape(k)[:-1] + xs.shape[:1])


def qb_factor(gamma: float) -> float:
    """(gamma^{-1} - 1)^{-gamma}, the expectile/quantile proportionality."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"QB factor undefined for tail index {gamma}")
    return (1.0 / gamma - 1.0) ** -gamma


def _check_qb(g: np.ndarray, checks) -> np.ndarray:
    """Fail each sample with an entry of g outside (0, 1), where qb_factor
    is undefined, named by its first such entry; return where g is inside."""
    ok = (g > 0.0) & (g < 1.0)
    checks(~ok, lambda j: DomainError(f"QB factor undefined for tail index {g.flat[j]}"))
    return ok


def _qb_factors(g: np.ndarray, checks) -> np.ndarray:
    """qb_factor of every entry of g, NaN where _check_qb fails it."""
    ok = _check_qb(g, checks)
    return np.array(
        [qb_factor(x) if good else np.nan for x, good in zip(g.flat, ok.flat)]
    ).reshape(g.shape)


@dataclass(frozen=True, eq=False)
class MarginalTailEstimates:
    """Per-margin tail summaries at a common intermediate level: arrays of
    d margins, or (B, d) for a stack of B samples; or (L, d) for L levels of
    one sample, with tau their (L, 1) array, which only ``trace-scan``
    reads (``covariance._scan_v_star_laws``)."""

    tau: float | np.ndarray
    gamma_hat: np.ndarray
    q_hat: np.ndarray
    xi_laws: np.ndarray

    @property
    def xi_qb(self) -> np.ndarray:
        """QB expectiles at tau, per margin.  Computed on access, so a margin
        with gamma-hat >= 1 fails only what needs the QB factor."""
        return _qb_factors(self.gamma_hat, RAISE) * self.q_hat

    def _factors(self, tau_prime: float) -> np.ndarray:
        if not 0.0 < self.tau <= tau_prime < 1.0:
            raise LevelError(
                f"extrapolation requires tau <= tau_prime in (0,1), "
                f"got {self.tau}, {tau_prime}"
            )
        ratio = (1.0 - tau_prime) / (1.0 - self.tau)
        g = self.gamma_hat
        return np.array([ratio ** -float(x) for x in g.flat]).reshape(g.shape)

    def weissman_quantiles(self, tau_prime: float) -> np.ndarray:
        """Weissman extrapolated quantiles at level tau_prime, per margin."""
        return self._factors(tau_prime) * self.q_hat

    def xi_star_laws(self, tau_prime: float) -> np.ndarray:
        """LAWS-extrapolated expectiles at level tau_prime, per margin."""
        return self._factors(tau_prime) * self.xi_laws

    def xi_star_qb(self, tau_prime: float, checks=RAISE) -> np.ndarray:
        """QB-extrapolated expectiles at level tau_prime, per margin."""
        factors = self._factors(tau_prime)
        return _qb_factors(self.gamma_hat, checks) * (factors * self.q_hat)


def _fit_sorted(xs: np.ndarray, sums, tau, checks) -> MarginalTailEstimates:
    """The fit of each ascending row of xs at level tau, given the rows'
    LAWS sums, in read-only arrays.  For an (L, 1) array of levels tau the
    arrays are (L, R), level by row, each level's exactly as a call at that
    level alone gives it."""
    gamma = _hill_sorted(xs, effective_k(xs.shape[1], tau), checks)
    q = _quantile_sorted(xs, tau)
    xi = _laws_sorted(xs, sums, tau)
    return MarginalTailEstimates(tau, *(_read_only(a) for a in (gamma, q, xi)))


def _fit_stack(st, tau: float, checks) -> MarginalTailEstimates:
    """The fit at tau of every sample of the stack st (``sample._Stack``),
    as (B, d) arrays: one _fit_sorted of all its B*d sorted columns."""
    b, d, n = st.sorted_columns.shape
    xs = st.sorted_columns.reshape(-1, n)
    rows = _fit_sorted(xs, _sums_sorted(xs), tau, checks)
    return MarginalTailEstimates(
        tau, *(a.reshape(b, d) for a in (rows.gamma_hat, rows.q_hat, rows.xi_laws))
    )


def _fit_levels(sample, tau: np.ndarray, checks) -> MarginalTailEstimates:
    """The fit of the sample at each of an (L, 1) array of levels tau, as
    (L, d) arrays; unlike estimate_margins it is not kept on the sample."""
    return _fit_sorted(sample.sorted_columns, sample._laws_sums, tau, checks)


def fit_column(column, tau: float) -> MarginalTailEstimates:
    """The fit of one column at level tau, as arrays of one margin: the Hill
    index, the intermediate quantile and the LAWS expectile, from which the
    QB expectile and the Weissman, LAWS and QB extrapolations are read."""
    xs = _sorted_row(column)
    return _fit_sorted(xs, _sums_sorted(xs), tau, RAISE)


def estimate_margins(sample, tau: float) -> MarginalTailEstimates:
    """Hill, intermediate quantile and both expectile estimators per column,
    read from the sample's cached order statistics and LAWS sums.

    The fit is computed once per (sample, tau) and kept on the sample, so
    every estimator, region, interval and test at tau reads the same one; a
    level whose fit raises is not kept, and raises again on the next call.
    """
    fits = sample._fits
    if tau not in fits:
        fits[tau] = _fit_sorted(sample.sorted_columns, sample._laws_sums, tau, RAISE)
    return fits[tau]


def m_function(x: float) -> float:
    """(1-x)^{-1} - log(x^{-1} - 1), the expectile log-derivative factor."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"m(x) requires x in (0,1), got {x}")
    return 1.0 / (1.0 - x) - math.log(1.0 / x - 1.0)
