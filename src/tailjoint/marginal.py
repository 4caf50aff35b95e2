"""Univariate tail estimators: LAWS expectiles, Hill index, QB expectiles,
Weissman quantiles and their extrapolated versions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RAISE, DomainError, LevelError
from .numerics import _per_element
from .sample import _read_only, effective_k


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
    return float(_laws_sorted(_sorted_row(column), tau)[0])


def _sums_sorted(xs: np.ndarray, start: int = 0) -> tuple:
    """The tau-free parts of the LAWS estimating function of each ascending
    row of the 2-D array xs: the cumulative sums cum of each whole row, and
    A and B at its positions from start on.

    With above and below the numbers of points strictly above and at or
    below position i, these are

        A_i = (cum_n - cum_i) - above_i x_i,   B_i = cum_i - below_i x_i,

    so that psi_tau(x_i) = tau A_i + (1 - tau) B_i at every level tau.  Each
    entry is computed on its own, so a window's are the whole row's.
    """
    n = xs.shape[1]
    cum = np.cumsum(xs, axis=1)
    below = np.arange(start + 1, n + 1)
    above = n - below
    x = xs[:, start:]
    # In place, as in _breakpoints: a Monte Carlo stack's rows make each
    # temporary hundreds of KB, and fewer of them keep the heap from
    # growing and being trimmed again (page faults) on every stack.
    a = cum[:, -1:] - cum[:, start:]
    a -= above * x
    b = below * x
    np.subtract(cum[:, start:], b, out=b)
    return cum, a, b


def _laws_sorted(xs: np.ndarray, tau) -> np.ndarray:
    """LAWS expectile of each ascending row of the 2-D array xs: one per row
    at a level tau, or (L, R) for an (L, 1) array of levels and R rows.

    The estimating function psi(theta) = sum phi_tau(x_i - theta) is
    continuous, strictly decreasing and piecewise linear with breakpoints at
    the observations, and its value at each of them is tau A + (1 - tau) B
    (``_sums_sorted``).
    The root is located by the first breakpoint where psi <= 0 and solved
    in closed form on the segment below it.  At one level that breakpoint
    is searched on a certified tail window of each row (``_breakpoint``);
    the breakpoints of several levels come from one search over the levels
    (``_breakpoints``), not from a pass over the rows per level.
    """
    levels = np.ravel(np.asarray(tau, dtype=float))
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise DomainError(f"expectile level must be in (0,1), got {tau}")
    shift = _sum_shift(xs)
    if shift.any():
        return np.ldexp(_laws_sorted(np.ldexp(xs, -shift[:, None]), tau), shift)
    n = xs.shape[1]
    rows = np.arange(xs.shape[0])
    if len(levels) == 1:
        cum, m = _breakpoint(xs, levels[0])
    else:
        cum, a, b = _sums_sorted(xs)
        m = _breakpoints(a, b, levels)
    m = m.reshape(np.shape(tau)[:-1] + rows.shape)
    # psi at the breakpoint, from the products that the search compared.
    x_m, s_lo = xs[rows, m], cum[rows, m - 1]
    a_m = (cum[:, -1] - cum[rows, m]) - (n - 1 - m) * x_m
    b_m = cum[rows, m] - (m + 1) * x_m
    at_point = (m == 0) | (tau * a_m + (1.0 - tau) * b_m == 0.0)
    # Otherwise the root lies in (xs[m-1], xs[m]); on that segment m points
    # sit at or below.  Rounding can put num / den just outside the segment
    # (a constant row's root is then off its value, and not monotone in
    # tau), so it is clamped to it.
    s_hi = cum[:, -1] - s_lo
    num = tau * s_hi + (1.0 - tau) * s_lo
    den = tau * (n - m) + (1.0 - tau) * m
    root = np.clip(num / den, xs[rows, m - 1], x_m)
    return np.where(at_point, x_m, root)


def _breakpoint(xs: np.ndarray, t: float, start: int | None = None):
    """The cumulative sums of each ascending row of xs, and its breakpoint
    at the level t: ``argmax(psi <= 0)`` over the whole row, searched on
    the row's last W = 5 floor(n(1 - t)) + 8 positions when W < n/2.

    The psi of the exact A and B, t A + u B with u = fl(1 - t), never rises
    along an ascending row, as neither A nor B does.  The rounded psi is
    within E = 8 n^2 eps M + 2^-1072 of it everywhere, with M the row's
    largest |x| and eps = 2^-52.  The cumulative sums are within
    gamma_{n-1} n M of theirs, in any order of summation (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sec. 4.2); A and B add
    4 eps n M / 2 and 3 eps n M / 2 in their subtractions and integer
    products, which cannot underflow; as |A| + |B| <= 2 n M, the products
    by t and u and their sum add 2 eps n M and at most 2^-1074 in
    underflow.  In all, 3 gamma_{n-1} n M + 11 eps n M / 2 + 2^-1074, at
    most 3.5 eps n^2 M + 2^-1074 for n >= 2: E has twice that margin.  So
    where the window holds a rounded psi <= 0 and its first rounded psi
    exceeds 2E, every earlier position has exact psi above E and rounded
    psi above 0, and the window's breakpoint is the row's.  Every other
    row (NaN or infinite, constant, with its root below the window or too
    close to certify) is searched whole."""
    n = xs.shape[1]
    if start is None:
        width = 5 * math.floor(n * (1.0 - t)) + 8
        start = n - width if 2 * width < n else 0
    cum, a, b = _sums_sorted(xs, start)
    psi = t * a
    psi += (1.0 - t) * b
    hit = psi <= 0.0
    m = np.argmax(hit, axis=1)
    if start:
        bound = math.ldexp(n * n, -48) * np.maximum(-xs[:, 0], xs[:, -1]) + 2.0**-1071
        whole = ~(hit[np.arange(len(m)), m] & (psi[:, 0] > bound))
        m += start
        if whole.any():
            m[whole] = _breakpoint(xs[whole], t, 0)[1]
    return cum, m


def _sum_shift(xs: np.ndarray) -> np.ndarray:
    """The power of two that scales each ascending row of xs (..., n) down,
    exactly, so that any sum of 2n of its values is finite: 0 unless its
    largest |x| is within a factor 2n of the float maximum."""
    top = np.maximum(-xs[..., 0], xs[..., -1])
    return np.maximum(0, np.frexp(top)[1] + xs.shape[-1].bit_length() - 1022)


def _breakpoints(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``argmax(psi <= 0, axis=1)`` with psi = t a + (1 - t) b, at each of
    the 1-D array of levels t, as (L, R): the first position of each row
    where psi <= 0, or 0 where there is none.

    Where a >= 0 and b <= 0 the rounded psi cannot decrease as t grows:
    each rounded product is monotone in its rounded factor t or 1 - t, and
    the rounded sum in its terms.  So at such a point psi <= 0 holds on a
    prefix of the ascending levels, whose length c one binary search over
    the levels finds for every point together; the breakpoint at the l-th
    smallest level is the first position whose running max of c exceeds l.
    The other points, where rounding puts a or b across zero (as in a
    constant column) or either is NaN, are evaluated at every level.
    """
    size, (r, n) = len(t), a.shape
    order = np.argsort(t, kind="stable")
    # The ascending levels, padded with NaN, where psi <= 0 fails, to 2^p - 1.
    steps = [1 << p for p in reversed(range(size.bit_length()))]
    ts = np.full(2 * steps[0] - 1, np.nan)
    ts[:size] = t[order]
    us = 1.0 - ts
    c = np.zeros(a.shape, dtype=np.intp)
    for step in steps:
        i = c + (step - 1)
        np.add(c, step, out=c, where=ts[i] * a + us[i] * b <= 0.0)
    off = ~((a >= 0.0) & (b <= 0.0))
    c[off] = 0
    # The running max, offset by row so that one searchsorted serves all.
    row = np.arange(r)[:, None]
    top = np.maximum.accumulate(c, axis=1) + (size + 1) * row
    queries = np.arange(size) + (size + 1) * row
    m = np.searchsorted(top.ravel(), queries.ravel(), side="right").reshape(r, size)
    m = (m - n * row).T
    if off.any():
        at, pos = np.nonzero(off)
        first = np.flatnonzero(np.r_[True, at[1:] != at[:-1]])
        hit = ts[:size, None] * a[off] + us[:size, None] * b[off] <= 0.0
        pos = np.minimum.reduceat(np.where(hit, pos, n), first, axis=1)
        m[:, at[first]] = np.minimum(m[:, at[first]], pos)
    m[m == n] = 0  # no point with psi <= 0: argmax gives 0
    out = np.empty_like(m)
    out[order] = m
    return out


def _quantile_sorted(xs: np.ndarray, tau) -> np.ndarray:
    """The intermediate order statistic of each ascending row of xs, at a
    level tau or, as (L, R), at each of an (L, 1) array of levels, whose
    effective sizes ``_hill_sorted`` has checked to lie in [1, n - 1]."""
    n = xs.shape[1]
    return xs[np.arange(xs.shape[0]), n - effective_k(n, tau) - 1]


def _check_hill_size(n: int, k: int) -> None:
    if not 1 <= k <= n - 1:
        raise LevelError(f"Hill effective size k={k} outside [1, {n - 1}]")


def _hill_sorted(xs: np.ndarray, k, checks) -> np.ndarray:
    """Hill estimate of each ascending row of xs: at an effective size k, or,
    as (L, R), at each of an (L, 1) array of sizes.  A row whose threshold
    order statistic is not positive fails its sample or level (see
    errors.Checks).  Each estimate is the mean over exactly its own top k,
    summed as np.mean sums it and divided by k."""
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
        np.add.reduce(np.log(xs[:, n - size :] / t[:, None]), axis=1) / size
        for size, t in zip(ks, thresholds)
    ])
    return gamma.reshape(np.shape(k)[:-1] + xs.shape[:1])


def qb_factor(gamma: float) -> float:
    """(gamma^{-1} - 1)^{-gamma}, the expectile/quantile proportionality."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"QB factor undefined for tail index {gamma}")
    return (1.0 / gamma - 1.0) ** -gamma


def _check_qb(g: np.ndarray, checks) -> None:
    """Fail each sample with an entry of g outside (0, 1), where qb_factor
    is undefined, named by its first such entry."""
    ok = (g > 0.0) & (g < 1.0)
    checks(~ok, lambda j: DomainError(f"QB factor undefined for tail index {g.flat[j]}"))


def _qb_factors(g: np.ndarray, checks) -> np.ndarray:
    """qb_factor of every entry of g, NaN where _check_qb fails it."""
    _check_qb(g, checks)
    return _per_element(lambda x: qb_factor(x) if 0.0 < x < 1.0 else np.nan, g)


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

    def _extrapolated(self, tau_prime: float, base: np.ndarray) -> np.ndarray:
        """base times each margin's factor ((1 - tau_prime)/(1 - tau))^-gamma,
        inf where the product overflows."""
        if not 0.0 < self.tau <= tau_prime < 1.0:
            raise LevelError(
                f"extrapolation requires tau <= tau_prime in (0,1), "
                f"got {self.tau}, {tau_prime}"
            )
        ratio = (1.0 - tau_prime) / (1.0 - self.tau)
        factors = _per_element(lambda x: _power(ratio, -x), self.gamma_hat)
        with np.errstate(over="ignore"):
            return factors * base

    def weissman_quantiles(self, tau_prime: float) -> np.ndarray:
        """Weissman extrapolated quantiles at level tau_prime, per margin."""
        return self._extrapolated(tau_prime, self.q_hat)

    def xi_star_laws(self, tau_prime: float) -> np.ndarray:
        """LAWS-extrapolated expectiles at level tau_prime, per margin."""
        return self._extrapolated(tau_prime, self.xi_laws)

    def xi_star_qb(self, tau_prime: float, checks=RAISE) -> np.ndarray:
        """QB-extrapolated expectiles at level tau_prime, per margin."""
        quantiles = self.weissman_quantiles(tau_prime)
        factors = _qb_factors(self.gamma_hat, checks)
        with np.errstate(over="ignore"):
            return factors * quantiles


def _power(base: float, x: float) -> float:
    """base**x in Python floats, inf where it overflows."""
    try:
        return base**x
    except OverflowError:
        return math.inf


def _fit_sorted(xs: np.ndarray, tau, checks) -> MarginalTailEstimates:
    """The fit at level tau of each ascending row of xs, of any shape
    (..., n), in read-only arrays of shape xs.shape[:-1]: a sample's d
    margins, or a stack's (B, d).  The rows are fitted as one flat (-1, n)
    array, in that order, each failing through checks; a finite level
    outside (0, 1) raises first.  For an (L, 1) array of levels tau the
    arrays gain a leading axis of L, each level's exactly as a call at that
    level alone gives it."""
    t = np.asarray(tau, dtype=float)
    if np.any(np.isfinite(t) & ((t <= 0.0) | (t >= 1.0))):
        raise LevelError(f"tau must be in (0,1), got {tau}")
    n = xs.shape[-1]
    rows = xs.reshape(-1, n)
    gamma = _hill_sorted(rows, effective_k(n, tau), checks)
    q = _quantile_sorted(rows, tau)
    xi = _laws_sorted(rows, tau)
    shape = np.shape(tau)[:-1] + xs.shape[:-1]
    gamma, q, xi = (_read_only(a.reshape(shape)) for a in (gamma, q, xi))
    return MarginalTailEstimates(tau, gamma, q, xi)


def fit_column(column, tau: float) -> MarginalTailEstimates:
    """The fit of one column at level tau, as arrays of one margin: the Hill
    index, the intermediate quantile and the LAWS expectile, from which the
    QB expectile and the Weissman, LAWS and QB extrapolations are read."""
    return _fit_sorted(_sorted_row(column), tau, RAISE)


def estimate_margins(sample, tau: float) -> MarginalTailEstimates:
    """Hill, intermediate quantile and both expectile estimators per column,
    read from the sample's cached order statistics.

    The fit is computed once per (sample, tau) and kept on the sample, so
    every estimator, region, interval and test at tau reads the same one; a
    level whose fit raises is not kept, and raises again on the next call.
    """
    fits = sample._fits
    if tau not in fits:
        fits[tau] = _fit_sorted(sample.sorted_columns, tau, RAISE)
    return fits[tau]


def m_function(x: float) -> float:
    """(1-x)^{-1} - log(x^{-1} - 1), the expectile log-derivative factor."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"m(x) requires x in (0,1), got {x}")
    return 1.0 / (1.0 - x) - math.log(1.0 / x - 1.0)
