"""Asymptotic covariance and bias machinery for joint expectile inference.

Theoretical matrices are exact functionals of the tail indices and a tail
copula oracle; by the oracle's homogeneity each of their integrals over
[1,inf)^2 is one 1-D quadrature (``numerics.integrate_tail_box``).
Estimated matrices plug the marginal estimators and the empirical tail
copula into the same displays, read from the fit that
``marginal.estimate_margins`` keeps on the sample, so one (sample, tau) is
fitted once however many of them read it.  Every theoretical builder
returns the symmetrized, PSD-clipped :class:`~tailjoint.numerics.SpdMatrix`
it builds.  The plug-in covariance of the LAWS or QB estimators, at either
level, naive or not, has one entry point, ``inference.estimate_covariance``,
built and checked by the dispatch of the regions, intervals and tests
(``inference._estimate``).  The plug-ins public here are the raw (Hill,
LAWS) array ``estimate_sigma_laws`` and the QB bias ``estimate_bias_qb``,
an array of per-margin components.

Every covariance of the LAWS, QB and Weissman estimators but the naive
diagonals is one contraction W Sigma W^T (``_contract``) of the joint
covariance Sigma of (Hill_j, X_j) over the margins, X the intermediate LAWS
(``_sigma_laws``) or quantile (``_sigma_q_blocks``) estimator, with weights
(wh_j, wx_j) per margin (``inference._estimate`` lists them).

Each plug-in Sigma is built for a stack of B samples at one level at once
(leading axis B, the fit as (B, d) arrays); a check that fails marks its
sample through an ``errors.Checks``.  A single sample is the stack of one
(``MultivariateSample._stack``) with ``errors.RAISE``, which raises the
first failure.

The n-long work reads the stack's column-major (B, d, n) rows
(``sample._Stack``): the values, the sorted values, the row order and the
ranks, so each margin's loop runs along one contiguous row.  The LAWS
residuals phi are built there, each margin's scaled by the power of two of
its xi-hat so that their Gram product phi phi^T cannot overflow or
underflow, and the Hill/LAWS cross terms gather each margin's top k rows
from them.

A scan over many levels of one sample, such as ``trace-scan``
(``_scan_v_star_laws``), fits every level at once and builds no
residuals.  The sets of rows that its sums run over (the values above
xi-hat, above q-hat, and R-hat(1,1)'s top ranks, of one margin or of two)
only gain rows as k grows, so every level's Gram entries, cross terms and
counts are prefix sums along the levels of sums over the rows by the level
at which they enter (``_nested_sums``): one pass over the panel per pair
of margins, whatever the number of levels.  The diagonals are the same
closed forms, and one batched SPD check serves all the levels, each
failing alone, with the first failure that ``estimate_covariance`` raises
for "laws" at that level.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import RAISE, Checks, DomainError, NumericError
from .marginal import _check_qb, _fit_sorted, _sum_shift, estimate_margins, m_function
from .numerics import SpdMatrix, _per_element, _spd_stack, integrate_1d_tail, integrate_tail_box
from .sample import MultivariateSample, effective_k
from .taildep import (
    OracleTailCopula, _r11_cut, _r11_matrix, _top_pairs, _unit_integral_matrix,
)


def _gammas(gammas, upper: float, what: str) -> np.ndarray:
    g = np.asarray(gammas, dtype=float).ravel()
    if g.size < 1:
        raise DomainError("need at least one tail index")
    if np.any(g <= 0.0) or np.any(g >= upper):
        raise DomainError(
            f"{what} undefined unless all tail indices lie in (0, {upper})"
        )
    return g


def _pair_oracle(oracle, j: int, ell: int) -> OracleTailCopula:
    """The oracle of the pair (j, ell): the one oracle of every pair, or the
    dict's entry under (j, ell) or (ell, j)."""
    if isinstance(oracle, OracleTailCopula):
        return oracle
    for pair in ((j, ell), (ell, j)):
        if pair in oracle:
            return oracle[pair]
    raise DomainError(f"no tail copula oracle for the pair ({j}, {ell})")


def _oracle_matrix(oracle, d: int, functional) -> np.ndarray:
    """The symmetric d x d matrix of a pair functional of the oracle, such
    as OracleTailCopula.r11 or .unit_integral, with a zero diagonal."""
    m = np.zeros((d, d))
    for j in range(d):
        for ell in range(j + 1, d):
            m[j, ell] = m[ell, j] = functional(_pair_oracle(oracle, j, ell))
    return m


_R11, _UNIT = OracleTailCopula.r11, OracleTailCopula.unit_integral


def _outer(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """a_j b_l (b = a by default), one d x d matrix per leading index."""
    return a[..., :, None] * (a if b is None else b)[..., None, :]


def _set_diagonal(m: np.ndarray, diag: np.ndarray) -> None:
    i = np.arange(m.shape[-1])
    m[..., i, i] = diag


def _hill_block(g: np.ndarray, r11: np.ndarray) -> np.ndarray:
    """Cov(Hill_j, Hill_l) = g_j g_l R_jl(1,1), with g_j^2 on the diagonal."""
    m = _outer(g) * r11
    _set_diagonal(m, g**2)
    return m


def _sigma_q_blocks(g: np.ndarray, r11: np.ndarray, unit: np.ndarray) -> np.ndarray:
    """The (Hill, intermediate quantile) covariance from R(1,1) and the unit
    integrals I: the Hill block on both diagonal blocks, and Cov(Hill_j, q_l)
    = g_j g_l (I[j,l] - R_jl(1,1)) off them, 0 at j = l."""
    hill, cross = _hill_block(g, r11), _outer(g) * (unit - r11)
    _set_diagonal(cross, 0.0)
    return _interleave(hill, cross, hill)


def _qb_weights(g: np.ndarray, log_dn: float | None = None):
    """The weights (wh, wx) of the QB estimators: (m(g), 1) at the
    intermediate level, ((m(g) + log dn)/log dn, 1/log dn) extrapolated; m is
    NaN where g lies outside (0, 1), whose sample the QB center fails."""
    m = _per_element(lambda x: m_function(x) if 0.0 < x < 1.0 else np.nan, g)
    return (m, 1.0) if log_dn is None else ((m + log_dn) / log_dn, 1.0 / log_dn)


def _contract(sigma: np.ndarray, wh, wx) -> np.ndarray:
    """W Sigma W^T: the covariance of the estimators wh_j Hill_j + wx_j X_j,
    sigma the interleaved covariance of (Hill_1, X_1, ..., Hill_d, X_d), one
    matrix per leading index, and the weights broadcast to (..., d).  The
    diagonal blocks' terms are summed first: a weight of 0 adds exact zeros,
    so (1, 0) gives the Hill block and (0, 1) the X block to the bit."""
    h, x = np.atleast_1d(wh, wx)
    hx = _outer(h, x)
    return (
        _outer(h) * sigma[..., 0::2, 0::2] + _outer(x) * sigma[..., 1::2, 1::2]
    ) + (hx * sigma[..., 0::2, 1::2] + np.swapaxes(hx, -1, -2) * sigma[..., 1::2, 0::2])


def _interleave(hill: np.ndarray, cross: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The 2d x 2d covariance of (Hill_1, X_1, ..., Hill_d, X_d) from its
    d x d blocks: Cov(Hill, Hill), Cov(Hill_j, X_l) at (j, l), and Cov(X, X);
    one matrix per leading index."""
    d = hill.shape[-1]
    m = np.empty(hill.shape[:-2] + (2 * d, 2 * d))
    m[..., 0::2, 0::2], m[..., 0::2, 1::2] = hill, cross
    m[..., 1::2, 0::2], m[..., 1::2, 1::2] = np.swapaxes(cross, -1, -2), other
    return m


def _theoretical_sigma_q(g: np.ndarray, oracle) -> np.ndarray:
    """The unchecked array of theoretical_sigma_q at checked tail indices."""
    return _sigma_q_blocks(g, *(_oracle_matrix(oracle, g.size, f) for f in (_R11, _UNIT)))


def theoretical_sigma_q(gammas, oracle) -> SpdMatrix:
    """2d x 2d covariance of (Hill, intermediate quantile) across margins.

    Coordinates are interleaved per margin: (gamma_1, q_1, gamma_2, q_2, ...).
    """
    g = _gammas(gammas, 1.0, "covariance formula")
    return SpdMatrix.from_array(
        _theoretical_sigma_q(g, oracle), "theoretical Hill/quantile covariance"
    )


def _sigma_laws_cross_diag(g: float) -> float:
    """Hill/LAWS cross term gamma^3 (gamma^{-1}-1)^gamma / (1-gamma)^2; NaN
    outside (0, 1), in a sample that _check_laws has failed."""
    return g**3 * (1.0 / g - 1.0) ** g / (1.0 - g) ** 2 if 0.0 < g < 1.0 else math.nan


def theoretical_sigma_laws(gammas, oracle) -> SpdMatrix:
    """2d x 2d covariance of (Hill, intermediate LAWS) across margins.

    Coordinates are interleaved per margin, as in theoretical_sigma_q.
    """
    g = _gammas(gammas, 0.5, "covariance formula")
    return SpdMatrix.from_array(
        _theoretical_sigma_laws(g, oracle), "theoretical Hill/LAWS covariance"
    )


def _cross_entry(orc: OracleTailCopula, gj: float, gl: float) -> float:
    """Cov(Hill_j, LAWS_l) of a pair of distinct margins: a double integral
    with a dx/x weight on the first axis minus a single tail integral in the
    second variable."""
    cl, al = 1.0 / gl - 1.0, 1.0 / gl
    double = integrate_tail_box(orc._formula, 1.0, cl, gj, gl, 1)
    # R(1, cl y^{-al}) kinks where its second argument is 1, for the
    # comonotone R.
    single = integrate_1d_tail(lambda y: orc._formula(1.0, cl * y**-al), cl**gl)
    return gl * double - gj * gl * single


def _theoretical_sigma_laws(g: np.ndarray, oracle) -> np.ndarray:
    """The unchecked array of theoretical_sigma_laws at checked tail
    indices, assembled as the plug-in's (``_sigma_blocks``).  The LAWS block
    has 2g^3/(1-2g) on its diagonal and, for each pair, gj gl times the
    integral over [1,inf)^2 of R(cj x^{-1/gj}, cl y^{-1/gl}), c = 1/g - 1;
    the pair's cross entries are ``_cross_entry``'s."""
    d = g.size
    r11 = _oracle_matrix(oracle, d, _R11)
    laws, cross = np.diag(2.0 * g**3 / (1.0 - 2.0 * g)), np.zeros((d, d))
    for j in range(d):
        for ell in range(j + 1, d):
            orc = _pair_oracle(oracle, j, ell)
            if orc.kind == "independent":
                continue  # R = 0: the pair's entries are 0
            cj, cl = 1.0 / g[j] - 1.0, 1.0 / g[ell] - 1.0
            laws[j, ell] = laws[ell, j] = g[j] * g[ell] * integrate_tail_box(
                orc._formula, cj, cl, g[j], g[ell], 0
            )
            cross[j, ell] = _cross_entry(orc, g[j], g[ell])
            cross[ell, j] = _cross_entry(orc, g[ell], g[j])
    return _sigma_blocks(g, laws, cross, r11)


def theoretical_v_star_laws(gammas, oracle, log_dn: float) -> SpdMatrix:
    """Finite-n covariance of the LAWS extrapolating estimators (log scale):
    the contraction of the theoretical (Hill, LAWS) covariance, of which
    only the result is checked."""
    g = _gammas(gammas, 0.5, "covariance formula")
    if not log_dn > 0.0:
        raise DomainError("contraction requires log d_n > 0")
    return SpdMatrix.from_array(
        _contract(_theoretical_sigma_laws(g, oracle), 1.0, 1.0 / log_dn),
        "theoretical star-LAWS covariance",
    )


def theoretical_v_star_qb(gammas, oracle, log_dn: float) -> SpdMatrix:
    """Finite-n covariance of the QB extrapolating estimators (log scale)."""
    g = _gammas(gammas, 1.0, "covariance formula")
    if not log_dn > 0.0:
        raise DomainError("star-QB covariance requires log d_n > 0")
    return SpdMatrix.from_array(
        _contract(_theoretical_sigma_q(g, oracle), *_qb_weights(g, log_dn)),
        "theoretical star-QB covariance",
    )


def _one(sample: MultivariateSample, tau: float):
    """The sample as a stack of one, and its fit at tau as (1, d) arrays:
    gamma-hat, q-hat and xi-hat LAWS."""
    fit = estimate_margins(sample, tau)
    return sample._stack, fit.gamma_hat[None], fit.q_hat[None], fit.xi_laws[None]


def _check_laws(g, checks) -> None:
    """Fail each entry with a Hill estimate outside (0, 1/2), where the LAWS
    covariance is undefined."""
    checks(
        g >= 0.5,
        lambda j: DomainError(
            "tail too heavy for LAWS variance (Hill estimate >= 1/2) -- use QB"
        ),
    )
    checks(g <= 0.0, lambda j: DomainError("LAWS variance requires positive Hill estimates"))


def _v_laws_raw(st, g, q, xi, tau: float, checks) -> tuple[np.ndarray, np.ndarray]:
    """Unclipped intermediate LAWS covariance of each of the B samples of
    the stack st at level tau, with the fit (g, q, xi), and its Hill/LAWS
    cross terms, whose diagonal ``_sigma_laws`` replaces by the closed form.
    The Hill estimates are checked before any n-long work, which runs on
    the column-major rows of st: the asymmetric residuals phi, read by their
    Gram product and by the cross terms (``_hill_laws_cross``).

    Margin j's residuals are scaled by 2^-e_j, with xi_j = m_j 2^e_j, and
    its xi by the same power, to m_j: the Gram product neither overflows
    nor underflows at any scale of the data, and, power-of-two scaling
    being exact, every entry is the unscaled formula's to the bit."""
    _check_laws(g, checks)
    n = st.n
    mant, power = np.frexp(xi)
    surv = (st.sorted_columns > xi[..., None]).sum(axis=-1)
    # phi_tau(y) = (1 - tau) y, or tau y above xi: where the rank is above
    # n - surv.  Built in place, from y = (x - xi) 2^-e.
    phi = st.columns - xi[..., None]
    phi *= np.ldexp(1.0, -power)[..., None]
    phi *= np.where(st.ranks > n - surv[..., None], tau, 1.0 - tau)
    mbar = phi @ np.swapaxes(phi, -1, -2) / n
    cross = _hill_laws_cross(st, phi, q, g, effective_k(n, tau))
    return _laws_blocks(g, mbar, cross, surv, tau, mant, n)


def _laws_blocks(g, mbar, cross, surv, tau, mant, n: int):
    """The LAWS covariance and the Hill/LAWS cross terms of each entry from
    the Gram product mbar of its residuals scaled by the powers of two that
    take xi to mant, and the numerators of the cross terms, from the same
    residuals: their off-diagonals.  The diagonal of the covariance is the
    closed form in the survival counts surv (the number of each margin's
    values above xi).  tau is one level or an (L, 1) array of them."""
    omt = 1.0 - tau
    cross /= np.expand_dims(omt, -1) * mant[..., None, :]
    surv = surv / n
    diag = (
        2.0 * g**2 / (1.0 - 2.0 * g)
        * (1.0 + surv / omt)
        / (1.0 + (2.0 * tau - 1.0) * surv / omt) ** 2
    )
    m = _outer(g)
    m *= mbar
    m /= np.expand_dims(omt, -1) * _outer(mant)
    _set_diagonal(m, diag)
    return m, cross


def _bias_qb(st, g, q, tau: float, checks) -> np.ndarray:
    """The QB bias components of each sample of the stack st (see
    estimate_bias_qb)."""
    _check_qb(g, checks)  # where the factor (1/g - 1)^g below is undefined
    # Summed over the row-major values, in row order: a sum along the
    # column-major rows would be pairwise, and differ in its last bits.  A
    # margin whose sum would overflow is scaled down, and its q with it.
    values, shift = st.values, _sum_shift(st.sorted_columns)
    if shift.any():
        values, q = np.ldexp(values, -shift[..., None, :]), np.ldexp(q, -shift)
    means = values.mean(axis=-2)
    root = math.sqrt(st.n * (1.0 - tau))
    # q-hat is the Hill threshold order statistic, which the fit has
    # already required to be positive.
    comps = -g * (1.0 / g - 1.0) ** g * means * root / q
    checks(~np.isfinite(comps), lambda j: DomainError("bias components must be finite"))
    return comps


def estimate_bias_qb(sample: MultivariateSample, tau: float) -> np.ndarray:
    """First-order bias of the QB estimator, one component per margin:
    -gamma (gamma^{-1}-1)^gamma Xbar sqrt(n(1-tau)) / q-hat."""
    st, g, q, _ = _one(sample, tau)
    return _bias_qb(st, g, q, tau, RAISE)[0]


def _sigma_q(st, g, tau: float) -> np.ndarray:
    """Plug-in (Hill, quantile) covariance of each sample of the stack st:
    _sigma_q_blocks read from the ranks, through one ``_top_pairs`` mask."""
    top = _top_pairs(st, tau)
    return _sigma_q_blocks(g, _r11_matrix(top, st.n, tau), _unit_integral_matrix(top, st.n, tau))


def _sigma_laws(st, g, q, xi, tau: float, checks) -> np.ndarray:
    """Raw plug-in (Hill, LAWS) covariance of each sample of the stack st
    (see estimate_sigma_laws)."""
    vlaws, cross = _v_laws_raw(st, g, q, xi, tau, checks)
    return _sigma_blocks(g, vlaws, cross, _r11_matrix(_top_pairs(st, tau), st.n, tau))


def _sigma_blocks(g, vlaws, cross, r11) -> np.ndarray:
    """The (Hill, LAWS) covariance from its LAWS block, the Hill/LAWS cross
    terms, whose diagonal this replaces by the closed form, and R(1,1):
    the plug-in's from R-hat, and the theoretical one's from the oracle."""
    _set_diagonal(cross, _per_element(_sigma_laws_cross_diag, g))
    return _interleave(_hill_block(g, r11), cross, vlaws)


def estimate_sigma_laws(sample: MultivariateSample, tau: float) -> np.ndarray:
    """Raw 2d x 2d plug-in estimate of the joint (Hill, LAWS) covariance.

    Coordinates are interleaved per margin.  Returned unclipped so that the
    log d_n contraction is an exact linear function of these blocks.
    """
    return _sigma_laws(*_one(sample, tau), tau, RAISE)[0]


def _hill_laws_cross(st, phi, thresholds, g, k: int) -> np.ndarray:
    """Numerators of the empirical Cov(Hill_j, LAWS_l) for every pair (j, l)
    of each of the B samples of the stack st, from their (B, d, n)
    residuals phi, at one effective size k.

    Entry (j, l) is g_l times the mean of margin j's log-excesses over its
    threshold times margin l's asymmetric residual, minus g_j g_l times the
    mean of the exceedance indicator times that residual.  The threshold is
    margin j's (k+1)-th largest value, so its exceedances are among its top
    k order statistics; the ones tied with it add a zero log-excess and are
    left out of the indicator.  So margin j's row of means is one product
    of those k log-excesses with the residuals of the rows they sit in, and
    one sum of those residuals; the log is taken only on the top k.
    """
    b, d, n = phi.shape
    # phi[b, l, r] of margin j's top k rows r, gathered by flat index.
    first = np.arange(b)[:, None] * (d * n) + np.arange(d) * n  # (B, d): row starts
    top = phi.ravel()[st.order[..., n - k :, None] + first[:, None, None, :]]  # (B, d, k, d)
    values, q = st.sorted_columns[..., n - k :], thresholds[..., None]
    s1 = (np.log(values / q)[..., None, :] @ top)[..., 0, :]
    s2 = np.where((values > q)[..., None], top, 0.0).sum(axis=-2)
    return g[..., None, :] * (s1 / n) - _outer(g) * (s2 / n)


def _scan_v_star_laws(sample: MultivariateSample, levels: list) -> list:
    """The star-LAWS covariance of the sample at each TailLevelPair of
    levels, in ascending k: its checked entries, or the TailjointError of
    the first check it fails, the one that ``inference.estimate_covariance``
    raises for "laws" at that level.

    The levels are fitted at once, and not kept on the sample; their (Hill,
    LAWS) matrices come from ``_nested_sums``, which refuses levels out of
    order, and one ``_spd_stack`` checks them, each level failing alone.
    """
    if not levels:
        return []
    tau = np.array([[lv.tau] for lv in levels])
    log_dn = np.array([[lv.log_dn] for lv in levels])
    checks = Checks(len(levels))
    with np.errstate(all="ignore"):
        fit = _fit_sorted(sample.sorted_columns, tau, checks)
        g = fit.gamma_hat
        _check_laws(g, checks)
        sigma = _sigma_blocks(g, *_nested_sums(sample, g, fit.q_hat, fit.xi_laws, tau))
        m = _spd_stack(_contract(sigma, 1.0, 1.0 / log_dn), "star-LAWS covariance", checks).entries
    return [m[row] if error is None else error for row, error in enumerate(checks.first)]


def _nested_sums(sample: MultivariateSample, g, q, xi, tau):
    """``_v_laws_raw``'s LAWS block and cross terms, and R-hat(1,1), of the
    sample at each of an (L, 1) array of levels tau in ascending k (falling
    tau), given their (L, d) fit, from sums over nested sets of rows.

    Each sum runs over one of three sets of a margin j, or over the rows
    that two of them share: A_j, the values above xi_j, where phi's weight
    is tau and not 1 - tau; T_j, the values above q_j, the rows whose
    log-excess the cross terms read; and R-hat's top ranks.  Their cut-offs
    fall as k grows, so each set only gains rows: a row enters it at one
    level (``_entries``), and a set shared by two margins at the later of
    its two.  With phi's weight split as (1 - tau) + (2 tau - 1) 1{A}, each
    Gram entry and cross numerator is a sum over such sets of a product of
    residuals y - delta or of log x_j - log q_j, expanded into sums of
    products, of single terms and counts (``_set_sums``): one ``bincount``
    of the rows that enter by the last level, by entry level, and one
    ``cumsum`` along the levels for all four, whatever the number of
    levels.  The pairs of margins run one at a time.

    Margin j is scaled once by the power of two 2^-e_j that takes its
    largest |x| to [1/2, 1), and centred on its scaled xi c_j at the middle
    level: y = x 2^-e_j - c_j, and delta = xi 2^-e_j - c_j at each level.
    So no product overflows or underflows at any scale of the data, and
    the expansion loses no more than the spread of xi over the levels
    allows.  The survival counts and R-hat's counts are integers, exact.
    A cut-off sequence that does not fall, such as an xi-hat that rises
    with k, raises NumericError."""
    n, d, levels = sample.n, sample.d, len(tau)
    x = sample._stack.columns[0]
    scale = np.ldexp(1.0, -np.frexp(np.abs(x).max(axis=-1))[1])
    mant, log_q = xi * scale, np.log(q * scale)
    centre = mant[levels // 2]
    y, delta = x * scale[:, None] - centre[:, None], mant - centre
    above = [_entries(xi[:, j], x[j], "LAWS expectiles") for j in range(d)]
    over = [_entries(q[:, j], x[j], "Hill thresholds") for j in range(d)]
    cut = _r11_cut(n, tau[:, 0])
    top = [_entries(cut - 1, r, "tail copula cut-offs") for r in sample._stack.ranks[0]]
    surv = np.stack([_prefix(e, levels) for e in above], axis=-1)

    a, b = 1.0 - tau[:, 0], 2.0 * tau[:, 0] - 1.0
    gram, cross, r11 = (np.zeros((levels, d, d)) for _ in range(3))
    everyone = np.zeros(n, dtype=np.intp)
    for j in range(d):
        logs = np.log(x[j] * scale[j])
        for ell in range(d):
            if ell == j:
                continue
            # Over T_j, and over T_j and A_ell: the sums of (log x_j -
            # log q_j)(y_ell - delta_ell), and of y_ell - delta_ell.
            over_j, both = (
                _set_sums(e, logs, y[ell], log_q[:, j], delta[:, ell], levels)
                for e in (over[j], np.maximum(over[j], above[ell]))
            )
            s1, s2 = (a * t + b * u for t, u in zip(over_j, both))
            cross[:, j, ell] = g[:, ell] * (s1 / n) - g[:, j] * g[:, ell] * (s2 / n)
            if ell < j:
                continue
            # Over every row, A_j, A_ell and both: the sums of
            # (y_j - delta_j)(y_ell - delta_ell).
            s_all, s_j, s_ell, s_both = (
                _set_sums(e, y[j], y[ell], delta[:, j], delta[:, ell], levels)[0]
                for e in (everyone, above[j], above[ell], np.maximum(above[j], above[ell]))
            )
            gram[:, j, ell] = gram[:, ell, j] = (
                a * a * s_all + a * b * (s_j + s_ell) + b * b * s_both
            )
            r11[:, j, ell] = r11[:, ell, j] = _prefix(np.maximum(top[j], top[ell]), levels)
    gram /= n
    r11 /= np.expand_dims(n * (1.0 - tau), -1)
    return (*_laws_blocks(g, gram, cross, surv, tau, mant, n), r11)


def _entries(cuts, x, what: str) -> np.ndarray:
    """The level at which each value of x enters the sets {x > cut} of a
    sequence of levels, whose cut-offs cuts fall or stay: the first level
    whose cut-off is below it, or len(cuts) for none."""
    if np.any(cuts[1:] > cuts[:-1]):
        raise NumericError(f"{what} rise with k: the scan's tail sets are not nested")
    return np.searchsorted(-cuts, -x, side="right").astype(np.int32)


def _prefix(entry, levels: int) -> np.ndarray:
    """The integer count of the rows that have entered by each of the
    levels, given each row's entry level (levels for never)."""
    return np.cumsum(np.bincount(entry[entry < levels], minlength=levels))


def _set_sums(entry, u, v, mu, nu, levels: int):
    """The sums of (u - mu)(v - nu) and of v - nu over the rows that have
    entered by each of the levels (``_prefix``), with u and v per row and
    mu and nu per level.  The four weights u v, u, v and 1 of the rows that
    enter are binned by one bincount, each in its own run of levels bins;
    a bin sums its rows in row order, as a bincount of every row does."""
    rows = np.flatnonzero(entry < levels)
    e, u, v = entry[rows], u[rows], v[rows]
    bins = np.concatenate((e, e + levels, e + 2 * levels, e + 3 * levels))
    weights = np.concatenate((u * v, u, v, np.ones_like(u)))
    sums = np.bincount(bins, weights, minlength=4 * levels).reshape(4, levels)
    uv, su, sv, count = np.cumsum(sums, axis=1)
    return uv - nu * su - mu * sv + mu * nu * count, sv - nu * count
