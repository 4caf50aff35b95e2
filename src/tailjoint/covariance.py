"""Asymptotic covariance and bias machinery for joint expectile inference.

Theoretical matrices are exact functionals of the tail indices and a tail
copula oracle; by the oracle's homogeneity each of their integrals over
[1,inf)^2 is one 1-D integral, and a pair's share one ``_pair_entries`` pass.
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
(wh_j, wx_j) per margin (``inference._estimate`` lists them).  The builders
hold Sigma as its d x d (Hill, cross, X) blocks, which the contraction
reads; only the public 2d x 2d getters interleave them (``_interleave``).

Each plug-in Sigma is built for a stack of B samples at one level at once
(leading axis B, the fit as (B, d) arrays); a check that fails marks its
sample through an ``errors.Checks``.  A single sample is the stack of one
(``MultivariateSample._stack``) with ``errors.RAISE``, which raises the
first failure.

The n-long work reads the stack's column-major (B, d, n) rows
(``sample._Stack``): the values, the sorted values and the row order of
each margin's top rows that its level reads (``sample._ordered_rows``;
no ranks), so each margin's loop runs along one contiguous row.  The
LAWS residuals phi are built there, each margin's scaled by the power of
two of its xi-hat so that their Gram product phi phi^T cannot overflow or
underflow, and the Hill/LAWS cross terms gather each margin's top k rows
from them.

A scan over many levels of one sample, such as ``trace-scan``
(``_scan_traces``), fits every level at once and reads only each level's
trace: the per-margin variances, closed forms in the fit and each
margin's survival count, with one batched SPD check of their diagonal
matrices for all the levels.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import RAISE, Checks, DomainError
from .marginal import _check_qb, _fit_sorted, _sum_shift, estimate_margins, m_function
from .numerics import _QUAD_TOL, SpdMatrix, _de_integral, _per_element, _spd_stack, _tail_box
from .sample import MultivariateSample, _row_starts, effective_k
from .taildep import OracleTailCopula, _r11_matrix, _top_pairs, _unit_integral_matrix

_G_MIN = 1.0 / np.finfo(float).max  # 1/gamma overflows at or below it


def _gammas(gammas, upper: float, what: str) -> np.ndarray:
    g = np.asarray(gammas, dtype=float).ravel()
    if g.size < 1:
        raise DomainError("need at least one tail index")
    if not ((_G_MIN < g) & (g < upper)).all():  # one in-range mask, false at NaN
        raise DomainError(f"{what} undefined unless all tail indices lie in (0, {upper}), "
                          "1/gamma finite")
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


def _diagonal(diag: np.ndarray) -> np.ndarray:
    """The diagonal matrix of each row of diag (..., d)."""
    return diag[..., None] * np.eye(diag.shape[-1])


def _hill_block(g: np.ndarray, r11: np.ndarray) -> np.ndarray:
    """Cov(Hill_j, Hill_l) = g_j g_l R_jl(1,1), with g_j^2 on the diagonal."""
    m = _outer(g) * r11
    _set_diagonal(m, g**2)
    return m


def _sigma_q_blocks(g: np.ndarray, r11: np.ndarray, unit: np.ndarray) -> tuple:
    """The blocks of the (Hill, intermediate quantile) covariance from R(1,1)
    and the unit integrals I: the Hill block on both diagonal blocks, and
    Cov(Hill_j, q_l) = g_j g_l (I[j,l] - R_jl(1,1)) off them, 0 at j = l."""
    hill, cross = _hill_block(g, r11), _outer(g) * (unit - r11)
    _set_diagonal(cross, 0.0)
    return hill, cross, hill


def _qb_weights(g: np.ndarray, log_dn: float | None = None):
    """The weights (wh, wx) of the QB estimators: (m(g), 1) at the
    intermediate level, ((m(g) + log dn)/log dn, 1/log dn) extrapolated; m is
    NaN where g lies outside (0, 1), whose sample the QB center fails."""
    m = _per_element(lambda x: m_function(x) if 0.0 < x < 1.0 else np.nan, g)
    return (m, 1.0) if log_dn is None else ((m + log_dn) / log_dn, 1.0 / log_dn)


def _contract(hill, cross, other, wh, wx) -> np.ndarray:
    """W Sigma W^T: the covariance of the estimators wh_j Hill_j + wx_j X_j
    from the d x d blocks of Sigma: Cov(Hill, Hill), Cov(Hill_j, X_l) at
    (j, l) and Cov(X, X), one matrix per leading index, with the weights
    broadcast to (..., d); the cross block enters as P + P^T, P = wh_j wx_l
    cross_jl.  The diagonal blocks' terms are summed first: a weight of 0
    adds exact zeros, so (1, 0) gives the Hill block and (0, 1) the X block."""
    h, x = np.atleast_1d(wh, wx)
    p = _outer(h, x) * cross
    return (_outer(h) * hill + _outer(x) * other) + (p + np.swapaxes(p, -1, -2))


def _interleave(hill: np.ndarray, cross: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The 2d x 2d covariance of (Hill_1, X_1, ..., Hill_d, X_d) from its
    d x d blocks: Cov(Hill, Hill), Cov(Hill_j, X_l) at (j, l), and Cov(X, X);
    one matrix per leading index.  Only the public 2d x 2d getters build it."""
    d = hill.shape[-1]
    m = np.empty(hill.shape[:-2] + (2 * d, 2 * d))
    m[..., 0::2, 0::2], m[..., 0::2, 1::2] = hill, cross
    m[..., 1::2, 0::2], m[..., 1::2, 1::2] = np.swapaxes(cross, -1, -2), other
    return m


def _theoretical_sigma_q(g: np.ndarray, oracle) -> tuple:
    """The unchecked blocks of theoretical_sigma_q at checked tail indices."""
    return _sigma_q_blocks(g, *(_oracle_matrix(oracle, g.size, f) for f in (_R11, _UNIT)))


def theoretical_sigma_q(gammas, oracle) -> SpdMatrix:
    """2d x 2d covariance of (Hill, intermediate quantile) across margins.

    Coordinates are interleaved per margin: (gamma_1, q_1, gamma_2, q_2, ...).
    """
    sigma = _theoretical_sigma_q(_gammas(gammas, 1.0, "covariance formula"), oracle)
    return SpdMatrix.from_array(_interleave(*sigma), "theoretical Hill/quantile covariance")


def _sigma_laws_cross_diag(g: float) -> float:
    """Hill/LAWS cross term gamma^3 (gamma^{-1}-1)^gamma / (1-gamma)^2; NaN
    outside (0, 1), in a sample that _check_laws has failed."""
    return g**3 * (1.0 / g - 1.0) ** g / (1.0 - g) ** 2 if 0.0 < g < 1.0 else math.nan


def theoretical_sigma_laws(gammas, oracle) -> SpdMatrix:
    """2d x 2d covariance of (Hill, intermediate LAWS) across margins.

    Coordinates are interleaved per margin, as in theoretical_sigma_q.
    """
    sigma = _theoretical_sigma_laws(_gammas(gammas, 0.5, "covariance formula"), oracle)
    return SpdMatrix.from_array(_interleave(*sigma), "theoretical Hill/LAWS covariance")


def _pair_entries(orc: OracleTailCopula, gj: float, gl: float) -> np.ndarray:
    """The LAWS entry (gj gl times a tail box), Cov(Hill_j, LAWS_l) and
    Cov(Hill_l, LAWS_j) of a pair, c = 1/g - 1, from one pass evaluating
    R(t, 1) once per node.  Cov(Hill_j, LAWS_l) = gl D - gj gl S, D the tail
    box of R(x^{-1/gj}, cl y^{-1/gl}) / x and S = int_1^inf R(1, cl y^{-1/gl})
    dy, which y = (cl t)^gl and R(1, v) = v R(1/v, 1) make gl cl^gl times
    the integral of D's 1-D integrand beyond its kink 1/cl: so the cross
    term is one integral, that integrand weighted by gl beyond 1/cl."""
    cj, cl = 1.0 / gj - 1.0, 1.0 / gl - 1.0
    scales, kinks, (laws, cross_jl, cross_lj) = zip(
        _tail_box(cj, cl, gj, gl, 0), _tail_box(1.0, cl, gj, gl, 1), _tail_box(1.0, cj, gl, gj, 1)
    )

    def f(t):
        rt = orc._formula(t, 1.0) / t
        return np.stack((
            laws(rt, t),
            cross_jl(rt, t) * np.where(t < kinks[1], 1.0, gl),
            cross_lj(rt, t) * np.where(t < kinks[2], 1.0, gj),
        ))

    edges = [0.0, *sorted({1.0, *kinks}), np.inf]
    val = _de_integral(f, edges, _QUAD_TOL, "Hill/LAWS pair integrals")
    return val * scales * np.array([gj * gl, gl, gj])


def _theoretical_sigma_laws(g: np.ndarray, oracle) -> tuple:
    """The unchecked blocks of theoretical_sigma_laws at checked tail
    indices, assembled as the plug-in's (``_sigma_blocks``): 2g^3/(1-2g) on
    the LAWS diagonal, and each pair's ``_pair_entries`` off it."""
    d = g.size
    laws, cross = np.diag(2.0 * g**3 / (1.0 - 2.0 * g)), np.zeros((d, d))
    for j in range(d):
        for ell in range(j + 1, d):
            entries = _pair_entries(_pair_oracle(oracle, j, ell), g[j], g[ell])
            laws[j, ell], cross[j, ell], cross[ell, j] = entries
            laws[ell, j] = laws[j, ell]
    return _sigma_blocks(g, laws, cross, _oracle_matrix(oracle, d, _R11))


def theoretical_v_star_laws(gammas, oracle, log_dn: float) -> SpdMatrix:
    """Finite-n covariance of the LAWS extrapolating estimators (log scale):
    the contraction of the theoretical (Hill, LAWS) covariance, of which
    only the result is checked."""
    g = _gammas(gammas, 0.5, "covariance formula")
    if not 0.0 < log_dn < math.inf:
        raise DomainError("contraction requires a finite log d_n > 0")
    with np.errstate(all="ignore"):  # an overflow fails the check as non-finite
        v = _contract(*_theoretical_sigma_laws(g, oracle), 1.0, 1.0 / log_dn)
    return SpdMatrix.from_array(v, "theoretical star-LAWS covariance")


def theoretical_v_star_qb(gammas, oracle, log_dn: float) -> SpdMatrix:
    """Finite-n covariance of the QB extrapolating estimators (log scale)."""
    g = _gammas(gammas, 1.0, "covariance formula")
    if not 0.0 < log_dn < math.inf:
        raise DomainError("star-QB covariance requires a finite log d_n > 0")
    with np.errstate(all="ignore"):  # as in theoretical_v_star_laws
        v = _contract(*_theoretical_sigma_q(g, oracle), *_qb_weights(g, log_dn))
    return SpdMatrix.from_array(v, "theoretical star-QB covariance")


def _one(sample: MultivariateSample, tau: float):
    """The sample as a stack of one, and its fit at tau as (1, d) arrays:
    gamma-hat, q-hat and xi-hat LAWS."""
    fit = estimate_margins(sample, tau)
    return sample._stack(tau), fit.gamma_hat[None], fit.q_hat[None], fit.xi_laws[None]


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

    One mask of the values above xi weights phi and gives the survival
    counts.  Margin j's residuals are scaled by 2^-e_j, with
    xi_j = m_j 2^e_j, and its xi by the same power, to m_j: the Gram
    product neither overflows nor underflows at any scale of the data, a
    subnormal xi included, and, power-of-two scaling being exact, every
    entry is the unscaled formula's to the bit."""
    _check_laws(g, checks)
    n = st.n
    mant, power = np.frexp(xi)
    above = st.columns > xi[..., None]
    surv = above.sum(axis=-1)
    # phi_tau(y) = (1 - tau) y, or tau y above xi.  Built in place, from
    # y = (x - xi) 2^-e: one multiply, unless 2^-e overflows.
    phi = st.columns - xi[..., None]
    if power.min(initial=0) > -1022:
        phi *= np.ldexp(1.0, -power)[..., None]
    else:
        np.ldexp(phi, -power[..., None], out=phi)
    phi *= np.where(above, tau, 1.0 - tau)
    mbar = phi @ np.swapaxes(phi, -1, -2) / n
    cross = _hill_laws_cross(st, phi, q, g, effective_k(n, tau))
    return _laws_blocks(g, mbar, cross, surv, tau, mant, n)


def _laws_blocks(g, mbar, cross, surv, tau: float, mant, n: int):
    """The LAWS covariance and the Hill/LAWS cross terms of each entry from
    the Gram product mbar of its residuals scaled by the powers of two that
    take xi to mant, and the numerators of the cross terms, from the same
    residuals: their off-diagonals.  The diagonal of the covariance is the
    closed form ``_laws_diag``."""
    omt = 1.0 - tau
    cross /= omt * mant[..., None, :]
    m = _outer(g)
    m *= mbar
    m /= omt * _outer(mant)
    _set_diagonal(m, _laws_diag(g, surv, tau, n))
    return m, cross


def _laws_diag(g, surv, tau, n: int) -> np.ndarray:
    """The finite-sample variance of each margin's intermediate LAWS
    estimator from its Hill estimate g and survival count surv (the number
    of its values above xi-hat) at level tau, one level or an (L, 1) array
    of them."""
    omt, surv = 1.0 - tau, surv / n
    return (
        2.0 * g**2 / (1.0 - 2.0 * g)
        * (1.0 + surv / omt)
        / (1.0 + (2.0 * tau - 1.0) * surv / omt) ** 2
    )


def _bias_qb(st, g, q, checks) -> np.ndarray:
    """The QB bias components of each sample of the stack st, without the
    factor sqrt(n(1-tau)) of estimate_bias_qb: the bias shift itself."""
    _check_qb(g, checks)  # where the factor (1/g - 1)^g below is undefined
    # Each mean is a sum along a column-major row, whatever the layout of
    # the input.  A margin whose sum would overflow is scaled down, and its
    # q with it.
    columns, shift = st.columns, _sum_shift(st.sorted_columns)
    if shift.any():
        columns, q = np.ldexp(columns, -shift[..., None]), np.ldexp(q, -shift)
    # q-hat is the Hill threshold order statistic, which the fit has
    # already required to be positive.
    comps = -g * (1.0 / g - 1.0) ** g * columns.mean(axis=-1) / q
    checks(~np.isfinite(comps), lambda j: DomainError("bias components must be finite"))
    return comps


def estimate_bias_qb(sample: MultivariateSample, tau: float) -> np.ndarray:
    """First-order bias of the QB estimator, one component per margin:
    -gamma (gamma^{-1}-1)^gamma Xbar sqrt(n(1-tau)) / q-hat."""
    st, g, q, _ = _one(sample, tau)
    comps = _bias_qb(st, g, q, RAISE)[0] * math.sqrt(sample.n * (1.0 - tau))
    RAISE(~np.isfinite(comps), lambda j: DomainError("bias components must be finite"))
    return comps


def _sigma_q(st, g, tau: float) -> tuple:
    """The blocks of the plug-in (Hill, quantile) covariance of each sample
    of the stack st: _sigma_q_blocks read from the top rows, through one
    ``_top_pairs`` mask."""
    top = _top_pairs(st, tau)
    return _sigma_q_blocks(g, _r11_matrix(top, st.n, tau), _unit_integral_matrix(top, st.n, tau))


def _sigma_laws(st, g, q, xi, tau: float, checks) -> tuple:
    """The blocks of the raw plug-in (Hill, LAWS) covariance of each sample
    of the stack st (see estimate_sigma_laws)."""
    vlaws, cross = _v_laws_raw(st, g, q, xi, tau, checks)
    return _sigma_blocks(g, vlaws, cross, _r11_matrix(_top_pairs(st, tau), st.n, tau))


def _sigma_blocks(g, vlaws, cross, r11) -> tuple:
    """The (Hill, cross, LAWS) blocks of the (Hill, LAWS) covariance from its
    LAWS block, the Hill/LAWS cross terms, whose diagonal this replaces by
    the closed form, and R(1,1): the plug-in's from R-hat, and the
    theoretical one's from the oracle."""
    _set_diagonal(cross, _per_element(_sigma_laws_cross_diag, g))
    return _hill_block(g, r11), cross, vlaws


def estimate_sigma_laws(sample: MultivariateSample, tau: float) -> np.ndarray:
    """Raw 2d x 2d plug-in estimate of the joint (Hill, LAWS) covariance.

    Coordinates are interleaved per margin.  Returned unclipped so that the
    log d_n contraction is an exact linear function of these blocks.
    """
    return _interleave(*_sigma_laws(*_one(sample, tau), tau, RAISE))[0]


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
    n, kept = phi.shape[-1], st.order.shape[-1]
    # phi[b, l, r] of margin j's top k rows r, gathered by flat index.
    first = _row_starts(phi.shape)[:, None, None, :, 0]  # (B, 1, 1, d)
    top = phi.ravel()[st.order[..., kept - k :, None] + first]  # (B, d, k, d)
    values, q = st.sorted_columns[..., n - k :], thresholds[..., None]
    s1 = (np.log(values / q)[..., None, :] @ top)[..., 0, :]
    s2 = np.where((values > q)[..., None], top, 0.0).sum(axis=-2)
    return g[..., None, :] * (s1 / n) - _outer(g) * (s2 / n)


def _scan_traces(sample: MultivariateSample, levels: list) -> list:
    """The trace of the star-LAWS covariance of the sample at each
    TailLevelPair of levels, in any order, or the TailjointError of the
    first check it fails: the one that ``inference.estimate_covariance``
    raises for "laws" there, but for the joint matrix's PSD check.

    The levels are fitted at once, and not kept on the sample.  A trace is
    the sum of the per-margin variances, each margin's (Hill, LAWS) block of
    closed forms contracted by ``_contract``.  One ``_spd_stack`` checks
    their diagonal matrices, each level failing alone."""
    if not levels:
        return []
    tau = np.array([[lv.tau] for lv in levels])
    log_dn = np.array([[[lv.log_dn]] for lv in levels])
    checks = Checks(len(levels))
    with np.errstate(all="ignore"):
        xs, n = sample.sorted_columns, sample.n
        fit = _fit_sorted(xs, tau, checks)
        g = fit.gamma_hat
        _check_laws(g, checks)
        # Each margin's number of values above xi-hat, at every level.
        above = [n - np.searchsorted(x, xi, "right") for x, xi in zip(xs, fit.xi_laws.T)]
        surv = np.stack(above, axis=-1)
        # Each margin's (Hill, LAWS) blocks, as 1 x 1 matrices.
        cross = _per_element(_sigma_laws_cross_diag, g)
        blocks = (b[..., None, None] for b in (g**2, cross, _laws_diag(g, surv, tau, n)))
        var = _contract(*blocks, 1.0, 1.0 / log_dn)[..., 0, 0]
        checked = _spd_stack(_diagonal(var), "star-LAWS covariance", checks)
        traces = checked.entries.trace(axis1=1, axis2=2)
    return [t if error is None else error for t, error in zip(traces.tolist(), checks.first)]
