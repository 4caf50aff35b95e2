"""Asymptotic covariance and bias machinery for joint expectile inference.

Theoretical matrices are exact functionals of the tail indices and a tail
copula oracle; by the oracle's homogeneity each of their integrals over
[1,inf)^2 is one 1-D quadrature (``numerics.integrate_tail_box``).
Estimated matrices plug the marginal estimators and the empirical tail
copula into the same displays; each estimated builder takes only the sample
and its levels and reads the fit that ``marginal.estimate_margins`` keeps
on the sample, so one (sample, tau) is fitted once however many builders
read it.  Every covariance builder, the Weissman (quantile-test) one
included, returns the
symmetrized, PSD-clipped :class:`~tailjoint.numerics.SpdMatrix` it builds,
except ``estimate_sigma_laws``, which returns the raw array; the QB bias is
returned as its array of per-margin components.

The Hill and QB displays (``_hill_block``, ``_qb_matrix``) read tail
dependence only through two d x d pair matrices, R(1,1) and the unit
integrals I, given by the oracle (``_oracle_matrix``) or by the ranks.

Each estimated display is computed for a stack of B entries at once
(``_v_laws_raw``, ``_sigma_laws``, ``_v_star_laws``, ``_v_qb_raw``,
``_bias_qb``: leading axis B, with the fit as (B, d) arrays), and a check
that fails marks its entry through an ``errors.Checks``.  An entry is a
sample (B samples at one level) or a level of one sample (the LAWS builders
also take tau, and so k, and log d_n as (B, 1) arrays).  The public
single-sample builders are the stack of one (``MultivariateSample._stack``)
with ``errors.RAISE``, so they raise the first failure; the Monte Carlo
power harness runs the same code on stacks of replications.

A scan over many levels, such as ``trace-scan`` (``_scan_v_star_laws``),
runs chunks of levels of one sample as such stacks: one fit, one
covariance and one batched SPD check per chunk, each level failing alone.
It sorts and sums the panel once.  A level passes over the whole n x d
panel only for the LAWS root (one scan of tau A + (1 - tau) B over the
cached LAWS sums), the asymmetric residuals phi with their Gram product,
and the survival counts.  R-hat(1,1) reads each margin's top ranks once per
chunk, and the Hill/LAWS cross terms each margin's top k rows.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import RAISE, Checks, DomainError
from .marginal import (
    _check_qb, _fit_levels, asymmetric_weight, estimate_margins, m_function,
)
from .numerics import SpdMatrix, _spd_stack, integrate_1d_tail, integrate_tail_box
from .sample import MultivariateSample, TailLevelPair, _runs, effective_k
from .taildep import OracleTailCopula, _r11_matrix, _unit_integral_matrix


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
    if isinstance(oracle, OracleTailCopula):
        return oracle
    try:
        return oracle[(j, ell)]
    except KeyError:
        return oracle[(ell, j)]


def _oracle_matrix(oracle, d: int, functional) -> np.ndarray:
    """The symmetric d x d matrix of a pair functional of the oracle, such
    as OracleTailCopula.r11 or .unit_integral, with a zero diagonal."""
    m = np.zeros((d, d))
    for j in range(d):
        for ell in range(j + 1, d):
            m[j, ell] = m[ell, j] = functional(_pair_oracle(oracle, j, ell))
    return m


_R11, _UNIT = OracleTailCopula.r11, OracleTailCopula.unit_integral


def _outer(g: np.ndarray) -> np.ndarray:
    """g_j g_l for every pair, one d x d matrix per leading index of g."""
    return g[..., :, None] * g[..., None, :]


def _set_diagonal(m: np.ndarray, diag: np.ndarray) -> None:
    i = np.arange(m.shape[-1])
    m[..., i, i] = diag


def _each(f, g: np.ndarray) -> np.ndarray:
    """The scalar function f of every entry of g."""
    return np.array([f(x) for x in g.flat]).reshape(g.shape)


def _hill_block(g: np.ndarray, r11: np.ndarray) -> np.ndarray:
    """Cov(Hill_j, Hill_l) = g_j g_l R_jl(1,1), with g_j^2 on the diagonal."""
    m = _outer(g) * r11
    _set_diagonal(m, g**2)
    return m


def _qb_matrix(
    g: np.ndarray, r11: np.ndarray, unit: np.ndarray, log_dn: float, checks
) -> np.ndarray:
    """QB covariance: g_j g_l (R (m_j-1)(m_l-1) + m_j I[j,l] + m_l I[l,j]) off
    the diagonal and g^2 (1 + m^2) on it, with m_j = m(g_j) + log_dn and
    I[j, l] on margin j's axis.  log_dn = 0 gives the intermediate
    (linear-scale) matrix; log_dn > 0 divides by log d_n^2, giving the
    covariance of the extrapolating estimators on the log scale.  A sample
    with some g outside (0, 1), where m is undefined, fails."""
    ok = (g > 0.0) & (g < 1.0)
    checks(~ok, lambda j: DomainError(f"m(x) requires x in (0,1), got {g.flat[j]}"))
    mg = _each(lambda x: m_function(x) if 0.0 < x < 1.0 else np.nan, g) + log_dn
    mi = mg[..., :, None] * unit  # m_j I[j, l]
    m = _outer(g) * (r11 * _outer(mg - 1.0) + (mi + np.swapaxes(mi, -1, -2)))
    _set_diagonal(m, g**2 * (1.0 + mg**2))
    return m / log_dn**2 if log_dn else m


def _laws_pair_integral(orc: OracleTailCopula, gj: float, gl: float) -> float:
    """Limit covariance of the intermediate LAWS estimators of one pair:
    gj gl times the integral over [1,inf)^2 of R(cj x^{-1/gj}, cl y^{-1/gl})
    with c = 1/g - 1; zero for tail-independent margins."""
    if orc.kind == "independent":
        return 0.0
    cj, cl = 1.0 / gj - 1.0, 1.0 / gl - 1.0
    return gj * gl * integrate_tail_box(orc._formula, cj, cl, gj, gl, 0)


def _theoretical_laws_block(g: np.ndarray, oracle) -> np.ndarray:
    """Limit covariance of the intermediate LAWS estimators: 2g^3/(1-2g) on
    the diagonal, _laws_pair_integral off it."""
    m = np.diag(2.0 * g**3 / (1.0 - 2.0 * g))
    for j in range(g.size):
        for ell in range(j + 1, g.size):
            m[j, ell] = m[ell, j] = _laws_pair_integral(
                _pair_oracle(oracle, j, ell), g[j], g[ell]
            )
    return m


def theoretical_v_laws(gammas, oracle) -> SpdMatrix:
    """Asymptotic covariance of the joint intermediate LAWS estimators."""
    g = _gammas(gammas, 0.5, "variance formula")
    return SpdMatrix.from_array(
        _theoretical_laws_block(g, oracle), "theoretical LAWS covariance"
    )


def _interleave(hill: np.ndarray, cross: np.ndarray, other: np.ndarray) -> np.ndarray:
    """The 2d x 2d covariance of (Hill_1, X_1, ..., Hill_d, X_d) from its
    d x d blocks: Cov(Hill, Hill), Cov(Hill_j, X_l) at (j, l), and Cov(X, X);
    one matrix per leading index."""
    d = hill.shape[-1]
    m = np.empty(hill.shape[:-2] + (2 * d, 2 * d))
    m[..., 0::2, 0::2], m[..., 0::2, 1::2] = hill, cross
    m[..., 1::2, 0::2], m[..., 1::2, 1::2] = np.swapaxes(cross, -1, -2), other
    return m


def theoretical_sigma_q(gammas, oracle) -> SpdMatrix:
    """2d x 2d covariance of (Hill, intermediate quantile) across margins.

    Coordinates are interleaved per margin: (gamma_1, q_1, gamma_2, q_2, ...).
    """
    g = _gammas(gammas, 1.0, "covariance formula")
    r11 = _oracle_matrix(oracle, g.size, _R11)
    hill = _hill_block(g, r11)
    cross = np.outer(g, g) * (_oracle_matrix(oracle, g.size, _UNIT) - r11)
    return SpdMatrix.from_array(
        _interleave(hill, cross, hill), "theoretical Hill/quantile covariance"
    )


def theoretical_v_qb(gammas, oracle) -> SpdMatrix:
    """Asymptotic covariance of the joint intermediate QB estimators."""
    g = _gammas(gammas, 1.0, "covariance formula")
    d = g.size
    r11, unit = _oracle_matrix(oracle, d, _R11), _oracle_matrix(oracle, d, _UNIT)
    return SpdMatrix.from_array(
        _qb_matrix(g, r11, unit, 0.0, RAISE), "theoretical QB covariance"
    )


def _sigma_laws_cross_diag(g: float) -> float:
    """Hill/LAWS cross term gamma^3 (gamma^{-1}-1)^gamma / (1-gamma)^2."""
    return g**3 * (1.0 / g - 1.0) ** g / (1.0 - g) ** 2


def theoretical_sigma_laws(gammas, oracle) -> SpdMatrix:
    """2d x 2d covariance of (Hill, intermediate LAWS) across margins.

    Coordinates are interleaved per margin, as in theoretical_sigma_q.
    """
    g = _gammas(gammas, 0.5, "covariance formula")
    d = g.size
    cross = np.diag([_sigma_laws_cross_diag(gj) for gj in g])

    def cross_entry(orc, gj, gl):
        # Cov(Hill_j, LAWS_l): double integral with a dx/x weight on the
        # first axis minus a single tail integral in the second variable.
        if orc.kind == "independent":
            return 0.0
        cl, al = 1.0 / gl - 1.0, 1.0 / gl
        double = integrate_tail_box(orc._formula, 1.0, cl, gj, gl, 1)
        single = integrate_1d_tail(lambda y: orc._formula(1.0, cl * y**-al))
        return gl * double - gj * gl * single

    hill = _hill_block(g, _oracle_matrix(oracle, d, _R11))
    laws = _theoretical_laws_block(g, oracle)
    for j in range(d):
        for ell in range(j + 1, d):
            orc = _pair_oracle(oracle, j, ell)
            cross[j, ell] = cross_entry(orc, g[j], g[ell])
            cross[ell, j] = cross_entry(orc, g[ell], g[j])
    return SpdMatrix.from_array(
        _interleave(hill, cross, laws), "theoretical Hill/LAWS covariance"
    )


def _contract_blocks(sigma: np.ndarray, log_dn, checks) -> np.ndarray:
    """(1, 1/log dn)^T Sigma_block (1, 1/log dn) applied to every 2x2 block,
    with one log dn, or a (B, 1) array of one per matrix of the stack; a
    log dn that is not positive fails its matrix."""
    checks(
        np.broadcast_to(np.asarray(log_dn) <= 0.0, sigma.shape[:-2] + (1,)),
        lambda j: DomainError("contraction requires log d_n > 0"),
    )
    w = 1.0 / np.expand_dims(log_dn, -1)
    b00, b01 = sigma[..., 0::2, 0::2], sigma[..., 0::2, 1::2]
    b10, b11 = sigma[..., 1::2, 0::2], sigma[..., 1::2, 1::2]
    return b00 + (b01 + b10) * w + b11 * w * w


def theoretical_v_star_laws(gammas, oracle, log_dn: float) -> SpdMatrix:
    """Finite-n covariance of the LAWS extrapolating estimators (log scale)."""
    sigma = theoretical_sigma_laws(gammas, oracle).entries
    return SpdMatrix.from_array(
        _contract_blocks(sigma, log_dn, RAISE), "theoretical star-LAWS covariance"
    )


def theoretical_v_star_qb(gammas, oracle, log_dn: float) -> SpdMatrix:
    """Finite-n covariance of the QB extrapolating estimators (log scale)."""
    g = _gammas(gammas, 1.0, "covariance formula")
    if log_dn <= 0.0:
        raise DomainError("star-QB covariance requires log d_n > 0")
    d = g.size
    r11, unit = _oracle_matrix(oracle, d, _R11), _oracle_matrix(oracle, d, _UNIT)
    return SpdMatrix.from_array(
        _qb_matrix(g, r11, unit, log_dn, RAISE), "theoretical star-QB covariance"
    )


def _one(sample: MultivariateSample, tau: float):
    """The sample as a stack of one, and its fit at tau as (1, d) arrays:
    gamma-hat, q-hat and xi-hat LAWS."""
    fit = estimate_margins(sample, tau)
    return sample._stack, fit.gamma_hat[None], fit.q_hat[None], fit.xi_laws[None]


def _v_laws_raw(st, g, q, xi, tau, checks) -> tuple[np.ndarray, np.ndarray]:
    """Unclipped intermediate LAWS covariance of each of the B entries of
    the fit (g, q, xi), and the numerators of its Hill/LAWS cross terms
    (``_hill_laws_cross``): samples of the stack st at one level tau, or
    levels of its one sample at a (B, 1) array of tau.  The Hill estimates
    are checked before any n x d work, which runs for one run of entries
    that share tau at a time: the survival counts, and the asymmetric
    residuals phi, read by their Gram product and by the cross terms."""
    checks(
        g >= 0.5,
        lambda j: DomainError(
            "tail too heavy for LAWS variance (Hill estimate >= 1/2) -- use QB"
        ),
    )
    checks(g <= 0.0, lambda j: DomainError("LAWS variance requires positive Hill estimates"))
    n = st.n
    surv = np.empty(g.shape)
    mbar, cross = np.empty(g.shape + g.shape[-1:]), np.empty(g.shape + g.shape[-1:])
    for t, run in _runs(tau, len(g)):
        surv[run] = (st.sorted_columns > xi[run, :, None]).sum(axis=-1)
        phi = asymmetric_weight(st.values - xi[run, None, :], t)
        mbar[run] = np.swapaxes(phi, -1, -2) @ phi / n
        cross[run] = _hill_laws_cross(st, phi, q[run], g[run], effective_k(n, t))
    surv /= n
    omt = 1.0 - tau
    diag = (
        2.0 * g**2 / (1.0 - 2.0 * g)
        * (1.0 + surv / omt)
        / (1.0 + (2.0 * tau - 1.0) * surv / omt) ** 2
    )
    m = _outer(g) * mbar / (np.expand_dims(omt, -1) * _outer(xi))
    _set_diagonal(m, diag)
    return m, cross


def estimate_v_laws(sample: MultivariateSample, tau: float) -> SpdMatrix:
    """Plug-in estimate of the intermediate LAWS covariance matrix."""
    m = _v_laws_raw(*_one(sample, tau), tau, RAISE)[0][0]
    return SpdMatrix.from_array(m, "LAWS covariance")


def _bias_qb(st, g, q, tau: float, checks) -> np.ndarray:
    """The QB bias components of each sample of the stack st (see
    estimate_bias_qb)."""
    _check_qb(g, checks)  # where the factor (1/g - 1)^g below is undefined
    means = st.values.mean(axis=-2)
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


def _v_qb_raw(st, g, tau: float, log_dn: float, checks) -> np.ndarray:
    """Unclipped plug-in QB covariance of each sample of the stack st:
    _qb_matrix read from the ranks."""
    r11, unit = _r11_matrix(st, tau), _unit_integral_matrix(st.ranks, tau)
    return _qb_matrix(g, r11, unit, log_dn, checks)


def _v_qb(sample: MultivariateSample, tau: float, log_dn: float) -> SpdMatrix:
    st, g, _, _ = _one(sample, tau)
    m = _v_qb_raw(st, g, tau, log_dn, RAISE)[0]
    return SpdMatrix.from_array(m, "star-QB covariance" if log_dn else "QB covariance")


def estimate_v_qb(sample: MultivariateSample, tau: float) -> SpdMatrix:
    """Plug-in estimate of the intermediate QB covariance matrix."""
    return _v_qb(sample, tau, 0.0)


def _sigma_laws(st, g, q, xi, tau, checks) -> np.ndarray:
    """Raw plug-in (Hill, LAWS) covariance of each entry of the stack st
    (see estimate_sigma_laws)."""
    vlaws, cross = _v_laws_raw(st, g, q, xi, tau, checks)
    hill = _hill_block(g, _r11_matrix(st, tau))
    cross /= np.expand_dims(1.0 - tau, -1) * xi[..., None, :]
    _set_diagonal(cross, _each(_sigma_laws_cross_diag, g))
    return _interleave(hill, cross, vlaws)


def estimate_sigma_laws(sample: MultivariateSample, tau: float) -> np.ndarray:
    """Raw 2d x 2d plug-in estimate of the joint (Hill, LAWS) covariance.

    Coordinates are interleaved per margin.  Returned unclipped so that the
    log d_n contraction is an exact linear function of these blocks.
    """
    return _sigma_laws(*_one(sample, tau), tau, RAISE)[0]


def _hill_laws_cross(st, phi, thresholds, g, k: int) -> np.ndarray:
    """Numerators of the empirical Cov(Hill_j, LAWS_l) for every pair (j, l)
    of each of the B entries of phi, samples of the stack st or levels of
    its one sample, at one effective size k.

    Entry (j, l) is g_l times the mean of margin j's log-excesses over its
    threshold times margin l's asymmetric residual, minus g_j g_l times the
    mean of the exceedance indicator times that residual.  The threshold is
    margin j's (k+1)-th largest value, so its exceedances are among its top
    k order statistics; the ones tied with it add a zero log-excess and are
    left out of the indicator.  So margin j's row of means is one product
    of those k log-excesses with the rows of phi they sit in, and one sum of
    those rows; the log is taken only on the top k.
    """
    n = st.n
    rows = st.order[..., n - k :]  # (S, d, k): margin j's top k rows
    top = phi[np.arange(len(phi))[:, None, None], rows]  # (B, d, k, d)
    values, q = st.sorted_columns[..., n - k :], thresholds[..., None]
    s1 = (np.log(values / q)[..., None, :] @ top)[..., 0, :]
    s2 = np.where((values > q)[..., None], top, 0.0).sum(axis=-2)
    return g[..., None, :] * (s1 / n) - _outer(g) * (s2 / n)


def _v_star_laws(st, g, q, xi, tau, log_dn, checks) -> np.ndarray:
    """Unclipped plug-in star-LAWS covariance of each entry of the stack st,
    at one level (tau, log dn) or at (B, 1) arrays of one level per entry."""
    return _contract_blocks(_sigma_laws(st, g, q, xi, tau, checks), log_dn, checks)


# The levels of one chunk of a scan.  The n-long work (the LAWS estimating
# function, the survival counts, the residuals phi) runs one level at a
# time; what a chunk holds for all its levels at once is R-hat(1,1)'s
# pair-minimum comparison, at most one byte per level, pair of margins and
# observation.  Chunks keep that to this many bytes, 1 MB: 8 levels at
# n = 5000, d = 5.  Larger temporaries made the allocator return and
# re-fault its memory on every chunk, which cost more than the chunk saved.
_SCAN_BYTES = 2**20


def _scan_v_star_laws(sample: MultivariateSample, levels: list) -> list:
    """The star-LAWS covariance of the sample at each TailLevelPair of
    levels, in order: its checked entries, or the TailjointError of the
    first check it fails, the one estimate_v_star_laws raises.

    The levels run in chunks, each one stack of levels of the sample with
    one fit, one _v_star_laws and one _spd_stack; each level is fitted once
    and not kept on the sample.
    """
    size = max(1, _SCAN_BYTES // (sample.n * sample.d**2))
    out = []
    for start in range(0, len(levels), size):
        chunk = levels[start : start + size]
        tau = np.array([[lv.tau] for lv in chunk])
        log_dn = np.array([[lv.log_dn] for lv in chunk])
        checks = Checks(len(chunk))
        with np.errstate(all="ignore"):
            fit = _fit_levels(sample, tau, checks)
            g, q, xi = fit.gamma_hat, fit.q_hat, fit.xi_laws
            m = _v_star_laws(sample._stack, g, q, xi, tau, log_dn, checks)
            m = _spd_stack(m, "star-LAWS covariance", checks)[0]
        out += [m[i] if error is None else error for i, error in enumerate(checks.first)]
    return out


def estimate_v_star_laws(
    sample: MultivariateSample, tau: float, tau_prime: float
) -> SpdMatrix:
    """Plug-in covariance of the LAWS extrapolating estimators (log scale)."""
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    m = _v_star_laws(*_one(sample, tau), tau, levels.log_dn, RAISE)[0]
    return SpdMatrix.from_array(m, "star-LAWS covariance")


def estimate_v_star_qb(
    sample: MultivariateSample, tau: float, tau_prime: float
) -> SpdMatrix:
    """Plug-in covariance of the QB extrapolating estimators (log scale)."""
    levels = TailLevelPair(tau=tau, tau_prime=tau_prime, n=sample.n)
    return _v_qb(sample, tau, levels.log_dn)


def _v_star_quantile(sample: MultivariateSample, tau: float) -> SpdMatrix:
    """Plug-in covariance of the Weissman extrapolating estimators (log
    scale): the Hill block, g_j g_l R-hat_jl(1,1) off the diagonal."""
    g = estimate_margins(sample, tau).gamma_hat
    return SpdMatrix.from_array(
        _hill_block(g, _r11_matrix(sample._stack, tau)[0]), "quantile test covariance"
    )
