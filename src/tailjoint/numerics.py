"""Special functions, SPD matrix algebra and 1-D tail quadrature.

All routines are pure functions; matrices are numpy arrays wrapped in the
lightweight :class:`SpdMatrix` container which enforces symmetry and the
eigenvalue clipping policy used throughout the covariance estimators.  The
check and clip (``_spd_stack``) works on stacks of matrices and keeps the
eigenpairs (w, v) of its one ``eigh`` per matrix (``_SpdStack``); every
inverse quadratic form, GLS mean and deviance reads them, as sum (v^T x)^2
/ w, and so does the square root, v w^{1/2} v^T.  A matrix whose smallest
eigenvalue is at most 1e-10 times its trace is singular for all of them.
An ``SpdMatrix`` is a stack of one.

No scipy is loaded.  The normal quantile is ``statistics.NormalDist``'s,
refined in the tails with ``math.erfc``, and the chi-square quantile and
upper tail (at integer df, all the regions, intervals and tests need) use
``math`` alone.  The normal cdf of the Gaussian-copula samplers
(``_ndtr``) is Cephes ndtr, bit for bit scipy.special.ndtr: its
polynomials run in ``np.polyval`` and its exponentials in ``math``.  The
1-D integrals of the theoretical (oracle) covariances use one nested
double-exponential rule (``_de_integral``): each level evaluates the
integrand once, on an array of nodes, and an integral that does not reach
its tolerance raises NumericError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    RAISE,
    DomainError,
    NotPositiveSemidefiniteError,
    NumericError,
    SingularCovarianceError,
)

# Relative tolerance (times the trace) below which negative eigenvalues are
# clipped to zero; anything more negative is treated as a formula bug.
CLIP_RTOL = 1e-6

# Tolerance of the quadratures: an integral I is accepted when its error
# estimate is at most tol max(1, |I|).  integrate_1d_tail, split at the
# comonotone kink of the Hill-LAWS cross term that its caller passes, is
# held to 1e-12, which typically costs it one more level than 1e-10.
_QUAD_TOL, _TAIL_1D_TOL = 1e-10, 1e-12


_LN2 = math.log(2.0)


def std_normal_quantile(p: float) -> float:
    """Quantile of the standard Gaussian distribution: AS241, as imported
    from ``statistics`` on the first call, and for p outside [0.075, 0.925]
    one Newton step on Phi(x) = erfc(-x / sqrt 2) / 2."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal quantile requires p in (0,1), got {p}")
    from statistics import NormalDist

    if abs(p - 0.5) <= 0.425:
        return NormalDist().inv_cdf(p)
    tail = min(p, 1.0 - p)  # 1 - p is exact for p >= 1/2
    x = NormalDist().inv_cdf(tail)
    x -= (0.5 * math.erfc(-x / math.sqrt(2.0)) - tail) / (
        math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    )
    return x if p < 0.5 else -x


# Cephes ndtr (Moshier), as scipy.special.ndtr runs it: with x = a / sqrt 2,
# Phi(a) = 1/2 + erf(x) / 2 for |x| < 1/sqrt 2, and otherwise erfc(|x|) / 2,
# or 1 minus it for x > 0.  erf(x) = x T(x^2) / U(x^2) for |x| < 1, and
# erfc(z) = 1 - erf(z) below 1, e^{-z^2} P(z) / Q(z) below 8, e^{-z^2} R(z) /
# S(z) beyond, and 0 once z^2 exceeds _MAXLOG.  Each tuple holds its
# polynomial's coefficients, highest order first, for ``np.polyval``: the
# Horner rule of Cephes polevl, and of p1evl for the monic Q, S and U.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2
_SQRT1_2 = math.sqrt(0.5)


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf for |x| < 1."""
    z = x * x
    return x * np.polyval(_ERF_T, z) / np.polyval(_ERF_U, z)


def _per_element(f, a: np.ndarray) -> np.ndarray:
    """The scalar function f of each element of a, in a's shape.  f gets
    Python floats, so its powers and its ``math`` calls are the C
    library's: numpy's vectorized ones can differ in the last bit."""
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal cdf of each element: Cephes ndtr, bit for bit
    scipy.special.ndtr.  0 at -inf and below about -37.68 (where e^{-x^2}
    underflows), 1 at +inf, NaN at NaN."""
    x = np.asarray(a, dtype=float) * _SQRT1_2
    z = np.abs(x)
    tail = np.zeros_like(z)  # erfc(z) / 2
    near = (_SQRT1_2 <= z) & (z < 1.0)
    tail[near] = 0.5 * (1.0 - _erf(z[near]))
    for far, num, den in (
        ((1.0 <= z) & (z < 8.0), _ERFC_P, _ERFC_Q),
        ((8.0 <= z) & (z * z <= _MAXLOG), _ERFC_R, _ERFC_S),
    ):
        t = z[far]
        tail[far] = 0.5 * (_per_element(math.exp, -t * t) * np.polyval(num, t)
                           / np.polyval(den, t))
    y = np.where(x > 0.0, 1.0 - tail, tail)
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    y[np.isnan(x)] = np.nan
    return y


def _check_df(df, name: str) -> None:
    if not (df >= 1 and float(df).is_integer()):
        raise DomainError(f"chi-square {name} requires integer df >= 1, got {df}")


def chi_square_quantile(p: float, df: int) -> float:
    """The p-quantile of the chi-square distribution with df degrees.

    Newton's method in t = log x on the closed-form pdf, solving
    log P(X <= x) = log p for p <= 1/2 and log P(X > x) = log(1 - p)
    otherwise (1 - p is exact there).  Both sides are concave in t, as the
    log-gamma law is log-concave, so from a start on the outer side of the
    root every iterate stays between the start and the root.  The starts
    are bounds: 2 (p Gamma(a + 1))^(1/a), a = df/2, below the lower root,
    as P(X <= 2y) <= y^a / Gamma(a + 1); and 2 (a + L + sqrt(L^2 + 2aL)),
    L = -log(1 - p), above the upper root, where the Chernoff bound puts
    P(X > x) below 1 - p.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"chi-square quantile requires p in (0,1), got {p}")
    _check_df(df, "quantile")
    a = 0.5 * df
    upper = p > 0.5
    if upper:
        target = math.log(1.0 - p)
        x = 2.0 * (a - target + math.sqrt(target * (target - 2.0 * a)))
    else:
        target = math.log(p)
        x = 2.0 * math.exp((target + math.lgamma(a + 1.0)) / a)
        if x == 0.0:
            return 0.0
    for _ in range(100):
        log_tail = math.log(chi_square_sf(x, df)) if upper else _log_chi2_lower(x, a)
        # |d log tail / dt| = x f(x) / tail
        rate = math.exp(a * (math.log(x) - _LN2) - 0.5 * x - math.lgamma(a) - log_tail)
        dt = (log_tail - target) / (rate if upper else -rate)
        step = x * math.exp(dt)
        if abs(dt) <= 1e-9 or step == x:  # converged, or no float left between
            return step
        x = step
    raise NumericError(f"chi-square quantile did not converge at p={p}, df={df}")


def chi_square_sf(x: float, df: int) -> float:
    """Upper tail P(X > x), accurate where it is far below 1e-16.

    At integer df in closed form (Abramowitz and Stegun 26.4.4-26.4.5): with
    y = x/2, the sum of y^e e^{-y} / Gamma(e + 1) over e = df/2 - 1,
    df/2 - 2, ... > -1/2, plus erfc(sqrt y) for odd df.  The terms are
    positive, so the sum keeps its relative accuracy however small it is,
    and each is taken in log space, so that none overflows.  It is 1 at
    x = 0 (and at most 1, where rounding would lift the sum above it), 0 at
    x = inf, and NaN at a NaN or negative x.
    """
    _check_df(df, "sf")
    if not x > 0.0:
        return 1.0 if x == 0.0 else math.nan
    if x == math.inf:
        return 0.0
    y, ly = 0.5 * x, math.log(x) - _LN2
    odd = int(df) % 2
    sf = math.erfc(math.sqrt(y)) if odd else 0.0
    e = 0.5 * odd
    while e < 0.5 * df:
        sf += math.exp(e * ly - y - math.lgamma(e + 1.0))
        e += 1.0
    return min(sf, 1.0)


def _log_chi2_lower(x: float, a: float) -> float:
    """log P(X <= x) at df = 2a by the series of positive terms
    y^a e^{-y} / Gamma(a + 1) * sum_n y^n / ((a + 1) ... (a + n)), y = x/2,
    which converges fast below the median.  Once the next divisor b exceeds
    y, the terms after a term t add up to less than t y / (b - y).  Its
    domain is below the median, where chi_square_quantile reads it (for
    p <= 1/2): the partial sums grow like e^y before the terms fall, and
    are inf once y passes about 709.  There, where the upper tail is below
    1e-300, it is log1p of minus the upper tail (df = 2a an integer)."""
    if x == 0.0:
        return -math.inf
    y = 0.5 * x
    s = t = 1.0
    b = a + 1.0
    while True:
        t *= y / b
        s += t
        b += 1.0
        if b > y and t * y <= 1e-17 * s * (b - y):
            break
    if s == math.inf:
        return math.log1p(-chi_square_sf(x, round(2.0 * a)))
    return a * (math.log(x) - _LN2) - y - math.lgamma(a + 1.0) + math.log(s)


class _SpdStack(NamedTuple):
    """A checked stack of B symmetric PSD matrices, kept with the eigenpairs
    of its check: each matrix entries[b] (d x d) is v[b] diag(w[b]) v[b]^T,
    with the eigenvalues w (B, d) ascending and clipped at zero and the
    eigenvectors in the columns of v (B, d, d); clip holds the magnitude of
    each matrix's clip, 0 where none."""

    entries: np.ndarray
    clip: np.ndarray
    w: np.ndarray
    v: np.ndarray

    def singular(self) -> np.ndarray:
        """Where a matrix is too near singular to invert: its smallest
        eigenvalue is at most 1e-10 times its trace (1 for a zero trace)."""
        tr = self.w.sum(axis=-1)
        tr[tr == 0.0] = 1.0
        return self.w[:, 0] <= 1e-10 * tr

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """diag(w)^{-1/2} v^T x of each row x (B, d), whose squared norm is
        x^T m^{-1} x."""
        return (x[:, None, :] @ self.v)[:, 0, :] / np.sqrt(self.w)


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Symmetric positive semidefinite matrix with clipping provenance.

    Construction symmetrizes the input and clips slightly negative
    eigenvalues (within CLIP_RTOL times the trace) up to zero; larger
    violations raise :class:`NotPositiveSemidefiniteError`.  The matrix
    keeps the eigenpairs of that check, its stack of one (``_SpdStack``),
    and reads its quadratic form and its square root from them.  It is
    singular, and its quadratic form raises
    :class:`SingularCovarianceError`, when its smallest eigenvalue is at
    most 1e-10 times its trace.
    """

    _stack: _SpdStack

    @property
    def entries(self) -> np.ndarray:
        return self._stack.entries[0]

    @property
    def clip_magnitude(self) -> float:
        return float(self._stack.clip[0])

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_array(cls, m, name: str = "matrix") -> "SpdMatrix":
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"{name} must be square, got shape {m.shape}")
        return cls(_spd_stack(m[None], name, RAISE))

    def sqrt(self) -> "SpdMatrix":
        """Principal symmetric square root, v diag(w)^{1/2} v^T."""
        w, v = np.sqrt(self._stack.w), self._stack.v
        return SpdMatrix(_SpdStack(_compose(w, v), np.zeros(1), w, v))

    def quadratic_form(self, vec, name: str = "covariance") -> float:
        """v^T m^{-1} v from the kept eigenpairs."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise DomainError(
                f"vector of length {vec.size} does not match dimension {self.dim}"
            )
        return float(_quadratic_form(self._stack, vec[None], name, RAISE)[0])


def _quadratic_form(m: _SpdStack, x: np.ndarray, name: str, checks) -> np.ndarray:
    """x^T m^{-1} x of each row x (B, d) under the matching matrix of the
    checked stack m, from its eigenpairs.  A sample whose row is not finite,
    or else whose matrix is singular, fails."""
    checks(
        ~np.isfinite(x).all(axis=-1),
        lambda j: DomainError("quadratic form requires a finite vector"),
    )
    checks(m.singular(), lambda j: SingularCovarianceError(f"singular {name} matrix"))
    return (m.whiten(x) ** 2).sum(axis=-1)


def _spd_stack(m: np.ndarray, name: str, checks) -> _SpdStack:
    """The symmetrized, PSD-clipped matrices of the stack m (B, d, d), their
    clip magnitudes and their eigenpairs.  A matrix with a non-finite entry,
    an asymmetry above 1e-8 of its largest entry, or an eigenvalue below
    -CLIP_RTOL times its trace fails its sample, in that order; eigenvalues
    above that are clipped up to zero.  A non-finite matrix is replaced by
    the identity so that the decomposition of the others is defined."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    checks(~finite, lambda j: NumericError(f"{name} has non-finite entries"))
    if not finite.all():
        m = np.where(finite[:, None, None], m, np.eye(m.shape[-1]))
    t = m.transpose(0, 2, 1)
    scale = np.abs(m).max(axis=(-2, -1))
    scale[scale == 0.0] = 1.0
    checks(
        np.abs(m - t).max(axis=(-2, -1)) > 1e-8 * scale,
        lambda j: DomainError(f"{name} is not symmetric"),
    )
    sym = 0.5 * (m + t)
    w, v = np.linalg.eigh(sym)
    low = w[:, 0]
    tol = CLIP_RTOL * np.maximum(np.abs(sym.trace(axis1=1, axis2=2)), np.finfo(float).tiny)
    checks(
        low < -tol,
        lambda j: NotPositiveSemidefiniteError(
            f"{name} has eigenvalue {low[j]:.3e} below -{tol[j]:.3e}"
        ),
    )
    clip = np.maximum(0.0, -low)
    neg = low < 0.0
    if neg.any():
        w = np.clip(w, 0.0, None)
        sym[neg] = _compose(w[neg], v[neg])
    return _SpdStack(sym, clip, w, v)


def _compose(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v diag(w) v^T of each eigenpair (w, v) of a stack, symmetrized."""
    s = (v * w[:, None, :]) @ v.transpose(0, 2, 1)
    return 0.5 * (s + s.transpose(0, 2, 1))


# Double-exponential quadrature (Takahasi and Mori, Publ. RIMS 9, 1974): the
# trapezoidal rule, with step h in t, of the integrand carried onto the real
# line by a change of variables whose terms then fall double-exponentially
# in |t|, also at an algebraic endpoint singularity or an algebraic decay at
# infinity.  A finite piece [a, b] takes tanh-sinh, x = a + (b - a) s with
# s = 1/(1 + exp(-pi sinh t)); a piece [a, inf) takes exp-sinh,
# x = a + exp(pi/2 sinh t).  The first level has step 1/8, and each of the
# six others halves it (to 1/512): it keeps every node before it and
# evaluates only the odd multiples of its step.  The tanh-sinh nodes run
# over |t| <= 6, to within 1e-275 (b - a) of either end, and the exp-sinh
# nodes over |t| <= 6.75, from 1e-291 past a out to 1e291: near the limits
# of double precision, but far enough inside them that the nodes of a
# narrow piece and the weights of the far ones stay normal numbers.
_DE_H0, _DE_LEVELS = 0.125, 7
_DE_T_FINITE, _DE_T_INFINITE = 6.0, 6.75


class _DeLevel(NamedTuple):
    """The new nodes of one level, and its step h.  For tanh-sinh, each
    node's offset from the nearer end of [0, 1] (negative from 1, where
    ``right``) and its weight ds/dt; for exp-sinh, each node x - a and its
    weight dx/dt."""

    h: float
    right: np.ndarray
    off: np.ndarray
    ts_w: np.ndarray
    es_x: np.ndarray
    es_w: np.ndarray


def _de_level(level: int) -> _DeLevel:
    h = _DE_H0 / 2**level

    def new_t(t_max):
        # The first level's nodes, an even number of steps each side of 0
        # so that its even nodes are every other one from the first, or the
        # odd multiples of a later level's step.
        k = 2 * int(t_max / (2 * _DE_H0)) * 2**level
        k = np.arange(-k, k + 1)
        return (k if level == 0 else k[k % 2 == 1]) * h

    t = new_t(_DE_T_FINITE)
    u = np.pi * np.sinh(t)
    s, sc = 1.0 / (1.0 + np.exp(-u)), 1.0 / (1.0 + np.exp(u))
    y = new_t(_DE_T_INFINITE)
    x = np.exp(0.5 * np.pi * np.sinh(y))
    return _DeLevel(
        h, t > 0.0, np.where(t > 0.0, -sc, s), np.pi * np.cosh(t) * s * sc,
        x, 0.5 * np.pi * np.cosh(y) * x,
    )


_DE = tuple(_de_level(level) for level in range(_DE_LEVELS))


def _de_integral(f, edges, tol: float, what: str) -> float:
    """Integral of f over [edges[0], edges[-1]], as the sum over the pieces
    between consecutive edges, of which only the last may end at inf.

    f takes an array of points and returns its values there; each level
    calls it once, on its new nodes in every piece.  The first level gives
    the estimates at steps h and 2h (from its even nodes) at once.  The
    integral has converged when the last halving changed it by at most
    tol max(1, |I|), counting in the outermost terms of each piece, the size
    of what the finite node range leaves out.  Floating-point warnings are
    silenced inside: a non-finite sum, or no convergence at the last level,
    raises NumericError.
    """
    a = np.array(edges[:-1], dtype=float)[:, None]
    b = np.array(edges[1:], dtype=float)[:, None]
    tail = b[-1, 0] == np.inf
    if tail:
        start, a, b = a[-1, 0], a[:-1], b[:-1]
    width = b - a
    total = 0.0
    with np.errstate(all="ignore"):
        for lv in _DE:
            x = (np.where(lv.right, b, a) + width * lv.off).ravel()
            w = (width * lv.ts_w).ravel()
            if tail:
                x, w = np.concatenate((x, start + lv.es_x)), np.concatenate((w, lv.es_w))
            wf = w * f(x)
            total += wf.sum()
            value = lv.h * total
            if not np.isfinite(value):
                raise NumericError(f"non-finite {what}")
            if lv is _DE[0]:
                n = width.size * lv.off.size
                ts, es = wf[:n].reshape(width.size, lv.off.size), wf[n:]
                last = 2.0 * lv.h * (ts[:, ::2].sum() + es[::2].sum())
                ends = np.abs(ts[:, [0, -1]]).sum()
                if tail:
                    ends += np.abs(es[[0, -1]]).sum()
                ends *= lv.h
            change = abs(value - last)
            if change + ends <= tol * max(1.0, abs(value)):
                return float(value)
            last = value
    raise NumericError(
        f"{what} did not converge to {tol:g}: the last halving changed it by {change:.1e}"
    )


def integrate_tail_box(r, c1: float, c2: float, g1: float, g2: float, w: int) -> float:
    """Integral over [1,inf)^2 of R(c1 x^{-1/g1}, c2 y^{-1/g2}) x^{-w} dx dy.

    R must be homogeneous of order 1, as every tail copula is:
    R(ts, s) = s R(t, 1).  With u = c1 x^{-1/g1} = ts and v = c2 y^{-1/g2}
    = s the s-integral is closed-form, which leaves, for p = g1 (1-w),
    q = g2 and e = 1-p-q,

        g1 c1^p g2 c2^q / e * int_0^inf R(t,1) t^{-p-1} min(c2, c1/t)^e dt;

    the integral diverges unless e > 0, and raises DomainError.  R takes an
    array of t.  The 1-D integrand can kink only at t = 1 (comonotone R)
    and at t = c1/c2, so the quadrature is split there.
    """
    p, q = g1 * (1.0 - w), g2
    e = 1.0 - p - q
    if not e > 0.0:
        raise DomainError(f"tail-box integral diverges: g1 (1 - w) + g2 = {p + q} >= 1")

    def f(t):
        # R(t,1)/t times t^{-p}: t^{-p-1} alone overflows at the nodes near 0.
        return r(t, 1.0) / t * t**-p * np.minimum(c2, c1 / t) ** e

    edges = [0.0, *sorted({1.0, c1 / c2}), np.inf]
    val = _de_integral(f, edges, _QUAD_TOL, "tail-box integral")
    return float(val * g1 * c1**p * g2 * c2**q / e)


def integrate_1d_tail(f, kink: float) -> float:
    """Integral over [1,inf) of f, which takes an array of x, split at a
    point where f may kink (when it lies above 1)."""
    edges = [1.0, kink, np.inf] if kink > 1.0 else [1.0, np.inf]
    return _de_integral(f, edges, _TAIL_1D_TOL, "tail integral")


def integrate_unit_log(f) -> float:
    """Integral over (0,1] of f(u)/u, f taking an array of u."""
    return _de_integral(lambda u: f(u) / u, [0.0, 1.0], _QUAD_TOL, "unit log-weight integral")
