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

The normal and chi-square functions call ``scipy.special`` directly; no
other scipy module is used.  The 1-D integrals of the theoretical (oracle)
covariances use one nested double-exponential rule (``_de_integral``):
each level evaluates the integrand once, on an array of nodes, and an
integral that does not reach its tolerance raises NumericError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

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


def std_normal_quantile(p: float) -> float:
    """Quantile of the standard Gaussian distribution."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal quantile requires p in (0,1), got {p}")
    return float(special.ndtri(p))


def _check_df(df, name: str) -> None:
    if not (df >= 1 and float(df).is_integer()):
        raise DomainError(f"chi-square {name} requires integer df >= 1, got {df}")


def chi_square_quantile(p: float, df: int) -> float:
    """(1-alpha)-quantile of the chi-square distribution with df degrees."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"chi-square quantile requires p in (0,1), got {p}")
    _check_df(df, "quantile")
    return float(2.0 * special.gammaincinv(df / 2.0, p))


def chi_square_cdf(x: float, df: int) -> float:
    _check_df(df, "cdf")
    return float(special.chdtr(df, x))


def chi_square_sf(x: float, df: int) -> float:
    """Upper tail P(X > x), accurate where it is far below 1e-16."""
    _check_df(df, "sf")
    return float(special.chdtrc(df, x))


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
        s = (v * w[:, None, :]) @ v.transpose(0, 2, 1)
        return SpdMatrix(_SpdStack(0.5 * (s + s.transpose(0, 2, 1)), np.zeros(1), w, v))

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
        vn = v[neg]
        s = (vn * w[neg][:, None, :]) @ vn.transpose(0, 2, 1)
        sym[neg] = 0.5 * (s + s.transpose(0, 2, 1))
    return _SpdStack(sym, clip, w, v)


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
