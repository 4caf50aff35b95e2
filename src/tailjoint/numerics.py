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

The normal and chi-square functions call ``scipy.special`` directly.
``scipy.integrate`` is imported by the first quadrature, which only the
theoretical (oracle) covariances run, so that importing the package loads
neither it nor ``scipy.stats``.
"""

from __future__ import annotations

import warnings
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

# Absolute and relative tolerance of the adaptive quadratures.
# integrate_1d_tail does not split off kinks; the comonotone one in the
# Hill-LAWS cross term costs up to 4e-10 relative at 1e-10, below 1e-12 at
# 1e-12.
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


def _quad(f, a, b, tol=_QUAD_TOL):
    # Imported here, and quad looked up on each call, so that a wrapper
    # patched onto scipy.integrate.quad (as perfbench's tracer does) sees
    # every quadrature.
    from scipy import integrate

    # Kinked (min-type) integrands make quad grumble about roundoff even
    # when the returned value is accurate; keep the noise out of user runs.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=300)
    return val


def integrate_tail_box(r, c1: float, c2: float, g1: float, g2: float, w: int) -> float:
    """Integral over [1,inf)^2 of R(c1 x^{-1/g1}, c2 y^{-1/g2}) x^{-w} dx dy.

    R must be homogeneous of order 1, as every tail copula is:
    R(ts, s) = s R(t, 1).  With u = c1 x^{-1/g1} = ts and v = c2 y^{-1/g2}
    = s the s-integral is closed-form, which leaves, for p = g1 (1-w),
    q = g2 and e = 1-p-q > 0,

        g1 c1^p g2 c2^q / e * int_0^inf R(t,1) t^{-p-1} min(c2, c1/t)^e dt.

    The 1-D integrand can kink only at t = 1 (comonotone R) and at
    t = c1/c2, so the quadrature is split there.
    """
    p, q = g1 * (1.0 - w), g2
    e = 1.0 - p - q

    def f(t):
        return r(t, 1.0) * t ** (-p - 1.0) * min(c2, c1 / t) ** e

    edges = [0.0, *sorted({1.0, c1 / c2}), np.inf]
    val = sum(_quad(f, lo, hi) for lo, hi in zip(edges, edges[1:]))
    val *= g1 * c1**p * g2 * c2**q / e
    if not np.isfinite(val):
        raise NumericError("non-finite tail-box integral")
    return float(val)


def integrate_1d_tail(f) -> float:
    """Adaptive integral of f(x) over [1,inf) via the x = 1/t transform."""
    val = _quad(lambda t: f(1.0 / t) / t**2, 0.0, 1.0, _TAIL_1D_TOL)
    if not np.isfinite(val):
        raise NumericError("non-finite tail integral")
    return float(val)


def integrate_unit_log(f) -> float:
    """Adaptive integral of f(u)/u over (0,1]."""
    val = _quad(lambda u: f(u) / u, 0.0, 1.0)
    if not np.isfinite(val):
        raise NumericError("non-finite unit log-weight integral")
    return float(val)
