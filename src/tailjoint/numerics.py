"""Special functions, SPD matrix algebra and 1-D tail quadrature.

All routines are pure functions; matrices are numpy arrays wrapped in the
lightweight :class:`SpdMatrix` container which enforces symmetry and the
eigenvalue clipping policy used throughout the covariance estimators.  The
check and clip (``_spd_stack``) and the Cholesky algebra (``_cholesky``,
``_forward``, ``_cho_solve``) work on stacks of matrices; an ``SpdMatrix``
is their stack of one.

The normal and chi-square functions call ``scipy.special`` directly.
``scipy.integrate`` is imported by the first quadrature, which only the
theoretical (oracle) covariances run, so that importing the package loads
neither it nor ``scipy.stats``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Symmetric positive semidefinite matrix with clipping provenance.

    Construction symmetrizes the input and clips slightly negative
    eigenvalues (within CLIP_RTOL times the trace) up to zero; larger
    violations raise :class:`NotPositiveSemidefiniteError`.
    """

    entries: np.ndarray
    clip_magnitude: float = 0.0

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_array(cls, m, name: str = "matrix") -> "SpdMatrix":
        m = np.asarray(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"{name} must be square, got shape {m.shape}")
        entries, clip = _spd_stack(m[None], name, RAISE)
        return cls(entries=entries[0], clip_magnitude=float(clip[0]))

    def sqrt(self) -> "SpdMatrix":
        """Principal symmetric square root."""
        w, v = np.linalg.eigh(self.entries)
        w = np.clip(w, 0.0, None)
        s = (v * np.sqrt(w)) @ v.T
        return SpdMatrix(entries=0.5 * (s + s.T))

    def quadratic_form(self, vec, name: str = "covariance") -> float:
        """v^T m^{-1} v through a Cholesky factorization."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise DomainError(
                f"vector of length {vec.shape} does not match dimension {self.dim}"
            )
        m = self.entries[None]
        c = _cholesky(m)
        RAISE(_singular(c, m), lambda j: SingularCovarianceError(f"singular {name} matrix"))
        return float(_squared_norm(_forward(c, vec[None]))[0])


def _spd_stack(m: np.ndarray, name: str, checks) -> tuple[np.ndarray, np.ndarray]:
    """The symmetrized, PSD-clipped matrices of the stack m (B, d, d) and
    their clip magnitudes.  A matrix with a non-finite entry, an asymmetry
    above 1e-8 of its largest entry, or an eigenvalue below -CLIP_RTOL times
    its trace fails its sample, in that order; eigenvalues above that are
    clipped up to zero.  A non-finite matrix is replaced by the identity so
    that the decomposition of the others is defined."""
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
        vn = v[neg]
        s = (vn * np.clip(w[neg], 0.0, None)[:, None, :]) @ vn.transpose(0, 2, 1)
        sym[neg] = 0.5 * (s + s.transpose(0, 2, 1))
    return sym, clip


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of each matrix of the stack a (B, d, d), column
    by column.  Where a pivot is not positive the factor's diagonal entry is
    zero or NaN; ``_singular`` and the callers' checks read that."""
    c = np.zeros_like(a)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(a.shape[-1]):
            row = c[:, j, :j]
            c[:, j, j] = np.sqrt(a[:, j, j] - _squared_norm(row))
            below = a[:, j + 1 :, j] - np.einsum("bik,bk->bi", c[:, j + 1 :, :j], row)
            c[:, j + 1 :, j] = below / c[:, j, j, None]
    return c


def _singular(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Where the factor c of a is not usable for a quadratic form: a pivot
    that is not positive, or a smallest diagonal entry whose square is at
    most 1e-10 times |trace a| (1 for a zero trace)."""
    tr = np.abs(np.trace(a, axis1=-2, axis2=-1))
    tr[tr == 0.0] = 1.0
    return ~(np.diagonal(c, axis1=-2, axis2=-1).min(axis=-1) ** 2 > 1e-10 * tr)


def _squared_norm(y: np.ndarray) -> np.ndarray:
    return (y * y).sum(axis=-1)


def _forward(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y with c y = b for each lower factor c (B, d, d) and row b (B, d)."""
    y = np.empty_like(b)
    for j in range(b.shape[-1]):
        y[:, j] = (b[:, j] - (c[:, j, :j] * y[:, :j]).sum(axis=-1)) / c[:, j, j]
    return y


def _cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with c c^T x = b for each lower factor c (B, d, d) and row b (B, d)."""
    y = _forward(c, b)
    x = np.empty_like(y)
    for j in reversed(range(b.shape[-1])):
        x[:, j] = (y[:, j] - (c[:, j + 1 :, j] * x[:, j + 1 :]).sum(axis=-1)) / c[:, j, j]
    return x


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
