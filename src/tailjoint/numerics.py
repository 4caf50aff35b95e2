"""Special functions, SPD matrix algebra and 1-D tail quadrature.

All routines are pure functions; matrices are numpy arrays wrapped in the
lightweight :class:`SpdMatrix` container which enforces symmetry and the
eigenvalue clipping policy used throughout the covariance estimators.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, linalg, stats

from .errors import (
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
    return float(stats.norm.ppf(p))


def chi_square_quantile(p: float, df: int) -> float:
    """(1-alpha)-quantile of the chi-square distribution with df degrees."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"chi-square quantile requires p in (0,1), got {p}")
    if df < 1 or int(df) != df:
        raise DomainError(f"chi-square quantile requires integer df >= 1, got {df}")
    return float(stats.chi2.ppf(p, df))


def chi_square_cdf(x: float, df: int) -> float:
    if df < 1:
        raise DomainError(f"chi-square cdf requires df >= 1, got {df}")
    return float(stats.chi2.cdf(x, df))


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
        if not np.all(np.isfinite(m)):
            raise NumericError(f"{name} has non-finite entries")
        scale = np.max(np.abs(m)) or 1.0
        if np.max(np.abs(m - m.T)) > 1e-8 * scale:
            raise DomainError(f"{name} is not symmetric")
        sym = 0.5 * (m + m.T)
        w, v = np.linalg.eigh(sym)
        tol = CLIP_RTOL * max(abs(np.trace(sym)), np.finfo(float).tiny)
        if w[0] < -tol:
            raise NotPositiveSemidefiniteError(
                f"{name} has eigenvalue {w[0]:.3e} below -{tol:.3e}"
            )
        clip = float(max(0.0, -w[0]))
        if w[0] < 0.0:
            w = np.clip(w, 0.0, None)
            sym = (v * w) @ v.T
            sym = 0.5 * (sym + sym.T)
        return cls(entries=sym, clip_magnitude=clip)

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
        tr = abs(np.trace(self.entries)) or 1.0
        try:
            c, low = linalg.cho_factor(self.entries, lower=True)
        except linalg.LinAlgError as exc:
            raise SingularCovarianceError(f"singular {name} matrix") from exc
        if np.min(np.diag(c)) ** 2 <= 1e-10 * tr:
            raise SingularCovarianceError(f"singular {name} matrix")
        y = linalg.solve_triangular(c, vec, lower=low)
        return float(y @ y)

    def solve(self, rhs, name: str = "covariance") -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        try:
            c, low = linalg.cho_factor(self.entries, lower=True)
        except linalg.LinAlgError as exc:
            raise SingularCovarianceError(f"singular {name} matrix") from exc
        return linalg.cho_solve((c, low), rhs)


def _quad(f, a, b, tol=_QUAD_TOL):
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
