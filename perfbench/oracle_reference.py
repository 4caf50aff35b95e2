"""Independent reference values for the ``oracle`` workload.

The package integrates the logistic tail copula over [1, inf)^2 with nested
2-D adaptive quadrature.  This script uses the homogeneity of the tail
copula, R(ts, s) = s R(t, 1), to reduce every double integral to one 1-D
integral with a single breakpoint, and evaluates that with scipy's ``quad``
at a tolerance far below the 1e-5 the benchmark checks.  It shares no code
with ``tailjoint``.

    python3 perfbench/oracle_reference.py > perfbench/references/oracle.json
"""

from __future__ import annotations

import json
import math
import sys

# The oracle workload's configuration.  The cost of the package's 2-D
# quadrature grows steeply with gamma_1 + gamma_2: 0.5 s here, 6 s at
# (0.25, 1/3), which leaves too few ops in a run for a steady figure.
THETA = 2.0
GAMMAS = (0.15, 0.25)
LOG_DN = math.log(50.0)

TOL = 1e-13


def _quad(f, a, b) -> float:
    from scipy import integrate  # here, so that importing this file stays cheap

    val, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=TOL, limit=500)
    return val


def _logistic(theta: float):
    def r(x: float, y: float) -> float:
        return x + y - (x**theta + y**theta) ** (1.0 / theta)

    return r


def tail_box(r, c1: float, c2: float, g1: float, g2: float, w: int) -> float:
    """Integral over [1,inf)^2 of R(c1 x^(-1/g1), c2 y^(-1/g2)) x^(-w) dx dy.

    With u = c1 x^(-1/g1), v = c2 y^(-1/g2), then u = t s, v = s, the
    s-integral has a closed form and what is left is a 1-D integral in t
    whose integrand has a kink only at t = c1 / c2.
    """
    p, q = g1 * (1.0 - w), g2
    e = 1.0 - p - q
    scale = g1 * c1**p * g2 * c2**q / e

    def f(t):
        return r(t, 1.0) * t ** (-p - 1.0) * min(c2, c1 / t) ** e

    b = c1 / c2
    return scale * (_quad(f, 0.0, b) + _quad(f, b, math.inf))


def tail_line(r, c: float, g: float) -> float:
    """Integral over [1,inf) of R(1, c y^(-1/g)) dy, with v = c y^(-1/g)."""
    return g * c**g * _quad(lambda v: r(1.0, v) * v ** (-g - 1.0), 0.0, c)


def v_star_laws(theta: float, gammas, log_dn: float) -> list[list[float]]:
    """Extrapolated LAWS covariance: the (Hill, LAWS) blocks contracted by
    the weights (1, 1/log d_n)."""
    r, g = _logistic(theta), gammas
    c = [1.0 / x - 1.0 for x in g]
    w = 1.0 / log_dn

    def hill_laws(j, ell):
        # Cov(Hill_j, LAWS_ell): a tail-box integral with a dx/x weight on
        # margin j minus a line integral on margin ell.
        return g[ell] * tail_box(r, 1.0, c[ell], g[j], g[ell], 1) - g[j] * g[ell] * tail_line(
            r, c[ell], g[ell]
        )

    diag = []
    for x in g:
        hill = x**2
        cross = x**3 * (1.0 / x - 1.0) ** x / (1.0 - x) ** 2
        laws = 2.0 * x**3 / (1.0 - 2.0 * x)
        diag.append(hill + 2.0 * cross * w + laws * w * w)
    b00 = g[0] * g[1] * (2.0 - 2.0 ** (1.0 / theta))
    b11 = g[0] * g[1] * tail_box(r, c[0], c[1], g[0], g[1], 0)
    off = b00 + (hill_laws(0, 1) + hill_laws(1, 0)) * w + b11 * w * w
    return [[diag[0], off], [off, diag[1]]]


def v_star_qb(theta: float, gammas, log_dn: float) -> list[list[float]]:
    """Extrapolated QB covariance, with the unit integral of R(u,1)/u."""
    r, g = _logistic(theta), gammas
    mg = [1.0 / (1.0 - x) - math.log(1.0 / x - 1.0) + log_dn for x in g]
    r11 = 2.0 - 2.0 ** (1.0 / theta)
    iu = _quad(lambda u: r(u, 1.0) / u, 0.0, 1.0)
    off = g[0] * g[1] * (r11 * (mg[0] - 1.0) * (mg[1] - 1.0) + (mg[0] + mg[1]) * iu)
    diag = [x**2 * (1.0 + m**2) for x, m in zip(g, mg)]
    return [[diag[0] / log_dn**2, off / log_dn**2], [off / log_dn**2, diag[1] / log_dn**2]]


def reference(theta: float = THETA, gammas=GAMMAS, log_dn: float = LOG_DN) -> dict:
    return {
        "theta": theta,
        "gammas": list(gammas),
        "log_dn": log_dn,
        "v_star_laws": v_star_laws(theta, gammas, log_dn),
        "v_star_qb": v_star_qb(theta, gammas, log_dn),
    }


if __name__ == "__main__":
    json.dump(reference(), sys.stdout, indent=2)
    sys.stdout.write("\n")
