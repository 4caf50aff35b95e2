"""Shared pytest hooks and test helpers.

The acceptance tests record one scorecard line per criterion; printing them
from inside the tests would be swallowed by output capture for passing
tests, so they are replayed in the terminal summary instead.
"""

import numpy as np

CRITERION_LINES = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def count_fits(monkeypatch) -> list:
    """Record the level of every marginal fit computed (not looked up) from
    here on; returns the record."""
    from tailjoint import marginal

    fits = []
    original = marginal._fit_sorted

    def counting(xs, tau):
        fits.append(tau)
        return original(xs, tau)

    monkeypatch.setattr(marginal, "_fit_sorted", counting)
    return fits


def step_unit_integral(tc, axis: int) -> float:
    """Integral over (0,1] of R-hat(u,1)/u (axis 0) or R-hat(1,u)/u (axis 1)
    of an empirical tail copula, summed step by step: R-hat(., 1) is i/k on
    [p_i, p_{i+1}) for the sorted breakpoints p_i <= 1 and p_{m+1} = 1."""
    var, other = (tc.u, tc.v) if axis == 0 else (tc.v, tc.u)
    pts = np.sort(var[(var <= 1.0) & (other <= 1.0)])
    steps = np.arange(1, pts.size + 1) / tc.k_effective
    return float(np.sum(steps * np.diff(np.log(np.append(pts, 1.0)))))
