"""Shared pytest hooks and test helpers.

The acceptance tests record one scorecard line per criterion; printing them
from inside the tests would be swallowed by output capture for passing
tests, so they are replayed in the terminal summary instead.  When the
environment variable TAILJOINT_SCORECARD names a file, the lines are also
written there as JSON, one {"criterion", "status", "detail"} object per
line in the order recorded, so that two runs' scorecards can be diffed.
"""

import json
import os
import sys

import numpy as np
from hypothesis import strategies as st

from tailjoint.errors import TailjointError
from tailjoint.sample import MultivariateSample

CRITERION_LINES = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
    path = os.environ.get("TAILJOINT_SCORECARD")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([scorecard_entry(line) for line in CRITERION_LINES], fh, indent=1)
            fh.write("\n")


def scorecard_entry(line: str) -> dict:
    """A scorecard line "criterion-N: STATUS (detail)" as a JSON object; the
    detail, with its rates and failure counts, is "" when the line has none."""
    criterion, _, rest = line.partition(": ")
    status, _, detail = rest.partition(" (")
    return {"criterion": criterion, "status": status, "detail": detail.removesuffix(")")}


def count_fits(monkeypatch) -> list:
    """Record the level of every marginal fit computed (not looked up) from
    here on, one entry per level of a fit of many levels; returns the
    record.  ``marginal._fit_sorted`` is replaced in every loaded
    ``tailjoint`` module that binds it."""
    from tailjoint import marginal

    fits = []
    original = marginal._fit_sorted

    def counting(xs, tau, checks):
        fits.extend(np.ravel(tau).tolist())
        return original(xs, tau, checks)

    for name, module in list(sys.modules.items()):
        if name.startswith("tailjoint.") and getattr(module, "_fit_sorted", None) is original:
            monkeypatch.setattr(module, "_fit_sorted", counting)
    return fits


def record_outcomes(monkeypatch) -> list:
    """Record the per-replication outcomes of every Monte Carlo harness run
    from here on (``simulation._outcomes``), one list per run; returns the
    record."""
    from tailjoint import simulation

    runs = []
    original = simulation._outcomes

    def recording(*args):
        runs.append(original(*args))
        return runs[-1]

    monkeypatch.setattr(simulation, "_outcomes", recording)
    return runs


def assert_same_outcome(outcome, serial) -> None:
    """A stacked replication's outcome, its values or the TailjointError that
    failed it, is serial()'s value, or the error of the same class and
    message that serial() raises."""
    try:
        want = serial()
    except TailjointError as exc:
        assert (type(outcome), str(outcome)) == (type(exc), str(exc))
    else:
        assert outcome == want


def gls_deviance(z, v) -> tuple:
    """The GLS common mean and the deviance of the vector z under the
    SpdMatrix v, as floats: ``equality_tests._deviance`` on a stack of one,
    the arithmetic of every equality test."""
    from tailjoint.equality_tests import _deviance
    from tailjoint.errors import RAISE

    mean, stat = _deviance(np.asarray(z, dtype=float)[None], v._stack, RAISE)
    return float(mean[0]), float(stat[0])


def count_eighs(monkeypatch) -> list:
    """Record every ``np.linalg.eigh`` call from here on as the length of its
    argument: the number of matrices of a (B, d, d) stack; returns the
    record."""
    eighs = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        eighs.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return eighs


def count_numpy_calls(monkeypatch, *names) -> list:
    """Record the name of every call of the given numpy functions (``np.sort``
    for "sort") from here on; returns the record."""
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(np, name, counting(getattr(np, name)))
    return calls


def count_sorts(monkeypatch) -> list:
    """Record the shape and kind of every ``np.argsort`` call from here on."""
    calls = []
    argsort = np.argsort

    def counting(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("kind")))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    return calls


def count_rank_builds(monkeypatch) -> list:
    """Record every ``np.take_along_axis`` and ``np.put_along_axis`` call
    from here on, the calls that build or read a rank array, by name;
    returns the record."""
    return count_numpy_calls(monkeypatch, "take_along_axis", "put_along_axis")


def column_ranks(order: np.ndarray) -> np.ndarray:
    """(..., d, n) ranks, 1 = smallest, of the columns whose whole (..., d, n)
    row order is given: the reference that the tests read ranks from."""
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return ranks


def step_unit_integral(tc, axis: int) -> float:
    """Integral over (0,1] of R-hat(u,1)/u (axis 0) or R-hat(1,u)/u (axis 1)
    of an empirical tail copula, summed step by step: R-hat(., 1) is i/k on
    [p_i, p_{i+1}) for the sorted breakpoints p_i <= 1 and p_{m+1} = 1."""
    var, other = (tc.u, tc.v) if axis == 0 else (tc.v, tc.u)
    pts = np.sort(var[(var <= 1.0) & (other <= 1.0)])
    steps = np.arange(1, pts.size + 1) / tc.k_effective
    return float(np.sum(steps * np.diff(np.log(np.append(pts, 1.0)))))


@st.composite
def tail_panels(draw) -> MultivariateSample:
    """An n x d panel (n = 8..80, d = 1..5) of Pareto-tailed columns with
    ties from rounding, a constant run in each column and, when shifted far
    enough, negative values."""
    n, d = draw(st.integers(8, 80)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (1.0 - rng.random((n, d))) ** -draw(st.floats(0.05, 0.45))
    x = np.round(x, draw(st.integers(1, 6))) - draw(st.floats(0.0, 1.5))
    for j in range(d):
        start, length = rng.integers(0, n), rng.integers(1, n // 4 + 1)
        x[start : start + length, j] = x[start, j]
    return MultivariateSample(x, tuple(f"X{j}" for j in range(d)))


def level_grid(n: int) -> list:
    """Levels tau in [0.5, 0.98] at which n(1-tau) is mostly not an integer,
    and the levels 1 - k/n at which it is."""
    return list(np.linspace(0.5, 0.98, 23)) + [1.0 - k / n for k in range(1, n)]


def comonotone_laws_pair(g1, g2):
    """Closed form of the comonotone LAWS off-diagonal g1 g2 times the
    integral over [1,inf)^2 of min(c1 x^(-1/g1), c2 y^(-1/g2)), c = 1/g - 1.

    With u = c1 x^(-1/g1), v = c2 y^(-1/g2) it is g1^2 g2^2 c1^g1 c2^g2 times
    the integral of min(u,v) u^(-g1-1) v^(-g2-1) over (0,c1] x (0,c2], a sum
    of power integrals split at u = v and u = c2."""
    c1, c2 = 1.0 / g1 - 1.0, 1.0 / g2 - 1.0
    a = min(c1, c2)
    box = a ** (1.0 - g1 - g2) / ((1.0 - g1 - g2) * g2 * (1.0 - g2)) - a ** (
        1.0 - g1
    ) * c2**-g2 / (g2 * (1.0 - g1))
    if c1 > c2:
        box += c2 ** (1.0 - g2) / (1.0 - g2) * (c2**-g1 - c1**-g1) / g1
    return (g1 * g2) ** 2 * c1**g1 * c2**g2 * box
