"""Host-speed calibration.

The shared host this benchmark was built on changes speed by up to 2x in
phases that last seconds to minutes, and every time as measured follows it.
Two fixed tasks that do not use the package are timed next to every op and
in every set-up probe.  A time at reference speed is the time as measured,
scaled by CAL_REF_S over the calibration's time at that moment.  A change to
the package moves the scaled time in the same proportion as the real one.

Neither task alone tracks the host: in phases where one speeds up more than
the workloads, the other speeds up less.  Their geometric mean tracked all
three workloads to within a few percent.
"""

from __future__ import annotations

import math
import statistics
import time

CAL_REF_S = 1.2e-3  # roughly the calibration's time on that host
# Runs of each task of which the median counts, at the least.  One more runs
# first and does not count: the first run after an op or a fresh import is
# slow.
REPEATS = 9


def calibration(min_seconds: float = 0.0) -> float:
    """Seconds the calibration takes now: the geometric mean of the median
    times of its two tasks, run in turn for at least ``min_seconds``."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal(1000)
    small_arrays(x)
    replication()
    a, b = [], []
    start = time.perf_counter()
    while len(a) < REPEATS or time.perf_counter() - start < min_seconds:
        a.append(timed(small_arrays, x))
        b.append(timed(replication))
    return math.sqrt(statistics.median(a) * statistics.median(b))


def timed(task, *args) -> float:
    start = time.perf_counter()
    task(*args)
    return time.perf_counter() - start


def small_arrays(x) -> float:
    """Small-array numpy calls made from Python, 40 rounds on ``x``."""
    import numpy as np

    acc = 0.0
    for _ in range(40):
        y = np.sort(x)
        acc += float(np.mean(np.log(np.abs(y[-100:]))))
        np.argsort(x)
        acc += float(np.sum(np.where(x > 0.0, x, 0.3 * x)))
    return acc


def replication() -> float:
    """One made-up replication in the package's style: a Pareto sample of
    1000 pairs, a Hill estimate and an expectile root per margin, ranks,
    a Cholesky solve, a chi-square tail and an eigendecomposition."""
    import numpy as np
    from scipy import linalg, optimize, stats

    x = np.random.default_rng(7).pareto(3.0, size=(1000, 2)) + 1.0
    acc = 0.0
    for j in range(2):
        xs = np.sort(x[:, j])
        q = xs[-51]
        acc += float(np.mean(np.log(xs[-50:] / q)))

        def psi(theta, xs=xs):
            r = xs - theta
            return float(np.sum(np.where(r > 0.0, 0.95 * r, 0.05 * r)))

        acc += optimize.brentq(psi, xs[0], xs[-1], xtol=1e-12)
    ranks = np.argsort(np.argsort(x, axis=0), axis=0)
    tail = float(np.mean((ranks[:, 0] >= 950) & (ranks[:, 1] >= 950)))
    c = np.array([[1.0 + tail, tail], [tail, 1.0 + tail]])
    v = linalg.cho_solve(linalg.cho_factor(c, lower=True), np.array([0.3, -0.2]))
    acc += float(stats.chi2.sf(float(v @ v), 1))
    return acc + float(np.linalg.eigh(c)[0][0])
