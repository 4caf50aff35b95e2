"""Seedable samplers for the benchmark dependence models and the Monte
Carlo harnesses for MSE, region coverage, interval coverage and test power.

Reproducibility contract: replication i of a run with master seed s draws
exclusively from a counter-based generator keyed by (s, i), and results are
reduced in replication order.  Outputs are therefore bit-identical for a
given (model, n, M, master_seed).  A run keys one Philox generator afresh
before each replication (``_rekey``), to the state that rng_stream(s, i)
starts in.  Every harness runs on one engine
(``_run_mc``): it draws stacks of replications in place, each replication
into its own rows and each transform once per stack (``_draw``, whose
stack of one is sample_model's draw), sorts and fits each stack
at once (keeping the row order of only the top rows that its estimators
read), and hands it to the harness's outcome function, which runs the
stacked code that the single-sample estimators, regions, intervals and
tests run as a stack of one (``inference._estimate`` and its consumers), so
each replication's outcome and failure are the single-sample call's.

The samplers load no scipy, but for Student margins at a tail index other
than 1/2 or 1/4: the Gaussian copula's normal cdf is Cephes ndtr
(``numerics._ndtr``), and the Student quantile at nu = 2 and 4 is Shaw's
closed form (``_student_quantile``), each bit for bit scipy's.  Student
margins at any other nu (such as 3, at tail index 1/3) and the Frechet and
Student margin oracles import ``scipy.special`` on first use;
``scipy.optimize`` is imported by the first true-expectile solve.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import Checks, DomainError, TailjointError
from .inference import (
    _check_alpha, _check_method, _endpoints, _estimate, _region_parts,
    _require_tau_prime,
)
from .equality_tests import _statistic
from .marginal import _check_hill_size, _fit_sorted, _qb_factors
from .numerics import _ndtr, _per_element, _quadratic_form, chi_square_quantile
from .sample import MultivariateSample, TailLevelPair, _stack_columns, effective_k
from .taildep import _ordered_rows

_PAIRWISE_CORRELATIONS = {
    2: {(0, 1): 0.8},
    3: {(0, 1): 0.8, (0, 2): 0.6, (1, 2): 0.4},
    4: {
        (0, 1): 0.8, (0, 2): 0.6, (0, 3): 0.4,
        (1, 2): 0.5, (1, 3): 0.4, (2, 3): 0.4,
    },
    5: {
        (0, 1): 0.8, (0, 2): 0.6, (0, 3): 0.4, (0, 4): 0.2,
        (1, 2): 0.5, (1, 3): 0.4, (1, 4): 0.3,
        (2, 3): 0.6, (2, 4): 0.4, (3, 4): 0.3,
    },
}

_MULTIVARIATE_KINDS = (
    "clayton_frechet",
    "gaussian_student",
    "gumbel_frechet",
    "multivariate_student",
)
_UNIVARIATE_KINDS = (
    "univariate_frechet",
    "univariate_pareto",
    "univariate_student",
)


def listed_correlation(d: int) -> np.ndarray:
    """The benchmark correlation matrix for dimension d in 2..5."""
    if d not in _PAIRWISE_CORRELATIONS:
        raise DomainError(f"no listed correlation matrix for d={d}")
    m = np.eye(d)
    for (j, ell), rho in _PAIRWISE_CORRELATIONS[d].items():
        m[j, ell] = m[ell, j] = rho
    return m


@dataclass(frozen=True)
class SimulationModel:
    """A benchmark data-generating process with per-margin tail indices."""

    kind: str
    d: int
    gammas: tuple[float, ...]
    theta: float = 10.0
    vartheta: float = 3.0

    def __post_init__(self):
        if self.kind not in _MULTIVARIATE_KINDS + _UNIVARIATE_KINDS:
            raise DomainError(f"unknown simulation model {self.kind!r}")
        if self.kind in _UNIVARIATE_KINDS and self.d != 1:
            raise DomainError(f"{self.kind} requires d=1")
        if self.kind in _MULTIVARIATE_KINDS and not 2 <= self.d <= 5:
            raise DomainError(f"{self.kind} requires d in 2..5")
        gammas = tuple(float(g) for g in self.gammas)
        if len(gammas) != self.d:
            raise DomainError(f"{len(gammas)} tail indices for d={self.d}")
        if any(not 0.0 < g < 1.0 for g in gammas):
            raise DomainError("tail indices must lie in (0,1)")
        if not 0.0 < self.theta < math.inf:
            raise DomainError(f"Clayton parameter must be positive and finite, got {self.theta}")
        if not 1.0 <= self.vartheta < math.inf:
            raise DomainError(f"Gumbel parameter must be finite, at least 1, got {self.vartheta}")
        if self.kind == "multivariate_student" and len(set(gammas)) != 1:
            raise DomainError(
                "the multivariate Student model has a single degrees-of-freedom "
                "parameter and cannot mix tail indices"
            )
        object.__setattr__(self, "gammas", gammas)

    @classmethod
    def clayton_frechet(cls, d: int, gamma=1.0 / 3.0, theta: float = 10.0):
        return cls("clayton_frechet", d, _expand(gamma, d), theta=theta)

    @classmethod
    def gaussian_student(cls, d: int, gamma=1.0 / 3.0):
        return cls("gaussian_student", d, _expand(gamma, d))

    @classmethod
    def gumbel_frechet(cls, d: int, gamma=1.0 / 3.0, vartheta: float = 3.0):
        return cls("gumbel_frechet", d, _expand(gamma, d), vartheta=vartheta)

    @classmethod
    def multivariate_student(cls, d: int, gamma=1.0 / 3.0):
        return cls("multivariate_student", d, _expand(gamma, d))

    @classmethod
    def univariate(cls, margin: str, gamma: float = 1.0 / 3.0):
        return cls(f"univariate_{margin}", 1, (gamma,))

    def margin_oracle(self, j: int) -> "MarginOracle":
        g = self.gammas[j]
        if self.kind in ("clayton_frechet", "gumbel_frechet", "univariate_frechet"):
            return MarginOracle("frechet", g)
        if self.kind == "univariate_pareto":
            return MarginOracle("pareto", g)
        return MarginOracle("student", g)


def _expand(gamma, d: int) -> tuple[float, ...]:
    if np.isscalar(gamma):
        return (float(gamma),) * d
    return tuple(float(g) for g in gamma)


def rng_stream(master_seed: int, stream_index: int) -> np.random.Generator:
    """Counter-based generator keyed by (master seed, replication index),
    each an integer in [0, 2^64)."""
    for name, value in (("seed", master_seed), ("stream index", stream_index)):
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not (integer and 0 <= value < 2**64):
            raise DomainError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    key = np.array([master_seed, stream_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


_ZEROS = np.zeros(4, dtype=np.uint64)


def _rekey(rng: np.random.Generator, master_seed: int, stream_index: int) -> np.random.Generator:
    """rng, its Philox set to the state in which rng_stream(master_seed,
    stream_index) starts: that key, counter 0 and an empty buffer.  The
    setter copies the arrays; it is a fifth of the cost of a new Philox."""
    key = np.array([master_seed, stream_index], dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def _positive_stable(alpha: float, w: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Positive alpha-stable variates with Laplace transform exp(-t^alpha),
    by Kanter's representation (Ann. Probab. 3(4), 1975), from uniforms w
    on [0, 1) and standard exponentials e of one shape.  Both are
    overwritten, and the variates are returned in a new array."""
    w *= np.pi
    t = w * (1.0 - alpha)
    np.sin(t, out=t)
    np.divide(t, e, out=e)
    e **= (1.0 - alpha) / alpha
    np.multiply(w, alpha, out=t)
    np.sin(t, out=t)
    np.sin(w, out=w)
    w **= 1.0 / alpha
    t /= w
    t *= e
    return t


def sample_model(
    model: SimulationModel, n: int, rng: np.random.Generator
) -> MultivariateSample:
    """Draw n observations from the model using the supplied generator:
    ``_draw``'s stack of one.  The sample holds the drawn (d, n) columns
    transposed, as n x d values in column-major order, so its stack
    (``MultivariateSample._stack``) reads them without a copy."""
    if n < 4:
        raise DomainError("samplers require n >= 4")
    labels = tuple(f"X{j + 1}" for j in range(model.d))
    return MultivariateSample(_draw(model, n, 1, [rng])[0].T, labels)


def _draw(model: SimulationModel, n: int, B: int, rngs) -> np.ndarray:
    """The (B, d, n) columns of B samples of n observations from the model,
    sample b drawn from the b-th generator that rngs yields.

    Each sample's raw variates (uniforms, exponentials, gammas, normals and
    chi-square variates, in the order that the model reads them) are drawn
    in turn into its own rows of buffers that the stack shares; an (n, d)
    block is drawn row-major and written transposed, after the normals'
    correlation is applied.  Each transform then runs once on the whole
    stack, in place.  The transforms are elementwise, so a sample's values
    are bit for bit the same in a stack of any size."""
    g = np.asarray(model.gammas)[:, None]
    d, kind = model.d, model.kind
    x = np.empty((B, d, n))
    if kind in ("clayton_frechet", "gumbel_frechet"):
        gumbel = kind == "gumbel_frechet"
        frailty, e = np.empty((B, n)), np.empty((n, d))
        w = np.empty((B, n)) if gumbel else None
        for b, rng in enumerate(rngs):
            if gumbel:
                rng.random(out=w[b])
                rng.standard_exponential(out=frailty[b])
            else:
                rng.standard_gamma(1.0 / model.theta, out=frailty[b])
            x[b] = rng.standard_exponential(out=e).T
        if gumbel:
            frailty = _positive_stable(1.0 / model.vartheta, w, frailty)
        x /= frailty[:, None]
        if gumbel:  # u = exp(-(e / frailty)^(1/vartheta))
            x **= 1.0 / model.vartheta
            np.negative(x, out=x)
            np.exp(x, out=x)
        else:  # u = (1 + e / frailty)^(-1/theta)
            x += 1.0
            x **= -1.0 / model.theta
        _frechet(x, g)
    elif kind in ("gaussian_student", "multivariate_student"):
        chol_t = np.linalg.cholesky(listed_correlation(d)).T
        student = kind == "multivariate_student"
        nu, chi = 1.0 / g[0, 0], np.empty((B, n)) if student else None
        for b, rng in enumerate(rngs):
            x[b] = (rng.standard_normal(size=(n, d)) @ chol_t).T
            if student:
                chi[b] = rng.chisquare(nu, size=n)
        if student:  # x = z / sqrt(chi / nu)
            chi /= nu
            np.sqrt(chi, out=chi)
            x /= chi[:, None]
        else:
            x = _ndtr(x)
            for j in range(d):
                x[:, j] = _student_quantile(x[:, j], 1.0 / g[j, 0])
    else:
        for b, rng in enumerate(rngs):
            rng.random(out=x[b, 0])
        if kind == "univariate_frechet":
            _frechet(x, g)
        elif kind == "univariate_pareto":
            np.subtract(1.0, x, out=x)
            x **= -g
        else:
            x[:, 0] = _student_quantile(x[:, 0], 1.0 / g[0, 0])
    return x


def _frechet(u: np.ndarray, g: np.ndarray) -> None:
    """Map levels u to Frechet(g) values, (-log u)^-g, in place."""
    np.log(u, out=u)
    np.negative(u, out=u)
    u **= -g


def _student_quantile(u: np.ndarray, nu: float) -> np.ndarray:
    """The Student-t(nu) quantiles of the levels u in [0, 1], -inf at 0 and
    +inf at 1: scipy.special.stdtrit's, bit for bit.

    At nu = 2 and 4 these are Shaw's exact forms (J. Comput. Finance 9(4),
    2006) in the order of operations of Boost, which stdtrit runs: with
    p = min(u, 1 - u) and v = 1 - p, the lower quantile is (2p - 1) /
    sqrt(2pv) at nu = 2, and -sqrt(r - 4) at nu = 4 (+0 at p = 1/2), where
    a = 4pv and r = 4 cos(acos(sqrt a) / 3) / sqrt a (cos and acos from
    math); u > 1/2 takes its negative.  Every other nu loads scipy.special for stdtrit,
    which gives +inf at u = 0.
    """
    if nu not in (2.0, 4.0):
        from scipy import special

        return np.where(u == 0.0, -np.inf, special.stdtrit(nu, u))
    upper = u > 0.5
    p = np.where(upper, 1.0 - u, u)
    v = 1.0 - p
    with np.errstate(divide="ignore"):  # p = 0: the infinite quantile
        if nu == 2.0:
            t = (2.0 * p - 1.0) / np.sqrt(2.0 * p * v)
        else:
            root = np.sqrt(4.0 * p * v)
            r = 4.0 * _per_element(lambda s: math.cos(math.acos(s) / 3.0), root) / root
            x = np.sqrt(r - 4.0)
            t = np.where(p < 0.5, -x, x)
    return np.where(upper, -t, t)


@dataclass(frozen=True)
class MarginOracle:
    """Closed-form marginal law used to compute true expectiles."""

    kind: str
    gamma: float

    def __post_init__(self):
        if self.kind not in ("frechet", "pareto", "student"):
            raise DomainError(f"unknown margin {self.kind!r}")
        if not 0.0 < self.gamma < 1.0:
            raise DomainError("margin tail index must lie in (0,1)")

    def mean(self) -> float:
        if self.kind == "frechet":
            from scipy import special

            return float(special.gamma(1.0 - self.gamma))
        if self.kind == "pareto":
            return 1.0 / (1.0 - self.gamma)
        return 0.0

    def partial_mean(self, theta: float) -> float:
        """E(X - theta)_+, exact via truncated first moments."""
        if self.kind == "pareto":
            if theta <= 1.0:
                return self.mean() - theta
            return self.gamma / (1.0 - self.gamma) * theta ** (1.0 - 1.0 / self.gamma)
        from scipy import special

        if self.kind == "frechet":
            if theta <= 0.0:
                return self.mean() - theta
            a = theta ** (-1.0 / self.gamma)
            upper = float(
                special.gamma(1.0 - self.gamma) * special.gammainc(1.0 - self.gamma, a)
            )
            return upper - theta * float(-np.expm1(-a))
        nu = 1.0 / self.gamma
        log_pdf = (
            np.log(special.poch(0.5 * nu, 0.5))
            - 0.5 * (np.log(nu) + np.log(np.pi))
            - (nu + 1.0) / 2.0 * np.log1p(theta * theta / nu)
        )
        upper = (nu + theta**2) / (nu - 1.0) * float(np.exp(log_pdf))
        return upper - theta * float(special.stdtr(nu, -theta))

    def true_expectile(self, tau: float) -> float:
        """Root of tau E(X-theta)_+ = (1-tau) E(theta-X)_+ to 1e-12."""
        from scipy import optimize

        if not 0.0 < tau < 1.0:
            raise DomainError(f"expectile level must be in (0,1), got {tau}")
        mu = self.mean()

        def h(theta):
            p = self.partial_mean(theta)
            return tau * p - (1.0 - tau) * (p - mu + theta)

        lo, hi = mu - 1.0, mu + 1.0
        while h(lo) <= 0.0:
            lo = mu - 2.0 * (mu - lo)
        while h(hi) >= 0.0:
            hi = mu + 2.0 * (hi - mu)
        return float(optimize.brentq(h, lo, hi, xtol=1e-13, rtol=8.9e-16))


def true_expectiles(model: SimulationModel, tau: float) -> np.ndarray:
    return np.array(
        [model.margin_oracle(j).true_expectile(tau) for j in range(model.d)]
    )


@dataclass(frozen=True)
class McReport:
    """Summary of one Monte Carlo experiment."""

    experiment: str
    model: str
    n: int
    d: int
    k: int
    tau: float
    tau_prime: float | None
    replications: int
    master_seed: int
    metrics: dict[str, float]
    failures: int

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("Monte Carlo requires at least one replication")

    def to_json_dict(self) -> dict:
        """The fields in declaration order, with the metrics by name last."""
        out = asdict(self)
        out.update(sorted(out.pop("metrics").items()))
        return out


# Replications per stack.  A stack shares the fixed cost of each numpy call
# among its replications, and its (B, d, n) arrays add to the peak memory.
# At n=1000, d=2 (the benchmark's mc_power configuration on a 2-core Xeon
# with AVX-512, medians of 25 interleaved M=200 runs), stacks of 12, 16, 20
# and 24 took 0.228, 0.216, 0.210 and 0.207 ms of wall time per power
# replication, with a traced (tracemalloc) peak of 943, 1199, 1466 and
# 1746 KB; beyond 16 the peak RSS of the benchmark rises.
_STACK = 16


def _outcomes(
    model: SimulationModel, n: int, tau: float, M: int, master_seed: int, outcome
) -> list:
    """Each replication's outcome in order: a tuple with one float per array
    that outcome returns, or the TailjointError of the first check that the
    replication fails.

    Replication i draws what rng_stream(master_seed, i) gives, from one
    generator re-keyed before each replication (``_rekey``).  Stacks of
    _STACK replications are drawn in place into one (B, d, n) array
    (``_draw``), which becomes the stack's values without a copy, sorted
    (``sample._stack_columns``, which keeps the row order of only the top
    rows that the covariances read at tau, ``taildep._ordered_rows``) and
    fitted at tau at once (each LAWS root searched on a certified tail
    window of its row, ``marginal._breakpoint``), and outcome(st, fit,
    checks) returns a list of (B,) arrays computed by the stacked code
    that the single-sample estimators, regions, intervals and tests run as
    a stack of one; a failed check marks its replication (errors.Checks),
    whose later arithmetic is ignored.
    """
    rng, top = rng_stream(master_seed, 0), _ordered_rows(n, tau)
    outcomes = []
    for start in range(0, M, _STACK):
        stop = min(start + _STACK, M)
        columns = _draw(
            model, n, stop - start, (_rekey(rng, master_seed, i) for i in range(start, stop))
        )
        checks = Checks(len(columns))
        checks(
            ~np.isfinite(columns).all(axis=(1, 2)),
            lambda j: DomainError("sample values must all be finite"),
        )
        with np.errstate(all="ignore"):
            st = _stack_columns(columns, top)
            results = outcome(st, _fit_sorted(st.sorted_columns, tau, checks), checks)
        outcomes += [
            error if error is not None else tuple(float(r[i]) for r in results)
            for i, error in enumerate(checks.first)
        ]
    return outcomes


def _run_mc(
    experiment: str, model: SimulationModel, n: int, tau: float, tau_prime: float | None,
    M: int, master_seed: int, names: tuple[str, ...], outcome, transform=float,
) -> McReport:
    """Run outcome on M seeded replications (``_outcomes``) and report, per
    name, 100 times transform of the mean of that position of the
    successful replications' outcomes.

    A failed replication enters no mean; with no successes the metrics are
    empty.  A replication count that is not an integer >= 1 raises before
    the first replication, as do (through _check_levels, which each harness
    calls first) sizes and levels that would fail every replication.
    """
    if isinstance(M, bool) or not isinstance(M, (int, np.integer)):
        raise DomainError(f"replication count must be an integer, got {M!r}")
    if M < 1:
        raise DomainError("Monte Carlo requires at least one replication")
    results = _outcomes(model, n, tau, M, master_seed, outcome)
    ok = np.array([r for r in results if not isinstance(r, TailjointError)])
    metrics = {
        name: 100.0 * transform(float(ok[:, pos].mean())) for pos, name in enumerate(names)
    } if len(ok) else {}
    return McReport(
        experiment=experiment, model=model.kind, n=n, d=model.d, k=effective_k(n, tau),
        tau=tau, tau_prime=tau_prime, replications=M, master_seed=master_seed,
        metrics=metrics, failures=M - len(ok),
    )


def _check_levels(n: int, tau: float, tau_prime: float | None) -> TailLevelPair | None:
    """Raise the error that every replication of size n would raise; return
    the level pair, or None without tau_prime."""
    if n < 4:
        raise DomainError("samplers require n >= 4")
    if tau_prime is None:
        _check_hill_size(n, effective_k(n, tau))
        return None
    return TailLevelPair(tau, tau_prime, n)


def run_mc_mse(
    model: SimulationModel,
    n: int,
    tau: float,
    M: int,
    master_seed: int,
) -> McReport:
    """Relative MSE of both intermediate expectile estimators.

    Reported as sqrt(mean squared relative error) x 100, averaged across
    margins, one entry per estimator.  A replication fails where
    estimate_margins or the QB factor would fail on its sample.
    """
    truth = true_expectiles(model, tau)
    _check_levels(n, tau, None)

    def outcome(st, fit, checks):
        xi_qb = _qb_factors(fit.gamma_hat, checks) * fit.q_hat
        return [np.mean((xi / truth - 1.0) ** 2, axis=-1) for xi in (fit.xi_laws, xi_qb)]

    names = ("rmse_pct_laws", "rmse_pct_qb")
    return _run_mc("mse", model, n, tau, None, M, master_seed, names, outcome, math.sqrt)


def run_mc_coverage(
    model: SimulationModel,
    n: int,
    tau: float,
    M: int,
    alpha: float,
    method: str,
    master_seed: int,
    tau_prime: float | None = None,
    naive: bool = False,
) -> McReport:
    """Non-coverage rate of the joint confidence region (intermediate when
    tau_prime is omitted, extreme otherwise), read through the studentized
    pivot of the central limit approximation that defines the region: the
    bias-corrected residual estimate-over-truth, studentized by the shape
    matrix, against the radius.  On the log scale this is set membership;
    on the linear scale it is the form whose nominal level the region is
    calibrated for.  Each replication's region parts and failure are the
    single-sample region's (inference._region_parts)."""
    _check_method(method)
    _check_alpha(alpha)
    truth = true_expectiles(model, tau if tau_prime is None else tau_prime)
    levels = _check_levels(n, tau, tau_prime)

    def outcome(st, fit, checks):
        est = _estimate(st, fit, levels, method, naive, checks)
        kind, covariance, shift, radius = _region_parts(est, alpha)
        if tau_prime is None:
            residual = est.center / truth - 1.0 + shift
        else:
            residual = np.log(est.center / truth) + shift
        return [_quadratic_form(covariance, residual, kind, checks) > radius**2]

    names = (f"noncoverage_pct_{method}" + ("_naive" if naive else ""),)
    return _run_mc("coverage", model, n, tau, tau_prime, M, master_seed, names, outcome)


def run_mc_interval_coverage(
    model: SimulationModel,
    n: int,
    tau: float,
    tau_prime: float,
    M: int,
    alpha: float,
    method: str,
    master_seed: int,
    naive: bool = False,
) -> McReport:
    """Non-coverage rate of the first-margin extreme expectile interval.

    Each replication's endpoints and failure are those of the single-sample
    interval (inference._endpoints)."""
    _check_method(method)
    _check_alpha(alpha)
    _require_tau_prime(tau_prime)
    truth = model.margin_oracle(0).true_expectile(tau_prime)
    levels = _check_levels(n, tau, tau_prime)

    def outcome(st, fit, checks):
        est = _estimate(st, fit, levels, method, naive, checks)
        lower, upper = _endpoints(est, 0, alpha)
        return [~((lower <= truth) & (truth <= upper))]

    names = (f"noncoverage_pct_{method}" + ("_naive" if naive else ""),)
    return _run_mc(
        "interval_coverage", model, n, tau, tau_prime, M, master_seed, names, outcome
    )


def run_mc_power(
    model: SimulationModel,
    n: int,
    tau: float,
    tau_prime: float,
    M: int,
    alpha: float,
    master_seed: int,
    methods: tuple[str, ...] = ("laws", "qb"),
) -> McReport:
    """Rejection rates of the expectile equality tests; the test variants
    share each simulated sample, and each replication's decisions and
    failure are those of equality_test on it.

    A replication fails as a whole when any test fails, so a LAWS failure
    also leaves its QB decision out of the QB rate.  Counting each method's
    failures on its own would move the benchmark's stored mc_power
    references (their failures and QB rate), so it waits for a change that
    regenerates them.
    """
    for m in methods:
        _check_method(m)
    if not methods:
        raise DomainError("power needs at least one method")
    if len(set(methods)) != len(methods):
        raise DomainError(f"repeated method in {tuple(methods)}")
    _check_alpha(alpha)
    if model.d < 2:
        raise DomainError("equality testing requires d >= 2")
    _require_tau_prime(tau_prime)
    levels = _check_levels(n, tau, tau_prime)
    quantile = chi_square_quantile(1.0 - alpha, model.d - 1)

    def outcome(st, fit, checks):
        return [
            _statistic(_estimate(st, fit, levels, m, False, checks))[0] > quantile
            for m in methods
        ]

    names = tuple(f"rejection_pct_{m}" for m in methods)
    return _run_mc("power", model, n, tau, tau_prime, M, master_seed, names, outcome)
