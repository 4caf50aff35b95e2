"""Benchmark model samplers, margin oracles, and Monte Carlo harnesses."""

import hashlib
import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from conftest import (
    assert_same_outcome, count_fits, count_rank_builds, count_sorts, record_outcomes,
)

from tailjoint import simulation
from tailjoint.equality_tests import equality_test
from tailjoint.errors import (
    DomainError, LevelError, NotPositiveSemidefiniteError, TailjointError,
)
from tailjoint.inference import _estimate_sample, confidence_region, marginal_interval
from tailjoint.marginal import estimate_margins
from tailjoint.sample import MultivariateSample, emit_csv
from tailjoint.simulation import (
    _STACK,
    MarginOracle,
    McReport,
    SimulationModel,
    _draw,
    _student_quantile,
    listed_correlation,
    rng_stream,
    run_mc_coverage,
    run_mc_interval_coverage,
    run_mc_mse,
    run_mc_power,
    sample_model,
    true_expectiles,
)

G = 1.0 / 3.0


def oracle_cdf(oracle: MarginOracle):
    if oracle.kind == "frechet":
        return lambda x: np.exp(-np.asarray(x) ** (-1.0 / oracle.gamma))
    if oracle.kind == "pareto":
        return lambda x: 1.0 - np.asarray(x) ** (-1.0 / oracle.gamma)
    return lambda x: stats.t.cdf(x, 1.0 / oracle.gamma)


class TestSamplers:
    def test_clayton_kendall_tau(self):
        # Clayton copula with parameter theta has Kendall tau theta/(theta+2).
        s = sample_model(SimulationModel.clayton_frechet(2), 100_000, rng_stream(7, 0))
        tau, _ = stats.kendalltau(s.column(0), s.column(1))
        assert tau == pytest.approx(10.0 / 12.0, abs=0.02)

    def test_gumbel_kendall_tau(self):
        # Gumbel copula with parameter vartheta has Kendall tau 1 - 1/vartheta.
        s = sample_model(SimulationModel.gumbel_frechet(2), 100_000, rng_stream(8, 0))
        tau, _ = stats.kendalltau(s.column(0), s.column(1))
        assert tau == pytest.approx(2.0 / 3.0, abs=0.02)

    @pytest.mark.parametrize("factory", [
        SimulationModel.gaussian_student,
        SimulationModel.multivariate_student,
    ])
    def test_elliptical_kendall_tau(self, factory):
        # Elliptical copulas: Kendall tau = (2/pi) arcsin(rho), rho = 0.8.
        s = sample_model(factory(2), 100_000, rng_stream(9, 0))
        tau, _ = stats.kendalltau(s.column(0), s.column(1))
        assert tau == pytest.approx(2.0 / math.pi * math.asin(0.8), abs=0.02)

    @pytest.mark.parametrize("factory", [
        SimulationModel.clayton_frechet,
        SimulationModel.gaussian_student,
        SimulationModel.gumbel_frechet,
        SimulationModel.multivariate_student,
    ])
    def test_margins_match_oracle(self, factory):
        model = factory(2)
        s = sample_model(model, 100_000, rng_stream(11, 0))
        for j in range(2):
            cdf = oracle_cdf(model.margin_oracle(j))
            stat = stats.kstest(s.column(j), cdf).statistic
            assert stat < 0.01

    @pytest.mark.parametrize("margin", ["frechet", "pareto", "student"])
    def test_univariate_margins(self, margin):
        model = SimulationModel.univariate(margin)
        s = sample_model(model, 100_000, rng_stream(12, 0))
        cdf = oracle_cdf(model.margin_oracle(0))
        assert stats.kstest(s.column(0), cdf).statistic < 0.01

    def test_positive_stable_laplace_transform(self):
        # The frailty driving the Gumbel sampler must have Laplace transform
        # exp(-t^alpha); check at t=1 by Monte Carlo.
        from tailjoint.simulation import _positive_stable

        alpha = 1.0 / 3.0
        rng = rng_stream(13, 0)
        s = _positive_stable(alpha, rng.random(200_000), rng.standard_exponential(200_000))
        assert float(np.mean(np.exp(-s))) == pytest.approx(math.exp(-1.0), abs=0.01)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            sample_model(SimulationModel.clayton_frechet(2), 3, rng_stream(0, 0))

    def test_labels(self):
        s = sample_model(SimulationModel.clayton_frechet(3), 10, rng_stream(0, 0))
        assert s.labels == ("X1", "X2", "X3")


class TestSpecialFunctionForms:
    """The samplers' normal cdf (a Cephes port) and Student quantiles (Shaw's
    closed forms at nu = 2 and 4, scipy.special.stdtrit elsewhere) and the
    oracles' scipy.special calls give exactly the values of the scipy.stats
    forms they replace."""

    @staticmethod
    def stats_draw(model, n, rng):
        g = np.asarray(model.gammas)
        if model.kind == "gaussian_student":
            chol = np.linalg.cholesky(listed_correlation(model.d))
            z = rng.standard_normal(size=(n, model.d)) @ chol.T
            u = stats.norm.cdf(z)
            return np.column_stack(
                [stats.t.ppf(u[:, j], 1.0 / g[j]) for j in range(model.d)]
            )
        return stats.t.ppf(rng.random(size=(n, 1)), 1.0 / g[0])

    @pytest.mark.parametrize("model", [
        SimulationModel.gaussian_student(3),
        SimulationModel.gaussian_student(2, gamma=(0.2, 0.45)),
        SimulationModel.gaussian_student(5, gamma=0.25),
        SimulationModel.gaussian_student(3, gamma=(0.25, 0.5, 1.0 / 3.0)),
        SimulationModel.univariate("student"),
        SimulationModel.univariate("student", gamma=0.25),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_draws_equal_stats_form(self, model, seed):
        x = _draw(model, 2000, 1, [rng_stream(seed, 5)])[0].T
        assert np.array_equal(x, self.stats_draw(model, 2000, rng_stream(seed, 5)))

    @pytest.mark.parametrize("nu", [2.0, 3.0, 1.0 / 0.45, 10.0])
    def test_quantile_step_at_the_ends(self, nu):
        # At u = 0 stdtrit alone gives +inf.
        u = np.array([0.0, 1.0, 1e-300, 0.5, 1e-3, 0.999])
        x = _student_quantile(u, nu)
        assert x[0] == -np.inf
        assert np.array_equal(x, stats.t.ppf(u, nu))

    @pytest.mark.parametrize("nu", [2.0, 4.0])
    def test_closed_form_quantiles_equal_stdtrit(self, nu):
        from scipy import special

        rng = np.random.default_rng(int(nu))
        u = np.concatenate([
            [0.0, 5e-324, 1e-300, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0],
            [np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)],
            rng.random(100_000),
            10.0 ** -rng.uniform(0.0, 300.0, 2000),
        ])
        u = np.concatenate([u, 1.0 - u])
        got = _student_quantile(u, nu)
        want = np.where(u == 0.0, -np.inf, special.stdtrit(nu, u))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert got[0] == -np.inf and got[6] == np.inf and got[4] == 0.0

    @pytest.mark.parametrize("g", [0.1, 0.25, G, 0.45])
    def test_student_partial_mean_equals_stats_form(self, g):
        orc = MarginOracle("student", g)
        nu = 1.0 / g
        for theta in (-30.0, -1.5, 0.0, 0.3, 1.5, 4.0, 25.0, 1e4):
            ref = (nu + theta**2) / (nu - 1.0) * float(stats.t.pdf(theta, nu))
            ref -= theta * float(stats.t.sf(theta, nu))
            assert orc.partial_mean(theta) == ref


class TestStreams:
    def test_same_key_same_draws(self):
        a = rng_stream(5, 17).random(8)
        b = rng_stream(5, 17).random(8)
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        a = rng_stream(5, 0).random(8)
        b = rng_stream(5, 1).random(8)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed, index",
        [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (1.0, 0), ("1", 0), (True, 0), (0, False)],
    )
    def test_key_outside_uint64_raises(self, seed, index):
        with pytest.raises(DomainError, match="integer in"):
            rng_stream(seed, index)

    def test_key_range_ends(self):
        top = 2**64 - 1
        assert np.array_equal(
            rng_stream(top, top).random(4), rng_stream(np.uint64(top), top).random(4)
        )


class TestReplicationDraws:
    """Every harness re-keys one generator before each replication; so
    replication i must draw exactly what rng_stream(seed, i) gives, even
    after a replication that left part of the generator's buffer unread."""

    SEED, TAU, TAU_PRIME, M = 3, 0.6, 0.9, _STACK + 1
    MODELS = [
        *(SimulationModel(kind, 2, (0.25, 0.25)) for kind in (
            "clayton_frechet", "gaussian_student", "gumbel_frechet", "multivariate_student",
        )),
        *(SimulationModel.univariate(margin, 0.25) for margin in ("frechet", "pareto", "student")),
        # Student margins at nu = 4 are drawn in closed form, at nu = 3 by scipy.
        SimulationModel.gaussian_student(2, G),
        SimulationModel.univariate("student", G),
    ]

    def harnesses(self, model, n):
        yield lambda: run_mc_mse(model, n, self.TAU, self.M, self.SEED)
        yield lambda: run_mc_coverage(model, n, self.TAU, self.M, 0.05, "qb", self.SEED)
        yield lambda: run_mc_interval_coverage(
            model, n, self.TAU, self.TAU_PRIME, self.M, 0.05, "qb", self.SEED
        )
        if model.d >= 2:
            yield lambda: run_mc_power(
                model, n, self.TAU, self.TAU_PRIME, self.M, 0.05, self.SEED
            )

    @pytest.mark.parametrize("n", [5, 999, 1000])
    @pytest.mark.parametrize(
        "model", MODELS, ids=[f"{m.kind}-{1 / m.gammas[0]:g}" for m in MODELS]
    )
    def test_replication_draws_its_own_stream(self, model, n, monkeypatch):
        want, unread = [], []
        for i in range(self.M):
            rng = rng_stream(self.SEED, i)
            want.append(_draw(model, n, 1, [rng])[0])
            unread.append(rng.bit_generator.state["buffer_pos"] < 4)
        # n uniforms read n words of the buffer, four to a block, so only
        # the univariate draws at n = 1000 may read every block whole.
        assert any(unread[:-1]) or n == 1000
        stacks, original = [], simulation._stack_columns

        def recording(columns, *args):
            stacks.append(columns.copy())
            return original(columns, *args)

        monkeypatch.setattr(simulation, "_stack_columns", recording)
        for harness in self.harnesses(model, n):
            stacks.clear()
            harness()
            got = np.concatenate(stacks)
            assert len(got) == self.M
            for i in range(self.M):
                assert np.array_equal(got[i], want[i])


class TestDrawDigests:
    """The draws of sample_model, pinned by the first 16 hex digits of the
    sha256 of their values' bytes (in row-major order), independently of
    how the draw is computed: every model kind at nu = 4 and the Student
    models at nu = 3, n = 5, 999 and 1000, streams (7, 0) and (7, 1).
    Recorded with numpy 2.4 on an x86-64 host with AVX-512, whose
    vectorized pow, exp and log may differ in the last bit from those of
    other builds and hosts."""

    MODELS = TestReplicationDraws.MODELS
    DIGESTS = {
        ("clayton_frechet-4", 5): ("3d1809bb2b286204", "86b846054bb7bb96"),
        ("clayton_frechet-4", 999): ("bcf5a5839c5f4a4d", "84bf4cf5c4b35f5b"),
        ("clayton_frechet-4", 1000): ("edf24fb7c05e1f3e", "74cb7d2dfb2873ea"),
        ("gaussian_student-4", 5): ("ff45c81e0062ad9b", "d95aace152ec2bab"),
        ("gaussian_student-4", 999): ("f194a5eb4af9d74d", "b2d5dfa39ed852d3"),
        ("gaussian_student-4", 1000): ("9b89153e29308dae", "b516a1fe98c905c6"),
        ("gumbel_frechet-4", 5): ("8662a2f091fbe1e4", "ee01b732a1102a17"),
        ("gumbel_frechet-4", 999): ("a28655d684765609", "6a64a74c998d4a46"),
        ("gumbel_frechet-4", 1000): ("c364d9eba37cbc50", "93b5b4949b3c113a"),
        ("multivariate_student-4", 5): ("195b0e4202f64a85", "74dd161df0a68204"),
        ("multivariate_student-4", 999): ("3f285cc5f99a9daa", "6ea6c9738880d250"),
        ("multivariate_student-4", 1000): ("a61a2b25c80f600b", "86840c8c46ef3432"),
        ("univariate_frechet-4", 5): ("c3c6b8022b2a7fad", "375768da6bd57def"),
        ("univariate_frechet-4", 999): ("5461c0cef22e41cb", "02c4bdd80914cb06"),
        ("univariate_frechet-4", 1000): ("e8976cdf91d547a9", "d508d07756bb0a52"),
        ("univariate_pareto-4", 5): ("0c60501ef2bb208c", "85bd0f16c77a18bb"),
        ("univariate_pareto-4", 999): ("839e35bec612aec5", "737b5ba967de2042"),
        ("univariate_pareto-4", 1000): ("2e52bd75cee773e7", "a1821949cb8adddb"),
        ("univariate_student-4", 5): ("a0f26abad7e073b3", "521d3df68ef96bfa"),
        ("univariate_student-4", 999): ("cbb81348111326aa", "e3bca968205feae2"),
        ("univariate_student-4", 1000): ("d23c452d0434ba23", "14f74f5bd40a7f70"),
        ("gaussian_student-3", 5): ("5f7203f8c761625f", "9e7d4f3fc62d2a88"),
        ("gaussian_student-3", 999): ("5a6d4177569889ca", "23da23ad965266cd"),
        ("gaussian_student-3", 1000): ("a2cabc4b0a518433", "ef06d1e577a1bd91"),
        ("univariate_student-3", 5): ("2c2414d6b1b4e056", "d2dddd12ce68a148"),
        ("univariate_student-3", 999): ("18157ab10612bf9c", "6e65515935682a4f"),
        ("univariate_student-3", 1000): ("6d287966c6c501c5", "240ad9ad2a06ec89"),
    }

    @pytest.mark.parametrize("n", [5, 999, 1000])
    @pytest.mark.parametrize(
        "model", MODELS, ids=[f"{m.kind}-{1 / m.gammas[0]:g}" for m in MODELS]
    )
    def test_draws_equal_recorded_digests(self, model, n):
        got = tuple(
            hashlib.sha256(sample_model(model, n, rng_stream(7, i)).values.tobytes())
            .hexdigest()[:16]
            for i in (0, 1)
        )
        assert got == self.DIGESTS[(f"{model.kind}-{1 / model.gammas[0]:g}", n)]


class TestColumnMajorValues:
    """sample_model's values are held column-major; every result read from
    a sample is that of the same values held row-major."""

    TAU, TAU_PRIME = 0.95, 0.999

    def results(self, s, tmp_path, name):
        """The sample's CSV bytes, its fit and its covariances: LAWS and QB,
        intermediate and extreme, and the Weissman quantiles' (which
        estimate_covariance does not name, and the quantile test reads)."""
        path = tmp_path / f"{name}.csv"
        emit_csv(s, path)
        fit = estimate_margins(s, self.TAU)
        out = [path.read_bytes(), *(a.tobytes() for a in (fit.gamma_hat, fit.q_hat, fit.xi_laws))]
        for method, tau_prime in [
            ("laws", None), ("qb", None), ("laws", self.TAU_PRIME), ("qb", self.TAU_PRIME),
            ("quantile", self.TAU_PRIME),
        ]:
            est = _estimate_sample(s, self.TAU, tau_prime, method, False)
            out.append(est.covariance().entries.tobytes())
        return out

    @pytest.mark.parametrize(
        "model", TestReplicationDraws.MODELS,
        ids=[f"{m.kind}-{1 / m.gammas[0]:g}" for m in TestReplicationDraws.MODELS],
    )
    def test_results_do_not_depend_on_the_layout(self, model, tmp_path):
        s = sample_model(model, 1000, rng_stream(4, 0))
        assert s.values.flags.f_contiguous and (model.d == 1 or not s.values.flags.c_contiguous)
        row_major = MultivariateSample(np.ascontiguousarray(s.values), s.labels)
        assert row_major.values.flags.c_contiguous
        assert self.results(s, tmp_path, "f") == self.results(row_major, tmp_path, "c")


class TestModelValidation:
    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            SimulationModel("unknown", 2, (G, G))

    def test_dimension_out_of_range(self):
        with pytest.raises(DomainError):
            SimulationModel.clayton_frechet(6)
        with pytest.raises(DomainError):
            SimulationModel.clayton_frechet(1)

    def test_univariate_requires_d1(self):
        with pytest.raises(DomainError):
            SimulationModel("univariate_pareto", 2, (G, G))

    def test_student_equal_gammas_required(self):
        with pytest.raises(DomainError):
            SimulationModel.multivariate_student(2, gamma=(0.3, 0.4))

    def test_parameter_bounds(self):
        with pytest.raises(DomainError):
            SimulationModel.clayton_frechet(2, theta=0.0)
        with pytest.raises(DomainError):
            SimulationModel.gumbel_frechet(2, vartheta=0.9)
        with pytest.raises(DomainError):
            SimulationModel.clayton_frechet(2, gamma=1.0)
        with pytest.raises(DomainError):
            SimulationModel.clayton_frechet(2, gamma=(G, G, G))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_copula_parameters(self, value):
        with pytest.raises(DomainError, match="Clayton parameter must be positive and finite"):
            SimulationModel.clayton_frechet(2, theta=value)
        with pytest.raises(DomainError, match="Gumbel parameter must be finite, at least 1"):
            SimulationModel.gumbel_frechet(2, vartheta=value)

    def test_bool_replication_count(self):
        with pytest.raises(DomainError, match="replication count must be an integer"):
            run_mc_mse(SimulationModel.clayton_frechet(2), 200, 0.9, True, 1)

    def test_listed_correlation(self):
        m = listed_correlation(3)
        assert np.array_equal(m, m.T)
        assert m[0, 1] == 0.8 and m[0, 2] == 0.6 and m[1, 2] == 0.4
        assert np.all(np.linalg.eigvalsh(m) > 0.0)
        with pytest.raises(DomainError):
            listed_correlation(6)


class TestMarginOracle:
    def test_means(self):
        assert MarginOracle("pareto", G).mean() == pytest.approx(1.5, rel=1e-12)
        assert MarginOracle("student", G).mean() == 0.0
        assert MarginOracle("frechet", 0.5).mean() == pytest.approx(
            math.sqrt(math.pi), rel=1e-12
        )

    @pytest.mark.parametrize("kind,g", [
        ("frechet", G), ("pareto", G), ("student", 0.25), ("frechet", 0.45),
    ])
    def test_partial_mean_against_quadrature(self, kind, g):
        # E(X - theta)_+ = integral of the survival function above theta.
        orc = MarginOracle(kind, g)
        cdf = oracle_cdf(orc)
        for theta in (1.5, 4.0):
            val, err = integrate.quad(
                lambda x: 1.0 - cdf(x), theta, np.inf, limit=400
            )
            assert orc.partial_mean(theta) == pytest.approx(val, rel=1e-8)

    @pytest.mark.parametrize("kind,g", [
        ("frechet", G), ("pareto", G), ("student", 0.25),
    ])
    def test_true_expectile_balance(self, kind, g):
        # The expectile theta balances tau E(X-theta)_+ = (1-tau) E(theta-X)_+.
        orc = MarginOracle(kind, g)
        for tau in (0.9, 0.995):
            theta = orc.true_expectile(tau)
            gain = orc.partial_mean(theta)
            loss = gain - orc.mean() + theta
            assert tau * gain == pytest.approx((1.0 - tau) * loss, abs=1e-9)

    def test_true_expectile_against_independent_solver(self):
        # Re-solve the balance equation with quadrature partial means.
        orc = MarginOracle("pareto", G)
        cdf = oracle_cdf(orc)
        tau = 0.99

        def h(theta):
            gain, _ = integrate.quad(lambda x: 1.0 - cdf(x), theta, np.inf, limit=400)
            return tau * gain - (1.0 - tau) * (gain - orc.mean() + theta)

        ref = optimize.brentq(h, orc.mean(), 50.0, xtol=1e-12)
        assert orc.true_expectile(tau) == pytest.approx(ref, rel=1e-8)

    def test_true_expectiles_vector(self):
        model = SimulationModel.clayton_frechet(3)
        v = true_expectiles(model, 0.95)
        assert v.shape == (3,)
        assert np.all(v == v[0])

    def test_level_validation(self):
        with pytest.raises(DomainError):
            MarginOracle("pareto", G).true_expectile(1.0)
        with pytest.raises(DomainError):
            MarginOracle("pareto", 1.5)
        with pytest.raises(DomainError):
            MarginOracle("lognormal", G)


class TestHarnesses:
    def test_mse_reduces_replication_streams_in_order(self):
        model = SimulationModel.clayton_frechet(2)
        report = run_mc_mse(model, 200, 0.9, M=12, master_seed=3)
        rerun = run_mc_mse(model, 200, 0.9, M=12, master_seed=3)
        assert rerun.metrics == report.metrics and rerun.failures == report.failures
        truth = true_expectiles(model, 0.9)
        fits = [
            estimate_margins(sample_model(model, 200, rng_stream(3, i)), 0.9)
            for i in range(12)
        ]
        errors = np.array(
            [[np.mean((xi / truth - 1.0) ** 2) for xi in (f.xi_laws, f.xi_qb)]
             for f in fits]
        )
        assert report.failures == 0
        assert report.metrics == {
            "rmse_pct_laws": 100.0 * math.sqrt(float(errors[:, 0].mean())),
            "rmse_pct_qb": 100.0 * math.sqrt(float(errors[:, 1].mean())),
        }
        assert report.metrics["rmse_pct_laws"] > 0.0
        assert report.metrics["rmse_pct_qb"] > 0.0

    @pytest.mark.parametrize(
        "run, args, error",
        [
            (run_mc_power, (200, 0.9, 0.5, 4, 0.05, 1), LevelError),
            (run_mc_power, (200, 0.9, 0.999, 4, 1.5, 1), DomainError),
            (run_mc_coverage, (200, 0.9, 4, 0.0, "laws", 1), DomainError),
            (run_mc_mse, (200, 0.999, 4, 1), LevelError),
            (run_mc_mse, (3, 0.5, 4, 1), DomainError),
            (run_mc_mse, (200, 0.9, 3, -1), DomainError),
            (run_mc_coverage, (200, 0.9, 3, 0.05, "laws", 2**64), DomainError),
            (run_mc_mse, (200, 0.9, 2.5, 1), DomainError),
            (run_mc_interval_coverage, (200, 0.9, 0.999, 0, 0.05, "qb", 1), DomainError),
            (run_mc_power, (200, 0.9, 0.999, 4, 0.05, 1, ()), DomainError),
            (run_mc_power, (200, 0.9, 0.999, 4, 0.05, 1, ("laws", "laws")), DomainError),
        ],
        ids=[
            "tau_prime_below_tau", "alpha_above_one", "alpha_zero", "k_zero", "n_3",
            "seed_negative", "seed_2_64", "M_not_integer", "M_zero", "no_methods",
            "repeated_method",
        ],
    )
    def test_configuration_that_fails_every_replication_raises(self, run, args, error):
        with pytest.raises(error):
            run(SimulationModel.clayton_frechet(2), *args)

    def test_interval_coverage_requires_tau_prime_before_a_draw(self, monkeypatch):
        monkeypatch.setattr("tailjoint.simulation._draw", pytest.fail)
        with pytest.raises(LevelError, match="tau_prime is required, got None"):
            run_mc_interval_coverage(
                SimulationModel.gumbel_frechet(2), 300, 0.9, None, 3, 0.05, "laws", 1
            )

    def test_power_requires_tau_prime_before_a_draw(self, monkeypatch):
        monkeypatch.setattr("tailjoint.simulation._draw", pytest.fail)
        with pytest.raises(LevelError, match="tau_prime is required, got None"):
            run_mc_power(SimulationModel.gumbel_frechet(2), 300, 0.9, None, 3, 0.05, 1)

    def test_mse_single_replication(self):
        model = SimulationModel.univariate("pareto")
        report = run_mc_mse(model, 100, 0.9, M=1, master_seed=1)
        assert report.replications == 1
        assert set(report.metrics) == {"rmse_pct_laws", "rmse_pct_qb"}

    def test_coverage_smoke(self):
        model = SimulationModel.clayton_frechet(2)
        report = run_mc_coverage(
            model, 500, 0.9, M=20, alpha=0.05, method="laws", master_seed=4
        )
        pct = report.metrics["noncoverage_pct_laws"]
        assert 0.0 <= pct <= 100.0
        assert report.experiment == "coverage"
        assert report.tau_prime is None

    def test_coverage_extreme_naive_metric_name(self):
        model = SimulationModel.clayton_frechet(2)
        report = run_mc_coverage(
            model, 500, 0.9, M=10, alpha=0.05, method="qb",
            master_seed=4, tau_prime=0.999, naive=True,
        )
        assert "noncoverage_pct_qb_naive" in report.metrics
        assert report.tau_prime == 0.999

    def test_interval_coverage_smoke(self):
        model = SimulationModel.univariate("pareto")
        report = run_mc_interval_coverage(
            model, 500, 0.9, 0.999, M=20, alpha=0.05, method="laws", master_seed=5
        )
        assert 0.0 <= report.metrics["noncoverage_pct_laws"] <= 100.0

    def test_power_smoke_and_validation(self):
        model = SimulationModel.clayton_frechet(2)
        report = run_mc_power(
            model, 500, 0.9, 0.999, M=10, alpha=0.05, master_seed=6
        )
        assert set(report.metrics) == {"rejection_pct_laws", "rejection_pct_qb"}
        with pytest.raises(DomainError):
            run_mc_power(
                SimulationModel.univariate("pareto"), 500, 0.9, 0.999,
                M=5, alpha=0.05, master_seed=6,
            )
        with pytest.raises(DomainError):
            run_mc_coverage(
                model, 500, 0.9, M=5, alpha=0.05, method="hill", master_seed=6
            )

    @pytest.mark.parametrize(
        "run",
        [
            lambda model, M: run_mc_mse(model, 1000, 0.95, M, 1),
            lambda model, M: run_mc_coverage(model, 1000, 0.95, M, 0.05, "laws", 1, 0.999),
            lambda model, M: run_mc_interval_coverage(
                model, 1000, 0.95, 0.999, M, 0.05, "qb", 1
            ),
            lambda model, M: run_mc_power(model, 1000, 0.95, 0.999, M, 0.05, 1),
        ],
        ids=["mse", "coverage", "interval", "power"],
    )
    def test_replication_fits_its_sample_once(self, run, monkeypatch):
        # Everything a replication computes reads one fit of its stack.
        fits = count_fits(monkeypatch)
        report = run(SimulationModel.gumbel_frechet(2), _STACK + 1)
        assert report.failures == 0
        assert fits == [0.95, 0.95]  # one fit per stack

    def test_report_accounting(self):
        report = McReport(
            experiment="mse", model="clayton_frechet", n=100, d=2, k=10,
            tau=0.9, tau_prime=None, replications=8, master_seed=1,
            metrics={"rmse_pct_laws": 1.0}, failures=2,
        )
        doc = report.to_json_dict()
        assert doc["failures"] == 2 and doc["rmse_pct_laws"] == 1.0
        with pytest.raises(DomainError):
            McReport(
                experiment="mse", model="m", n=100, d=2, k=10, tau=0.9,
                tau_prime=None, replications=0, master_seed=1, metrics={},
                failures=0,
            )


class TestStackedPower:
    """run_mc_power tests stacks of replications at once; each replication's
    outcome must be what the single-sample tests give on its own sample."""

    N, TAU, TAU_PRIME, ALPHA = 1000, 0.95, 0.999, 0.05
    # At seed 4 the first replications of this model include LAWS failures
    # of both classes: DomainError (gamma-hat >= 1/2) and not PSD.
    FAILING = SimulationModel.gumbel_frechet(2, gamma=(0.4, G))

    def serial(self, model, seed, i, methods):
        """The outcome of replication i from the single-sample tests."""
        sample = sample_model(model, self.N, rng_stream(seed, i))
        return tuple(
            1.0 if equality_test(sample, self.TAU, self.TAU_PRIME, m, self.ALPHA).reject
            else 0.0
            for m in methods
        )

    def outcomes(self, model, seed, M, methods, monkeypatch):
        runs = record_outcomes(monkeypatch)
        run_mc_power(
            model, self.N, self.TAU, self.TAU_PRIME, M, self.ALPHA, seed, methods
        )
        return runs[0]

    @pytest.mark.parametrize("M", [1, _STACK - 1, _STACK + 1])
    @pytest.mark.parametrize("methods", [("laws", "qb"), ("laws",), ("qb",)])
    @pytest.mark.parametrize(
        "model, seed",
        [(SimulationModel.gumbel_frechet(2), 1), (FAILING, 4)],
        ids=["gumbel", "gumbel-0.4"],
    )
    def test_outcomes_equal_single_sample_tests(
        self, model, seed, methods, M, monkeypatch
    ):
        got = self.outcomes(model, seed, M, methods, monkeypatch)
        assert len(got) == M
        for i, outcome in enumerate(got):
            assert_same_outcome(outcome, lambda: self.serial(model, seed, i, methods))

    def test_no_ranks_built(self, monkeypatch):
        # A stack reads each margin's row order and sorted values only: no
        # rank array, and no take_along_axis or put_along_axis.
        calls = count_rank_builds(monkeypatch)
        run_mc_power(self.FAILING, self.N, self.TAU, self.TAU_PRIME, _STACK + 1, self.ALPHA, 4)
        assert calls == []

    def test_untied_stacks_sort_no_whole_row(self, monkeypatch):
        # The draws are continuous, so no column is tied: each stack orders
        # only the top rows that the estimators read, never a whole row.
        calls = count_sorts(monkeypatch)
        run_mc_power(self.FAILING, self.N, self.TAU, self.TAU_PRIME, _STACK + 1, self.ALPHA, 4)
        rows = [shape[-1] for shape, _ in calls]
        assert rows and max(rows) < self.N

    def test_report_reduces_stacked_outcomes(self, monkeypatch):
        M, methods = _STACK + 1, ("laws", "qb")
        outcomes = self.outcomes(self.FAILING, 4, M, methods, monkeypatch)
        errors = [o for o in outcomes if isinstance(o, TailjointError)]
        assert {type(e) for e in errors} == {DomainError, NotPositiveSemidefiniteError}
        fits = count_fits(monkeypatch)
        report = run_mc_power(
            self.FAILING, self.N, self.TAU, self.TAU_PRIME, M, self.ALPHA, 4
        )
        assert fits == [self.TAU, self.TAU]  # one fit per stack
        ok = np.array([o for o in outcomes if not isinstance(o, TailjointError)])
        assert report.failures == len(errors)
        assert report.metrics == {
            f"rejection_pct_{m}": 100.0 * float(ok[:, pos].mean())
            for pos, m in enumerate(methods)
        }


class TestStackSize:
    """A harness's per-replication outcomes and report do not depend on the
    number of replications per stack."""

    M = 2 * _STACK + 1
    STUDENT = SimulationModel.gaussian_student(2)
    RUNS = {
        "mse": lambda M: run_mc_mse(SimulationModel.clayton_frechet(3), 500, 0.9, M, 1),
        "coverage": lambda M: run_mc_coverage(
            TestStackSize.STUDENT, 1000, 1.0 - 1.0 / math.sqrt(1000), M, 0.05, "laws", 17,
            tau_prime=0.999,
        ),
        "interval": lambda M: run_mc_interval_coverage(
            SimulationModel.univariate("frechet"), 1000, 0.95, 0.999, M, 0.05, "laws", 94
        ),
        "power": lambda M: run_mc_power(
            TestStackedPower.FAILING, 1000, 0.95, 0.999, M, 0.05, 4
        ),
    }

    @pytest.mark.parametrize("harness", RUNS)
    def test_outcomes_and_report_at_any_stack_size(self, harness, monkeypatch):
        runs, reports = record_outcomes(monkeypatch), []
        for stack in (1, 12, 16):
            monkeypatch.setattr(simulation, "_STACK", stack)
            reports.append(self.RUNS[harness](self.M))
        outcomes = [
            [(type(o), str(o)) if isinstance(o, TailjointError) else o for o in run]
            for run in runs
        ]
        assert len(outcomes[0]) == self.M
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert reports[0] == reports[1] == reports[2]


def noncovered(region, truth) -> tuple:
    """(1.0,) when the pivot of the region's central limit approximation
    misses truth, (0.0,) otherwise: the residual estimate-over-truth,
    bias-corrected, studentized by the shape matrix, against the radius."""
    truth = np.asarray(truth, dtype=float)
    if region.scale == "log":
        residual = np.log(region.center / truth) + region.bias_shift
    else:
        residual = region.center / truth - 1.0 + region.bias_shift
    form = region.shape.quadratic_form(residual, region.kind)
    return (0.0 if form <= region.radius**2 else 1.0,)


class TestStackedHarnesses:
    """The MSE, coverage and interval harnesses run stacks of replications
    on the engine of the power harness; each replication's outcome must be
    what the single-sample estimators, regions and intervals give on its
    own sample."""

    ALPHA = 0.05
    N6 = 1000
    TAU6 = 1.0 - 1.0 / math.sqrt(N6)
    # Gaussian-Student d=2 at criterion 6's level: at seed 17 the first
    # replications include LAWS failures of both classes, gamma-hat >= 1/2
    # (DomainError) and not PSD.
    STUDENT = SimulationModel.gaussian_student(2)

    def check(self, runs, model, n, seed, M, serial):
        assert len(runs) == 1 and len(runs[0]) == M
        for i, outcome in enumerate(runs[0]):
            assert_same_outcome(
                outcome, lambda: serial(sample_model(model, n, rng_stream(seed, i)))
            )

    @pytest.mark.parametrize("M", [1, _STACK - 1, _STACK + 1])
    @pytest.mark.parametrize(
        "model, n, tau, seed",
        [
            (SimulationModel.clayton_frechet(3), 500, 0.9, 1),
            # Univariate Student at tau=0.7: at seed 2 the fit fails some
            # replications (QB factor undefined, gamma-hat >= 1).
            (SimulationModel.univariate("student"), 100, 0.7, 2),
        ],
        ids=["clayton-3", "student-1"],
    )
    def test_mse_outcomes_equal_single_sample_fits(
        self, model, n, tau, seed, M, monkeypatch
    ):
        truth = true_expectiles(model, tau)

        def serial(sample):
            fit = estimate_margins(sample, tau)
            return tuple(np.mean((xi / truth - 1.0) ** 2) for xi in (fit.xi_laws, fit.xi_qb))

        runs = record_outcomes(monkeypatch)
        run_mc_mse(model, n, tau, M, seed)
        self.check(runs, model, n, seed, M, serial)

    @pytest.mark.parametrize("M", [1, _STACK - 1, _STACK + 1])
    @pytest.mark.parametrize("naive", [False, True], ids=["adjusted", "naive"])
    @pytest.mark.parametrize("method", ["laws", "qb"])
    @pytest.mark.parametrize("tau_prime", [None, 0.999], ids=["intermediate", "extreme"])
    @pytest.mark.parametrize(
        "model, seed", [(STUDENT, 17), (SimulationModel.gumbel_frechet(2), 2)],
        ids=["student-2", "gumbel-2"],
    )
    def test_coverage_outcomes_equal_single_sample_regions(
        self, model, seed, tau_prime, method, naive, M, monkeypatch
    ):
        n, tau = self.N6, self.TAU6
        truth = true_expectiles(model, tau if tau_prime is None else tau_prime)

        def serial(sample):
            region = confidence_region(sample, tau, tau_prime, self.ALPHA, method, naive)
            return noncovered(region, truth)

        runs = record_outcomes(monkeypatch)
        run_mc_coverage(
            model, n, tau, M, self.ALPHA, method, seed, tau_prime=tau_prime, naive=naive
        )
        self.check(runs, model, n, seed, M, serial)

    def test_coverage_set_holds_both_failure_classes(self, monkeypatch):
        runs = record_outcomes(monkeypatch)
        run_mc_coverage(self.STUDENT, self.N6, self.TAU6, _STACK + 1, self.ALPHA, "laws", 17)
        errors = {type(o) for o in runs[0] if isinstance(o, TailjointError)}
        assert errors == {DomainError, NotPositiveSemidefiniteError}

    @pytest.mark.parametrize("M", [1, _STACK - 1, _STACK + 1])
    @pytest.mark.parametrize("naive", [False, True], ids=["adjusted", "naive"])
    @pytest.mark.parametrize("method", ["laws", "qb"])
    @pytest.mark.parametrize(
        "margin, seed",
        # Frechet at k=50: at seed 94 the third replication's LAWS interval
        # fails (gamma-hat >= 1/2).
        [("frechet", 94), ("pareto", 1)],
    )
    def test_interval_outcomes_equal_single_sample_intervals(
        self, margin, seed, method, naive, M, monkeypatch
    ):
        model, n, tau, tau_prime = SimulationModel.univariate(margin), 1000, 0.95, 0.999
        truth = model.margin_oracle(0).true_expectile(tau_prime)

        def serial(sample):
            interval = marginal_interval(sample, tau, tau_prime, 0, self.ALPHA, method, naive)
            return (0.0 if interval.contains(truth) else 1.0,)

        runs = record_outcomes(monkeypatch)
        run_mc_interval_coverage(
            model, n, tau, tau_prime, M, self.ALPHA, method, seed, naive=naive
        )
        self.check(runs, model, n, seed, M, serial)
