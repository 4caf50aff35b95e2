"""Joint estimation and inference of extreme expectiles for heavy-tailed
multivariate data: marginal tail estimators, empirical tail copulas,
asymptotic covariance plug-ins, confidence regions/intervals, equality
tests, benchmark-model simulation, and a command-line front end."""

from .covariance import (
    BiasEstimate,
    CovarianceEstimate,
    estimate_bias_qb,
    estimate_sigma_laws,
    estimate_v_laws,
    estimate_v_qb,
    estimate_v_star_laws,
    estimate_v_star_qb,
    theoretical_sigma_laws,
    theoretical_sigma_q,
    theoretical_v_laws,
    theoretical_v_qb,
    theoretical_v_star_laws,
    theoretical_v_star_qb,
)
from .equality_tests import (
    TestResult,
    deviance_statistic,
    gls_common_mean,
    test_equal_expectiles_laws,
    test_equal_expectiles_qb,
    test_equal_quantiles,
)
from .errors import (
    DomainError,
    IngestionError,
    LevelError,
    NotPositiveSemidefiniteError,
    NumericError,
    SingularCovarianceError,
    TailjointError,
)
from .inference import (
    ConfidenceRegion,
    MarginalInterval,
    marginal_interval_laws,
    marginal_interval_qb,
    region_boundary_points,
    region_contains,
    region_extreme_laws,
    region_extreme_qb,
    region_intermediate_laws,
    region_intermediate_qb,
)
from .marginal import (
    MarginalTailEstimates,
    asymmetric_weight,
    empirical_quantile,
    estimate_margins,
    extrapolate_expectile_laws,
    extrapolate_expectile_qb,
    hill_at_level,
    hill_estimator,
    laws_expectile,
    m_function,
    qb_expectile,
    qb_factor,
    weissman_quantile,
)
from .numerics import (
    SpdMatrix,
    chi_square_cdf,
    chi_square_quantile,
    std_normal_quantile,
)
from .sample import (
    MultivariateSample,
    TailLevelPair,
    compute_ranks,
    effective_k,
    emit_csv,
    ingest_csv,
    tau_from_k,
    to_negative_weekly_log_returns,
)
from .simulation import (
    MarginOracle,
    McReport,
    SimulationModel,
    listed_correlation,
    rng_stream,
    run_mc_coverage,
    run_mc_interval_coverage,
    run_mc_mse,
    run_mc_power,
    sample_model,
    true_expectiles,
)
from .taildep import (
    EmpiricalTailCopula,
    OracleTailCopula,
    empirical_tail_copula,
    extremal_coefficient,
)

__version__ = "0.1.0"
