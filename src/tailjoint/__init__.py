"""Joint estimation and inference of extreme expectiles for heavy-tailed
multivariate data: marginal tail estimators, empirical tail copulas,
asymptotic covariance plug-ins, confidence regions/intervals, equality
tests, benchmark-model simulation, and a command-line front end."""

from .covariance import (
    estimate_bias_qb,
    estimate_sigma_laws,
    theoretical_sigma_laws,
    theoretical_sigma_q,
    theoretical_v_star_laws,
    theoretical_v_star_qb,
)
from .equality_tests import (
    TestResult,
    equality_test,
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
    confidence_region,
    estimate_covariance,
    marginal_interval,
    region_boundary_points,
    region_contains,
)
from .marginal import (
    MarginalTailEstimates,
    asymmetric_weight,
    estimate_margins,
    fit_column,
    laws_expectile,
    m_function,
    qb_factor,
)
from .numerics import (
    SpdMatrix,
    chi_square_quantile,
    std_normal_quantile,
)
from .sample import (
    MultivariateSample,
    TailLevelPair,
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
