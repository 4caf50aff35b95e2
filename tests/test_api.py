"""The public API: its pinned names, no name that pytest would collect as
a test, and the README's library example runs as written."""

import re
from pathlib import Path
from types import ModuleType

import tailjoint
from tailjoint.equality_tests import TestResult

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "ConfidenceRegion", "DomainError", "EmpiricalTailCopula", "IngestionError",
    "LevelError", "MarginOracle", "MarginalInterval", "MarginalTailEstimates",
    "McReport", "MultivariateSample", "NotPositiveSemidefiniteError",
    "NumericError", "OracleTailCopula", "SimulationModel",
    "SingularCovarianceError", "SpdMatrix", "TailLevelPair", "TailjointError",
    "TestResult", "asymmetric_weight", "chi_square_quantile",
    "confidence_region", "effective_k", "emit_csv", "empirical_tail_copula",
    "equality_test", "estimate_bias_qb", "estimate_covariance",
    "estimate_margins", "estimate_sigma_laws", "extremal_coefficient",
    "fit_column", "ingest_csv", "laws_expectile", "listed_correlation",
    "m_function", "marginal_interval", "qb_factor", "region_boundary_points",
    "region_contains", "rng_stream", "run_mc_coverage",
    "run_mc_interval_coverage", "run_mc_mse", "run_mc_power", "sample_model",
    "std_normal_quantile", "tau_from_k", "theoretical_sigma_laws",
    "theoretical_sigma_q", "theoretical_v_star_laws", "theoretical_v_star_qb",
    "to_negative_weekly_log_returns", "true_expectiles",
]


def test_public_names():
    # Pinned, so that a name leaving or joining the public API is an
    # explicit edit here.
    names = sorted(
        name for name in dir(tailjoint)
        if not name.startswith("_") and not isinstance(getattr(tailjoint, name), ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_no_public_name_starts_with_test():
    # A module that imports such a function gets it collected as a test.
    assert [name for name in dir(tailjoint) if name.startswith("test")] == []


def test_result_class_is_not_collected():
    assert TestResult.__test__ is False


def test_readme_library_example_runs(capsys):
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3 and printed[0].endswith("True")
