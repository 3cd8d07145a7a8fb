"""Rank-based identification and evaluation of high-dimensional surrogate markers.

The package screens candidate surrogate markers by comparing each
candidate's probability-scale treatment effect with the response's
through a non-inferiority test on the Mann-Whitney statistic, adjusts
the resulting p-values for multiplicity, combines the survivors into a
single weighted marker, and tests that combination on a held-out split.
"""

from .errors import (
    AlignmentError,
    ConfigurationError,
    DataError,
    IngestError,
    InsufficientDataError,
    InvalidInputError,
    NoSurrogatesSelectedError,
    NumericError,
    SurrankError,
    UsageError,
)
from .inference import (
    Mode,
    SurrogateTestResult,
    TestConfig,
    select_epsilon,
    surrogate_test,
)
from .multitest import AdjustedPValues, Method, adjust
from .pipeline import (
    CombinedSurrogate,
    Dataset,
    PipelineResult,
    ScreeningReport,
    ScreeningRow,
    combine,
    evaluate,
    run_pipeline,
    screen,
    split,
    weighted_standardized_sum,
)
from .rankstats import (
    Design,
    PairedSample,
    TwoArmSample,
    UEstimate,
    normal_cdf,
    normal_quantile,
    u_statistic,
)
from .simulate import (
    DgpConfig,
    EvaluationExperiment,
    ScreeningExperiment,
    SimulatedDataset,
    SimulationMetrics,
    calibrate_sigma_valid,
    estimate_valid_strength,
    generate,
    response_effect,
    run_evaluation_experiment,
    run_screening_experiment,
)
from .variance import null_u_variance

__version__ = "0.1.0"

__all__ = [
    "AdjustedPValues",
    "AlignmentError",
    "CombinedSurrogate",
    "ConfigurationError",
    "DataError",
    "Dataset",
    "Design",
    "DgpConfig",
    "EvaluationExperiment",
    "IngestError",
    "InsufficientDataError",
    "InvalidInputError",
    "Method",
    "Mode",
    "NoSurrogatesSelectedError",
    "NumericError",
    "PairedSample",
    "PipelineResult",
    "ScreeningExperiment",
    "ScreeningReport",
    "ScreeningRow",
    "SimulatedDataset",
    "SimulationMetrics",
    "SurrankError",
    "SurrogateTestResult",
    "TestConfig",
    "TwoArmSample",
    "UEstimate",
    "UsageError",
    "adjust",
    "calibrate_sigma_valid",
    "combine",
    "estimate_valid_strength",
    "evaluate",
    "generate",
    "normal_cdf",
    "normal_quantile",
    "null_u_variance",
    "response_effect",
    "run_evaluation_experiment",
    "run_pipeline",
    "run_screening_experiment",
    "screen",
    "select_epsilon",
    "split",
    "surrogate_test",
    "u_statistic",
    "weighted_standardized_sum",
    "__version__",
]
