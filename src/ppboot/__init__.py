"""Prediction-powered bootstrap inference.

Combines a small labeled sample with a large unlabeled sample and a
prediction column: each bootstrap iteration resamples both datasets and
debiases the prediction-based estimate with the labeled residual term.
Includes power tuning, cross-fitting, classical/imputed/CLT baselines, and a
Monte Carlo coverage harness.
"""

__version__ = "0.1.0"

from .baselines import (
    classical_bootstrap_interval,
    classical_clt_mean_interval,
    imputed_interval,
    ppi_mean_interval,
)
from .boot import (
    BootstrapConfig,
    ConfidenceInterval,
    interval_resamplers,
    ppboot_draws,
    ppboot_interval,
    ppboot_point_estimate,
    reported_interval,
    tune_lambda,
)
from .crossfit import (
    LearnerSpec,
    assemble_cross_predictions,
    cross_ppboot_interval,
    partition_folds,
    split_ppboot_interval,
    train_fold_models,
)
from .data import LabeledDataset, UnlabeledDataset, load_csv, read_table, split_trial
from .errors import (
    DataError,
    EstimationError,
    ParseError,
    PPBootError,
    SchemaError,
    ValidationError,
)
from .estimators import (
    EstimandSpec,
    EstimateValue,
    evaluate,
)
from .experiments import (
    SyntheticSpec,
    TrialConfig,
    TrialSummary,
    generate_synthetic,
    run_coverage_study,
    summarize_to_tables,
    write_reports,
)
from .resampling import (
    PHASE_MAIN,
    PHASE_SPLIT,
    PHASE_SYNTHETIC,
    PHASE_TUNING,
    RngStream,
    empirical_quantile,
)

__all__ = [
    "BootstrapConfig",
    "ConfidenceInterval",
    "DataError",
    "EstimandSpec",
    "EstimateValue",
    "EstimationError",
    "LabeledDataset",
    "LearnerSpec",
    "PPBootError",
    "ParseError",
    "PHASE_MAIN",
    "PHASE_SPLIT",
    "PHASE_SYNTHETIC",
    "PHASE_TUNING",
    "RngStream",
    "SchemaError",
    "SyntheticSpec",
    "TrialConfig",
    "TrialSummary",
    "UnlabeledDataset",
    "ValidationError",
    "assemble_cross_predictions",
    "classical_bootstrap_interval",
    "classical_clt_mean_interval",
    "cross_ppboot_interval",
    "empirical_quantile",
    "evaluate",
    "generate_synthetic",
    "imputed_interval",
    "interval_resamplers",
    "load_csv",
    "partition_folds",
    "ppboot_draws",
    "ppboot_interval",
    "ppboot_point_estimate",
    "ppi_mean_interval",
    "read_table",
    "reported_interval",
    "run_coverage_study",
    "split_ppboot_interval",
    "split_trial",
    "summarize_to_tables",
    "train_fold_models",
    "tune_lambda",
    "write_reports",
]
