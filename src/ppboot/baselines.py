"""Comparison methods: CLT mean interval, classical/imputed percentile
bootstraps, and a CLT-based prediction-powered mean interval."""

from __future__ import annotations

import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np

from .boot import BootstrapConfig, ConfidenceInterval, ppboot_interval
from .data import LabeledDataset, UnlabeledDataset
from .estimators import EstimandSpec
from .resampling import RngStream


def classical_clt_mean_interval(outcomes, alpha: float) -> ConfidenceInterval:
    """Mean +/- z * sd / sqrt(n) using the unbiased sample standard deviation."""
    y = np.asarray(outcomes, dtype=np.float64)
    if y.ndim != 1 or y.size < 2:
        raise ValueError("outcomes must be a 1-D vector with at least 2 entries")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly inside (0, 1): got {alpha}")
    # An overflow makes the interval non-finite, which reported_interval rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        center = float(np.mean(y))
        sd = float(np.std(y, ddof=1))
    half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * sd / math.sqrt(y.size)
    return ConfidenceInterval(
        lower=center - half,
        upper=center + half,
        point_estimate=center,
        lambda_used=0.0,
        degenerate_iterations=0,
        alpha=alpha,
    )


def classical_bootstrap_interval(
    labeled: LabeledDataset, spec: EstimandSpec, cfg: BootstrapConfig, stream: RngStream, threads: int = 1
) -> ConfidenceInterval:
    """Classical percentile bootstrap of the labeled data only.

    This is the prediction-powered interval with the multiplier fixed at 0
    and no unlabeled data, so given the same base ``stream`` the two share
    their main-phase substreams and are identical at multiplier 0.  A study
    cell takes it from its one ``boot.ppboot_intervals`` call instead.
    ``threads`` caps the loop's threads, as in ``boot.ppboot_interval``.
    """
    return ppboot_interval(labeled, None, spec, replace(cfg, lambda_mode="fixed", lambda_value=0.0), stream, threads)


def imputed_interval(
    unlabeled: UnlabeledDataset, spec: EstimandSpec, cfg: BootstrapConfig, stream: RngStream, threads: int = 1
) -> ConfidenceInterval:
    """Percentile bootstrap that naively treats predictions as real outcomes."""
    pseudo = LabeledDataset(unlabeled.features, unlabeled.predictions, unlabeled.predictions)
    return classical_bootstrap_interval(pseudo, spec, cfg, stream, threads)


def ppi_mean_interval(
    labeled: LabeledDataset, unlabeled: UnlabeledDataset, alpha: float
) -> ConfidenceInterval:
    """CLT-based prediction-powered interval for the mean.

    Center is the mean of the unlabeled predictions plus the mean labeled
    residual; the variance adds the two independent components.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly inside (0, 1): got {alpha}")
    if labeled.n < 2 or unlabeled.N < 2:
        raise ValueError("need at least 2 labeled and 2 unlabeled rows")
    # An overflow makes the interval non-finite, which reported_interval rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = labeled.outcomes - labeled.predictions
        center = float(np.mean(unlabeled.predictions) + np.mean(residual))
        var = float(np.var(unlabeled.predictions, ddof=1)) / unlabeled.N + float(
            np.var(residual, ddof=1)
        ) / labeled.n
    half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * math.sqrt(var)
    return ConfidenceInterval(
        lower=center - half,
        upper=center + half,
        point_estimate=center,
        lambda_used=1.0,
        degenerate_iterations=0,
        alpha=alpha,
    )
