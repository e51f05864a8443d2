"""Prediction-powered percentile bootstrap and its power-tuned variant.

The core loop resamples the labeled and unlabeled data with replacement and
combines three estimator evaluations per iteration:

    value_b = lam * est(unlabeled features, unlabeled predictions)
              + (est(labeled features, outcomes) - lam * est(labeled features, labeled predictions))

The multiplier ``lam`` controls reliance on the predictions: 1 is the plain
combination, 0 falls back to the classical bootstrap of the labeled outcomes
(the loop then resamples the labeled outcomes only), and ``tuned`` estimates
the variance-minimizing multiplier from an initial bootstrap on disjoint
streams.  Main, classical and tuning draws all come from one loop,
:func:`resample_estimates`.  Before its first draw it builds one
``estimators.canonical_resampler`` per side (labeled outcomes, labeled
predictions, unlabeled predictions), which checks the side once and, for the
feature-keyed estimands, merges its tied rows into weighted rows.  Each
attempt then turns its drawn indices into counts over those merged rows and
runs the weighted estimator kernel on the rows drawn at least once; a point
estimate (``estimators.evaluate``) is the identity draw.  Mean and quantile
evaluate the drawn values directly.  The interval is the percentile interval
of the retained iteration values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import LabeledDataset, UnlabeledDataset
from .errors import NUMBER, EstimationError, check_config
from .estimators import EstimandSpec, canonical_resampler, evaluate
from .resampling import (
    PHASE_MAIN,
    PHASE_TUNING,
    RngStream,
    draw_labeled_indices,
    draw_resample,
    empirical_quantile,
)

LAMBDA_MODES = ("off", "fixed", "tuned")

# Below this, the tuning denominator is treated as zero and lambda falls back to 0.
TUNING_DENOM_FLOOR = 1e-15


@dataclass(frozen=True)
class BootstrapConfig:
    """Knobs shared by every bootstrap-based interval.

    ``lambda_mode`` is one of ``off`` (multiplier fixed at 1), ``fixed``
    (use ``lambda_value``), or ``tuned`` (estimate the multiplier from an
    initial bootstrap of ``tuning_B`` iterations, defaulting to ``B``).
    ``master_seed`` seeds the root stream wherever the caller does not pass
    an explicit stream (CLI, study harness).  A study config cannot set it:
    the study's ``--seed`` is the master seed.
    """

    B: int = 1000
    alpha: float = 0.1
    lambda_mode: str = "off"
    lambda_value: float = 1.0
    tuning_B: int | None = None
    master_seed: int = 0
    max_degenerate_retries: int = 10
    clip_lambda: bool = False

    def __post_init__(self):
        if self.B < 2:
            raise ValueError(f"B must be >= 2, got {self.B}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie strictly inside (0, 1): got {self.alpha}")
        if self.lambda_mode not in LAMBDA_MODES:
            raise ValueError(f"lambda_mode must be one of {LAMBDA_MODES}, got {self.lambda_mode!r}")
        if self.tuning_B is not None and self.tuning_B < 2:
            raise ValueError(f"tuning_B must be >= 2, got {self.tuning_B}")
        if self.max_degenerate_retries < 0:
            raise ValueError("max_degenerate_retries must be >= 0")

    @property
    def effective_tuning_B(self) -> int:
        return self.B if self.tuning_B is None else self.tuning_B

    @classmethod
    def from_dict(cls, raw: dict) -> "BootstrapConfig":
        check_config(raw, {
            "B": (int,), "alpha": NUMBER, "lambda_mode": (str,), "lambda_value": NUMBER,
            "tuning_B": (int, type(None)), "max_degenerate_retries": (int,),
            "clip_lambda": (bool,),
        }, "bootstrap")
        return cls(**raw)


@dataclass(frozen=True)
class ConfidenceInterval:
    """Percentile (or closed-form) interval plus diagnostics."""

    lower: float
    upper: float
    point_estimate: float
    lambda_used: float
    degenerate_iterations: int
    alpha: float
    degenerate_reason: str | None = None

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, eq=False)
class BootstrapDraws:
    """Retained per-iteration bootstrap values; dropped iterations counted."""

    values: np.ndarray
    degenerate_iterations: int


def _check_pair(labeled: LabeledDataset, unlabeled: UnlabeledDataset | None, lam: float = 1.0) -> None:
    if unlabeled is None:
        if lam != 0.0:
            raise ValueError("unlabeled data is required unless the multiplier is 0")
    elif labeled.d != unlabeled.d:
        raise ValueError(f"feature width mismatch: labeled d={labeled.d}, unlabeled d={unlabeled.d}")


def resample_estimates(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset | None,
    spec: EstimandSpec,
    B: int,
    substream: Callable[[int, int], RngStream],
    max_degenerate_retries: int,
) -> tuple[np.ndarray, int]:
    """The bootstrap loop shared by every resampling method.

    Iteration ``b``, attempt ``r`` resamples on ``substream(b, r)`` and
    evaluates the estimand on the labeled outcomes.  With ``unlabeled`` it
    resamples both datasets (:func:`draw_resample`) and also evaluates the
    labeled and the unlabeled predictions; without, it draws the labeled
    indices only (:func:`draw_labeled_indices`, the same draws).  An attempt
    with any degenerate estimate is redrawn up to ``max_degenerate_retries``
    times, then the iteration is dropped.

    Returns ``(rows, dropped)``: one row per retained iteration holding
    ``(outcome,)`` or ``(outcome, labeled prediction, unlabeled prediction)``,
    and the number of dropped iterations.
    """
    outcome = canonical_resampler(spec, labeled.features, labeled.outcomes)
    if unlabeled is not None:
        labeled_pred = canonical_resampler(spec, labeled.features, labeled.predictions)
        unlabeled_pred = canonical_resampler(spec, unlabeled.features, unlabeled.predictions)
    rows = np.empty((B, 1 if unlabeled is None else 3))
    kept = dropped = 0
    for b in range(B):
        for r in range(max_degenerate_retries + 1):
            s = substream(b, r)
            if unlabeled is None:
                ests = [outcome(draw_labeled_indices(labeled.n, s))]
            else:
                idx = draw_resample(labeled.n, unlabeled.N, s)
                ests = [outcome(idx.labeled_idx), labeled_pred(idx.labeled_idx), unlabeled_pred(idx.unlabeled_idx)]
            if all(e.ok for e in ests):
                rows[kept] = [e.value for e in ests]
                kept += 1
                break
        else:
            dropped += 1
    return rows[:kept], dropped


def ppboot_point_estimate(
    labeled: LabeledDataset, unlabeled: UnlabeledDataset | None, spec: EstimandSpec, lam: float = 1.0
) -> float:
    """Debiased point estimate on the original (non-resampled) data.

    With ``lam == 0`` only the labeled outcomes are evaluated, so
    ``unlabeled`` may be ``None``: that is the classical estimate.
    """
    _check_pair(labeled, unlabeled, lam)
    e_lab = evaluate(spec, labeled.features, labeled.outcomes)
    if not e_lab.ok:
        raise EstimationError(f"degenerate point estimate on labeled outcomes: {e_lab.reason}")
    if lam == 0.0:
        return e_lab.value
    e_pred = evaluate(spec, labeled.features, labeled.predictions)
    e_unl = evaluate(spec, unlabeled.features, unlabeled.predictions)
    for name, e in (("labeled predictions", e_pred), ("unlabeled predictions", e_unl)):
        if not e.ok:
            raise EstimationError(f"degenerate point estimate on {name}: {e.reason}")
    return lam * e_unl.value + (e_lab.value - lam * e_pred.value)


def ppboot_draws(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset | None,
    spec: EstimandSpec,
    lam: float,
    B: int,
    stream: RngStream,
    max_degenerate_retries: int = 10,
) -> BootstrapDraws:
    """Collect the per-iteration combined bootstrap values.

    Attempt ``r`` of iteration ``b`` draws at ``(..., PHASE_MAIN, b, r)``.
    With ``lam == 0`` (where ``unlabeled`` may be ``None``) only the labeled
    outcomes are resampled: this is the classical labeled bootstrap.
    """
    _check_pair(labeled, unlabeled, lam)
    rows, dropped = resample_estimates(
        labeled, None if lam == 0.0 else unlabeled, spec, B,
        lambda b, r: stream.child(PHASE_MAIN, b, r), max_degenerate_retries,
    )
    if lam == 0.0:
        return BootstrapDraws(rows[:, 0].copy(), dropped)
    lab, pred, unl = rows.T
    # Grouping the labeled difference keeps the cancellation exact when
    # predictions coincide with outcomes.
    return BootstrapDraws(lam * unl + (lab - lam * pred), dropped)


def require_retained(draws: BootstrapDraws, B: int) -> None:
    """Fail when fewer than half of the iterations produced usable values."""
    retained = draws.values.size
    if 2 * retained < B:
        raise EstimationError(
            f"bootstrap failure: only {retained} of {B} iterations usable "
            f"({draws.degenerate_iterations} degenerate)"
        )


def percentile_interval(
    draws: BootstrapDraws,
    alpha: float,
    B: int,
    point_estimate: float,
    lambda_used: float,
) -> ConfidenceInterval:
    """Percentile interval of the retained values; fails if too many dropped."""
    require_retained(draws, B)
    lower = empirical_quantile(draws.values, alpha / 2.0)
    upper = empirical_quantile(draws.values, 1.0 - alpha / 2.0)
    return ConfidenceInterval(
        lower=lower,
        upper=upper,
        point_estimate=point_estimate,
        lambda_used=lambda_used,
        degenerate_iterations=draws.degenerate_iterations,
        alpha=alpha,
    )


def tune_lambda(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    spec: EstimandSpec,
    tuning_B: int,
    stream: RngStream,
) -> float:
    """Estimate the variance-minimizing prediction multiplier.

    Runs an initial bootstrap collecting, per resample, the triple
    (estimate on labeled predictions, estimate on labeled outcomes, estimate
    on unlabeled predictions), then returns

        cov(pred, outcome) / (var(pred) + var(unlabeled pred))

    with unbiased sample moments over the retained triples.  Resample ``b``
    draws on ``stream.child(b)``; degenerate triples are dropped, never
    redrawn.  A denominator below ``TUNING_DENOM_FLOOR`` yields 0, which
    disables the prediction terms entirely.
    """
    _check_pair(labeled, unlabeled)
    if tuning_B < 2:
        raise ValueError(f"tuning_B must be >= 2, got {tuning_B}")
    rows, _ = resample_estimates(labeled, unlabeled, spec, tuning_B, lambda b, r: stream.child(b), 0)
    m = rows.shape[0]
    if m < 2:
        raise EstimationError(f"tuning failure: only {m} usable resamples out of {tuning_B}")
    # Contiguous columns: BLAS may sum a strided dot product in another order.
    lab, pred, unl = (col - col.mean() for col in rows.T.copy())
    cov = float(np.dot(pred, lab)) / (m - 1)
    denom = float(np.dot(pred, pred)) / (m - 1) + float(np.dot(unl, unl)) / (m - 1)
    if denom < TUNING_DENOM_FLOOR:
        return 0.0
    return cov / denom


def resolve_lambda(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset,
    spec: EstimandSpec,
    cfg: BootstrapConfig,
    stream: RngStream,
) -> float:
    """Resolve the active multiplier for one inference run."""
    if cfg.lambda_mode == "off":
        lam = 1.0
    elif cfg.lambda_mode == "fixed":
        lam = float(cfg.lambda_value)
    else:
        lam = tune_lambda(labeled, unlabeled, spec, cfg.effective_tuning_B, stream.child(PHASE_TUNING))
    if cfg.clip_lambda:
        lam = min(max(lam, 0.0), 1.0)
    return lam


def ppboot_interval(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset | None,
    spec: EstimandSpec,
    cfg: BootstrapConfig,
    stream: RngStream,
) -> ConfidenceInterval:
    """Prediction-powered percentile bootstrap confidence interval.

    ``stream`` is the base stream for this inference; tuning draws live under
    its PHASE_TUNING child and main-loop draws under PHASE_MAIN, so a
    classical bootstrap sharing the same base stream is exactly paired.
    ``unlabeled`` may be ``None`` when the multiplier is fixed at 0: that is
    the classical bootstrap.
    """
    lam = resolve_lambda(labeled, unlabeled, spec, cfg, stream)
    draws = ppboot_draws(labeled, unlabeled, spec, lam, cfg.B, stream, cfg.max_degenerate_retries)
    require_retained(draws, cfg.B)
    point = ppboot_point_estimate(labeled, unlabeled, spec, lam)
    return percentile_interval(draws, cfg.alpha, cfg.B, point, lam)


def reported_interval(ci: ConfidenceInterval, spec: EstimandSpec) -> ConfidenceInterval:
    """Apply reporting conventions: correlation clipping, then the transform.

    Correlation intervals are intersected with [-1, 1] (the combined bootstrap
    values may step outside it); ``exp`` and ``fisher_z_inverse`` map all
    three summaries monotonically, so coverage statements are unaffected.
    """
    lower, upper = ci.lower, ci.upper
    if spec.kind == "pearson_corr":
        # Monotone clamp: also keeps lower <= upper when an interval sits
        # entirely outside the correlation range.
        lower = min(max(lower, -1.0), 1.0)
        upper = min(max(upper, -1.0), 1.0)
    return replace(
        ci,
        lower=transform_value(lower, spec),
        upper=transform_value(upper, spec),
        point_estimate=transform_value(ci.point_estimate, spec),
    )


def transform_value(value: float, spec: EstimandSpec) -> float:
    """Apply the reporting transform to a scalar (e.g. a ground-truth value)."""
    if spec.transform == "exp":
        return float(np.exp(value))
    if spec.transform == "fisher_z_inverse":
        return float(np.tanh(value))
    return value
