"""Prediction-powered percentile bootstrap and its power-tuned variant.

The core loop resamples the labeled and unlabeled data with replacement and
combines three estimator evaluations per iteration:

    value_b = lam * est(unlabeled features, unlabeled predictions)
              + (est(labeled features, outcomes) - lam * est(labeled features, labeled predictions))

The multiplier ``lam`` controls reliance on the predictions: 1 is the plain
combination, 0 falls back to the classical bootstrap of the labeled outcomes
(the loop then resamples the labeled outcomes only), and ``tuned`` estimates
the variance-minimizing multiplier from an initial bootstrap on disjoint
streams.  :func:`ppboot_interval` runs the public steps in order, each on
the interval's sides:

1. :func:`interval_resamplers` checks and merges each side (labeled
   outcomes, labeled predictions, unlabeled predictions) once; at
   ``lam == 0`` only the labeled outcomes.
2. :func:`tune_lambda` (``tuned`` only) estimates the multiplier.
3. :func:`ppboot_draws` runs the main loop and combines each iteration.
4. :func:`require_retained` fails an interval that kept under half of them.
5. :func:`ppboot_point_estimate` combines each side's identity resample.
6. :func:`percentile_interval` reads off the interval.

Main, classical and tuning draws all come from one loop,
:func:`resample_estimates`.  It draws a chunk of iterations at a time,
sized so that the largest side's count matrix stays within
``estimators.CHUNK_BYTES`` (1 MiB, about 13 iterations at 9800 merged
rows), has each side estimate the whole chunk in one reduction, and redraws
only the degenerate members.  Mean and quantile evaluate each drawn sample
in the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import LabeledDataset, UnlabeledDataset
from .errors import NUMBER, EstimationError, check_config
from .estimators import EstimandSpec, Resampler, canonical_resampler, chunk_length
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


def interval_resamplers(
    labeled: LabeledDataset, unlabeled: UnlabeledDataset | None, spec: EstimandSpec, lam: float = 1.0
) -> tuple[Resampler, ...]:
    """Check and merge each side of an interval once: the first step.

    The labeled outcomes, and unless ``lam == 0`` also the labeled and the
    unlabeled predictions, in that order.  ``unlabeled`` may be ``None`` only
    when ``lam == 0`` (the classical bootstrap); when given, its feature
    width must match, whatever ``lam`` is.
    """
    if unlabeled is None:
        if lam != 0.0:
            raise ValueError("unlabeled data is required unless the multiplier is 0")
    elif labeled.d != unlabeled.d:
        raise ValueError(f"feature width mismatch: labeled d={labeled.d}, unlabeled d={unlabeled.d}")
    outcome = canonical_resampler(spec, labeled.features, labeled.outcomes)
    if lam == 0.0:
        return (outcome,)
    return (
        outcome,
        canonical_resampler(spec, labeled.features, labeled.predictions),
        canonical_resampler(spec, unlabeled.features, unlabeled.predictions),
    )


def resample_estimates(
    sides: tuple[Resampler, ...],
    B: int,
    substream: Callable[[int, int], RngStream],
    max_degenerate_retries: int,
) -> tuple[np.ndarray, int]:
    """The bootstrap loop shared by every resampling method.

    Iteration ``b``, attempt ``r`` resamples on ``substream(b, r)``.  With
    one side (the labeled outcomes) it draws the labeled indices only
    (:func:`draw_labeled_indices`); with three it resamples both datasets
    (:func:`draw_resample`, the same labeled draws) and evaluates the labeled
    outcomes, the labeled predictions and the unlabeled predictions.  An
    attempt with any degenerate estimate is redrawn up to
    ``max_degenerate_retries`` times, then the iteration is dropped.

    Iterations run in chunks of :func:`estimators.chunk_length`: each side
    estimates a chunk's attempts together, and only the degenerate members
    are redrawn, at ``(b, r + 1)``.  Every attempt is a pure function of its
    stream, so this draws and keeps exactly what one attempt at a time would.

    Returns ``(rows, dropped)``: one row per retained iteration, in iteration
    order, holding one estimate per side, and the number of dropped
    iterations.
    """
    n = sides[0].size
    rows = np.empty((B, len(sides)))
    kept = np.zeros(B, dtype=bool)
    chunk = chunk_length(sides)
    for start in range(0, B, chunk):
        pending = range(start, min(start + chunk, B))
        for r in range(max_degenerate_retries + 1):
            if len(sides) == 1:
                labeled_draws = [draw_labeled_indices(n, substream(b, r)) for b in pending]
                ests = [sides[0].estimates(labeled_draws, len(pending))]
            else:
                labeled_draws = []

                def unlabeled_draws():
                    # The unlabeled side counts each large draw as it comes;
                    # only the small labeled halves are kept.
                    for b in pending:
                        pair = draw_resample(n, sides[2].size, substream(b, r))
                        labeled_draws.append(pair.labeled_idx)
                        yield pair.unlabeled_idx

                unlabeled = sides[2].estimates(unlabeled_draws(), len(pending))
                ests = [side.estimates(labeled_draws, len(pending)) for side in sides[:2]] + [unlabeled]
            retry = []
            for k, b in enumerate(pending):
                if all(e[k].ok for e in ests):
                    rows[b] = [e[k].value for e in ests]
                    kept[b] = True
                else:
                    retry.append(b)
            pending = retry
            if not pending:
                break
    return rows[kept], B - int(np.count_nonzero(kept))


def _combine(estimates, lam: float):
    """The PPBoot value of per-side estimates; the labeled outcomes' alone at ``lam == 0``."""
    if lam == 0.0:
        return estimates[0]
    lab, pred, unl = estimates
    # Grouping the labeled difference keeps the cancellation exact when
    # predictions coincide with outcomes.
    return lam * unl + (lab - lam * pred)


def tune_lambda(sides: tuple[Resampler, ...], tuning_B: int, stream: RngStream) -> float:
    """Estimate the variance-minimizing prediction multiplier from the three sides.

    Runs an initial bootstrap collecting, per resample, the triple
    (estimate on labeled outcomes, on labeled predictions, on unlabeled
    predictions), then returns

        cov(pred, outcome) / (var(pred) + var(unlabeled pred))

    with unbiased sample moments over the retained triples.  Resample ``b``
    draws on ``stream.child(b)``; degenerate triples are dropped, never
    redrawn.  A denominator below ``TUNING_DENOM_FLOOR`` yields 0, which
    disables the prediction terms entirely.
    """
    if tuning_B < 2:
        raise ValueError(f"tuning_B must be >= 2, got {tuning_B}")
    rows, _ = resample_estimates(sides, tuning_B, lambda b, r: stream.child(b), 0)
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


def ppboot_draws(
    sides: tuple[Resampler, ...], lam: float, B: int, stream: RngStream, max_degenerate_retries: int = 10
) -> tuple[np.ndarray, int]:
    """The retained per-iteration combined values, in iteration order, and the dropped count.

    Attempt ``r`` of iteration ``b`` draws at ``(..., PHASE_MAIN, b, r)``.
    With ``lam == 0`` only the labeled outcomes (the first side) are
    resampled: this is the classical labeled bootstrap.
    """
    rows, dropped = resample_estimates(
        sides[:1] if lam == 0.0 else sides, B,
        lambda b, r: stream.child(PHASE_MAIN, b, r), max_degenerate_retries,
    )
    return _combine(rows.T.copy(), lam), dropped


def require_retained(values: np.ndarray, dropped: int) -> None:
    """Fail when fewer than half of the ``values.size + dropped`` iterations produced usable values."""
    B = values.size + dropped
    if 2 * values.size < B:
        raise EstimationError(
            f"bootstrap failure: only {values.size} of {B} iterations usable ({dropped} degenerate)"
        )


def ppboot_point_estimate(sides: tuple[Resampler, ...], lam: float) -> float:
    """Debiased point estimate: the identity resample of each side.

    With ``lam == 0`` only the labeled outcomes are evaluated: that is the
    classical estimate.
    """
    names = ("labeled outcomes", "labeled predictions", "unlabeled predictions")
    ests = []
    for name, side in zip(names, sides[:1] if lam == 0.0 else sides):
        e = side(np.arange(side.size))
        if not e.ok:
            raise EstimationError(f"degenerate point estimate on {name}: {e.reason}")
        ests.append(e.value)
    return _combine(ests, lam)


def percentile_interval(
    values: np.ndarray, dropped: int, alpha: float, point_estimate: float, lambda_used: float
) -> ConfidenceInterval:
    """Percentile interval of the retained values, which :func:`require_retained` has passed."""
    return ConfidenceInterval(
        lower=empirical_quantile(values, alpha / 2.0),
        upper=empirical_quantile(values, 1.0 - alpha / 2.0),
        point_estimate=point_estimate,
        lambda_used=lambda_used,
        degenerate_iterations=dropped,
        alpha=alpha,
    )


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
    the classical bootstrap.  Each side is checked and merged once, and
    tuning, the main loop and the point estimate share the result.
    """
    if cfg.lambda_mode == "tuned":
        sides = interval_resamplers(labeled, unlabeled, spec)
        lam = tune_lambda(sides, cfg.effective_tuning_B, stream.child(PHASE_TUNING))
    else:
        lam = 1.0 if cfg.lambda_mode == "off" else float(cfg.lambda_value)
    # A fixed multiplier is clipped before its sides are built: one clipped to 0
    # needs no unlabeled data.
    if cfg.clip_lambda:
        lam = min(max(lam, 0.0), 1.0)
    if cfg.lambda_mode != "tuned":
        sides = interval_resamplers(labeled, unlabeled, spec, lam)
    values, dropped = ppboot_draws(sides, lam, cfg.B, stream, cfg.max_degenerate_retries)
    # A bootstrap failure takes precedence over a degenerate point estimate.
    require_retained(values, dropped)
    return percentile_interval(values, dropped, cfg.alpha, ppboot_point_estimate(sides, lam), lam)


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
