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
:func:`resample_estimates`.  An interval checks and merges each side
(labeled outcomes, labeled predictions, unlabeled predictions) once, in
:func:`interval_resamplers`; tuning, the main loop and the point estimate,
which is each side's identity resample, share the result.  The loop draws a
chunk of iterations at a time, sized so that the largest side's count matrix
stays within ``estimators.CHUNK_BYTES`` (1 MiB, about 13 iterations at 9800
merged rows), has each side estimate the whole chunk in one reduction, and
redraws only the degenerate members.  Mean and quantile evaluate each drawn
sample in the same loop.  The interval is the percentile interval of the
retained iteration values.
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


def interval_resamplers(
    labeled: LabeledDataset, unlabeled: UnlabeledDataset | None, spec: EstimandSpec
) -> tuple[Resampler, ...]:
    """Check and merge each side of an interval once.

    The labeled outcomes, and with ``unlabeled`` also the labeled and the
    unlabeled predictions, in that order.
    """
    outcome = canonical_resampler(spec, labeled.features, labeled.outcomes)
    if unlabeled is None:
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


def _point_estimate(sides: tuple[Resampler, ...], lam: float) -> float:
    """Debiased point estimate: the identity resample of each side."""
    names = ("labeled outcomes", "labeled predictions", "unlabeled predictions")
    ests = []
    for name, side in zip(names, sides if lam != 0.0 else sides[:1]):
        e = side(np.arange(side.size))
        if not e.ok:
            raise EstimationError(f"degenerate point estimate on {name}: {e.reason}")
        ests.append(e.value)
    if lam == 0.0:
        return ests[0]
    lab, pred, unl = ests
    return lam * unl + (lab - lam * pred)


def ppboot_point_estimate(
    labeled: LabeledDataset, unlabeled: UnlabeledDataset | None, spec: EstimandSpec, lam: float = 1.0
) -> float:
    """Debiased point estimate on the original (non-resampled) data.

    With ``lam == 0`` only the labeled outcomes are evaluated, so
    ``unlabeled`` may be ``None``: that is the classical estimate.
    """
    _check_pair(labeled, unlabeled, lam)
    return _point_estimate(interval_resamplers(labeled, None if lam == 0.0 else unlabeled, spec), lam)


def _draws(sides: tuple[Resampler, ...], lam: float, B: int, stream: RngStream,
           max_degenerate_retries: int) -> BootstrapDraws:
    rows, dropped = resample_estimates(
        sides if lam != 0.0 else sides[:1], B,
        lambda b, r: stream.child(PHASE_MAIN, b, r), max_degenerate_retries,
    )
    if lam == 0.0:
        return BootstrapDraws(rows[:, 0].copy(), dropped)
    lab, pred, unl = rows.T
    # Grouping the labeled difference keeps the cancellation exact when
    # predictions coincide with outcomes.
    return BootstrapDraws(lam * unl + (lab - lam * pred), dropped)


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
    sides = interval_resamplers(labeled, None if lam == 0.0 else unlabeled, spec)
    return _draws(sides, lam, B, stream, max_degenerate_retries)


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
    point_estimate: float,
    lambda_used: float,
) -> ConfidenceInterval:
    """Percentile interval of the retained values, which :func:`require_retained` has passed."""
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


def _tuned_lambda(sides: tuple[Resampler, ...], tuning_B: int, stream: RngStream) -> float:
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
    return _tuned_lambda(interval_resamplers(labeled, unlabeled, spec), tuning_B, stream)


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
    sides = None
    if cfg.lambda_mode == "tuned":
        _check_pair(labeled, unlabeled)
        sides = interval_resamplers(labeled, unlabeled, spec)
        lam = _tuned_lambda(sides, cfg.effective_tuning_B, stream.child(PHASE_TUNING))
    else:
        lam = 1.0 if cfg.lambda_mode == "off" else float(cfg.lambda_value)
    if cfg.clip_lambda:
        lam = min(max(lam, 0.0), 1.0)
    _check_pair(labeled, unlabeled, lam)
    if sides is None:
        sides = interval_resamplers(labeled, None if lam == 0.0 else unlabeled, spec)
    draws = _draws(sides, lam, cfg.B, stream, cfg.max_degenerate_retries)
    require_retained(draws, cfg.B)
    return percentile_interval(draws, cfg.alpha, _point_estimate(sides, lam), lam)


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
