"""Prediction-powered percentile bootstrap and its power-tuned variant.

The core loop resamples the labeled and unlabeled data with replacement and
combines three estimator evaluations per iteration:

    value_b = lam * est(unlabeled features, unlabeled predictions)
              + (est(labeled features, outcomes) - lam * est(labeled features, labeled predictions))

The multiplier ``lam`` controls reliance on the predictions: 1 is the plain
combination, 0 falls back to the classical bootstrap of the labeled outcomes
(the loop then resamples the labeled outcomes only), and ``tuned`` estimates
the variance-minimizing multiplier from an initial bootstrap on disjoint
streams.  Every percentile-bootstrap interval comes from
:func:`ppboot_intervals`, on one interval's sides for any number of
multipliers (a study cell serves ``ppboot``, ``ppboot-tuned`` and
``classical`` together); README "Power tuning" runs its steps by hand.
Main, classical and tuning draws all come from one loop,
:func:`resample_estimates`.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledDataset, UnlabeledDataset
from .errors import NUMBER, EstimationError, check_config
from .estimators import EstimandSpec, Resampler, canonical_resampler, chunk_length
from .resampling import (
    PHASE_MAIN,
    PHASE_TUNING,
    RngStream,
    draw_keyed_indices,
    empirical_quantile,
    philox_keys,
)

LAMBDA_MODES = ("off", "fixed", "tuned")

# Below this, the tuning denominator is treated as zero and lambda falls back to 0.
TUNING_DENOM_FLOOR = 1e-15

# The largest B and tuning_B.  The loop allocates (B, sides) and (B,) float64
# arrays up front: 32 MB at this cap and three sides, while B = 10**15 would ask
# for 32 PB and fail in that allocation.  The largest B this project runs is 1000.
MAX_B = 10**6

# An interval's sides in order; argument checks and point-estimate failures name them.
SIDE_NAMES = ("labeled outcomes", "labeled predictions", "unlabeled predictions")


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
        if not (2 <= self.B <= MAX_B):
            raise ValueError(f"B must be in [2, {MAX_B}], got {self.B}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie strictly inside (0, 1): got {self.alpha}")
        if self.lambda_mode not in LAMBDA_MODES:
            raise ValueError(f"lambda_mode must be one of {LAMBDA_MODES}, got {self.lambda_mode!r}")
        if not math.isfinite(self.lambda_value):
            raise ValueError(f"lambda_value must be finite, got {self.lambda_value}")
        if self.tuning_B is not None and not (2 <= self.tuning_B <= MAX_B):
            raise ValueError(f"tuning_B must be in [2, {MAX_B}], got {self.tuning_B}")
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

    @property
    def width(self) -> float:
        return self.upper - self.lower


def interval_resamplers(
    labeled: LabeledDataset, unlabeled: UnlabeledDataset | None, spec: EstimandSpec, lam: float = 1.0
) -> tuple[Resampler, ...]:
    """Check and merge each side of an interval once: the first step.

    The labeled outcomes, and unless ``lam == 0`` also the labeled and the
    unlabeled predictions, in that order; a failed check names its side
    (``SIDE_NAMES``).  ``unlabeled`` may be ``None`` only when ``lam == 0``
    (the classical bootstrap); when given, its feature width must match,
    whatever ``lam`` is.
    """
    if unlabeled is None:
        if lam != 0.0:
            raise ValueError("unlabeled data is required unless the multiplier is 0")
    elif labeled.d != unlabeled.d:
        raise ValueError(f"feature width mismatch: labeled d={labeled.d}, unlabeled d={unlabeled.d}")
    data = [(labeled.features, labeled.outcomes)]
    if lam != 0.0:
        data += [(labeled.features, labeled.predictions), (unlabeled.features, unlabeled.predictions)]
    return tuple(canonical_resampler(spec, X, y, name) for name, (X, y) in zip(SIDE_NAMES, data))


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def deal(work: Callable[[Sequence], object], items: Sequence, threads: int) -> list:
    """``[work(items[i::W]) for i in range(W)]``, the workers at once, with ``W = min(threads, len(items))``.

    This thread is worker 0, and a pool of ``W - 1`` threads, started for
    this call and joined before it returns, runs the others, each in a copy
    of this thread's context (numpy's error state is a context variable).
    A worker's exception is raised here.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    workers = min(threads, len(items))
    parts = [items[i::workers] for i in range(workers)]
    if workers < 2:
        return [work(part) for part in parts]
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, work, part) for part in parts[1:]]
        return [work(parts[0])] + [future.result() for future in futures]


def _attempt_keys(stream: RngStream, iterations, r: int | None) -> list:
    """``(labeled key, unlabeled key)`` of attempt ``r`` of each iteration, as Python ints.

    Attempt ``r`` of iteration ``b`` draws on ``stream.child(b, r)``, the
    single attempt of a loop without retries (``r`` None) on ``stream.child(b)``.
    """
    b = np.asarray(iterations)[:, None]
    tails = b if r is None else np.column_stack([b, np.full_like(b, r)])
    return list(zip(*(keys.tolist() for keys in philox_keys(stream, tails))))


def resample_estimates(
    sides: tuple[Resampler, ...],
    B: int,
    stream: RngStream,
    max_degenerate_retries: int | None,
    threads: int = 1,
) -> tuple[np.ndarray, int, np.ndarray]:
    """The bootstrap loop shared by every resampling method.

    Iteration ``b``, attempt ``r`` resamples on ``stream.child(b, r)``; with
    ``max_degenerate_retries`` None (tuning's layout), iteration ``b`` makes
    one attempt, on ``stream.child(b)``.  Its labeled indices are drawn once
    and shared by the first one or two sides (the labeled outcomes, then the
    labeled predictions); a third side (the unlabeled predictions) reads the
    unlabeled indices, drawn on the attempt stream's ``UNLABELED_TAG`` child,
    as they are drawn.  One side is the classical bootstrap, on the same
    labeled indices.  An attempt with any degenerate estimate (a nonzero
    reason code or a non-finite value) is redrawn up to
    ``max_degenerate_retries`` times, then the iteration is dropped.

    Iterations run in chunks of :func:`estimators.chunk_length`, a length
    that depends on the sides alone, and a chunk in rounds: the first round
    attempts every iteration, each later one redraws only the degenerate
    members, at ``(b, r + 1)``.  A round keys its attempts with one
    :func:`philox_keys` call, draws on a generator of its worker's own reset
    to each key (:func:`draw_keyed_indices`), and each side estimates the
    round's attempts together.  Every attempt is a pure function of its
    stream and a chunk writes only its own iterations, so this draws and
    keeps exactly what one attempt at a time would.

    With ``threads`` above 1 and no side holding a count matrix (mean and
    quantile, whose draw, gather, sort and sum release the GIL), the chunks
    are dealt out by :func:`deal`: of ``W = min(threads, chunks)`` workers,
    worker ``i`` runs chunks ``i, i + W, ...``.  The result never depends on
    ``threads`` or on the order in which chunks finish.  The count-matrix
    engine runs slower threaded and stays on this thread.

    Returns ``(rows, dropped, classical)``: one row per retained iteration, in
    iteration order, holding one estimate per side; the number of dropped
    iterations; and, in iteration order, the first side's estimate at each
    iteration's first attempt where that side alone is not degenerate.  That
    is what the classical loop on these streams keeps: it draws the same
    labeled indices and redraws only where the first side degenerates, and
    a dropped iteration here has made every attempt.
    """
    n = sides[0].size
    rows = np.empty((B, len(sides)))
    kept = np.zeros(B, dtype=bool)
    classical = np.empty(B)
    classical_kept = np.zeros(B, dtype=bool)
    chunk = chunk_length(sides)
    starts = range(0, B, chunk)
    rounds = [None] if max_degenerate_retries is None else range(max_degenerate_retries + 1)

    def run_chunks(chunk_starts):
        """Run the chunks that begin at ``chunk_starts``, drawing on a generator of this worker's own."""
        generator = np.random.Generator(np.random.Philox(0))
        for start in chunk_starts:
            pending = np.arange(start, min(start + chunk, B))
            for r in rounds:
                keys = _attempt_keys(stream, pending, r)
                labeled = [draw_keyed_indices(generator, key, n) for key, _ in keys]
                ests = [side.estimates(labeled, len(keys)) for side in sides[:2]]
                del labeled  # freed before the unlabeled draws, which are far larger one by one
                ests += [side.estimates((draw_keyed_indices(generator, key, side.size) for _, key in keys), len(keys))
                         for side in sides[2:]]
                values = np.column_stack([v for v, _ in ests])
                ok = np.column_stack([(codes == 0) & np.isfinite(v) for v, codes in ests])
                fresh = ok[:, 0] & ~classical_kept[pending]
                classical[pending[fresh]] = values[fresh, 0]
                classical_kept[pending[fresh]] = True
                good = ok.all(axis=1)
                rows[pending[good]] = values[good]
                kept[pending[good]] = True
                pending = pending[~good]
                if not pending.size:
                    break

    deal(run_chunks, starts, 1 if any(side.rows for side in sides) else threads)
    return rows[kept], B - int(np.count_nonzero(kept)), classical[classical_kept]


def _combine(estimates, lam: float):
    """The PPBoot value of per-side estimates; the labeled outcomes' alone at ``lam == 0``."""
    if lam == 0.0:
        return estimates[0]
    lab, pred, unl = estimates
    # Grouping the labeled difference keeps the cancellation exact when
    # predictions coincide with outcomes.  An overflow is left to
    # reported_interval, which rejects a non-finite interval.
    with np.errstate(over="ignore", invalid="ignore"):
        return lam * unl + (lab - lam * pred)


def tune_lambda(sides: tuple[Resampler, ...], tuning_B: int, stream: RngStream, threads: int = 1) -> float:
    """Estimate the variance-minimizing prediction multiplier from the three sides.

    Runs an initial bootstrap collecting, per resample, the triple
    (estimate on labeled outcomes, on labeled predictions, on unlabeled
    predictions), then returns

        cov(pred, outcome) / (var(pred) + var(unlabeled pred))

    with unbiased sample moments over the retained triples.  Resample ``b``
    draws on ``stream.child(b)``; degenerate triples are dropped, never
    redrawn.  A denominator below ``TUNING_DENOM_FLOOR`` yields 0, which
    disables the prediction terms entirely.  Moments that overflow fail
    tuning.  ``threads`` caps the loop's threads (:func:`resample_estimates`).
    """
    if tuning_B < 2:
        raise ValueError(f"tuning_B must be >= 2, got {tuning_B}")
    rows, _, _ = resample_estimates(sides, tuning_B, stream, None, threads)
    m = rows.shape[0]
    if m < 2:
        raise EstimationError(f"tuning failure: only {m} usable resamples out of {tuning_B}")
    # Contiguous columns: BLAS may sum a strided dot product in another order.
    with np.errstate(over="ignore", invalid="ignore"):
        lab, pred, unl = (col - col.mean() for col in rows.T.copy())
        cov = float(np.dot(pred, lab)) / (m - 1)
        denom = float(np.dot(pred, pred)) / (m - 1) + float(np.dot(unl, unl)) / (m - 1)
    if not (math.isfinite(cov) and math.isfinite(denom)):
        raise EstimationError(f"tuning failure: non-finite moments (cov {cov}, denominator {denom})")
    if denom < TUNING_DENOM_FLOOR:
        return 0.0
    return cov / denom


def ppboot_draws(
    sides: tuple[Resampler, ...],
    lams: Sequence[float],
    B: int,
    stream: RngStream,
    max_degenerate_retries: int = 10,
    threads: int = 1,
) -> list[tuple[np.ndarray, int]]:
    """Each multiplier's retained combined values, in iteration order, and dropped count, from one main loop.

    Attempt ``r`` of iteration ``b`` draws at ``(..., PHASE_MAIN, b, r)``.
    A multiplier of 0 takes the classical bootstrap's values on these
    streams; when every multiplier is 0, only the labeled outcomes (the
    first side) are resampled: this is the classical labeled bootstrap.
    """
    every_zero = all(lam == 0.0 for lam in lams)
    rows, dropped, classical = resample_estimates(sides[:1] if every_zero else sides, B, stream.child(PHASE_MAIN),
                                                  max_degenerate_retries, threads)
    columns = rows.T.copy()
    return [(classical, B - classical.size) if lam == 0.0 else (_combine(columns, lam), dropped) for lam in lams]


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
    ests = []
    for name, side in zip(SIDE_NAMES, sides[:1] if lam == 0.0 else sides):
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


def _clipped(cfg: BootstrapConfig, lam: float) -> float:
    return min(max(lam, 0.0), 1.0) if cfg.clip_lambda else lam


def fixed_lambda(cfg: BootstrapConfig) -> float | None:
    """The multiplier ``cfg`` fixes, clipped where it asks; ``None`` when it is tuned.

    A fixed multiplier is clipped before the sides are built: one clipped
    to 0 needs no unlabeled data.
    """
    if cfg.lambda_mode == "tuned":
        return None
    return _clipped(cfg, 1.0 if cfg.lambda_mode == "off" else float(cfg.lambda_value))


def ppboot_intervals(
    sides: tuple[Resampler, ...],
    multipliers: Sequence[float | None],
    cfg: BootstrapConfig,
    stream: RngStream,
    threads: int = 1,
) -> list[ConfidenceInterval | EstimationError]:
    """The percentile interval of each multiplier (``None``: tuned) on one interval's sides, or its failure.

    ``stream`` is the base stream: tuning, run once for every tuned
    multiplier and clipped where ``cfg`` asks, draws under its
    ``PHASE_TUNING`` child and the one main loop under ``PHASE_MAIN``.
    ``threads`` caps the threads of both loops (:func:`resample_estimates`);
    no result depends on it.
    """
    lams = list(multipliers)
    if None in lams:
        try:
            tuned = _clipped(cfg, tune_lambda(sides, cfg.effective_tuning_B, stream.child(PHASE_TUNING), threads))
        except EstimationError as exc:
            tuned = exc
        lams = [tuned if lam is None else lam for lam in lams]
    fine = [lam for lam in lams if not isinstance(lam, EstimationError)]
    draws = iter(ppboot_draws(sides, fine, cfg.B, stream, cfg.max_degenerate_retries, threads) if fine else ())
    out: list[ConfidenceInterval | EstimationError] = []
    for lam in lams:
        if isinstance(lam, EstimationError):  # the tuning failure
            out.append(lam)
            continue
        values, dropped = next(draws)
        try:
            # A bootstrap failure takes precedence over a degenerate point estimate.
            require_retained(values, dropped)
            out.append(percentile_interval(values, dropped, cfg.alpha, ppboot_point_estimate(sides, lam), lam))
        except EstimationError as exc:
            out.append(exc)
    return out


def ppboot_interval(
    labeled: LabeledDataset,
    unlabeled: UnlabeledDataset | None,
    spec: EstimandSpec,
    cfg: BootstrapConfig,
    stream: RngStream,
    threads: int = 1,
) -> ConfidenceInterval:
    """Prediction-powered percentile bootstrap confidence interval.

    ``stream`` is the base stream for this inference; tuning draws live under
    its PHASE_TUNING child and main-loop draws under PHASE_MAIN, so a
    classical bootstrap sharing the same base stream is exactly paired.
    ``unlabeled`` may be ``None`` when the multiplier is fixed at 0: that is
    the classical bootstrap.  Each side is checked and merged once, and
    tuning, the main loop and the point estimate share the result.
    ``threads`` caps the loops' threads; the interval never depends on it.
    """
    fixed = fixed_lambda(cfg)
    sides = interval_resamplers(labeled, unlabeled, spec, 1.0 if fixed is None else fixed)
    [outcome] = ppboot_intervals(sides, [fixed], cfg, stream, threads)
    if isinstance(outcome, EstimationError):
        raise outcome
    return outcome


def reported_interval(ci: ConfidenceInterval, spec: EstimandSpec) -> ConfidenceInterval:
    """Apply reporting conventions: correlation clipping, then the transform.

    Correlation intervals are intersected with [-1, 1] (the combined bootstrap
    values may step outside it); ``exp`` and ``fisher_z_inverse`` map all
    three summaries monotonically, so coverage statements are unaffected.
    A non-finite endpoint or point (an overflow) raises
    :class:`EstimationError`: no interval is reported as infinite or NaN.
    """
    lower, upper = ci.lower, ci.upper
    if spec.kind == "pearson_corr":
        # Monotone clamp: also keeps lower <= upper when an interval sits
        # entirely outside the correlation range.
        lower = min(max(lower, -1.0), 1.0)
        upper = min(max(upper, -1.0), 1.0)
    out = replace(
        ci,
        lower=transform_value(lower, spec),
        upper=transform_value(upper, spec),
        point_estimate=transform_value(ci.point_estimate, spec),
    )
    if not all(map(math.isfinite, (out.lower, out.upper, out.point_estimate))):
        raise EstimationError(f"non-finite interval: lower {out.lower}, upper {out.upper}, point {out.point_estimate}")
    return out


def transform_value(value: float, spec: EstimandSpec) -> float:
    """Apply the reporting transform to a scalar (e.g. a ground-truth value); ``exp`` may overflow to inf."""
    if spec.transform == "exp":
        with np.errstate(over="ignore"):
            return float(np.exp(value))
    if spec.transform == "fisher_z_inverse":
        return float(np.tanh(value))
    return value
