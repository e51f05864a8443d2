"""Scalar estimators applied interchangeably to outcomes and to predictions.

Every estimate takes one path: check, merge, kernel.  :func:`check_args` is
the one argument check: wrong shapes, empty input or non-binary data raise
``ValueError`` there.  :func:`canonical_resampler` is the one place where row
order is decided: for the feature-keyed estimands (Pearson, log odds ratio,
OLS, logistic) it merges the rows that tie on their key into sorted weighted
rows, and a resample becomes a vector of counts over them.  :func:`kernel`
computes the estimate from the drawn merged rows and their counts, so every
result depends only on the row multiset and costs the distinct drawn rows.
:func:`evaluate` is the identity resample.  Mean and quantile stay on the
drawn values: the mean's bits are those of the sorted sum, which a weighted
sum would not reproduce.  All least squares goes through
:func:`fit_least_squares`.  Conditions that make the target ill-defined on a
sample (singular design, separation, constant variables) are reported
through the degenerate flag rather than raised, so bootstrap loops can
redraw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NUMBER, check_config
from .resampling import nearest_rank_index

ESTIMAND_KINDS = (
    "mean",
    "quantile",
    "ols_coef",
    "logistic_coef",
    "log_odds_ratio",
    "pearson_corr",
)
REPORT_TRANSFORMS = ("identity", "exp", "fisher_z_inverse")
# Estimands of the outcomes alone; the others read feature columns too.
OUTCOME_ONLY_KINDS = ("mean", "quantile")

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
SEPARATION_BOUND = 50.0


@dataclass(frozen=True)
class EstimateValue:
    """A scalar estimate plus an optional degeneracy reason.

    ``reason`` is ``None`` for a clean estimate.  A non-``None`` reason marks
    the sample as degenerate for this estimand; ``value`` may still be finite
    when a documented correction applies (e.g. zero-cell-corrected odds).
    """

    value: float
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.reason is None


@dataclass(frozen=True)
class EstimandSpec:
    """Which scalar functional is targeted and its estimator parameters."""

    kind: str
    q: float = 0.5
    target_index: int = 0
    intercept: bool = True
    exposure_column: int = 0
    feature_column: int = 0
    transform: str = "identity"

    def __post_init__(self):
        if self.kind not in ESTIMAND_KINDS:
            raise ValueError(f"unknown estimand kind {self.kind!r}; expected one of {ESTIMAND_KINDS}")
        if self.transform not in REPORT_TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}; expected one of {REPORT_TRANSFORMS}")
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"quantile level must lie strictly inside (0, 1): got {self.q}")
        for name in ("target_index", "exposure_column", "feature_column"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def from_dict(cls, raw: dict) -> "EstimandSpec":
        check_config(raw, {
            "kind": (str,), "q": NUMBER, "target_index": (int,), "intercept": (bool,),
            "exposure_column": (int,), "feature_column": (int,), "transform": (str,),
        }, "estimand")
        if "kind" not in raw:
            raise ValueError("estimand config requires a 'kind' key")
        return cls(**raw)


def _as_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    return arr


def _require_binary(arr: np.ndarray, name: str) -> None:
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{name} must contain only 0/1 values")


def _require_column(index: int, name: str, X: np.ndarray) -> None:
    if not (0 <= index < X.shape[1]):
        raise ValueError(f"{name} {index} outside [0, {X.shape[1]})")


def check_args(spec: EstimandSpec, features, outcomes) -> tuple[np.ndarray | None, np.ndarray]:
    """The one argument check: ``(features, outcomes)`` as float arrays, or ``ValueError``.

    Mean and quantile never read ``features`` (it may be ``None``, and comes
    back as ``None``).  A resample keeps its source's shape and a subset of
    its values, so one check covers it.
    """
    if spec.kind in OUTCOME_ONLY_KINDS:
        y = _as_array(outcomes, "outcomes", 1)
        if y.size < 1:
            raise ValueError("outcomes must be non-empty")
        return None, y
    X = _as_array(features, "features", 2)
    if spec.kind == "log_odds_ratio":
        _require_column(spec.exposure_column, "exposure_column", X)
        _require_binary(X[:, spec.exposure_column], "exposure")
    y = _as_array(outcomes, "outcomes", 1)
    if spec.kind in ("logistic_coef", "log_odds_ratio"):
        _require_binary(y, "outcomes")
    if X.shape[0] != y.size:
        what = "length mismatch: exposure" if spec.kind == "log_odds_ratio" else "row mismatch: features"
        raise ValueError(f"{what} {X.shape[0]} vs outcomes {y.size}")
    if spec.kind == "log_odds_ratio":
        if y.size < 4:
            raise ValueError("need at least 4 observations for a 2x2 table")
    elif spec.kind == "pearson_corr":
        _require_column(spec.feature_column, "feature_column", X)
        if y.size < 3:
            raise ValueError("need at least 3 observations")
    else:
        _require_column(spec.target_index, "target_index", X)
        columns = X.shape[1] + spec.intercept
        if y.size < columns:
            raise ValueError(f"need at least {columns} rows, got {y.size}")
    return X, y


def with_intercept(X: np.ndarray) -> np.ndarray:
    """Design matrix with a trailing column of ones."""
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # exp(-|eta|) never overflows; both branches are the textbook forms
    # 1 / (1 + exp(-eta)) and exp(eta) / (1 + exp(eta)), bit for bit.
    t = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, t) / (1.0 + t)


def fit_least_squares(design: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Weighted least squares: ``(beta, rank)``, row ``i`` counting ``w[i]`` times (all once by default).

    Scaling row ``i`` by ``sqrt(w[i])`` gives the singular values of the
    design with row ``i`` repeated ``w[i]`` times, so numpy's default cut,
    ``eps * max(rows, columns)``, taken over the expanded rows makes ``rank``
    their rank.  With unit weights this is ``lstsq(design, y, rcond=None)``.
    """
    w = np.ones(y.size) if w is None else w
    root = np.sqrt(w)
    cut = np.finfo(np.float64).eps * max(np.sum(w), design.shape[1])
    beta, _, rank, _ = np.linalg.lstsq(design * root[:, None], y * root, rcond=cut)
    return beta, rank


def fit_logistic(design: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> tuple[np.ndarray | None, str | None]:
    """Maximum-likelihood logistic fit via iteratively reweighted least squares.

    Row ``i`` counts ``w[i]`` times (all once by default).  Returns
    ``(beta, None)``, or ``(None, reason)`` when the fit is ill-posed.  IRLS
    starts from zero, where every fitted probability is 1/2, so the first
    Newton step is 4 times the weighted least-squares fit of ``y - 1/2``
    (:func:`fit_least_squares`); a design without full column rank in that
    fit (the test of ``ols_coef``) is a "singular design".  IRLS converges
    when the largest absolute coefficient change drops below ``IRLS_TOL`` or
    after ``IRLS_MAX_ITER`` steps, the first included.  A coefficient
    escaping ``SEPARATION_BOUND`` during iteration is treated as separation.
    """
    w = np.ones(y.size) if w is None else w
    step, rank = fit_least_squares(design, y - 0.5, w)
    if rank < design.shape[1]:
        return None, "singular design"
    step = 4.0 * step
    beta = np.zeros(design.shape[1])
    for iteration in range(IRLS_MAX_ITER):
        if iteration:
            mu = _sigmoid(design @ beta)
            hessian = design.T @ (design * (w * mu * (1.0 - mu))[:, None])
            score = design.T @ (w * (y - mu))
            try:
                step = np.linalg.solve(hessian, score)
            except np.linalg.LinAlgError:
                # The design has full rank, so the fitted probabilities
                # saturated the weights to zero: separation.
                return None, "separation"
        beta = beta + step
        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            return None, "separation"
        if np.max(np.abs(step)) < IRLS_TOL:
            break
    return beta, None


def kernel(spec: EstimandSpec, X: np.ndarray | None, y: np.ndarray, w: np.ndarray | None) -> EstimateValue:
    """The estimator of ``spec``; it neither checks nor merges.

    Mean and quantile read the sample values ``y`` in any order (``X`` and
    ``w`` are unused): the mean sums them sorted, the quantile selects its
    order statistic in place.  They are never merged, because a weighted sum
    would not give the bits of the sorted sum.  The other four take the merged
    rows ``(X, y)`` of :func:`canonical_resampler`, in key order, with integer
    weights ``w``.
    """
    if spec.kind == "mean":
        # Sorted, so the float sum does not depend on the input order.
        return EstimateValue(float(np.sum(np.sort(y))) / y.size)
    if spec.kind == "quantile":
        k = nearest_rank_index(spec.q, y.size)
        return EstimateValue(float(np.partition(y, k)[k]))
    w = w.astype(np.float64)  # one cast here, not one per weighted operation
    if spec.kind == "log_odds_ratio":
        e = X[:, 0]
        # Sums of integer-valued weights, so the table is exact.
        n11, n10, n01, n00 = (float(np.sum(w[(e == a) & (y == b)])) for a, b in ((1, 1), (1, 0), (0, 1), (0, 0)))
        reason = None
        if min(n11, n10, n01, n00) == 0.0:
            n11, n10, n01, n00 = n11 + 0.5, n10 + 0.5, n01 + 0.5, n00 + 0.5
            reason = "zero cell corrected"
        return EstimateValue(float(np.log((n11 * n00) / (n10 * n01))), reason)
    if spec.kind == "pearson_corr":
        x = X[:, 0]
        # Exact tests, since a constant column whose mean is inexact has a
        # nonzero centred sum of squares.  The merged rows are sorted by y.
        if y[0] == y[-1] or np.all(x == x[0]):
            return EstimateValue(float("nan"), "constant variable")
        # np.sum, not np.dot: BLAS splits long dot products across its
        # threads, which would tie the bits to the thread count.
        total = np.sum(w)
        xc = x - np.sum(w * x) / total
        yc = y - np.sum(w * y) / total
        wxc = w * xc
        denom = np.sqrt(np.sum(wxc * xc) * np.sum(w * yc * yc))
        if denom == 0.0:  # the squares underflowed
            return EstimateValue(float("nan"), "constant variable")
        return EstimateValue(float(np.sum(wxc * yc) / denom))
    if spec.kind == "ols_coef":
        beta, rank = fit_least_squares(X, y, w)
        reason = "singular design" if rank < X.shape[1] else None
    elif np.all(y == y[0]):
        beta, reason = None, "constant outcome"
    else:
        beta, reason = fit_logistic(X, y, w)
    if reason is not None:
        return EstimateValue(float("nan"), reason)
    return EstimateValue(float(beta[spec.target_index]))


def canonical_resampler(spec: EstimandSpec, features, outcomes) -> Callable[[np.ndarray], EstimateValue]:
    """Check and merge one dataset once; return ``idx -> estimate on (X[idx], y[idx])``.

    The merge key is y, then the feature columns ``spec`` reads (one for
    Pearson and the log odds ratio, all for OLS and logistic); rows tying on
    it are equal in all a kernel reads.  The merged rows are in key order,
    and OLS and logistic get their intercept column here.  A resample is
    ``bincount(row_id[idx])`` over them, and the kernel runs on the rows
    drawn at least once, with their counts as weights.  Mean and quantile
    take the drawn values themselves.
    """
    X, y = check_args(spec, features, outcomes)
    if spec.kind in OUTCOME_ONLY_KINDS:
        values = y + 0.0
        return lambda idx: kernel(spec, None, values[idx], None)
    columns = {"pearson_corr": [spec.feature_column],
               "log_odds_ratio": [spec.exposure_column]}.get(spec.kind, range(X.shape[1]))
    # Adding 0.0 turns -0.0 into 0.0: signed zeros tie in the key but differ
    # in bits, and their sign can steer the linear algebra.
    rows, row_id = np.unique(np.column_stack([y, X[:, list(columns)]]) + 0.0, axis=0, return_inverse=True)
    y_rows, X_rows = rows[:, 0], rows[:, 1:]
    if spec.kind in ("ols_coef", "logistic_coef") and spec.intercept:
        X_rows = with_intercept(X_rows)

    def estimate(idx: np.ndarray) -> EstimateValue:
        counts = np.bincount(row_id[idx], minlength=y_rows.size)
        # take() gathers rows several times faster than fancy indexing.
        drawn = np.flatnonzero(counts > 0)
        return kernel(spec, X_rows.take(drawn, axis=0), y_rows.take(drawn), counts.take(drawn))

    return estimate


def evaluate(spec: EstimandSpec, features, outcomes) -> EstimateValue:
    """Apply the estimator of ``spec`` to one dataset (outcomes or predictions): the identity resample."""
    return canonical_resampler(spec, features, outcomes)(np.arange(np.size(outcomes)))


def est_mean(outcomes) -> EstimateValue:
    """Arithmetic mean."""
    return evaluate(EstimandSpec("mean"), None, outcomes)


def est_quantile(outcomes, q: float) -> EstimateValue:
    """Nearest-rank upper sample quantile (always an element of the sample)."""
    return evaluate(EstimandSpec("quantile", q=q), None, outcomes)


def est_ols_coef(features, outcomes, target_index: int, intercept: bool = True) -> EstimateValue:
    """Least-squares coefficient at ``target_index``; the intercept is a trailing column."""
    return evaluate(EstimandSpec("ols_coef", target_index=target_index, intercept=intercept), features, outcomes)


def est_logistic_coef(features, outcomes, target_index: int, intercept: bool = True) -> EstimateValue:
    """Maximum-likelihood logistic coefficient (see :func:`fit_logistic`)."""
    return evaluate(EstimandSpec("logistic_coef", target_index=target_index, intercept=intercept), features, outcomes)


def est_log_odds_ratio(exposure, outcomes) -> EstimateValue:
    """Log odds ratio of two binary variables; an empty cell adds 0.5 to every cell and flags."""
    return evaluate(EstimandSpec("log_odds_ratio"), _as_array(exposure, "exposure", 1)[:, None], outcomes)


def est_pearson_corr(features, outcomes, feature_column: int) -> EstimateValue:
    """Sample Pearson correlation between one feature column and the outcomes."""
    return evaluate(EstimandSpec("pearson_corr", feature_column=feature_column), features, outcomes)
