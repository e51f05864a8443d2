"""Scalar estimators applied interchangeably to outcomes and to predictions.

An estimate takes three steps.  :func:`check_args` is the one argument check:
wrong shapes, empty input or non-binary data raise ``ValueError`` there.
:func:`canonical_rows` is the one place where row order is decided, so every
result depends only on the row multiset.  :func:`kernel` computes the estimate
and assumes canonical rows: it neither checks nor sorts.  Conditions that make
the target ill-defined on a sample (singular design, separation, constant
variables) are reported through the degenerate flag rather than raised, so
bootstrap loops can redraw.
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


def check_args(spec: EstimandSpec, features, outcomes) -> tuple[np.ndarray, np.ndarray]:
    """The one argument check: ``(features, outcomes)`` as float arrays, or ``ValueError``.

    Mean and quantile never read ``features`` (it may be ``None``).  A resample
    keeps its source's shape and a subset of its values, so one check covers it.
    """
    if spec.kind in ("mean", "quantile"):
        y = _as_array(outcomes, "outcomes", 1)
        if y.size < 1:
            raise ValueError("outcomes must be non-empty")
        return np.empty((y.size, 0)), y
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


def canonical_rows(spec: EstimandSpec, X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one place where row order is decided: ``(order, X_key, y_key)``, sorted.

    The key is y, then the feature columns ``spec`` reads (none for mean and
    quantile, one for Pearson and the log odds ratio, all for OLS and
    logistic); ``X_key`` keeps only those.  Rows tying on the key are equal in
    all a kernel reads, so every result is a function of the row multiset.
    """
    columns = {"mean": [], "quantile": [], "pearson_corr": [spec.feature_column],
               "log_odds_ratio": [spec.exposure_column]}.get(spec.kind, range(X.shape[1]))
    # Adding 0.0 turns -0.0 into 0.0: signed zeros tie in the key but differ
    # in bits, and their sign can steer the linear algebra.
    X_key, y = X[:, list(columns)] + 0.0, y + 0.0
    order = np.lexsort([*X_key.T[::-1], y])
    return order, X_key[order], y[order]


def with_intercept(X: np.ndarray) -> np.ndarray:
    """Design matrix with a trailing column of ones."""
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def fit_logistic(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray | None, str | None]:
    """Maximum-likelihood logistic fit via iteratively reweighted least squares.

    Returns ``(beta, None)``, or ``(None, reason)`` when the fit is ill-posed.
    Converges when the largest absolute coefficient change drops below
    ``IRLS_TOL`` or after ``IRLS_MAX_ITER`` iterations.  A coefficient escaping
    ``SEPARATION_BOUND`` during iteration is treated as separation.
    """
    beta = np.zeros(design.shape[1])
    for iteration in range(IRLS_MAX_ITER):
        mu = _sigmoid(design @ beta)
        w = mu * (1.0 - mu)
        hessian = design.T @ (design * w[:, None])
        score = design.T @ (y - mu)
        try:
            step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError:
            # Uniform weights at the start: a singular Hessian there means the
            # design itself is rank-deficient.  Later, the fitted probabilities
            # saturated the weights to zero, which only happens under separation.
            return None, "singular design" if iteration == 0 else "separation"
        beta = beta + step
        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            return None, "separation"
        if np.max(np.abs(step)) < IRLS_TOL:
            break
    return beta, None


def kernel(spec: EstimandSpec, X: np.ndarray, y: np.ndarray) -> EstimateValue:
    """The estimator of ``spec`` on the ``(X_key, y_key)`` of :func:`canonical_rows`.

    The rows must already be checked and in canonical order; kernels never check or sort.
    """
    if spec.kind == "mean":
        # y is sorted, so the float sum does not depend on the input order.
        return EstimateValue(float(np.sum(y)) / y.size)
    if spec.kind == "quantile":
        return EstimateValue(float(y[nearest_rank_index(spec.q, y.size)]))
    if spec.kind == "log_odds_ratio":
        e = X[:, 0]
        n11, n10, n01, n00 = (float(np.sum((e == a) & (y == b))) for a, b in ((1, 1), (1, 0), (0, 1), (0, 0)))
        reason = None
        if min(n11, n10, n01, n00) == 0.0:
            n11, n10, n01, n00 = n11 + 0.5, n10 + 0.5, n01 + 0.5, n00 + 0.5
            reason = "zero cell corrected"
        return EstimateValue(float(np.log((n11 * n00) / (n10 * n01))), reason)
    if spec.kind == "pearson_corr":
        xc = X[:, 0] - np.mean(X[:, 0])
        yc = y - np.mean(y)
        denom = np.sqrt(np.dot(xc, xc) * np.dot(yc, yc))
        if denom == 0.0:
            return EstimateValue(float("nan"), "constant variable")
        return EstimateValue(float(np.dot(xc, yc) / denom))
    design = with_intercept(X) if spec.intercept else X
    if spec.kind == "ols_coef":
        beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        reason = "singular design" if rank < design.shape[1] else None
    elif np.all(y == y[0]):
        beta, reason = None, "constant outcome"
    else:
        beta, reason = fit_logistic(design, y)
    if reason is not None:
        return EstimateValue(float("nan"), reason)
    return EstimateValue(float(beta[spec.target_index]))


def evaluate(spec: EstimandSpec, features, outcomes) -> EstimateValue:
    """Apply the estimator of ``spec`` to one dataset (outcomes or predictions): check, sort, kernel."""
    X, y = check_args(spec, features, outcomes)
    _, X_key, y_key = canonical_rows(spec, X, y)
    return kernel(spec, X_key, y_key)


def canonical_resampler(spec: EstimandSpec, features, outcomes) -> Callable[[np.ndarray], EstimateValue]:
    """Check and sort one dataset once; return ``idx -> evaluate(spec, X[idx], y[idx])``.

    A resample's canonical rows are the sorted dataset's rows at the sorted
    ranks of the drawn rows, so the function sorts integers, not rows, and
    gives :func:`evaluate`'s bits.  When y is the whole key, sorting the drawn
    values themselves is cheaper still.
    """
    X, y = check_args(spec, features, outcomes)
    order, X_key, y_key = canonical_rows(spec, X, y)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    if X_key.shape[1] == 0:
        y_by_row = y_key[rank]
        return lambda idx: kernel(spec, np.empty((idx.size, 0)), np.sort(y_by_row[idx]))

    def estimate(idx: np.ndarray) -> EstimateValue:
        rows = np.sort(rank[idx])
        return kernel(spec, X_key[rows], y_key[rows])

    return estimate


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
