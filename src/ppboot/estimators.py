"""Scalar estimators applied interchangeably to outcomes and to predictions.

Every estimator is a pure function returning an :class:`EstimateValue`.
Conditions that make the target ill-defined on a particular sample (singular
design, separation, constant variables) are reported through the degenerate
flag rather than raised, so bootstrap loops can redraw; genuine argument
errors (empty input, non-binary data) raise ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NUMBER, check_config
from .resampling import empirical_quantile

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


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def _as_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def _require_binary(arr: np.ndarray, name: str) -> np.ndarray:
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{name} must contain only 0/1 values")
    return arr


def with_intercept(X: np.ndarray) -> np.ndarray:
    """Design matrix with a trailing column of ones."""
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _invariant_sum(v: np.ndarray) -> float:
    # Float summation is order-sensitive; every estimator must return
    # bit-identical values under row permutation.  0/1 vectors sum exactly in
    # any order; anything else is summed in sorted order so the result depends
    # only on the multiset.
    if np.all((v == 0.0) | (v == 1.0)):
        return float(np.sum(v))
    return float(np.sum(np.sort(v)))


def _canonical_rows(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Sort rows by (y, column 0, column 1, ...).  Rows tying on every key are
    # fully identical, so the reordered matrices are a pure function of the
    # row multiset and downstream linear algebra is permutation-invariant.
    keys = tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1)) + (y,)
    order = np.lexsort(keys)
    return X[order], y[order]


def est_mean(outcomes) -> EstimateValue:
    """Arithmetic mean."""
    y = _as_vector(outcomes, "outcomes")
    if y.size < 1:
        raise ValueError("outcomes must be non-empty")
    return EstimateValue(_invariant_sum(y) / y.size)


def est_quantile(outcomes, q: float) -> EstimateValue:
    """Nearest-rank upper sample quantile (always an element of the sample)."""
    y = _as_vector(outcomes, "outcomes")
    if y.size < 1:
        raise ValueError("outcomes must be non-empty")
    return EstimateValue(empirical_quantile(y, q))


def est_ols_coef(features, outcomes, target_index: int, intercept: bool = True) -> EstimateValue:
    """Least-squares coefficient at ``target_index``.

    The intercept, when enabled, is appended as an extra trailing column and
    can never be the target.
    """
    X = _as_matrix(features, "features")
    y = _as_vector(outcomes, "outcomes")
    if X.shape[0] != y.size:
        raise ValueError(f"row mismatch: features {X.shape[0]} vs outcomes {y.size}")
    if not (0 <= target_index < X.shape[1]):
        raise ValueError(f"target_index {target_index} outside [0, {X.shape[1]})")
    X, y = _canonical_rows(X, y)
    design = with_intercept(X) if intercept else X
    if design.shape[0] < design.shape[1]:
        raise ValueError(f"need at least {design.shape[1]} rows, got {design.shape[0]}")
    beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        return EstimateValue(float("nan"), "singular design")
    return EstimateValue(float(beta[target_index]))


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


def est_logistic_coef(features, outcomes, target_index: int, intercept: bool = True) -> EstimateValue:
    """Maximum-likelihood logistic coefficient (see :func:`fit_logistic`)."""
    X = _as_matrix(features, "features")
    y = _require_binary(_as_vector(outcomes, "outcomes"), "outcomes")
    if X.shape[0] != y.size:
        raise ValueError(f"row mismatch: features {X.shape[0]} vs outcomes {y.size}")
    if not (0 <= target_index < X.shape[1]):
        raise ValueError(f"target_index {target_index} outside [0, {X.shape[1]})")
    X, y = _canonical_rows(X, y)
    design = with_intercept(X) if intercept else X
    if design.shape[0] < design.shape[1]:
        raise ValueError(f"need at least {design.shape[1]} rows, got {design.shape[0]}")
    if np.all(y == y[0]):
        return EstimateValue(float("nan"), "constant outcome")
    beta, reason = fit_logistic(design, y)
    if reason is not None:
        return EstimateValue(float("nan"), reason)
    return EstimateValue(float(beta[target_index]))


def est_log_odds_ratio(exposure, outcomes) -> EstimateValue:
    """Log odds ratio of two binary variables from the 2x2 contingency table.

    Any empty cell triggers the add-0.5-to-all-cells correction and flags the
    estimate (the corrected value is still returned).
    """
    e = _require_binary(_as_vector(exposure, "exposure"), "exposure")
    y = _require_binary(_as_vector(outcomes, "outcomes"), "outcomes")
    if e.size != y.size:
        raise ValueError(f"length mismatch: exposure {e.size} vs outcomes {y.size}")
    if e.size < 4:
        raise ValueError("need at least 4 observations for a 2x2 table")
    n11 = float(np.sum((e == 1.0) & (y == 1.0)))
    n10 = float(np.sum((e == 1.0) & (y == 0.0)))
    n01 = float(np.sum((e == 0.0) & (y == 1.0)))
    n00 = float(np.sum((e == 0.0) & (y == 0.0)))
    reason = None
    if min(n11, n10, n01, n00) == 0.0:
        n11, n10, n01, n00 = n11 + 0.5, n10 + 0.5, n01 + 0.5, n00 + 0.5
        reason = "zero cell corrected"
    return EstimateValue(float(np.log((n11 * n00) / (n10 * n01))), reason)


def est_pearson_corr(features, outcomes, feature_column: int) -> EstimateValue:
    """Sample Pearson correlation between one feature column and the outcomes."""
    X = _as_matrix(features, "features")
    y = _as_vector(outcomes, "outcomes")
    if X.shape[0] != y.size:
        raise ValueError(f"row mismatch: features {X.shape[0]} vs outcomes {y.size}")
    if not (0 <= feature_column < X.shape[1]):
        raise ValueError(f"feature_column {feature_column} outside [0, {X.shape[1]})")
    if y.size < 3:
        raise ValueError("need at least 3 observations")
    x, y = _canonical_rows(X[:, feature_column][:, None], y)
    x = x[:, 0]
    xc = x - np.mean(x)
    yc = y - np.mean(y)
    denom = np.sqrt(np.dot(xc, xc) * np.dot(yc, yc))
    if denom == 0.0:
        return EstimateValue(float("nan"), "constant variable")
    return EstimateValue(float(np.dot(xc, yc) / denom))


def evaluate(spec: EstimandSpec, features, outcomes) -> EstimateValue:
    """Apply the estimator selected by ``spec`` to one dataset.

    ``outcomes`` may be true outcomes or a prediction column; both sides of
    the debiased combination go through this single dispatch point.
    ``features`` may be ``None`` for the outcome-only estimands (mean,
    quantile), which never read it.
    """
    if spec.kind == "mean":
        return est_mean(outcomes)
    if spec.kind == "quantile":
        return est_quantile(outcomes, spec.q)
    if spec.kind == "ols_coef":
        return est_ols_coef(features, outcomes, spec.target_index, spec.intercept)
    if spec.kind == "logistic_coef":
        return est_logistic_coef(features, outcomes, spec.target_index, spec.intercept)
    if spec.kind == "log_odds_ratio":
        X = _as_matrix(features, "features")
        if not (0 <= spec.exposure_column < X.shape[1]):
            raise ValueError(f"exposure_column {spec.exposure_column} outside [0, {X.shape[1]})")
        return est_log_odds_ratio(X[:, spec.exposure_column], outcomes)
    if spec.kind == "pearson_corr":
        return est_pearson_corr(features, outcomes, spec.feature_column)
    raise ValueError(f"unknown estimand kind {spec.kind!r}")
