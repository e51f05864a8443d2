"""Cross-fitted prediction-powered bootstrap for settings without a pre-trained model.

K fold models are trained once on the original labeled data (never retrained
inside the bootstrap loop): each labeled point is predicted by the model that
excluded its fold, and each unlabeled point by the average of all K models.
A data-splitting baseline that spends a fraction of the labeled data on
training a single model is provided for comparison.

The k-nearest-neighbour learner is brute force: a query chunk's squared
distances to every training row are built one feature at a time, as a
(queries x training rows) plane of ``(q_j - x_j)²`` per feature, and the
planes are added in the order numpy's pairwise summation adds a contiguous
axis.  So every distance is bitwise ``np.sum((Q[:, None] - X[None]) ** 2,
axis=2)``, without the (queries x training rows x features) tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .boot import BootstrapConfig, ConfidenceInterval, ppboot_interval
from .data import LabeledDataset, UnlabeledDataset
from .errors import EstimationError, check_config
from .estimators import EstimandSpec, _sigmoid, fit_least_squares, fit_logistic, with_intercept
from .resampling import PHASE_SPLIT, RngStream

# Sub-tags under PHASE_SPLIT: 0 is reserved for the harness's labeled/unlabeled
# trial split, so fold assignment and the training split use their own tags.
FOLD_SPLIT_TAG = 1
TRAIN_SPLIT_TAG = 2

LEARNER_KINDS = ("linear_least_squares", "logistic_irls", "knn")

# KNearestLearner.predict takes queries in chunks whose (queries x training
# rows) planes, as many as are alive at once (_live_planes), hold about this
# many float64s (1 MB).  The planes are re-read once per feature, so they
# should fit in a core's cache: at 3 features and 180 training rows, 1 MB
# chunks predicted about a fifth faster than 2 MB on a Xeon with 2 MB of L2
# per core.
KNN_CHUNK_ELEMENTS = 1 << 17

Predictor = Callable[[np.ndarray], np.ndarray]


class Learner(Protocol):
    def fit(self, features: np.ndarray, outcomes: np.ndarray) -> Predictor: ...


@dataclass(frozen=True)
class LearnerSpec:
    kind: str
    k: int = 5

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}; expected one of {LEARNER_KINDS}")
        if self.k < 1:
            raise ValueError(f"knn neighbor count must be >= 1, got {self.k}")

    @classmethod
    def from_dict(cls, raw: dict) -> "LearnerSpec":
        check_config(raw, {"kind": (str,), "k": (int,)}, "learner")
        return cls(**raw)


class LinearLeastSquaresLearner:
    """Ordinary least squares with an intercept."""

    def fit(self, features, outcomes) -> Predictor:
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(outcomes, dtype=np.float64)
        beta, _ = fit_least_squares(with_intercept(X), y)

        def predict(queries: np.ndarray) -> np.ndarray:
            Q = np.asarray(queries, dtype=np.float64)
            return Q @ beta[:-1] + beta[-1]

        return predict


class LogisticLearner:
    """Logistic regression (with intercept); predicts class-1 probabilities."""

    def fit(self, features, outcomes) -> Predictor:
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(outcomes, dtype=np.float64)
        if not np.all((y == 0.0) | (y == 1.0)):
            raise EstimationError("logistic learner requires 0/1 outcomes")
        if np.all(y == y[0]):
            raise EstimationError("logistic learner requires both outcome classes")
        beta, reason = fit_logistic(with_intercept(X), y)
        if reason is not None:
            raise EstimationError(f"logistic learner failed: {reason}")

        def predict(queries: np.ndarray) -> np.ndarray:
            Q = np.asarray(queries, dtype=np.float64)
            return _sigmoid(Q @ beta[:-1] + beta[-1])

        return predict


def _pairwise_planes(plane: Callable[[int], np.ndarray], lo: int, hi: int) -> np.ndarray:
    """``plane(lo) + ... + plane(hi - 1)``, added in the order of numpy's pairwise summation.

    ``np.sum`` adds a contiguous axis of fewer than 8 numbers in sequence; of
    8 to 128 numbers into eight running sums, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and then the remainder in
    sequence; and of more by halving at a multiple of 8.  Adding whole planes
    in that order gives each element the bits of that reduction.  Each plane
    must be a fresh array: the running sums are the first planes themselves.
    """
    n = hi - lo
    if n > 128:
        half = n // 2 - n // 2 % 8
        acc = _pairwise_planes(plane, lo, lo + half)
        acc += _pairwise_planes(plane, lo + half, hi)
        return acc
    if n < 8:
        acc = plane(lo)
        for j in range(lo + 1, hi):
            acc += plane(j)
        return acc
    r = [plane(lo + j) for j in range(8)]
    stop = hi - n % 8
    for i in range(lo + 8, stop, 8):
        for j in range(8):
            r[j] += plane(i + j)
    for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
        r[a] += r[b]
    for j in range(stop, hi):
        r[0] += plane(j)
    return r[0]


def _live_planes(d: int) -> int:
    """Most (queries x training rows) planes alive at once when predicting with ``d`` features.

    The running sums of :func:`_pairwise_planes` (one below 8 features,
    eight up to 128, plus one held sum per halving above), the difference
    plane being added, and argpartition's index block.
    """
    if d > 128:
        half = d // 2 - d // 2 % 8
        return 1 + _live_planes(d - half)  # the right half is the larger
    return 3 if d < 8 else 10


class KNearestLearner:
    """Mean outcome of the k nearest training rows (Euclidean, brute force)."""

    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k

    def fit(self, features, outcomes) -> Predictor:
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(outcomes, dtype=np.float64)
        k = min(self.k, X.shape[0])
        d = X.shape[1]
        columns = np.ascontiguousarray(X.T)  # d x n: one contiguous row per feature
        chunk = max(1, KNN_CHUNK_ELEMENTS // (max(1, X.shape[0]) * _live_planes(d)))

        def predict(queries: np.ndarray) -> np.ndarray:
            Q = np.asarray(queries, dtype=np.float64)
            out = np.empty(Q.shape[0])
            for start in range(0, Q.shape[0], chunk):
                block = Q[start:start + chunk]

                def plane(j: int) -> np.ndarray:
                    diff = block[:, j, None] - columns[j]
                    return np.multiply(diff, diff, out=diff)

                d2 = _pairwise_planes(plane, 0, d) if d else np.zeros((block.shape[0], X.shape[0]))
                nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
                out[start:start + chunk] = np.mean(y[nearest], axis=1)
            return out

        return predict


def make_learner(spec: LearnerSpec) -> Learner:
    if spec.kind == "linear_least_squares":
        return LinearLeastSquaresLearner()
    if spec.kind == "logistic_irls":
        return LogisticLearner()
    return KNearestLearner(spec.k)


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Balanced partition of [0, n) into K folds."""

    K: int
    fold_of: np.ndarray

    def __post_init__(self):
        fold_of = np.asarray(self.fold_of, dtype=np.intp)
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if fold_of.ndim != 1 or np.any(fold_of < 0) or np.any(fold_of >= self.K):
            raise ValueError("fold_of must be a 1-D vector of fold ids in [0, K)")
        object.__setattr__(self, "fold_of", fold_of)

    def members(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == j)


def partition_folds(n: int, K: int, stream: RngStream) -> FoldAssignment:
    """Uniformly random partition with fold sizes differing by at most one."""
    if not (2 <= K <= n):
        raise ValueError(f"K must be in [2, n={n}]: got {K}")
    perm = stream.generator().permutation(n)
    fold_of = np.empty(n, dtype=np.intp)
    fold_of[perm] = np.arange(n) % K
    return FoldAssignment(K, fold_of)


def train_fold_models(features, outcomes, folds: FoldAssignment, learner: Learner) -> list[Predictor]:
    """Fit one model per fold, each on the complement of its fold."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(outcomes, dtype=np.float64)
    if X.shape[0] != y.size or X.shape[0] != folds.fold_of.size:
        raise ValueError("features, outcomes, and fold assignment must agree on row count")
    models: list[Predictor] = []
    for j in range(folds.K):
        mask = folds.fold_of != j
        if not np.any(mask):
            raise EstimationError(f"training failed on fold {j}: empty training complement")
        try:
            models.append(learner.fit(X[mask], y[mask]))
        except (EstimationError, np.linalg.LinAlgError) as exc:
            raise EstimationError(f"training failed on fold {j}: {exc}") from exc
    return models


def assemble_cross_predictions(
    features, unlabeled_features, folds: FoldAssignment, models: list[Predictor]
) -> tuple[np.ndarray, np.ndarray]:
    """Held-out predictions for labeled rows; ensemble average for unlabeled rows."""
    X = np.asarray(features, dtype=np.float64)
    Xu = np.asarray(unlabeled_features, dtype=np.float64)
    if len(models) != folds.K:
        raise ValueError(f"expected {folds.K} models, got {len(models)}")
    labeled_preds = np.empty(X.shape[0])
    for j, model in enumerate(models):
        rows = folds.members(j)
        if rows.size:
            labeled_preds[rows] = model(X[rows])
    unlabeled_preds = np.zeros(Xu.shape[0])
    for model in models:
        unlabeled_preds += model(Xu)
    unlabeled_preds /= folds.K
    return labeled_preds, unlabeled_preds


def cross_ppboot_interval(
    features,
    outcomes,
    unlabeled_features,
    spec: EstimandSpec,
    cfg: BootstrapConfig,
    K: int,
    learner: Learner,
    stream: RngStream,
) -> ConfidenceInterval:
    """Cross-fitted interval: partition, train, assemble predictions, then bootstrap.

    Predictions are fixed before the bootstrap loop; fold randomness lives at
    the stream's ``(PHASE_SPLIT, FOLD_SPLIT_TAG)`` child so the bootstrap
    phases stay aligned with the non-cross-fitted methods.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(outcomes, dtype=np.float64)
    folds = partition_folds(X.shape[0], K, stream.child(PHASE_SPLIT, FOLD_SPLIT_TAG))
    models = train_fold_models(X, y, folds, learner)
    labeled_preds, unlabeled_preds = assemble_cross_predictions(X, unlabeled_features, folds, models)
    labeled = LabeledDataset(X, y, labeled_preds)
    unlabeled = UnlabeledDataset(unlabeled_features, unlabeled_preds)
    return ppboot_interval(labeled, unlabeled, spec, cfg, stream)


def split_ppboot_interval(
    features,
    outcomes,
    unlabeled_features,
    spec: EstimandSpec,
    cfg: BootstrapConfig,
    learner: Learner,
    stream: RngStream,
    split_fraction: float = 0.5,
) -> ConfidenceInterval:
    """Data-splitting baseline: train on a fraction, infer on the rest."""
    if not (0.0 < split_fraction < 1.0):
        raise ValueError(f"split_fraction must lie strictly inside (0, 1): got {split_fraction}")
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(outcomes, dtype=np.float64)
    n = X.shape[0]
    n_train = int(round(split_fraction * n))
    n_train = min(max(n_train, 1), n - 2)
    if n_train < 1 or n - n_train < 2:
        raise ValueError(f"cannot split {n} rows into a training part and >= 2 inference rows")
    perm = stream.child(PHASE_SPLIT, TRAIN_SPLIT_TAG).generator().permutation(n)
    train_rows = perm[:n_train]
    infer_rows = np.sort(perm[n_train:])
    try:
        model = learner.fit(X[train_rows], y[train_rows])
    except (EstimationError, np.linalg.LinAlgError) as exc:
        raise EstimationError(f"training failed on the split training set: {exc}") from exc
    labeled = LabeledDataset(X[infer_rows], y[infer_rows], model(X[infer_rows]))
    unlabeled = UnlabeledDataset(unlabeled_features, model(np.asarray(unlabeled_features, dtype=np.float64)))
    return ppboot_interval(labeled, unlabeled, spec, cfg, stream)
