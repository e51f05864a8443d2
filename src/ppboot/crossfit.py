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
from typing import Callable

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


def make_learner(spec: LearnerSpec):
    if spec.kind == "linear_least_squares":
        return LinearLeastSquaresLearner()
    if spec.kind == "logistic_irls":
        return LogisticLearner()
    return KNearestLearner(spec.k)


def partition_folds(n: int, K: int, stream: RngStream) -> np.ndarray:
    """Each row's fold id: uniformly random, with fold sizes differing by at most one."""
    if not (2 <= K <= n):
        raise ValueError(f"K must be in [2, n={n}]: got {K}")
    perm = stream.generator().permutation(n)
    fold_of = np.empty(n, dtype=np.intp)
    fold_of[perm] = np.arange(n) % K
    return fold_of


def _fold_ids(fold_of, n: int, K: int) -> np.ndarray:
    """``fold_of`` as ``n`` fold ids in [0, K), or ``ValueError``: a labeled row
    whose fold has no model would keep an unset prediction."""
    fold_of = np.asarray(fold_of, dtype=np.intp)
    if fold_of.shape != (n,) or np.any(fold_of < 0) or np.any(fold_of >= K):
        raise ValueError(f"fold_of must be a vector of {n} fold ids in [0, {K})")
    return fold_of


def train_fold_models(features, outcomes, fold_of, learner) -> list[Predictor]:
    """Fit one model per fold id up to the largest, each on the rows outside its fold,
    with any ``learner`` whose ``fit(features, outcomes)`` returns a predictor."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(outcomes, dtype=np.float64)
    if X.shape[0] != y.size:
        raise ValueError("features and outcomes must agree on row count")
    K = int(np.max(fold_of, initial=0)) + 1
    fold_of = _fold_ids(fold_of, X.shape[0], K)
    models: list[Predictor] = []
    for j in range(K):
        mask = fold_of != j
        if not np.any(mask):
            raise EstimationError(f"training failed on fold {j}: empty training complement")
        try:
            models.append(learner.fit(X[mask], y[mask]))
        except (EstimationError, np.linalg.LinAlgError) as exc:
            raise EstimationError(f"training failed on fold {j}: {exc}") from exc
    return models


def assemble_cross_predictions(
    features, unlabeled_features, fold_of, models: list[Predictor]
) -> tuple[np.ndarray, np.ndarray]:
    """Held-out predictions for labeled rows (model ``j`` predicts fold ``j``);
    ensemble average for unlabeled rows."""
    X = np.asarray(features, dtype=np.float64)
    Xu = np.asarray(unlabeled_features, dtype=np.float64)
    fold_of = _fold_ids(fold_of, X.shape[0], len(models))
    labeled_preds = np.empty(X.shape[0])
    for j, model in enumerate(models):
        rows = np.flatnonzero(fold_of == j)
        if rows.size:
            labeled_preds[rows] = model(X[rows])
    unlabeled_preds = np.zeros(Xu.shape[0])
    for model in models:
        unlabeled_preds += model(Xu)
    unlabeled_preds /= len(models)
    return labeled_preds, unlabeled_preds


def cross_ppboot_interval(
    features,
    outcomes,
    unlabeled_features,
    spec: EstimandSpec,
    cfg: BootstrapConfig,
    K: int,
    learner,
    stream: RngStream,
) -> ConfidenceInterval:
    """Cross-fitted interval: partition, train, assemble predictions, then bootstrap.

    Predictions are fixed before the bootstrap loop; fold randomness lives at
    the stream's ``(PHASE_SPLIT, FOLD_SPLIT_TAG)`` child so the bootstrap
    phases stay aligned with the non-cross-fitted methods.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(outcomes, dtype=np.float64)
    fold_of = partition_folds(X.shape[0], K, stream.child(PHASE_SPLIT, FOLD_SPLIT_TAG))
    # Outcomes near the float range may overflow a model's arithmetic; the
    # non-finite predictions that follow fail the dataset's check.
    with np.errstate(over="ignore", invalid="ignore"):
        models = train_fold_models(X, y, fold_of, learner)
        labeled_preds, unlabeled_preds = assemble_cross_predictions(X, unlabeled_features, fold_of, models)
    labeled = LabeledDataset(X, y, labeled_preds)
    unlabeled = UnlabeledDataset(unlabeled_features, unlabeled_preds)
    return ppboot_interval(labeled, unlabeled, spec, cfg, stream)


def split_ppboot_interval(
    features,
    outcomes,
    unlabeled_features,
    spec: EstimandSpec,
    cfg: BootstrapConfig,
    learner,
    stream: RngStream,
    split_fraction: float = 0.5,
) -> ConfidenceInterval:
    """Data-splitting baseline: train on a fraction, infer on the rest."""
    if not (0.0 < split_fraction < 1.0):
        raise ValueError(f"split_fraction must lie strictly inside (0, 1): got {split_fraction}")
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(outcomes, dtype=np.float64)
    n = X.shape[0]
    if n < 3:
        raise ValueError(f"cannot split {n} rows into a training part and >= 2 inference rows")
    n_train = min(max(int(round(split_fraction * n)), 1), n - 2)
    perm = stream.child(PHASE_SPLIT, TRAIN_SPLIT_TAG).generator().permutation(n)
    train_rows = perm[:n_train]
    infer_rows = np.sort(perm[n_train:])
    # As in cross_ppboot_interval, non-finite predictions fail the dataset's check.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            model = learner.fit(X[train_rows], y[train_rows])
        except (EstimationError, np.linalg.LinAlgError) as exc:
            raise EstimationError(f"training failed on the split training set: {exc}") from exc
        labeled = LabeledDataset(X[infer_rows], y[infer_rows], model(X[infer_rows]))
        unlabeled = UnlabeledDataset(unlabeled_features, model(np.asarray(unlabeled_features, dtype=np.float64)))
    return ppboot_interval(labeled, unlabeled, spec, cfg, stream)
