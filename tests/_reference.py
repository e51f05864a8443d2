"""Straightforward reference implementations used as independent oracles.

These deliberately re-derive results from the documented substream and
nearest-rank conventions with plain loops, sharing no algorithm code with the
package under test.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from ppboot.errors import ParseError, SchemaError, ValidationError


def stream_gen(master_seed: int, path: tuple[int, ...]) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.Philox(seq))


def labeled_indices(n: int, master_seed: int, path: tuple[int, ...]) -> np.ndarray:
    """The labeled half of the resample drawn at ``path``: ``n`` indices from ``[0, n)`` on that stream."""
    return stream_gen(master_seed, path).integers(0, n, size=n)


def unlabeled_indices(N: int, master_seed: int, path: tuple[int, ...]) -> np.ndarray:
    """The unlabeled half of the resample drawn at ``path``: ``N`` indices from ``[0, N)`` on its child 1."""
    return stream_gen(master_seed, tuple(path) + (1,)).integers(0, N, size=N)


def nearest_rank(values, q: float) -> float:
    ordered = sorted(float(v) for v in values)
    m = len(ordered)
    k = min(max(math.ceil(q * m - 1e-9), 1), m)
    return ordered[k - 1]


def est_value(kind: str, features, outcomes, q: float = 0.5) -> float:
    y = np.asarray(outcomes, dtype=float)
    if kind == "mean":
        return float(np.mean(y))
    if kind == "quantile":
        return nearest_rank(y, q)
    raise ValueError(kind)


def ppboot_interval(
    labeled_features,
    outcomes,
    labeled_preds,
    unlabeled_features,
    unlabeled_preds,
    kind: str,
    lam: float,
    B: int,
    alpha: float,
    master_seed: int,
    base_path: tuple[int, ...] = (),
    q: float = 0.5,
):
    """Naive loop over the main-phase substreams; returns (lower, upper, values)."""
    y = np.asarray(outcomes, dtype=float)
    fl = np.asarray(labeled_preds, dtype=float)
    fu = np.asarray(unlabeled_preds, dtype=float)
    n, N = y.size, fu.size
    values = []
    for b in range(B):
        g = stream_gen(master_seed, tuple(base_path) + (2, b, 0))
        li = g.integers(0, n, size=n)
        gu = stream_gen(master_seed, tuple(base_path) + (2, b, 0, 1))
        ui = gu.integers(0, N, size=N)
        t_lab = est_value(kind, None, y[li], q)
        t_pred = est_value(kind, None, fl[li], q)
        t_unl = est_value(kind, None, fu[ui], q)
        values.append(lam * t_unl + t_lab - lam * t_pred)
    return nearest_rank(values, alpha / 2), nearest_rank(values, 1 - alpha / 2), values


def tune_lambda(outcomes, labeled_preds, unlabeled_preds, kind: str, tuning_B: int,
                master_seed: int, base_path: tuple[int, ...] = (), q: float = 0.5) -> float:
    """Naive power-tuning loop over the tuning-phase substreams.

    Resample ``b`` draws labeled indices at ``base_path + (1, b)`` and
    unlabeled indices at ``base_path + (1, b, 1)``, with no retry component.
    """
    y = np.asarray(outcomes, dtype=float)
    fl = np.asarray(labeled_preds, dtype=float)
    fu = np.asarray(unlabeled_preds, dtype=float)
    n, N = y.size, fu.size
    pred, lab, unl = [], [], []
    for b in range(tuning_B):
        li = stream_gen(master_seed, tuple(base_path) + (1, b)).integers(0, n, size=n)
        ui = stream_gen(master_seed, tuple(base_path) + (1, b, 1)).integers(0, N, size=N)
        pred.append(est_value(kind, None, fl[li], q))
        lab.append(est_value(kind, None, y[li], q))
        unl.append(est_value(kind, None, fu[ui], q))
    m = len(pred)
    mp, ml, mu = sum(pred) / m, sum(lab) / m, sum(unl) / m
    cov = sum((a - mp) * (b - ml) for a, b in zip(pred, lab)) / (m - 1)
    var_pred = sum((a - mp) ** 2 for a in pred) / (m - 1)
    var_unl = sum((c - mu) ** 2 for c in unl) / (m - 1)
    denom = var_pred + var_unl
    if denom < 1e-15:  # TUNING_DENOM_FLOOR
        return 0.0
    return cov / denom


def classical_interval(outcomes, kind: str, B: int, alpha: float, master_seed: int,
                       base_path: tuple[int, ...] = (), q: float = 0.5):
    y = np.asarray(outcomes, dtype=float)
    n = y.size
    values = []
    for b in range(B):
        g = stream_gen(master_seed, tuple(base_path) + (2, b, 0))
        li = g.integers(0, n, size=n)
        values.append(est_value(kind, None, y[li], q))
    return nearest_rank(values, alpha / 2), nearest_rank(values, 1 - alpha / 2), values


def loo_onenn_cross_ppboot(features, outcomes, unlabeled_features, B: int, alpha: float,
                           master_seed: int, base_path: tuple[int, ...] = ()):
    """Leave-one-out 1-NN cross-fitted mean interval, fully re-derived."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    Xu = np.asarray(unlabeled_features, dtype=float)
    n = X.shape[0]
    K = n

    perm = stream_gen(master_seed, tuple(base_path) + (0, 1)).permutation(n)
    fold_of = np.empty(n, dtype=int)
    fold_of[perm] = np.arange(n) % K

    def one_nn(train_rows, query):
        d2 = np.sum((X[train_rows] - query) ** 2, axis=1)
        return y[train_rows][int(np.argmin(d2))]

    lab_preds = np.empty(n)
    for i in range(n):
        train_rows = np.flatnonzero(fold_of != fold_of[i])
        lab_preds[i] = one_nn(train_rows, X[i])
    unl_preds = np.zeros(Xu.shape[0])
    for j in range(K):
        train_rows = np.flatnonzero(fold_of != j)
        unl_preds += np.array([one_nn(train_rows, xq) for xq in Xu])
    unl_preds /= K

    lower, upper, values = ppboot_interval(
        X, y, lab_preds, Xu, unl_preds, "mean", 1.0, B, alpha, master_seed, base_path
    )
    return lower, upper, values


def knn_tensor_predict(features, outcomes, queries, k: int) -> np.ndarray:
    """Mean outcome of the k nearest training rows, from the full (queries x rows x features) tensor."""
    X = np.asarray(features, dtype=float)
    Q = np.asarray(queries, dtype=float)
    k = min(k, X.shape[0])
    d2 = np.sum((Q[:, None, :] - X[None, :, :]) ** 2, axis=2)
    nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
    return np.mean(np.asarray(outcomes, dtype=float)[nearest], axis=1)


def logistic_loglik(features, outcomes, intercept_val: float, slope: float) -> float:
    x = np.asarray(features, dtype=float).ravel()
    y = np.asarray(outcomes, dtype=float)
    eta = intercept_val + slope * x
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def grid_logistic_slope(features, outcomes, span: float = 10.0, rounds: int = 6, points: int = 41):
    """Iteratively refined grid maximizer of the logistic log-likelihood."""
    c0, c1 = 0.0, 0.0
    for _ in range(rounds):
        a_grid = np.linspace(c0 - span, c0 + span, points)
        b_grid = np.linspace(c1 - span, c1 + span, points)
        best = (-np.inf, c0, c1)
        for a in a_grid:
            for b in b_grid:
                ll = logistic_loglik(features, outcomes, a, b)
                if ll > best[0]:
                    best = (ll, a, b)
        _, c0, c1 = best
        span = span / 8.0
    return c1


def read_table(path: str, feature_cols: list[str], outcome_col: str | None, prediction_col: str | None):
    """The two-pass CSV reader that ``ppboot.data.read_table`` replaced.

    It holds every non-blank row as strings, checks every row's length, then
    parses the wanted columns one by one (features, outcome, prediction) and
    reports the first bad cell of the first bad column.  A role given as
    ``None`` is not read and comes back as ``None``.  A column it reads must
    appear once in the header.
    """
    def parse_column(rows, col, name):
        cells = [row[col] for row in rows]
        try:
            out = np.fromiter(map(float, cells), np.float64, len(cells))
            if np.all(np.isfinite(out)):
                return out
        except ValueError:
            pass
        for i, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError as exc:
                raise ParseError(f"{path}: cannot parse {cell!r} at row {i + 1}, column {name!r}") from exc
            if not np.isfinite(value):
                raise ValidationError(f"{path}: non-finite value {cell!r} at row {i + 1}, column {name!r}")

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file; a header row is required")
        rows = [row for row in reader if row]
    positions = {name: i for i, name in enumerate(header)}
    roles = [c for c in (outcome_col, prediction_col) if c is not None]
    for name in list(feature_cols) + roles:
        if name not in positions:
            raise SchemaError(f"{path}: missing column {name!r} (header: {header})")
        if header.count(name) > 1:
            raise SchemaError(f"{path}: column {name!r} appears {header.count(name)} times in the header")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {i + 1} has {len(row)} cells, expected {len(header)}")
    features = np.column_stack(
        [parse_column(rows, positions[c], c) for c in feature_cols]
    ) if rows else np.empty((0, len(feature_cols)))
    return features, *(None if c is None else parse_column(rows, positions[c], c) for c in (outcome_col, prediction_col))
