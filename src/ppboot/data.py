"""Dataset containers, CSV ingestion, and labeled/unlabeled splitting.

Datasets are immutable after construction (arrays are copied and marked
read-only) and therefore safe to share across concurrent readers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, SchemaError, ValidationError
from .resampling import RngStream


def _frozen_array(values, name: str, ndim: int) -> np.ndarray:
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not numeric: {exc}") from exc
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Features, true outcomes, and model predictions, row-aligned."""

    features: np.ndarray
    outcomes: np.ndarray
    predictions: np.ndarray

    def __post_init__(self):
        feats = _frozen_array(self.features, "features", 2)
        outs = _frozen_array(self.outcomes, "outcomes", 1)
        preds = _frozen_array(self.predictions, "predictions", 1)
        if not (feats.shape[0] == outs.size == preds.size):
            raise ValidationError(
                f"row counts differ: features {feats.shape[0]}, outcomes {outs.size}, predictions {preds.size}"
            )
        if feats.shape[0] < 2:
            raise ValidationError(f"need at least 2 rows, got {feats.shape[0]}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "outcomes", outs)
        object.__setattr__(self, "predictions", preds)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True, eq=False)
class UnlabeledDataset:
    """Features and model predictions only; outcomes were never observed."""

    features: np.ndarray
    predictions: np.ndarray

    def __post_init__(self):
        feats = _frozen_array(self.features, "features", 2)
        preds = _frozen_array(self.predictions, "predictions", 1)
        if feats.shape[0] != preds.size:
            raise ValidationError(
                f"row counts differ: features {feats.shape[0]}, predictions {preds.size}"
            )
        if feats.shape[0] < 2:
            raise ValidationError(f"need at least 2 rows, got {feats.shape[0]}")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "predictions", preds)

    @property
    def N(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def _check_schema(schema: dict, *, need_outcome: bool, need_prediction: bool) -> tuple[str | None, str | None, list[str]]:
    if not isinstance(schema, dict):
        raise SchemaError("schema must be a mapping of column roles")
    features = schema.get("features")
    if not isinstance(features, list) or not features or not all(isinstance(c, str) for c in features):
        raise SchemaError("schema requires a non-empty 'features' list of column names")
    outcome = schema.get("outcome")
    prediction = schema.get("prediction")
    if need_outcome and not isinstance(outcome, str):
        raise SchemaError("schema requires an 'outcome' column name")
    if need_prediction and not isinstance(prediction, str):
        raise SchemaError("schema requires a 'prediction' column name")
    roles = list(features) + [c for c in (outcome, prediction) if isinstance(c, str)]
    if len(set(roles)) != len(roles):
        raise SchemaError(f"schema assigns a column to more than one role: {roles}")
    return outcome, prediction, features


def _parse_column(rows: list[list[str]], col: int, name: str, path: str) -> np.ndarray:
    """One column as floats, parsed in one pass and checked in one call."""
    cells = [row[col] for row in rows]
    try:
        out = np.fromiter(map(float, cells), np.float64, len(cells))
        if np.all(np.isfinite(out)):
            return out
    except ValueError:
        pass
    # The column has a bad cell: report the first one, as a cell-by-cell
    # parse meets it.
    for i, cell in enumerate(cells):
        try:
            value = float(cell)
        except ValueError as exc:
            raise ParseError(f"{path}: cannot parse {cell!r} at row {i + 1}, column {name!r}") from exc
        if not np.isfinite(value):
            raise ValidationError(f"{path}: non-finite value {cell!r} at row {i + 1}, column {name!r}")


def read_table(path: str, schema: dict, *, need_outcome: bool, need_prediction: bool = True):
    """Read a headered CSV into (features, outcomes, predictions) arrays.

    Row order is preserved.  ``outcomes``/``predictions`` are ``None`` when
    the corresponding role is not requested.
    """
    outcome_col, prediction_col, feature_cols = _check_schema(
        schema, need_outcome=need_outcome, need_prediction=need_prediction
    )
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file; a header row is required")
        rows = [row for row in reader if row]

    positions = {name: i for i, name in enumerate(header)}
    wanted = list(feature_cols)
    if need_outcome:
        wanted.append(outcome_col)
    if need_prediction:
        wanted.append(prediction_col)
    for name in wanted:
        if name not in positions:
            raise SchemaError(f"{path}: missing column {name!r} (header: {header})")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"{path}: row {i + 1} has {len(row)} cells, expected {len(header)}")

    features = np.column_stack(
        [_parse_column(rows, positions[c], c, path) for c in feature_cols]
    ) if rows else np.empty((0, len(feature_cols)))
    outcomes = _parse_column(rows, positions[outcome_col], outcome_col, path) if need_outcome else None
    predictions = _parse_column(rows, positions[prediction_col], prediction_col, path) if need_prediction else None
    return features, outcomes, predictions


def load_csv(path: str, schema: dict, expect: str = "labeled"):
    """Load a CSV as a :class:`LabeledDataset` or :class:`UnlabeledDataset`.

    ``schema`` maps roles to column names, e.g.
    ``{"outcome": "y", "prediction": "fhat", "features": ["x1", "x2"]}``.
    An unlabeled load ignores any ``outcome`` entry.
    """
    if expect == "labeled":
        features, outcomes, predictions = read_table(path, schema, need_outcome=True)
        return LabeledDataset(features, outcomes, predictions)
    if expect == "unlabeled":
        features, _, predictions = read_table(path, schema, need_outcome=False)
        return UnlabeledDataset(features, predictions)
    raise ValueError(f"expect must be 'labeled' or 'unlabeled', got {expect!r}")


def split_trial(full: LabeledDataset, n: int, stream: RngStream) -> tuple[LabeledDataset, UnlabeledDataset]:
    """Randomly split a fully labeled dataset into labeled and unlabeled parts.

    A uniformly random subset of ``n`` rows keeps its outcomes; the
    complement's outcomes are discarded.  Predictions carry through on both
    sides and rows are copied bit-identically.
    """
    total = full.n
    if not (2 <= n <= total - 2):
        raise ValueError(f"n must be in [2, {total - 2}] so both sides keep >= 2 rows: got {n}")
    perm = stream.generator().permutation(total)
    keep = np.sort(perm[:n])
    drop = np.sort(perm[n:])
    labeled = LabeledDataset(full.features[keep], full.outcomes[keep], full.predictions[keep])
    unlabeled = UnlabeledDataset(full.features[drop], full.predictions[drop])
    return labeled, unlabeled
