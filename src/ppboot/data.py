"""Dataset containers, CSV ingestion, and labeled/unlabeled splitting.

Datasets are immutable after construction (arrays are copied and marked
read-only) and therefore safe to share across concurrent readers.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, fields

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


def _freeze(dataset) -> None:
    """Check a dataset's fields (2-D features, 1-D others, one row count >= 2) and freeze copies."""
    arrays = {f.name: _frozen_array(getattr(dataset, f.name), f.name, 2 if f.name == "features" else 1)
              for f in fields(dataset)}
    rows = {name: arr.shape[0] for name, arr in arrays.items()}
    if len(set(rows.values())) > 1:
        raise ValidationError("row counts differ: " + ", ".join(f"{name} {count}" for name, count in rows.items()))
    if rows["features"] < 2:
        raise ValidationError(f"need at least 2 rows, got {rows['features']}")
    for name, arr in arrays.items():
        object.__setattr__(dataset, name, arr)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Features, true outcomes, and model predictions, row-aligned."""

    features: np.ndarray
    outcomes: np.ndarray
    predictions: np.ndarray

    def __post_init__(self):
        _freeze(self)

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
        _freeze(self)

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


def read_table(path: str, schema: dict, *, need_outcome: bool, need_prediction: bool = True):
    """Read a headered CSV, in one pass, into (features, outcomes, predictions) arrays.

    Row order is preserved and blank lines are skipped.  ``outcomes``/``predictions``
    are ``None`` when the corresponding role is not requested.  A column the
    schema names must appear once in the header; other columns may repeat.
    """
    outcome_col, prediction_col, feature_cols = _check_schema(
        schema, need_outcome=need_outcome, need_prediction=need_prediction
    )
    wanted = list(feature_cols)
    if need_outcome:
        wanted.append(outcome_col)
    if need_prediction:
        wanted.append(prediction_col)
    table, bad = array("d"), {}  # bad: wanted index -> (row, cell, unparsable) of its first bad cell
    header, i = None, 0  # the header and the count of data rows read, for a csv.Error
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file; a header row is required")
            positions = {name: i for i, name in enumerate(header)}
            for name in wanted:
                if name not in positions:
                    raise SchemaError(f"{path}: missing column {name!r} (header: {header})")
                if header.count(name) > 1:
                    raise SchemaError(f"{path}: column {name!r} appears {header.count(name)} times in the header")
            cols = [positions[name] for name in wanted]
            for i, row in enumerate(filter(None, reader), 1):
                if len(row) != len(header):
                    raise ParseError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
                for j, col in enumerate(cols):
                    try:
                        value = float(row[col])
                    except ValueError:
                        value = None
                    if (value is None or not math.isfinite(value)) and j not in bad:
                        bad[j] = (i, row[col], value is None)
                    table.append(0.0 if value is None else value)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        where = f"row {i + 1}" if header is not None else "the header row"
        raise ParseError(f"{path}: cannot read {where}: {exc}") from exc
    if bad:
        j = min(bad)
        row, cell, unparsable = bad[j]
        error, what = (ParseError, "cannot parse") if unparsable else (ValidationError, "non-finite value")
        raise error(f"{path}: {what} {cell!r} at row {row}, column {wanted[j]!r}")
    full = np.frombuffer(table).reshape(-1, len(wanted))
    d = len(feature_cols)
    return full[:, :d], full[:, d] if need_outcome else None, full[:, -1] if need_prediction else None


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
