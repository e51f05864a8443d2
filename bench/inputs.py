"""Seeded input files for the benchmark workloads.

The generator uses its own numpy code, not ``ppboot.experiments``, so a change
to the package cannot change the inputs it is measured on.  The same
``(workload seed, sizes)`` always gives byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

FEATURES = ("x1", "x2", "x3")
SCHEMA = {"outcome": "y", "prediction": "fhat", "features": list(FEATURES)}

# Fixed generating processes.  The coefficients only need to give a
# well-conditioned design and a logistic model far from separation at n=200.
LINEAR_COEF = np.array([1.0, -0.5, 0.25])
LOGISTIC_COEF = np.array([0.8, -0.5, 0.3])
LOGISTIC_INTERCEPT = -0.2
RHO = 0.9

# Sub-streams of the workload seed, so the datasets of one workload are
# independent of each other and of other workloads' datasets.
_TAGS = {"continuous": 1, "binary": 2}


def _continuous(g: np.random.Generator, rows: int):
    """Linear-Gaussian outcomes with noisy-truth predictions, corr(f, y) ~= RHO."""
    X = g.standard_normal((rows, len(FEATURES)))
    y = X @ LINEAR_COEF + g.standard_normal(rows)
    noise = float(np.std(y)) * np.sqrt(1.0 / RHO**2 - 1.0)
    fhat = y + noise * g.standard_normal(rows)
    return X, y, fhat


def _binary(g: np.random.Generator, rows: int):
    """Logistic 0/1 outcomes; predictions keep the label with probability RHO, else redraw."""
    X = g.standard_normal((rows, len(FEATURES)))
    p = 1.0 / (1.0 + np.exp(-(X @ LOGISTIC_COEF + LOGISTIC_INTERCEPT)))
    y = (g.random(rows) < p).astype(np.float64)
    fresh = (g.random(rows) < p).astype(np.float64)
    fhat = np.where(g.random(rows) < RHO, y, fresh)
    return X, y, fhat


def _write_csv(path: str, columns: dict[str, np.ndarray]) -> None:
    table = np.column_stack(list(columns.values()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, table, fmt="%.10g", delimiter=",", header=",".join(columns), comments="")


def write_pair(out_dir: str, prefix: str, kind: str, seed: int, n: int, N: int) -> dict[str, str]:
    """Write ``<prefix>_labeled.csv`` (n rows) and ``<prefix>_unlabeled.csv`` (N rows).

    The unlabeled file has no outcome column, as real unlabeled data would not.
    """
    g = np.random.default_rng([seed, _TAGS[kind]])
    X, y, fhat = (_continuous if kind == "continuous" else _binary)(g, n + N)
    feats = {name: X[:, j] for j, name in enumerate(FEATURES)}
    labeled = os.path.join(out_dir, f"{prefix}_labeled.csv")
    unlabeled = os.path.join(out_dir, f"{prefix}_unlabeled.csv")
    _write_csv(labeled, {**{k: v[:n] for k, v in feats.items()}, "y": y[:n], "fhat": fhat[:n]})
    _write_csv(unlabeled, {**{k: v[n:] for k, v in feats.items()}, "fhat": fhat[n:]})
    return {"labeled": labeled, "unlabeled": unlabeled}


def write_schema(out_dir: str) -> str:
    path = os.path.join(out_dir, "schema.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(SCHEMA, fh)
    return path


def write_json(out_dir: str, name: str, payload: dict) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    return path
