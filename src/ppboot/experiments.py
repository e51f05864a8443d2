"""Monte Carlo coverage harness and synthetic data generators.

A study repeatedly splits a fully labeled dataset into labeled/unlabeled
parts, computes each requested method's interval, and aggregates coverage
against the estimand's value on the whole dataset.  All randomness is derived
from stream paths containing the (n index, trial) pair, so results are
independent of execution order and worker count.  With more than one worker,
the (n index, trial) cells run in worker processes, each holding one copy of
the dataset and the config.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import (
    classical_bootstrap_interval,
    classical_clt_mean_interval,
    imputed_interval,
    ppi_mean_interval,
)
from .boot import (
    BootstrapConfig,
    ConfidenceInterval,
    ppboot_interval,
    reported_interval,
    transform_value,
)
from .crossfit import LearnerSpec, cross_ppboot_interval, make_learner, split_ppboot_interval
from .data import LabeledDataset, load_csv, split_trial
from .errors import NUMBER, EstimationError, check_config
from .estimators import EstimandSpec, evaluate
from .resampling import PHASE_SPLIT, PHASE_SYNTHETIC, RngStream

DGP_KINDS = ("gaussian_linear", "bernoulli_mean", "binary_pair", "logistic")
PREDICTION_MODELS = ("oracle", "noisy_truth", "biased", "pure_noise")
METHODS = (
    "ppboot",
    "ppboot-tuned",
    "classical",
    "imputed",
    "ppi-mean",
    "clt-mean",
    "cross-ppboot",
    "split-ppboot",
)
_MEAN_ONLY_METHODS = {"ppi-mean", "clt-mean"}
# Estimands of 0/1 outcomes: they need 0/1 predictions too.
_BINARY_KINDS = ("logistic_coef", "log_odds_ratio")
_BINARY_DGPS = {"bernoulli_mean", "binary_pair", "logistic"}


@dataclass(frozen=True)
class SyntheticSpec:
    """A data-generating process plus a prediction-column model.

    Prediction models: ``oracle`` copies the outcomes; ``pure_noise`` draws an
    independent outcome sample; ``biased`` adds ``offset`` plus Gaussian noise
    of sd ``prediction_noise_sd``; ``noisy_truth`` calibrates corr(f, Y) to
    ``rho`` (additive noise for continuous outcomes, keep-or-redraw mixing for
    binary outcomes so predictions stay binary).
    """

    dgp: str
    total_rows: int
    coef: tuple[float, ...] = (1.0,)
    noise_sd: float = 1.0
    p: float = 0.5
    joint: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    prediction_model: str = "oracle"
    rho: float = 0.9
    offset: float = 0.0
    prediction_noise_sd: float = 0.1
    seed_path: tuple[int, ...] = ()

    def __post_init__(self):
        if self.dgp not in DGP_KINDS:
            raise ValueError(f"unknown dgp {self.dgp!r}; expected one of {DGP_KINDS}")
        if self.prediction_model not in PREDICTION_MODELS:
            raise ValueError(
                f"unknown prediction_model {self.prediction_model!r}; expected one of {PREDICTION_MODELS}"
            )
        if self.total_rows < 10:
            raise ValueError(f"total_rows must be >= 10, got {self.total_rows}")
        if self.dgp in ("gaussian_linear", "logistic") and len(self.coef) < 1:
            raise ValueError("coef must have at least one entry")
        if self.dgp == "gaussian_linear" and self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        if self.dgp == "bernoulli_mean" and not (0.0 < self.p < 1.0):
            raise ValueError(f"p must lie strictly inside (0, 1): got {self.p}")
        if self.dgp == "binary_pair":
            if len(self.joint) != 4 or any(not (0.0 < pj < 1.0) for pj in self.joint):
                raise ValueError("joint must be four cell probabilities strictly inside (0, 1)")
            if abs(sum(self.joint) - 1.0) > 1e-12:
                raise ValueError(f"joint probabilities must sum to 1, got {sum(self.joint)}")
        if self.prediction_model == "noisy_truth" and not (0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must lie in (0, 1]: got {self.rho}")
        object.__setattr__(self, "coef", tuple(float(c) for c in self.coef))
        object.__setattr__(self, "joint", tuple(float(p) for p in self.joint))
        object.__setattr__(self, "seed_path", tuple(int(c) for c in self.seed_path))

    @classmethod
    def from_dict(cls, raw: dict) -> "SyntheticSpec":
        check_config(raw, {
            "dgp": (str,), "total_rows": (int,), "coef": [*NUMBER], "noise_sd": NUMBER, "p": NUMBER,
            "joint": [*NUMBER], "prediction_model": (str,), "rho": NUMBER, "offset": NUMBER,
            "prediction_noise_sd": NUMBER, "seed_path": [int],
        }, "synthetic")
        return cls(**raw)


def _draw_outcomes(spec: SyntheticSpec, g: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one (features, outcomes) sample of the configured process."""
    m = spec.total_rows
    if spec.dgp == "gaussian_linear":
        d = len(spec.coef)
        X = g.standard_normal((m, d))
        y = X @ np.asarray(spec.coef) + spec.noise_sd * g.standard_normal(m)
        return X, y
    if spec.dgp == "bernoulli_mean":
        X = g.standard_normal((m, 1))
        y = (g.random(m) < spec.p).astype(np.float64)
        return X, y
    if spec.dgp == "binary_pair":
        p11, p10, p01, p00 = spec.joint
        u = g.random(m)
        exposure = (u < p11 + p10).astype(np.float64)
        y = np.where(u < p11, 1.0, np.where(u < p11 + p10, 0.0, (u < p11 + p10 + p01).astype(np.float64)))
        return exposure[:, None], y
    # logistic
    d = len(spec.coef)
    X = g.standard_normal((m, d))
    prob = 1.0 / (1.0 + np.exp(-(X @ np.asarray(spec.coef))))
    y = (g.random(m) < prob).astype(np.float64)
    return X, y


def generate_synthetic(spec: SyntheticSpec, stream: RngStream) -> LabeledDataset:
    """Generate a fully labeled dataset with a prediction column."""
    if spec.seed_path:
        stream = stream.child(*spec.seed_path)
    g = stream.generator()
    X, y = _draw_outcomes(spec, g)

    if spec.prediction_model == "oracle":
        preds = y.copy()
    elif spec.prediction_model == "biased":
        preds = y + spec.offset + spec.prediction_noise_sd * g.standard_normal(y.size)
    elif spec.prediction_model == "pure_noise":
        _, preds = _draw_outcomes(spec, g)
    else:  # noisy_truth
        if spec.dgp in _BINARY_DGPS:
            # Keep the true label with probability rho, else replace with an
            # independent draw; corr(f, Y) = rho and predictions stay binary.
            _, fresh = _draw_outcomes(spec, g)
            keep = g.random(y.size) < spec.rho
            preds = np.where(keep, y, fresh)
        else:
            sd = float(np.std(y))
            noise_scale = sd * np.sqrt(1.0 / spec.rho**2 - 1.0)
            preds = y + noise_scale * g.standard_normal(y.size)
    return LabeledDataset(X, y, preds)


def _check_binary_predictions(method: str, kind: str, learner: LearnerSpec) -> None:
    """Reject a learner-based method whose predictions can never be 0/1 for a binary estimand.

    Cross-fitting averages the fold models' predictions, and data splitting
    takes one model's: only the 1-nearest-neighbour learner predicts a
    training outcome.
    """
    if kind not in _BINARY_KINDS or method not in ("cross-ppboot", "split-ppboot"):
        return
    if method == "split-ppboot" and learner == LearnerSpec("knn", k=1):
        return
    name = f"'knn' (k={learner.k})" if learner.kind == "knn" else repr(learner.kind)
    why = ("it averages the fold models' predictions" if method == "cross-ppboot"
           else "only the 'knn' learner with k=1 predicts 0/1 values")
    raise ValueError(f"method {method!r} cannot run estimand {kind!r} with learner {name}: "
                     f"the estimand needs 0/1 predictions and {why}")


@dataclass(frozen=True)
class TrialConfig:
    """Protocol parameters for one coverage study."""

    n_grid: tuple[int, ...]
    trials: int
    methods: tuple[str, ...]
    estimand: EstimandSpec
    bootstrap: BootstrapConfig = field(default_factory=BootstrapConfig)
    display_trials: int = 3
    crossfit_k: int = 10
    learner: LearnerSpec = LearnerSpec("linear_least_squares")
    split_fraction: float = 0.5

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.n_grid:
            raise ValueError("n_grid must be non-empty")
        for n in self.n_grid:
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(f"n_grid entries must be integers, got {n!r}")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
            if m in _MEAN_ONLY_METHODS and self.estimand.kind != "mean":
                raise ValueError(f"method {m!r} supports the mean estimand only")
            _check_binary_predictions(m, self.estimand.kind, self.learner)
        if self.display_trials < 0:
            raise ValueError("display_trials must be >= 0")
        object.__setattr__(self, "n_grid", tuple(self.n_grid))
        object.__setattr__(self, "methods", tuple(self.methods))

    @classmethod
    def from_dict(cls, raw: dict) -> "TrialConfig":
        check_config(raw, {
            "n_grid": [int], "trials": (int,), "methods": [str], "estimand": (dict,),
            "bootstrap": (dict,), "display_trials": (int,), "crossfit": (dict,), "data": (dict,),
        }, "study")
        for key in ("n_grid", "trials", "methods", "estimand"):
            if key not in raw:
                raise ValueError(f"study config requires {key!r}")
        crossfit = raw.get("crossfit", {})
        check_config(crossfit, {"k": (int,), "learner": (dict,), "split_fraction": NUMBER}, "crossfit")
        learner = LearnerSpec.from_dict(crossfit["learner"]) if "learner" in crossfit else LearnerSpec("linear_least_squares")
        return cls(
            n_grid=tuple(raw["n_grid"]),
            trials=int(raw["trials"]),
            methods=tuple(raw["methods"]),
            estimand=EstimandSpec.from_dict(raw["estimand"]),
            bootstrap=BootstrapConfig.from_dict(raw.get("bootstrap", {})),
            display_trials=int(raw.get("display_trials", 3)),
            crossfit_k=int(crossfit.get("k", 10)),
            learner=learner,
            split_fraction=float(crossfit.get("split_fraction", 0.5)),
        )


@dataclass(frozen=True)
class MethodAggregate:
    method: str
    n: int
    coverage: float
    mean_width: float
    errors: int


@dataclass(frozen=True)
class TrialRecord:
    method: str
    n: int
    trial: int
    lower: float
    upper: float
    point: float


@dataclass(frozen=True)
class TrialSummary:
    ground_truth: float
    trials: int
    aggregates: tuple[MethodAggregate, ...]
    records: tuple[TrialRecord, ...]


def _run_method(
    method: str,
    labeled: LabeledDataset,
    unlabeled,
    config: TrialConfig,
    stream: RngStream,
) -> ConfidenceInterval:
    spec = config.estimand
    cfg = config.bootstrap
    if method == "ppboot":
        return ppboot_interval(labeled, unlabeled, spec, cfg, stream)
    if method == "ppboot-tuned":
        return ppboot_interval(labeled, unlabeled, spec, replace(cfg, lambda_mode="tuned"), stream)
    if method == "classical":
        return classical_bootstrap_interval(labeled, spec, cfg, stream)
    if method == "imputed":
        return imputed_interval(unlabeled, spec, cfg, stream)
    if method == "ppi-mean":
        return ppi_mean_interval(labeled, unlabeled, cfg.alpha)
    if method == "clt-mean":
        return classical_clt_mean_interval(labeled.outcomes, cfg.alpha)
    learner = make_learner(config.learner)
    if method == "cross-ppboot":
        return cross_ppboot_interval(
            labeled.features, labeled.outcomes, unlabeled.features,
            spec, cfg, config.crossfit_k, learner, stream,
        )
    if method == "split-ppboot":
        return split_ppboot_interval(
            labeled.features, labeled.outcomes, unlabeled.features,
            spec, cfg, learner, stream, config.split_fraction,
        )
    raise ValueError(f"unknown method {method!r}")


def _run_cell(
    full: LabeledDataset, config: TrialConfig, cell: tuple[int, int]
) -> dict[str, ConfidenceInterval | EstimationError]:
    """Split one (n index, trial) cell and run every method; a failure is the method's outcome."""
    ni, trial = cell
    base = RngStream(config.bootstrap.master_seed, (ni, trial))
    labeled, unlabeled = split_trial(full, config.n_grid[ni], base.child(PHASE_SPLIT))
    out: dict[str, ConfidenceInterval | EstimationError] = {}
    for method in config.methods:
        try:
            out[method] = reported_interval(
                _run_method(method, labeled, unlabeled, config, base), config.estimand
            )
        except EstimationError as exc:
            out[method] = exc
    return out


# (full, config) of the study a worker process serves; set once per worker.
_worker_study: tuple[LabeledDataset, TrialConfig] | None = None


def _init_worker(full: LabeledDataset, config: TrialConfig) -> None:
    global _worker_study
    _worker_study = (full, config)


def _worker_cell(cell: tuple[int, int]) -> dict[str, ConfidenceInterval | EstimationError]:
    return _run_cell(*_worker_study, cell)


def run_coverage_study(full: LabeledDataset, config: TrialConfig, threads: int = 1) -> TrialSummary:
    """Execute the split/estimate/aggregate protocol over the trial grid.

    Ground truth is the estimand evaluated once on the whole dataset.  A trial
    whose method raises an estimation error counts as not covered; a method
    failing more than 10% of trials at any n aborts the study.  ``threads``
    caps the worker processes; with one worker the cells run in this process.
    Results never depend on it.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    for n in config.n_grid:
        if not (2 <= n <= full.n - 2):
            raise ValueError(f"n={n} must leave >= 2 rows on each side of a {full.n}-row dataset")
    truth_est = evaluate(config.estimand, full.features, full.outcomes)
    if not truth_est.ok:
        raise EstimationError(f"ground truth is degenerate: {truth_est.reason}")
    truth = transform_value(truth_est.value, config.estimand)

    cells = [(ni, t) for ni in range(len(config.n_grid)) for t in range(config.trials)]
    workers = min(threads, len(cells))
    if workers == 1:
        outcomes = [_run_cell(full, config, cell) for cell in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(full, config)) as pool:
            outcomes = list(pool.map(_worker_cell, cells))
    results = dict(zip(cells, outcomes))

    aggregates: list[MethodAggregate] = []
    records: list[TrialRecord] = []
    for ni, n in enumerate(config.n_grid):
        for method in config.methods:
            covered = 0
            widths = []
            errors = 0
            for t in range(config.trials):
                outcome = results[(ni, t)][method]
                if isinstance(outcome, EstimationError):
                    errors += 1
                    continue
                if outcome.lower <= truth <= outcome.upper:
                    covered += 1
                widths.append(outcome.width)
                if t < config.display_trials:
                    records.append(
                        TrialRecord(method, n, t, outcome.lower, outcome.upper, outcome.point_estimate)
                    )
            if errors * 10 > config.trials:
                raise EstimationError(
                    f"method {method!r} failed on {errors} of {config.trials} trials at n={n}"
                )
            aggregates.append(
                MethodAggregate(
                    method=method,
                    n=n,
                    coverage=covered / config.trials,
                    mean_width=float(np.mean(widths)) if widths else float("nan"),
                    errors=errors,
                )
            )
    return TrialSummary(
        ground_truth=truth,
        trials=config.trials,
        aggregates=tuple(aggregates),
        records=tuple(records),
    )


AGGREGATE_FIELDS = ("method", "n", "coverage", "mean_width", "ground_truth")
RECORD_FIELDS = ("method", "n", "trial", "lower", "upper", "point")


def summarize_to_tables(summary: TrialSummary) -> tuple[list[dict], list[dict]]:
    """Flatten a summary into aggregate rows and displayed-trial rows."""
    agg_rows = [
        {key: summary.ground_truth if key == "ground_truth" else getattr(a, key) for key in AGGREGATE_FIELDS}
        for a in summary.aggregates
    ]
    trial_rows = [{key: getattr(r, key) for key in RECORD_FIELDS} for r in summary.records]
    return agg_rows, trial_rows


def _write_csv(path: str, rows: list[dict], fieldnames: tuple[str, ...]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})


def parse_report_csv(path: str) -> list[dict]:
    """Read back a report CSV with exact numeric round-trip."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = []
        for raw in csv.DictReader(fh):
            row: dict = {}
            for key, cell in raw.items():
                if key in ("n", "trial"):
                    row[key] = int(cell)
                elif key in ("method",):
                    row[key] = cell
                else:
                    row[key] = float(cell)
            rows.append(row)
        return rows


def write_reports(summary: TrialSummary, out_dir: str) -> dict[str, str]:
    """Write coverage.csv, intervals.csv, and report.json; returns their paths."""
    agg_rows, trial_rows = summarize_to_tables(summary)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "coverage": os.path.join(out_dir, "coverage.csv"),
        "intervals": os.path.join(out_dir, "intervals.csv"),
        "report": os.path.join(out_dir, "report.json"),
    }
    _write_csv(paths["coverage"], agg_rows, AGGREGATE_FIELDS)
    _write_csv(paths["intervals"], trial_rows, RECORD_FIELDS)
    with open(paths["report"], "w", encoding="utf-8") as fh:
        json.dump(
            {
                "ground_truth": summary.ground_truth,
                "trials": summary.trials,
                "aggregate": agg_rows,
                "displayed_trials": trial_rows,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    return paths


def width_inversions(summary: TrialSummary, method: str) -> int:
    """Count increases of mean width along the n grid for one method."""
    widths = [a.mean_width for a in summary.aggregates if a.method == method]
    return sum(1 for prev, cur in zip(widths, widths[1:]) if cur > prev)


def dataset_from_config(raw: dict, seed: int) -> LabeledDataset:
    """Build the study's full dataset from the 'data' section of a config."""
    check_config(raw, {"synthetic": (dict,), "csv": (dict,)}, "data")
    if "synthetic" in raw and "csv" in raw:
        raise ValueError("data config must contain exactly one of 'synthetic' or 'csv'")
    if "synthetic" in raw:
        spec = SyntheticSpec.from_dict(raw["synthetic"])
        return generate_synthetic(spec, RngStream(seed, (PHASE_SYNTHETIC,)))
    if "csv" in raw:
        src = raw["csv"]
        check_config(src, {"path": (str,), "schema": (dict,)}, "csv")
        for key in ("path", "schema"):
            if key not in src:
                raise ValueError(f"csv data config requires {key!r}")
        return load_csv(src["path"], src["schema"], expect="labeled")
    raise ValueError("data config must contain 'synthetic' or 'csv'")


def study_from_config(raw: dict, seed: int) -> tuple[LabeledDataset, TrialConfig]:
    """Parse a full study config; the seed overrides the bootstrap master seed."""
    if "data" not in raw:
        raise ValueError("study config requires a 'data' section")
    config = TrialConfig.from_dict(raw)
    config = replace(config, bootstrap=replace(config.bootstrap, master_seed=seed))
    full = dataset_from_config(raw["data"], seed)
    return full, config
