"""The benchmark's workloads and the checks applied to every output.

Each workload is a rotation of ``ppboot`` command lines run in-process through
``ppboot.cli.main``.  The comment above each workload says why it exists;
``bench/NOTES.md`` gives the measurements behind that.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

# configs/binary_fraction_demo.json as committed when the benchmark was defined.
# A frozen copy, so that editing the shipped config cannot change the inputs.
# At full size only ``trials`` changes (Sizes.batch_trials per `study` call).
DEMO_CONFIG = {
    "data": {
        "synthetic": {
            "dgp": "bernoulli_mean",
            "total_rows": 10000,
            "p": 0.3,
            "prediction_model": "noisy_truth",
            "rho": 0.9,
        }
    },
    "estimand": {"kind": "mean"},
    "n_grid": [200],
    "trials": 200,
    "methods": ["ppboot", "classical", "ppi-mean"],
    "bootstrap": {"B": 1000, "alpha": 0.1},
    "display_trials": 3,
}
STUDY_THREADS = 2
STUDY_FILES = ("coverage.csv", "intervals.csv", "report.json")

# Small enough to run twice per study-demo run; two n values so that cells of
# different sizes interleave across threads.
THREADS_CHECK_CONFIG = {
    "data": {"synthetic": {"dgp": "bernoulli_mean", "total_rows": 300, "p": 0.3,
                           "prediction_model": "noisy_truth", "rho": 0.9}},
    "estimand": {"kind": "mean"},
    "n_grid": [30, 60],
    "trials": 4,
    "methods": ["ppboot", "classical", "ppi-mean"],
    "bootstrap": {"B": 100, "alpha": 0.1},
    "display_trials": 2,
}

JSON_KEY_ORDER = [
    "method", "estimand", "lower", "upper", "point",
    "lambda_used", "B", "alpha", "seed", "degenerate_iterations",
]
REFERENCE_TOL = 1e-12  # the tolerance of the CLI golden tests
ORACLE_TOL = 1e-8  # independent recomputation; summation order differs


@dataclass(frozen=True)
class Call:
    label: str
    dataset: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Sizes:
    n: int = 0
    N: int = 0
    B: int = 1000
    batch_trials: int = 0  # study-demo: trials per `ppboot study` call
    n_grid: tuple[int, ...] = ()
    total_rows: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    kinds: dict[str, str] = field(default_factory=dict)  # dataset prefix -> inputs kind
    sizes: dict[str, Sizes] = field(default_factory=dict)  # "full" or "tiny"
    study: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # The estimators layer (row canonicalisation, lstsq, IRLS) does almost all
        # the work; ingest of 10k rows is negligible.
        Workload(
            "infer-regression",
            calls=(
                Call("ols_coef", "reg", ("--estimand", "ols_coef", "--target-index", "0")),
                Call("pearson_corr", "reg", ("--estimand", "pearson_corr", "--feature-column", "0")),
                Call("logistic_coef", "logit", ("--estimand", "logistic_coef", "--target-index", "0")),
            ),
            kinds={"reg": "continuous", "logit": "binary"},
            sizes={"full": Sizes(n=200, N=9800, B=1000), "tiny": Sizes(n=60, N=300, B=40)},
        ),
        # Index draws (100k per iteration, 2000 iterations when tuned) and CSV
        # ingest dominate; the outcome-only estimators bypass design-matrix work.
        Workload(
            "infer-mean-large",
            calls=(
                Call("mean_tuned", "big", ("--estimand", "mean", "--tune")),
                Call("quantile", "big", ("--estimand", "quantile", "--q", "0.9")),
                Call("ppi_mean", "big", ("--estimand", "mean", "--method", "ppi-mean")),
            ),
            kinds={"big": "continuous"},
            sizes={"full": Sizes(n=1000, N=100_000, B=1000), "tiny": Sizes(n=60, N=300, B=40)},
        ),
        # Many small GIL-bound cells in the experiments layer, where the study
        # pool lands; binary outcomes keep every estimator on the cheap path.
        Workload(
            "study-demo",
            calls=(Call("study", "", ()),),
            sizes={
                "full": Sizes(B=1000, batch_trials=10, n_grid=(200,), total_rows=10000),
                "tiny": Sizes(B=40, batch_trials=2, n_grid=(40,), total_rows=300),
            },
            study=True,
        ),
        # The only workload where the crossfit layer dominates: kNN prediction
        # builds an N x n x d distance tensor, which also sets peak memory.
        Workload(
            "infer-crossfit-knn",
            calls=(
                Call("crossfit_knn_mean", "cf",
                     ("--estimand", "mean", "--crossfit", "10", "--learner", "knn", "--knn-k", "5")),
            ),
            kinds={"cf": "continuous"},
            sizes={"full": Sizes(n=200, N=30_000, B=1000), "tiny": Sizes(n=60, N=300, B=40)},
        ),
    )
}


def study_config(sizes: Sizes) -> dict:
    config = json.loads(json.dumps(DEMO_CONFIG))
    config["trials"] = sizes.batch_trials
    config["n_grid"] = list(sizes.n_grid)
    config["bootstrap"]["B"] = sizes.B
    config["data"]["synthetic"]["total_rows"] = sizes.total_rows
    return config


def intervals_per_op(workload: Workload, sizes: Sizes) -> int:
    if workload.study:
        return sizes.batch_trials * len(sizes.n_grid) * len(DEMO_CONFIG["methods"])
    return 1


def trials_per_op(workload: Workload, sizes: Sizes) -> int:
    """Study cells per operation; an `infer` call is one trial."""
    if workload.study:
        return sizes.batch_trials * len(sizes.n_grid)
    return 1


@dataclass
class Prepared:
    """Generated files and the argv of each call, for one (workload, seed, size)."""

    argv: dict[str, list[str]]
    data: dict[str, dict[str, np.ndarray]]
    out_dir: str = ""


def prepare(workload: Workload, sizes: Sizes, seed: int, work_dir: str) -> Prepared:
    """Write the workload's inputs under ``work_dir`` and build each call's argv."""
    os.makedirs(work_dir, exist_ok=True)
    if workload.study:
        config = inputs.write_json(work_dir, "study.json", study_config(sizes))
        out_dir = os.path.join(work_dir, "study-out")
        argv = ["study", "--config", config, "--out", out_dir, "--seed", str(seed),
                "--threads", str(STUDY_THREADS)]
        return Prepared({"study": argv}, {}, out_dir)
    schema = inputs.write_schema(work_dir)
    files = {p: inputs.write_pair(work_dir, p, kind, seed, sizes.n, sizes.N) for p, kind in workload.kinds.items()}
    argv = {}
    for call in workload.calls:
        paths = files[call.dataset]
        argv[call.label] = ["infer", "--labeled", paths["labeled"], "--unlabeled", paths["unlabeled"],
                            "--schema", schema, "--B", str(sizes.B), "--seed", str(seed), *call.args]
    data = {p: _load(paths) for p, paths in files.items()}
    return Prepared(argv, data)


def _load(paths: dict[str, str]) -> dict[str, np.ndarray]:
    lab = np.loadtxt(paths["labeled"], delimiter=",", skiprows=1, ndmin=2)
    unl = np.loadtxt(paths["unlabeled"], delimiter=",", skiprows=1, ndmin=2)
    return {"Xl": lab[:, :3], "y": lab[:, 3], "fl": lab[:, 4], "Xu": unl[:, :3], "fu": unl[:, 3]}


def load_references(workload: Workload, seed: int) -> dict | None:
    path = os.path.join(REFERENCE_DIR, f"{workload.name}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"].get(str(seed))


def read_study_outputs(out_dir: str) -> dict[str, str]:
    outputs = {}
    for name in STUDY_FILES:
        with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
            outputs[name] = fh.read()
    return outputs


def _nearest_rank(v: np.ndarray, q: float) -> float:
    s = np.sort(v)
    return float(s[min(max(math.ceil(q * s.size - 1e-9), 1), s.size) - 1])


def _design(X: np.ndarray) -> np.ndarray:
    return np.column_stack([X, np.ones(X.shape[0])])


def _ols(X, y) -> float:
    return float(np.linalg.lstsq(_design(X), y, rcond=None)[0][0])


def _logistic(X, y) -> float:
    D = _design(X)
    beta = np.zeros(D.shape[1])
    for _ in range(100):
        mu = 1.0 / (1.0 + np.exp(-(D @ beta)))
        step = np.linalg.solve(D.T @ (D * (mu * (1.0 - mu))[:, None]), D.T @ (y - mu))
        beta = beta + step
        if np.max(np.abs(step)) < 1e-8:
            break
    return float(beta[0])


_ESTIMATORS = {
    "ols_coef": _ols,
    "pearson_corr": lambda X, v: float(np.corrcoef(X[:, 0], v)[0, 1]),
    "logistic_coef": _logistic,
    "quantile": lambda X, v: _nearest_rank(v, 0.9),
    "mean_tuned": lambda X, v: float(np.mean(v)),
}


def oracle(label: str, d: dict[str, np.ndarray], out: dict, alpha: float = 0.1) -> dict[str, float]:
    """Values recomputed without ppboot: the point estimate, or the whole ppi-mean interval.

    The point of a ppboot interval is ``lam * est(unlabeled predictions) +
    (est(outcomes) - lam * est(labeled predictions))``; ``lam`` is 1 unless
    tuned, in which case the reported ``lambda_used`` is taken as given.
    """
    if label == "ppi_mean":
        resid = d["y"] - d["fl"]
        center = float(np.mean(d["fu"]) + np.mean(resid))
        var = float(np.var(d["fu"], ddof=1)) / d["fu"].size + float(np.var(resid, ddof=1)) / resid.size
        half = NormalDist().inv_cdf(1.0 - alpha / 2.0) * math.sqrt(var)
        return {"lower": center - half, "upper": center + half, "point": center}
    if label not in _ESTIMATORS:
        return {}
    est = _ESTIMATORS[label]
    lam = out["lambda_used"] if label == "mean_tuned" else 1.0
    lab, pred, unl = est(d["Xl"], d["y"]), est(d["Xl"], d["fl"]), est(d["Xu"], d["fu"])
    return {"point": lam * unl + (lab - lam * pred)}


def _close(a, b, tol: float) -> bool:
    if isinstance(b, float) or isinstance(a, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= tol
    return a == b


def check_infer(label: str, argv: list[str], text: str, code: int, reference, data) -> list[str]:
    """Problems with one `infer` output; empty when it is correct."""
    if code != 0:
        return [f"{label}: exit code {code}"]
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{label}: stdout is not JSON: {exc}"]
    if list(out) != JSON_KEY_ORDER:
        return [f"{label}: keys {list(out)}"]
    problems = []
    flag = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
    method = flag.get("--method", "ppboot")
    expected_echo = {"method": method, "estimand": flag["--estimand"], "B": int(flag["--B"]),
                     "alpha": 0.1, "seed": int(flag["--seed"])}
    for key, value in expected_echo.items():
        if out[key] != value:
            problems.append(f"{label}: {key}={out[key]!r}, expected {value!r}")
    lo, hi, pt = out["lower"], out["upper"], out["point"]
    if not all(isinstance(v, float) and math.isfinite(v) for v in (lo, hi, pt)) or lo > hi:
        problems.append(f"{label}: interval [{lo}, {hi}] point {pt}")
    if not 0 <= out["degenerate_iterations"] <= out["B"] // 2:
        problems.append(f"{label}: degenerate_iterations={out['degenerate_iterations']}")
    if not problems:
        for key, value in oracle(label, data, out).items():
            if not _close(out[key], value, ORACLE_TOL):
                problems.append(f"{label}: {key}={out[key]!r}, recomputed {value!r}")
    if reference is not None:
        if set(reference) != set(out):
            problems.append(f"{label}: keys differ from the reference")
        for key, value in reference.items():
            if not _close(out.get(key), value, REFERENCE_TOL):
                problems.append(f"{label}: {key}={out.get(key)!r}, reference {value!r}")
    return problems


def check_study(outputs: dict[str, str], code: int, sizes: Sizes, reference) -> list[str]:
    """Problems with one `study` batch; byte-identical to the reference when one exists."""
    if code != 0:
        return [f"study: exit code {code}"]
    problems = []
    report = json.loads(outputs["report.json"])
    rows = report["aggregate"]
    if report["trials"] != sizes.batch_trials or len(rows) != len(sizes.n_grid) * len(DEMO_CONFIG["methods"]):
        problems.append(f"study: {report['trials']} trials, {len(rows)} aggregate rows")
    if not all(0.0 <= r["coverage"] <= 1.0 and r["mean_width"] > 0.0 for r in rows):
        problems.append("study: coverage outside [0, 1] or non-positive width")
    if reference is not None:
        for name in STUDY_FILES:
            if outputs[name] != reference[name]:
                problems.append(f"study: {name} differs from the reference")
    return problems
