"""Command-line front end: single-shot inference and coverage studies.

Exit codes: 0 success, 2 argument errors, 3 data errors, 4 estimation
failures (degenerate estimates, bootstrap/tuning/training/study failures).
Every failure prints exactly one diagnostic line to stderr; results go to
stdout (infer) or to files under ``--out`` (study), written only on success.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .boot import BootstrapConfig, ppboot_interval, reported_interval
from .baselines import classical_bootstrap_interval, imputed_interval, ppi_mean_interval
from .crossfit import LEARNER_KINDS, LearnerSpec, cross_ppboot_interval, make_learner
from .data import load_csv, read_table
from .errors import DataError, EstimationError
from .estimators import ESTIMAND_KINDS, REPORT_TRANSFORMS, EstimandSpec
from .experiments import run_coverage_study, study_from_config, write_reports
from .resampling import RngStream

INFER_METHODS = ("ppboot", "classical", "imputed", "ppi-mean")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"ppboot: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ppboot", description="Prediction-powered bootstrap inference")
    sub = parser.add_subparsers(dest="command", required=True)

    infer = sub.add_parser("infer", parents=[], help="one confidence interval from CSV data")
    infer.error = parser.error  # type: ignore[method-assign]
    infer.add_argument("--labeled", required=True, help="labeled CSV path")
    infer.add_argument("--unlabeled", help="unlabeled CSV path")
    infer.add_argument("--schema", required=True, help="JSON file mapping column roles")
    infer.add_argument("--estimand", required=True, choices=ESTIMAND_KINDS)
    infer.add_argument("--q", type=float, default=0.5, help="quantile level")
    infer.add_argument("--target-index", type=int, default=0, help="regression target column")
    infer.add_argument("--no-intercept", action="store_true", help="drop the regression intercept")
    infer.add_argument("--exposure-column", type=int, default=0)
    infer.add_argument("--feature-column", type=int, default=0)
    infer.add_argument("--transform", choices=REPORT_TRANSFORMS, default="identity")
    infer.add_argument("--alpha", type=float, default=0.1)
    infer.add_argument("--B", type=int, default=1000)
    infer.add_argument("--seed", type=int, default=None)
    lam = infer.add_mutually_exclusive_group()
    lam.add_argument("--tune", action="store_true", help="tune the prediction multiplier")
    lam.add_argument("--lambda", dest="lam", type=float, default=None, help="fixed prediction multiplier")
    infer.add_argument("--method", choices=INFER_METHODS, default="ppboot")
    infer.add_argument("--crossfit", type=int, default=None, metavar="K", help="train fold models instead of using a prediction column")
    infer.add_argument("--learner", choices=LEARNER_KINDS, default=None,
                       help="fold model for --crossfit (default linear_least_squares)")
    infer.add_argument("--knn-k", type=int, default=None, help="neighbours for --learner knn (default 5)")
    infer.set_defaults(func=cmd_infer)

    study = sub.add_parser("study", help="Monte Carlo coverage study from a JSON config")
    study.error = parser.error  # type: ignore[method-assign]
    study.add_argument("--config", required=True, help="study config JSON path")
    study.add_argument("--out", required=True, help="output directory for reports")
    study.add_argument("--seed", type=int, required=True, help="master seed (required for reproducibility)")
    study.add_argument("--threads", type=int, default=1,
                       help="cap on the worker processes that run study cells; results are independent of it")
    study.set_defaults(func=cmd_study)
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid JSON in {path}: {exc}") from exc


def _estimand_from_args(args) -> EstimandSpec:
    return EstimandSpec(
        kind=args.estimand,
        q=args.q,
        target_index=args.target_index,
        intercept=not args.no_intercept,
        exposure_column=args.exposure_column,
        feature_column=args.feature_column,
        transform=args.transform,
    )


def _bootstrap_config(args, seed: int) -> BootstrapConfig:
    if args.tune:
        mode, value = "tuned", 1.0
    elif args.lam is not None:
        mode, value = "fixed", args.lam
    else:
        mode, value = "off", 1.0
    return BootstrapConfig(B=args.B, alpha=args.alpha, lambda_mode=mode, lambda_value=value, master_seed=seed)


def _learner_from_args(args) -> LearnerSpec | None:
    """The fold learner for ``--crossfit``; learner flags without it are an error."""
    if args.crossfit is None:
        for flag, value in (("--learner", args.learner), ("--knn-k", args.knn_k)):
            if value is not None:
                raise ValueError(f"{flag} applies to --crossfit only")
        return None
    kind = args.learner or "linear_least_squares"
    if args.knn_k is not None and kind != "knn":
        raise ValueError(f"--knn-k applies to --learner knn only, not {kind!r}")
    return LearnerSpec(kind) if args.knn_k is None else LearnerSpec(kind, args.knn_k)


def cmd_infer(args) -> int:
    learner_spec = _learner_from_args(args)
    seed = args.seed
    if seed is None:
        print("ppboot: warning: --seed not given, defaulting to 0", file=sys.stderr)
        seed = 0
    spec = _estimand_from_args(args)
    cfg = _bootstrap_config(args, seed)
    schema = _load_json(args.schema)
    stream = RngStream(seed)
    needs_unlabeled = args.method in ("ppboot", "imputed", "ppi-mean") or args.crossfit is not None
    if needs_unlabeled and not args.unlabeled:
        raise ValueError(f"--unlabeled is required for method {args.method!r}")

    if args.crossfit is not None:
        if args.method != "ppboot":
            raise ValueError("--crossfit applies to --method ppboot only")
        features, outcomes, _ = read_table(args.labeled, schema, need_outcome=True, need_prediction=False)
        unl_features, _, _ = read_table(args.unlabeled, schema, need_outcome=False, need_prediction=False)
        ci = cross_ppboot_interval(features, outcomes, unl_features, spec, cfg, args.crossfit,
                                   make_learner(learner_spec), stream)
    elif args.method == "ppboot":
        labeled = load_csv(args.labeled, schema, expect="labeled")
        unlabeled = load_csv(args.unlabeled, schema, expect="unlabeled")
        ci = ppboot_interval(labeled, unlabeled, spec, cfg, stream)
    elif args.method == "classical":
        labeled = load_csv(args.labeled, schema, expect="labeled")
        ci = classical_bootstrap_interval(labeled, spec, cfg, stream)
    elif args.method == "imputed":
        unlabeled = load_csv(args.unlabeled, schema, expect="unlabeled")
        ci = imputed_interval(unlabeled, spec, cfg, stream)
    else:  # ppi-mean
        if spec.kind != "mean":
            raise ValueError("method 'ppi-mean' supports the mean estimand only")
        labeled = load_csv(args.labeled, schema, expect="labeled")
        unlabeled = load_csv(args.unlabeled, schema, expect="unlabeled")
        ci = ppi_mean_interval(labeled, unlabeled, cfg.alpha)

    ci = reported_interval(ci, spec)
    out = {
        "method": args.method,
        "estimand": spec.kind,
        "lower": ci.lower,
        "upper": ci.upper,
        "point": ci.point_estimate,
        "lambda_used": ci.lambda_used,
        "B": cfg.B,
        "alpha": cfg.alpha,
        "seed": seed,
        "degenerate_iterations": ci.degenerate_iterations,
    }
    print(json.dumps(out))
    return 0


def cmd_study(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    raw = _load_json(args.config)
    full, config = study_from_config(raw, args.seed)
    summary = run_coverage_study(full, config, threads=args.threads)
    write_reports(summary, args.out)
    manifest = {"config": raw, "version": f"ppboot-{__version__}", "seed": args.seed}
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"ppboot: error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"ppboot: error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"ppboot: error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"ppboot: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
