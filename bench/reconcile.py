#!/usr/bin/env python3
"""Time the cases of the ROADMAP baseline table on the current sources (about a minute).

    python3 bench/reconcile.py [--seed 0] [--repeats 5]

The table was measured on n=200 labeled and N=9800 unlabeled rows with B=1000
(logistic at B=200), and on the demo study with 20 or 30 trials.  This prints
the median and minimum seconds per ``ppboot`` command, and for the ``infer``
cases also the median seconds of ``ppboot_interval`` alone on data loaded
beforehand (no CSV ingest or argument parsing), for comparison in
``bench/NOTES.md``.  Outputs are not checked here; ``run.py`` does that.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time

import inputs
import run
import workloads

# (name, dataset, estimand kind, B, tuned)
CASES = (
    ("mean", "reg", "mean", 1000, False),
    ("quantile", "reg", "quantile", 1000, False),
    ("tuned mean", "reg", "mean", 1000, True),
    ("pearson_corr", "reg", "pearson_corr", 1000, False),
    ("ols_coef", "reg", "ols_coef", 1000, False),
    ("logistic_coef B=200", "logit", "logistic_coef", 200, False),
)


def timed(cli, argv: list[str]) -> float:
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"exit code {code} from {argv}")
    return time.perf_counter() - t0


def timed_api(files: dict[str, str], kind: str, B: int, tuned: bool, seed: int, repeats: int) -> list[float]:
    import ppboot

    labeled = ppboot.load_csv(files["labeled"], inputs.SCHEMA, expect="labeled")
    unlabeled = ppboot.load_csv(files["unlabeled"], inputs.SCHEMA, expect="unlabeled")
    spec = ppboot.EstimandSpec(kind)
    cfg = ppboot.BootstrapConfig(B=B, lambda_mode="tuned" if tuned else "off", master_seed=seed)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ppboot.ppboot_interval(labeled, unlabeled, spec, cfg, ppboot.RngStream(seed))
        samples.append(time.perf_counter() - t0)
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    cli = run.import_cli()
    work_dir = os.path.join(run.WORK_DIR, f"reconcile-p{os.getpid()}")
    os.makedirs(work_dir)
    try:
        schema = inputs.write_schema(work_dir)
        files = {kind: inputs.write_pair(work_dir, kind, kind_of, args.seed, 200, 9800)
                 for kind, kind_of in (("reg", "continuous"), ("logit", "binary"))}
        rows = []
        for name, data, kind, B, tuned in CASES:
            argv = ["infer", "--labeled", files[data]["labeled"], "--unlabeled", files[data]["unlabeled"],
                    "--schema", schema, "--estimand", kind, "--B", str(B), "--seed", str(args.seed)]
            argv += ["--tune"] if tuned else []
            api = timed_api(files[data], kind, B, tuned, args.seed, args.repeats)
            rows.append((name, [timed(cli, argv) for _ in range(args.repeats)], statistics.median(api)))
        for trials in (20, 30):
            config = dict(workloads.DEMO_CONFIG, trials=trials)
            path = inputs.write_json(work_dir, f"demo-{trials}.json", config)
            for threads in (1, 2):
                argv = ["study", "--config", path, "--out", os.path.join(work_dir, "out"),
                        "--seed", str(args.seed), "--threads", str(threads)]
                rows.append((f"study {trials} trials threads={threads}",
                             [timed(cli, argv) for _ in range(max(2, args.repeats // 2))], None))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"environment": run.environment(args.seed)}))
    print(f"{'case':36s} {'median s':>9s} {'min s':>9s} {'api s':>9s} runs")
    for name, samples, api in rows:
        api_text = f"{api:9.3f}" if api is not None else f"{'':9s}"
        print(f"{name:36s} {statistics.median(samples):9.3f} {min(samples):9.3f} {api_text} {len(samples)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
