#!/usr/bin/env python3
"""Run one benchmark workload against the ppboot sources of this checkout.

    python3 bench/run.py --workload infer-regression --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; the package is imported from
``src/`` next to this directory, never from an installed copy.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  A JSON ``environment`` line precedes it, and the full
record (per-call timings, problems, spans) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import inputs
import spans
import workloads
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 9

# Imports the package (and, for study-demo, builds the study's dataset) in a
# fresh interpreter.  Timing starts at the probe's first statement, so the
# interpreter's own start-up is not counted.
PROBE = """\
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import ppboot.cli
if len(sys.argv) > 2:
    import json
    from ppboot.experiments import study_from_config
    with open(sys.argv[2], encoding="utf-8") as fh:
        study_from_config(json.load(fh), int(sys.argv[3]))
print(repr(time.perf_counter() - t0))
"""


def import_cli():
    """Import ``ppboot.cli`` from this checkout's ``src/`` or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "ppboot", "__init__.py")):
        print(f"bench: no ppboot sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import ppboot.cli

    if not os.path.abspath(ppboot.cli.__file__).startswith(SRC + os.sep):
        print(f"bench: imported ppboot from {ppboot.cli.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return ppboot.cli


def setup_seconds(study_config: str | None, seed: int) -> list[float]:
    extra = [study_config, str(seed)] if study_config else []
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, "-c", PROBE, SRC, *extra], cwd=ROOT, capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs one call of the workload and checks its output."""

    def __init__(self, cli, workload, sizes, prepared, references):
        self.cli = cli
        self.workload = workload
        self.sizes = sizes
        self.prepared = prepared
        self.references = references or {}
        self.dataset = {c.label: c.dataset for c in workload.calls}
        self.first: dict[str, object] = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def _main(self, argv: list[str]) -> tuple[int | None, str, float]:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)  # looked up per call, so a traced run sees the wrapper
            except Exception:  # noqa: BLE001 - an uncaught error is a failed operation, not a crash
                code = None
                traceback.print_exc(file=err)
        seconds = time.perf_counter() - t0
        if code != 0 and err.getvalue():
            self.problems.append(err.getvalue().strip().splitlines()[-1])
        return code, out.getvalue(), seconds

    def run(self, label: str) -> float:
        argv = self.prepared.argv[label]
        code, text, seconds = self._main(argv)
        if self.workload.study:
            output = workloads.read_study_outputs(self.prepared.out_dir) if code == 0 else None
            problems = workloads.check_study(output, code, self.sizes, self.references.get(label))
        else:
            output = text
            data = self.prepared.data[self.dataset[label]]
            problems = workloads.check_infer(label, argv, text, code, self.references.get(label), data)
        if not problems and self.first.setdefault(label, output) != output:
            problems.append(f"{label}: output differs from the first call of this run")
        self._count(problems)
        return seconds

    def check_thread_independence(self, work_dir: str, seed: int) -> None:
        """A tiny study must write identical reports with --threads 1 and --threads 2."""
        config = inputs.write_json(work_dir, "threads-check.json", workloads.THREADS_CHECK_CONFIG)
        outputs = []
        for threads in (1, 2):
            out_dir = os.path.join(work_dir, f"threads-{threads}")
            code, _, _ = self._main(["study", "--config", config, "--out", out_dir, "--seed", str(seed),
                                     "--threads", str(threads)])
            outputs.append(workloads.read_study_outputs(out_dir) if code == 0 else None)
        ok = outputs[0] is not None and outputs[0] == outputs[1]
        self._count([] if ok else ["study: reports differ between --threads 1 and --threads 2"])

    def _count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def measure(runner: Runner, labels: list[str], seconds: float, recorder=None):
    """Run the calls in rotation for up to ``seconds``; returns per-label times and the call order.

    Every call runs at least once.  After that, a call is started only if the
    median of its earlier runs says it will end within ``seconds``, so the
    run length does not depend on how long one call takes.
    """
    times: dict[str, list[float]] = {label: [] for label in labels}
    order: list[str] = []
    start = time.perf_counter()
    for i in itertools.count():
        label = labels[i % len(labels)]
        if times[label] and time.perf_counter() - start + statistics.median(times[label]) > seconds:
            break
        if recorder is not None:
            recorder.op += 1
        times[label].append(runner.run(label))
        order.append(label)
    return times, order


def rotation_seconds(times: dict[str, list[float]]) -> float:
    """Seconds for one call of each kind, from each kind's median."""
    return sum(statistics.median(t) for t in times.values())


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 prints its config instead
        blas = None
    commit = None  # the benchmark may run in an exported tree without .git
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "ppboot")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("rows_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_share", "_per_kept")):
        return "ratio"
    if ".calls" in name:
        return "count"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed: the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time; every call runs at least once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: input sizes of the smoke test")
    args = parser.parse_args(argv)

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    sizes = workload.sizes[args.size]
    labels = [c.label for c in workload.calls]
    work_dir = os.path.join(WORK_DIR, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        prepared = workloads.prepare(workload, sizes, args.seed, work_dir)
        references = workloads.load_references(workload, args.seed) if args.size == "full" else None
        setup = setup_seconds(prepared.argv["study"][2] if workload.study else None, args.seed)
        runner = Runner(cli, workload, sizes, prepared, references)

        record: dict = {"workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
                        "reference_checked": references is not None, "setup_samples_s": setup}
        if args.trace == 0:
            times, _ = measure(runner, labels, args.seconds)
            ops_per_s = len(labels) / rotation_seconds(times)
            metrics = {
                "setup_s": statistics.median(setup),
                "intervals_per_s": ops_per_s * workloads.intervals_per_op(workload, sizes),
                "trials_per_s": ops_per_s * workloads.trials_per_op(workload, sizes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"setup_s": "s", "intervals_per_s": "1/s", "trials_per_s": "1/s", "peak_rss_mb": "MB"}
            record["call_seconds"] = times
        else:
            # Untraced and traced halves of the same run; their ratio is the tracing overhead.
            untraced, _ = measure(runner, labels, args.seconds / 2)
            recorder = spans.SpanRecorder()
            restore, missing = spans.install(recorder)
            try:
                traced, order = measure(runner, labels, args.seconds / 2, recorder)
            finally:
                restore()
            threads = workloads.STUDY_THREADS if workload.study else 1
            metrics = spans.layer_metrics(recorder.spans, order, threads)
            metrics["trace.overhead_ratio"] = rotation_seconds(traced) / rotation_seconds(untraced) - 1.0
            units = {name: unit_of(name) for name in metrics}
            recorder.dump(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl.gz"))
            record.update(call_seconds=traced, untraced_call_seconds=untraced, spans=len(recorder.spans),
                          missing_targets=missing)
        if workload.study:
            runner.check_thread_independence(work_dir, args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(args.seed)
    record.update(environment=env, attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems, metrics=metrics)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for problem in runner.problems[:20]:
        print(f"problem: {problem}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    error_rate = runner.failed / runner.attempted
    print(f"{'error_rate':48s} {error_rate:14.6g} ratio ({runner.failed} of {runner.attempted} operations failed)")
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
