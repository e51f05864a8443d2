#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes (about a minute).

    python3 bench/smoke.py

Runs every workload untraced and traced and checks that each run exits 0,
reports every metric ``BENCHMARK.json`` names for that mode with its unit and
a finite value, and has no failed operation.  Then checks that, in a copy
holding only ``BENCHMARK.json`` and ``bench/``, the benchmark exits non-zero
without printing a result.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def check_run(done: subprocess.CompletedProcess, expected: dict[str, str]) -> list[str]:
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-300:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"error_rate {result['failed']}/{result['attempted']}: {done.stdout[-500:]}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: {entry}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in modes.items():
            problems = check_run(run(ROOT, workload, trace), expected)
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print(f"  {problem}")

    bare = os.path.join(ROOT, ".bench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done = run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    bare_ok = done.returncode != 0 and '"metrics"' not in done.stdout
    failures += not bare_ok
    print(f"without src/: {'ok' if bare_ok else 'FAILED'} (exit code {done.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
