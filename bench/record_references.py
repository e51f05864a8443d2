#!/usr/bin/env python3
"""Record the reference outputs that ``run.py`` compares against.

    python3 bench/record_references.py --seeds 0-31

Runs each workload's calls once per seed at full size on the current sources
and writes ``bench/references/<workload>.json``.  Run it only on a commit
whose outputs are known good: every later run is compared with what it
records (``infer`` JSON at abs 1e-12, study reports byte for byte).  Each call
must first pass the checks that do not need a reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads
from workloads import WORKLOADS


def record(cli, workload, seed: int) -> dict:
    sizes = workload.sizes["full"]
    work_dir = os.path.join(run.WORK_DIR, f"record-{workload.name}-s{seed}")
    try:
        prepared = workloads.prepare(workload, sizes, seed, work_dir)
        runner = run.Runner(cli, workload, sizes, prepared, None)
        for call in workload.calls:
            runner.run(call.label)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if runner.failed:
        raise SystemExit(f"{workload.name} seed {seed}: {runner.problems}")
    if workload.study:
        return dict(runner.first)
    return {label: json.loads(text) for label, text in runner.first.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS), help="default: all")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    cli = run.import_cli()
    env = run.environment(first)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        seeds = {}
        for seed in range(first, last + 1):
            seeds[str(seed)] = record(cli, WORKLOADS[name], seed)
            print(f"{name} seed {seed}", flush=True)
        path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"recorded_from": {k: env[k] for k in ("git_commit", "src_sha256")}, "seeds": seeds}, fh,
                      indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
