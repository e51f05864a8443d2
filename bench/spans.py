"""Span recorder for the traced benchmark run.

The package is instrumented from outside: each public function listed in
``TARGETS`` is replaced by a timing wrapper under every name a ``ppboot``
module binds it to.  Modules import functions by name (``from .boot import
ppboot_interval``), so patching only the defining module would miss most
calls.  Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    tag: str | None
    parent: int | None
    thread: int
    op: int
    t0: float
    t1: float
    c0: float  # time.thread_time() at entry; wall minus CPU is time spent waiting
    c1: float
    extra: object


class SpanRecorder:
    """Collects spans; parents come from a per-thread stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0  # id of the benchmark operation in progress; shared by its spans
        self._ids = iter(range(1, sys.maxsize))
        self._id_lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, fn, name: str, hook=None):
        """Return a wrapper of ``fn`` that records one span per call.

        ``hook(args, kwargs)`` may return ``(args, kwargs, tag, finish)``;
        ``finish(result)`` gives the value stored in the span's ``extra``.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag, finish = None, None
            if hook is not None:
                args, kwargs, tag, finish = hook(args, kwargs)
            with self._id_lock:
                sid = next(self._ids)
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            stack.append(sid)
            result, extra = None, None
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                if finish is not None:
                    extra = finish(result)
                self.spans.append(Span(sid, name, tag, parent, threading.get_ident(), self.op, t0, t1, c0, c1, extra))

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (gzip), times relative to the first span."""
        base = min((s.t0 for s in self.spans), default=0.0)
        threads = {}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.t0):
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "tag": s.tag, "parent": s.parent,
                    "thread": threads.setdefault(s.thread, len(threads)), "op": s.op,
                    "start": s.t0 - base, "end": s.t1 - base, "cpu": s.c1 - s.c0,
                }) + "\n")


def _evaluate_hook(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return args, kwargs, spec.kind, lambda result: result is not None and result.ok


def _bootstrap_values_hook(args, kwargs):
    # Count main-phase attempts by wrapping the per-iteration callable.
    args = list(args)
    attempts = [0]
    inner = args[3] if len(args) > 3 else kwargs["attempt"]

    def counted(stream):
        attempts[0] += 1
        return inner(stream)

    if len(args) > 3:
        args[3] = counted
    else:
        kwargs = {**kwargs, "attempt": counted}
    return tuple(args), kwargs, None, lambda draws: (attempts[0], 0 if draws is None else draws.values.size)


def _read_table_hook(args, kwargs):
    return args, kwargs, None, lambda result: 0 if result is None else int(result[0].shape[0])


def _tracemalloc_hook(args, kwargs):
    tracemalloc.start()

    def finish(_result):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak

    return args, kwargs, None, finish


# (span name, defining module, attribute, hook).  Span names are "<layer>.<function>",
# the layer being the ppboot module that defines the function.
TARGETS = (
    ("cli.main", "ppboot.cli", "main", None),
    ("data.read_table", "ppboot.data", "read_table", _read_table_hook),
    ("data.load_csv", "ppboot.data", "load_csv", None),
    ("data.split_trial", "ppboot.data", "split_trial", None),
    ("resampling.generator", "ppboot.resampling", "RngStream.generator", None),
    ("resampling.draw_resample", "ppboot.resampling", "draw_resample", None),
    ("resampling.draw_labeled_indices", "ppboot.resampling", "draw_labeled_indices", None),
    ("resampling.empirical_quantile", "ppboot.resampling", "empirical_quantile", None),
    ("estimators.evaluate", "ppboot.estimators", "evaluate", _evaluate_hook),
    ("boot.ppboot_interval", "ppboot.boot", "ppboot_interval", None),
    ("boot.tune_lambda", "ppboot.boot", "tune_lambda", None),
    ("boot.bootstrap_values", "ppboot.boot", "bootstrap_values", _bootstrap_values_hook),
    ("boot.ppboot_point_estimate", "ppboot.boot", "ppboot_point_estimate", None),
    ("boot.percentile_interval", "ppboot.boot", "percentile_interval", None),
    ("boot.reported_interval", "ppboot.boot", "reported_interval", None),
    ("baselines.classical_bootstrap_interval", "ppboot.baselines", "classical_bootstrap_interval", None),
    ("baselines.ppi_mean_interval", "ppboot.baselines", "ppi_mean_interval", None),
    ("crossfit.cross_ppboot_interval", "ppboot.crossfit", "cross_ppboot_interval", None),
    ("crossfit.partition_folds", "ppboot.crossfit", "partition_folds", None),
    ("crossfit.train_fold_models", "ppboot.crossfit", "train_fold_models", None),
    ("crossfit.assemble_cross_predictions", "ppboot.crossfit", "assemble_cross_predictions", _tracemalloc_hook),
    ("experiments.study_from_config", "ppboot.experiments", "study_from_config", None),
    ("experiments.run_coverage_study", "ppboot.experiments", "run_coverage_study", None),
    ("experiments.write_reports", "ppboot.experiments", "write_reports", None),
)


def install(recorder: SpanRecorder):
    """Wrap every target; returns ``(restore, missing)``.

    A target that no longer exists is reported in ``missing`` and left
    unmeasured rather than failing the run, so a refactor of the package
    shows up as zeros in the affected layer metrics.
    """
    modules = [m for name, m in list(sys.modules.items()) if name == "ppboot" or name.startswith("ppboot.")]
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for span_name, module_name, attr, hook in TARGETS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            missing.append(span_name)
            continue
        wrapper = recorder.wrap(original, span_name, hook)
        if path:  # a method: patch the class once
            undo.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore, missing


ESTIMATOR_KINDS = ("mean", "quantile", "ols_coef", "pearson_corr", "logistic_coef")
# The cli layer is one function; its self time is reported as cli.main.self_s.
LAYERS = ("data", "resampling", "estimators", "boot", "baselines", "crossfit", "experiments")
PER_NAME_SECONDS = (
    "data.read_table", "data.load_csv", "data.split_trial",
    "resampling.draw_resample", "resampling.draw_labeled_indices", "resampling.generator",
    "resampling.empirical_quantile",
    "boot.tune_lambda", "boot.bootstrap_values", "boot.ppboot_point_estimate",
    "boot.percentile_interval", "boot.reported_interval",
    "baselines.classical_bootstrap_interval", "baselines.ppi_mean_interval",
    "crossfit.partition_folds", "crossfit.train_fold_models", "crossfit.assemble_cross_predictions",
    "experiments.study_from_config", "experiments.run_coverage_study", "experiments.write_reports",
)
PER_NAME_CALLS = ("resampling.draw_resample", "resampling.draw_labeled_indices", "resampling.generator")


def _cells(spans: list[Span]) -> list[tuple[int, float, float]]:
    """(operation, wall, thread CPU) of each study cell.

    A cell is not a function the package exposes, so it is reconstructed per
    thread: it starts when ``split_trial`` is entered and ends with the last
    top-level span on that thread before the next cell starts.
    """
    studies = [(s.t0, s.t1) for s in spans if s.name == "experiments.run_coverage_study"]
    study_ids = {s.sid for s in spans if s.name == "experiments.run_coverage_study"}
    by_thread: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if (s.parent is None or s.parent in study_ids) and any(a <= s.t0 <= b for a, b in studies):
            by_thread[s.thread].append(s)
    cells = []
    for thread_spans in by_thread.values():
        current = None
        for s in sorted(thread_spans, key=lambda s: s.t0):
            if s.name == "data.split_trial":
                if current:
                    cells.append(current)
                current = [s.op, s.t0, s.t1, s.c0, s.c1]
            elif current is not None and s.name != "experiments.run_coverage_study":
                current[2], current[4] = s.t1, s.c1
        if current:
            cells.append(current)
    return [(op, t1 - t0, c1 - c0) for op, t0, t1, c0, c1 in cells]


def layer_metrics(spans: list[Span], op_labels: list[str], threads: int) -> dict[str, float]:
    """Per-layer metrics: totals per operation, or ratios.

    ``op_labels[i]`` is the call of operation ``i + 1``.  A run may hold more
    calls of one kind than another, so a total per operation is the mean over
    kinds of each kind's mean, as if every kind had run equally often.
    """
    runs = Counter(op_labels)
    weight = {op: 1.0 / (len(runs) * runs[label]) for op, label in enumerate(op_labels, 1)}
    child_wall: dict[int, float] = defaultdict(float)
    child_cpu: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_wall[s.parent] += s.t1 - s.t0
            child_cpu[s.parent] += s.c1 - s.c0
    wall: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    layer_self_cpu: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, float] = defaultdict(float)
    for s in spans:
        w = weight[s.op]
        key = s.name if s.tag is None else f"{s.name}.{s.tag}"
        wall[key] += w * (s.t1 - s.t0)
        calls[key] += w
        layer = s.name.split(".", 1)[0]
        layer_self[layer] += w * ((s.t1 - s.t0) - child_wall[s.sid])
        layer_self_cpu[layer] += w * ((s.c1 - s.c0) - child_cpu[s.sid])
        layer_calls[layer] += w

    out: dict[str, float] = {}
    for name in PER_NAME_SECONDS:
        out[f"{name}.s"] = wall[name]
    for name in PER_NAME_CALLS:
        out[f"{name}.calls"] = calls[name]
    reads = [s for s in spans if s.name == "data.read_table"]
    read_s = sum(s.t1 - s.t0 for s in reads)
    out["data.read_table.rows_per_s"] = sum(s.extra or 0 for s in reads) / read_s if read_s else 0.0

    evaluations = [s for s in spans if s.name == "estimators.evaluate"]
    for kind in ESTIMATOR_KINDS:
        out[f"estimators.evaluate.s.{kind}"] = wall[f"estimators.evaluate.{kind}"]
        out[f"estimators.evaluate.calls.{kind}"] = calls[f"estimators.evaluate.{kind}"]
    degenerate = sum(1 for s in evaluations if s.extra is False)
    out["estimators.degenerate_ratio"] = degenerate / len(evaluations) if evaluations else 0.0

    loops = [s.extra for s in spans if s.name == "boot.bootstrap_values" and s.extra]
    kept = sum(k for _, k in loops)
    out["boot.attempts_per_kept"] = sum(a for a, _ in loops) / kept if kept else 0.0

    peaks = [s.extra for s in spans if s.name == "crossfit.assemble_cross_predictions" and s.extra]
    out["crossfit.assemble_cross_predictions.peak_mb"] = max(peaks, default=0) / 2**20

    cells = _cells(spans)
    cell_wall = sum(weight[op] * w for op, w, _ in cells)
    cell_cpu = sum(weight[op] * c for op, _, c in cells)
    out["experiments.cell_wall_s"] = cell_wall
    out["experiments.cell_cpu_s"] = cell_cpu
    out["experiments.cell_wait_s"] = cell_wall - cell_cpu
    study_wall = wall["experiments.run_coverage_study"]
    out["experiments.busy_share"] = cell_cpu / (study_wall * threads) if study_wall else 0.0

    out["cli.main.self_s"] = layer_self["cli"]
    for layer in LAYERS:
        out[f"{layer}.calls"] = layer_calls[layer]
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.wait_s"] = layer_self[layer] - layer_self_cpu[layer]
    return out
