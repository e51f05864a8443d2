"""Synthetic generators, the coverage harness, and report serialization."""

import concurrent.futures
import copy
import csv
import math
import multiprocessing
import os
import resource
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import _reference as ref
import ppboot
from ppboot import (
    BootstrapConfig,
    ConfidenceInterval,
    EstimandSpec,
    EstimationError,
    LabeledDataset,
    LearnerSpec,
    RngStream,
    SyntheticSpec,
    TrialConfig,
    generate_synthetic,
    run_coverage_study,
    summarize_to_tables,
    write_reports,
)
from ppboot import boot
from ppboot.baselines import classical_bootstrap_interval, imputed_interval
from ppboot.boot import ppboot_interval, reported_interval
from ppboot.data import split_trial
from ppboot.experiments import _init_worker, _run_cell, _worker_cell, study_from_config
from ppboot.resampling import PHASE_SPLIT, PHASE_TUNING


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


def _study_config(**overrides):
    base = dict(
        n_grid=(60,),
        trials=8,
        methods=("ppboot", "classical"),
        estimand=EstimandSpec("mean"),
        bootstrap=BootstrapConfig(B=200, master_seed=5),
    )
    base.update(overrides)
    return TrialConfig(**base)


def _bern_data(total=600, p=0.3, rho=0.9, seed=5):
    spec = SyntheticSpec("bernoulli_mean", total, p=p, prediction_model="noisy_truth", rho=rho)
    return generate_synthetic(spec, RngStream(seed, (3,)))


class TestGenerateSynthetic:
    def test_oracle_predictions_bit_identical(self):
        ds = generate_synthetic(SyntheticSpec("gaussian_linear", 500, coef=(2.0,)), RngStream(0, (3,)))
        assert np.array_equal(ds.outcomes, ds.predictions)

    def test_bernoulli_concentration(self):
        ds = generate_synthetic(SyntheticSpec("bernoulli_mean", 10000, p=0.5), RngStream(1, (3,)))
        assert abs(float(np.mean(ds.outcomes)) - 0.5) < 3 * 0.005

    def test_noisy_truth_correlation_calibrated(self):
        spec = SyntheticSpec("gaussian_linear", 10000, coef=(1.0,), prediction_model="noisy_truth", rho=0.9)
        ds = generate_synthetic(spec, RngStream(2, (3,)))
        corr = float(np.corrcoef(ds.outcomes, ds.predictions)[0, 1])
        assert 0.88 <= corr <= 0.92

    def test_noisy_truth_binary_stays_binary(self):
        spec = SyntheticSpec("bernoulli_mean", 8000, p=0.3, prediction_model="noisy_truth", rho=0.9)
        ds = generate_synthetic(spec, RngStream(3, (3,)))
        assert set(np.unique(ds.predictions)) <= {0.0, 1.0}
        corr = float(np.corrcoef(ds.outcomes, ds.predictions)[0, 1])
        assert 0.85 <= corr <= 0.95

    def test_pure_noise_uncorrelated(self):
        spec = SyntheticSpec("gaussian_linear", 8000, coef=(1.0,), prediction_model="pure_noise")
        ds = generate_synthetic(spec, RngStream(4, (3,)))
        assert abs(float(np.corrcoef(ds.outcomes, ds.predictions)[0, 1])) < 0.05

    def test_biased_offset(self):
        spec = SyntheticSpec("gaussian_linear", 5000, coef=(1.0,), prediction_model="biased", offset=5.0)
        ds = generate_synthetic(spec, RngStream(5, (3,)))
        assert float(np.mean(ds.predictions - ds.outcomes)) == pytest.approx(5.0, abs=0.05)

    def test_binary_pair_cells(self):
        spec = SyntheticSpec("binary_pair", 20000, joint=(0.4, 0.1, 0.1, 0.4))
        ds = generate_synthetic(spec, RngStream(6, (3,)))
        e, y = ds.features[:, 0], ds.outcomes
        p11 = float(np.mean((e == 1) & (y == 1)))
        p00 = float(np.mean((e == 0) & (y == 0)))
        assert p11 == pytest.approx(0.4, abs=0.02)
        assert p00 == pytest.approx(0.4, abs=0.02)

    def test_logistic_monotone_in_features(self):
        spec = SyntheticSpec("logistic", 20000, coef=(1.5,))
        ds = generate_synthetic(spec, RngStream(7, (3,)))
        hi = ds.outcomes[ds.features[:, 0] > 1].mean()
        lo = ds.outcomes[ds.features[:, 0] < -1].mean()
        assert hi > 0.7 > 0.3 > lo

    def test_determinism(self):
        spec = SyntheticSpec("gaussian_linear", 100, coef=(1.0,))
        a = generate_synthetic(spec, RngStream(8, (3,)))
        b = generate_synthetic(spec, RngStream(8, (3,)))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.predictions, b.predictions)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec("poisson", 100)
        with pytest.raises(ValueError):
            SyntheticSpec("bernoulli_mean", 5)
        with pytest.raises(ValueError):
            SyntheticSpec("binary_pair", 100, joint=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            SyntheticSpec("bernoulli_mean", 100, prediction_model="noisy_truth", rho=0.0)


class TestRunCoverageStudy:
    def test_single_trial_indicator(self):
        summary = run_coverage_study(_bern_data(), _study_config(trials=1))
        for agg in summary.aggregates:
            assert agg.coverage in (0.0, 1.0)

    def test_reproducible_and_thread_invariant(self):
        full = _bern_data()
        config = _study_config()
        a = run_coverage_study(full, config)
        b = run_coverage_study(full, config)
        c = run_coverage_study(full, config, threads=4)
        assert a == b == c

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        # These reached the process pool, which failed with its own message.
        with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
            run_coverage_study(_bern_data(), _study_config(), threads=threads)

    def test_row_cardinality(self):
        summary = run_coverage_study(_bern_data(), _study_config(n_grid=(40, 60, 80)))
        agg_rows, trial_rows = summarize_to_tables(summary)
        assert len(agg_rows) == 2 * 3
        assert len(trial_rows) == 2 * 3 * 3  # methods x n values x displayed trials
        assert all(0.0 <= row["coverage"] <= 1.0 for row in agg_rows)

    def test_coverage_monotone_in_alpha(self):
        full = _bern_data()
        by_alpha = {}
        for alpha in (0.05, 0.2):
            config = _study_config(bootstrap=BootstrapConfig(B=200, alpha=alpha, master_seed=5), trials=12)
            by_alpha[alpha] = {
                (a.method, a.n): a.coverage for a in run_coverage_study(full, config).aggregates
            }
        for key in by_alpha[0.05]:
            assert by_alpha[0.05][key] >= by_alpha[0.2][key]

    def test_oracle_predictions_always_narrower_than_classical(self):
        spec = SyntheticSpec("bernoulli_mean", 1500, p=0.4, prediction_model="oracle")
        full = generate_synthetic(spec, RngStream(14, (3,)))
        summary = run_coverage_study(full, _study_config(n_grid=(50, 100, 200), trials=10,
                                                          bootstrap=BootstrapConfig(B=300, master_seed=7)))
        for n in (50, 100, 200):
            pp = next(a for a in summary.aggregates if a.method == "ppboot" and a.n == n)
            cl = next(a for a in summary.aggregates if a.method == "classical" and a.n == n)
            assert pp.mean_width < cl.mean_width

    def test_width_monotone_in_n_for_classical(self):
        summary = run_coverage_study(
            _bern_data(total=1200), _study_config(n_grid=(50, 100, 200, 400), trials=12, methods=("classical",))
        )
        widths = [a.mean_width for a in summary.aggregates if a.method == "classical"]
        assert sum(1 for prev, cur in zip(widths, widths[1:]) if cur > prev) <= 1

    def test_failing_method_aborts_study(self):
        # Healthy true outcomes but constant predictions: the imputed odds
        # ratio degenerates on every trial while the ground truth is fine.
        g = np.random.default_rng(9)
        from ppboot import LabeledDataset

        e = (g.random(200) < 0.5).astype(float)
        y = (g.random(200) < 0.5).astype(float)
        full = LabeledDataset(e[:, None], y, np.ones(200))
        config = _study_config(
            methods=("imputed",),
            estimand=EstimandSpec("log_odds_ratio", exposure_column=0),
            trials=5,
            n_grid=(50,),
        )
        with pytest.raises(EstimationError, match="imputed"):
            run_coverage_study(full, config)

    def test_pearson_records_clipped(self):
        spec = SyntheticSpec("gaussian_linear", 400, coef=(3.0,), noise_sd=0.1,
                             prediction_model="noisy_truth", rho=0.95)
        full = generate_synthetic(spec, RngStream(10, (3,)))
        config = _study_config(
            estimand=EstimandSpec("pearson_corr"), trials=4, n_grid=(30,),
            bootstrap=BootstrapConfig(B=150, master_seed=6), display_trials=4,
        )
        summary = run_coverage_study(full, config)
        for rec in summary.records:
            assert -1.0 <= rec.lower <= rec.upper <= 1.0

    def test_exp_transform_applies_to_bounds_and_truth(self):
        full = generate_synthetic(
            SyntheticSpec("binary_pair", 1000, joint=(0.3, 0.2, 0.2, 0.3), prediction_model="oracle"),
            RngStream(11, (3,)),
        )
        estimand = EstimandSpec("log_odds_ratio", exposure_column=0, transform="exp")
        config = _study_config(estimand=estimand, trials=3, n_grid=(80,), methods=("classical",))
        summary = run_coverage_study(full, config)
        assert summary.ground_truth > 0  # odds-ratio scale
        for rec in summary.records:
            assert rec.lower > 0

    def test_non_finite_ground_truth_fails(self):
        g = np.random.default_rng(2)
        y = 1000.0 + g.standard_normal(100)
        full = LabeledDataset(g.standard_normal((100, 1)), y, y + 0.1 * g.standard_normal(100))
        config = _study_config(n_grid=(20,), trials=1, estimand=EstimandSpec("mean", transform="exp"))
        with pytest.raises(EstimationError, match="^ground truth is not finite after the transform: inf$"):
            run_coverage_study(full, config)

    def test_bad_n_grid_rejected(self):
        with pytest.raises(ValueError):
            run_coverage_study(_bern_data(total=100), _study_config(n_grid=(99,)))


def _rare_outcome_data(seed, total=200, ones=10):
    """Continuous feature, 0/1 outcomes with ``ones`` ones: small labeled splits may hold none."""
    g = np.random.default_rng(seed)
    X = g.standard_normal((total, 1))
    y = np.zeros(total)
    y[g.choice(total, ones, replace=False)] = 1.0
    return LabeledDataset(X, y, y + 0.1 * g.standard_normal(total))


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# One small study per estimand kind, with the learner-based methods it can
# run.  The binary kinds need 0/1 predictions: the 1-nearest-neighbour learner
# gives them, but cross-fitting averages the fold models' predictions.  The
# log odds ratio's only feature is the exposure, so a learner's predictions
# are a function of it and every table they fill is degenerate.
_CROSS_SPLIT = ("cross-ppboot", "split-ppboot")
_KIND_STUDIES = {
    "mean": (SyntheticSpec("gaussian_linear", 400, coef=(1.0,), prediction_model="noisy_truth", rho=0.9),
             EstimandSpec("mean"), LearnerSpec("linear_least_squares"), _CROSS_SPLIT),
    "quantile": (SyntheticSpec("gaussian_linear", 400, coef=(1.0,), prediction_model="noisy_truth", rho=0.9),
                 EstimandSpec("quantile", q=0.5), LearnerSpec("knn", k=5), _CROSS_SPLIT),
    "ols_coef": (SyntheticSpec("gaussian_linear", 400, coef=(2.0, -1.0), prediction_model="noisy_truth", rho=0.9),
                 EstimandSpec("ols_coef", target_index=0), LearnerSpec("linear_least_squares"), _CROSS_SPLIT),
    "logistic_coef": (SyntheticSpec("logistic", 400, coef=(1.0,), prediction_model="noisy_truth", rho=0.9),
                      EstimandSpec("logistic_coef", target_index=0), LearnerSpec("knn", k=1), ("split-ppboot",)),
    "log_odds_ratio": (SyntheticSpec("binary_pair", 400, joint=(0.3, 0.2, 0.2, 0.3),
                                     prediction_model="noisy_truth", rho=0.9),
                       EstimandSpec("log_odds_ratio", exposure_column=0), LearnerSpec("knn", k=1), ()),
    "pearson_corr": (SyntheticSpec("gaussian_linear", 400, coef=(1.0,), prediction_model="noisy_truth", rho=0.9),
                     EstimandSpec("pearson_corr", feature_column=0), LearnerSpec("linear_least_squares"),
                     _CROSS_SPLIT),
}

# Runs a small study under the start method named in argv[1] and writes its
# reports to argv[2]; a spawned worker imports everything it runs.
_START_METHOD_SCRIPT = """
import multiprocessing, sys
from ppboot import BootstrapConfig, EstimandSpec, RngStream, SyntheticSpec, TrialConfig
from ppboot import generate_synthetic, run_coverage_study, write_reports

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    spec = SyntheticSpec("bernoulli_mean", 600, p=0.3, prediction_model="noisy_truth", rho=0.9)
    full = generate_synthetic(spec, RngStream(5, (3,)))
    config = TrialConfig(n_grid=(40, 60), trials=2, methods=("ppboot", "classical"),
                         estimand=EstimandSpec("mean"), bootstrap=BootstrapConfig(B=100, master_seed=5))
    write_reports(run_coverage_study(full, config, threads=2), sys.argv[2])
"""


class TestWorkerProcesses:
    """Cells run in worker processes when threads > 1; nothing about the results may show it."""

    @pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
    def test_cell_inputs_and_outcomes_round_trip(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method} start method here")
        full = _bern_data(total=50)
        sent = [
            ConfidenceInterval(-0.25, 1.5, 0.625, 0.7, 2, 0.1),
            ConfidenceInterval(0.0, 0.0, 0.0, 1.0, 5, 0.3),
            EstimationError("method 'classical' failed on 3 of 8 trials at n=60"),
            _study_config(methods=("ppboot", "cross-ppboot"), learner=LearnerSpec("knn", k=3)),
            full,
        ]
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(start_method)) as pool:
            back = pool.submit(copy.copy, sent).result()
        assert back[:2] == sent[:2]
        assert type(back[2]) is EstimationError and back[2].args == sent[2].args
        assert back[3] == sent[3]
        for name in ("features", "outcomes", "predictions"):
            got, want = getattr(back[4], name), getattr(full, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
    def test_study_reports_same_under_start_method(self, start_method, tmp_path):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method} start method here")
        spec = SyntheticSpec("bernoulli_mean", 600, p=0.3, prediction_model="noisy_truth", rho=0.9)
        config = _study_config(n_grid=(40, 60), trials=2, bootstrap=BootstrapConfig(B=100, master_seed=5))
        local = write_reports(run_coverage_study(generate_synthetic(spec, RngStream(5, (3,))), config),
                              str(tmp_path / "local"))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(ppboot.__file__))))
        subprocess.run([sys.executable, "-c", _START_METHOD_SCRIPT, start_method, str(tmp_path / "workers")],
                       env=env, check=True)
        for path in local.values():
            assert (tmp_path / "workers" / os.path.basename(path)).read_bytes() == Path(path).read_bytes()

    def test_failures_cross_the_process_boundary(self):
        config = _study_config(n_grid=(40,), trials=20, methods=("imputed", "classical"),
                               estimand=EstimandSpec("pearson_corr"), bootstrap=BootstrapConfig(B=50, master_seed=2))
        full = _rare_outcome_data(seed=2)
        one = run_coverage_study(full, config)
        assert [a.errors for a in one.aggregates] == [0, 2]  # labeled splits without a 1
        assert run_coverage_study(full, config, threads=2) == one

    def test_abort_message_same_in_workers(self):
        config = _study_config(n_grid=(20,), trials=20, methods=("imputed", "classical"),
                               estimand=EstimandSpec("pearson_corr"), bootstrap=BootstrapConfig(B=50, master_seed=2))
        full = _rare_outcome_data(seed=2)
        messages = []
        for threads in (1, 2):
            with pytest.raises(EstimationError, match="'classical' failed on") as info:
                run_coverage_study(full, config, threads=threads)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("kind", list(_KIND_STUDIES))
    def test_reports_byte_identical_for_every_kind(self, kind, tmp_path):
        spec, estimand, learner, learner_methods = _KIND_STUDIES[kind]
        full = generate_synthetic(spec, RngStream(12, (3,)))
        config = _study_config(
            n_grid=(40, 80), trials=3, methods=("ppboot", "ppboot-tuned", "classical", *learner_methods),
            estimand=estimand, learner=learner, crossfit_k=3,
            bootstrap=BootstrapConfig(B=50, master_seed=12),
        )
        blobs = []
        for threads in (1, 2):
            paths = write_reports(run_coverage_study(full, config, threads=threads), str(tmp_path / str(threads)))
            blobs.append({key: Path(path).read_bytes() for key, path in paths.items()})
        assert blobs[0] == blobs[1]

    def test_workers_capped_at_usable_cpus(self, monkeypatch, tmp_path):
        # On one usable CPU a threads=4 study runs in this process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        full, config = _bern_data(), _study_config(trials=4)
        blobs = []
        for threads in (1, 4):
            paths = write_reports(run_coverage_study(full, config, threads=threads), str(tmp_path / str(threads)))
            blobs.append({key: Path(path).read_bytes() for key, path in paths.items()})
        assert blobs[0] == blobs[1]

    def test_cells_run_their_loops_on_one_thread(self, monkeypatch):
        # Three usable CPUs: a mean interval given them would cut its loops across threads.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        config = _study_config(trials=2, methods=("ppboot", "ppboot-tuned", "classical"))
        assert run_coverage_study(_bern_data(), config).trials == 2

    def test_cells_run_in_child_processes(self, monkeypatch):
        # Two usable CPUs whatever the machine has, so two workers start.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        full = _bern_data()
        config = _study_config(trials=10)
        before = _children_cpu_s()
        start = resource.getrusage(resource.RUSAGE_SELF)
        one = run_coverage_study(full, config)
        end = resource.getrusage(resource.RUSAGE_SELF)
        assert _children_cpu_s() == before  # one worker: no process started
        work = (end.ru_utime + end.ru_stime) - (start.ru_utime + start.ru_stime)
        before = _children_cpu_s()
        assert run_coverage_study(full, config, threads=2) == one
        assert _children_cpu_s() - before > 0.5 * work


def _empty_cell_data(seed=1, total=400):
    """Rare exposed ones: small labeled splits often leave a cell of the 2x2 table empty."""
    g = np.random.default_rng(seed)
    e = (g.random(total) < 0.3).astype(float)
    y = (g.random(total) < np.where(e == 1.0, 0.2, 0.5)).astype(float)
    return LabeledDataset(e[:, None], y, np.where(g.random(total) < 0.8, 1.0 - y, y))


def _near_separated_data(seed=1, total=400):
    """0/1 outcomes almost determined by the sign of the feature: small splits often separate."""
    g = np.random.default_rng(seed)
    x = g.standard_normal(total)
    y = (x + 0.5 * g.standard_normal(total) > 0.0).astype(float)
    return LabeledDataset(x[:, None], y, np.where(g.random(total) < 0.8, 1.0 - y, y))


def _mostly_constant_feature_data(seed=1, total=400):
    """A feature that is 0 on most rows, so small resamples often see it constant.

    The predictions are an exact linear function of the feature, so their
    correlation with it is 1 up to rounding on every resample, and the
    tuning denominator falls below ``TUNING_DENOM_FLOOR``.
    """
    g = np.random.default_rng(seed)
    x = np.where(g.random(total) < 0.8, 0.0, g.standard_normal(total))
    return LabeledDataset(x[:, None], x + g.standard_normal(total), 2.0 * x + 1.0)


# (data, estimand, n, whether some interval fails)
_DEGENERATE_STUDIES = {
    "log-odds-ratio-empty-cells": (_empty_cell_data, EstimandSpec("log_odds_ratio"), 24, True),
    "near-separated-logistic": (_near_separated_data, EstimandSpec("logistic_coef"), 16, False),
    "constant-pearson-column": (_mostly_constant_feature_data, EstimandSpec("pearson_corr"), 10, True),
}
# Bootstrap settings under which some multiplier is 0, and the tuning floor to
# use: infinite sends every tuned multiplier to 0 through the floor.
_ZERO_MULTIPLIERS = {
    "fixed-0": (dict(lambda_mode="fixed", lambda_value=0.0), None),
    "clipped-to-0": (dict(lambda_mode="fixed", lambda_value=-0.5, clip_lambda=True), None),
    "tuned-at-floor": ({}, math.inf),
}


def _per_method_cell(full, config, cell):
    """The cell as the per-method calls run it, each on the cell's base stream."""
    ni, trial = cell
    base = RngStream(config.bootstrap.master_seed, (ni, trial))
    labeled, unlabeled = split_trial(full, config.n_grid[ni], base.child(PHASE_SPLIT))
    spec, cfg = config.estimand, config.bootstrap
    calls = {
        "ppboot": lambda: ppboot_interval(labeled, unlabeled, spec, cfg, base),
        "ppboot-tuned": lambda: ppboot_interval(labeled, unlabeled, spec, replace(cfg, lambda_mode="tuned"), base),
        "classical": lambda: classical_bootstrap_interval(labeled, spec, cfg, base),
        "imputed": lambda: imputed_interval(unlabeled, spec, cfg, base),
    }
    out = {}
    for method in config.methods:
        try:
            out[method] = reported_interval(calls[method](), spec)
        except EstimationError as exc:
            out[method] = exc
    return out


class TestSharedMainLoop:
    """A cell runs one main loop for ppboot, ppboot-tuned and classical; the results are the per-method calls'."""

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "two-workers"])
    @pytest.mark.parametrize("zero", list(_ZERO_MULTIPLIERS))
    @pytest.mark.parametrize("study", list(_DEGENERATE_STUDIES))
    def test_cell_equals_the_per_method_calls(self, study, zero, workers, monkeypatch):
        make, spec, n, fails = _DEGENERATE_STUDIES[study]
        settings, floor = _ZERO_MULTIPLIERS[zero]
        if floor is not None:
            monkeypatch.setattr(boot, "TUNING_DENOM_FLOOR", floor)
        full = make()
        config = _study_config(
            n_grid=(n,), trials=6, methods=("classical", "imputed", "ppboot", "ppboot-tuned"), estimand=spec,
            bootstrap=BootstrapConfig(B=60, master_seed=3, max_degenerate_retries=1, **settings),
        )
        cells = [(0, t) for t in range(config.trials)]
        if workers == 1:
            shared = [_run_cell(full, config, cell) for cell in cells]
        else:
            # Forked workers see the patched floor.
            if "fork" not in multiprocessing.get_all_start_methods():
                pytest.skip("no fork start method here")
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_init_worker, initargs=(full, config)) as pool:
                shared = list(pool.map(_worker_cell, cells))
        expected = [_per_method_cell(full, config, cell) for cell in cells]
        # repr shows every float's bits, degenerate_iterations and an error's type and text.
        assert [{m: repr(o) for m, o in out.items()} for out in shared] == \
            [{m: repr(o) for m, o in out.items()} for out in expected]
        outcomes = [o for out in expected for o in out.values()]
        assert any(isinstance(o, ConfidenceInterval) and o.degenerate_iterations for o in outcomes)
        assert any(isinstance(o, EstimationError) for o in outcomes) == fails
        zero_methods = ("classical", "ppboot-tuned") if zero == "tuned-at-floor" else ("classical", "ppboot")
        if study == "constant-pearson-column":  # at the unpatched floor too
            zero_methods += ("ppboot-tuned",)
        assert any(isinstance(out[m], ConfidenceInterval) for out in expected for m in zero_methods)
        assert all(out[m].lambda_used == 0.0 for out in expected for m in zero_methods
                   if isinstance(out[m], ConfidenceInterval))

    def test_argument_errors_keep_the_method_order(self):
        # classical needs the labeled outcomes alone, so the non-binary
        # predictions are first seen by imputed, whose error comes first.
        full = _near_separated_data()
        full = LabeledDataset(full.features, full.outcomes, full.predictions + 0.5)
        config = _study_config(n_grid=(16,), trials=1, methods=("classical", "imputed", "ppboot"),
                               estimand=EstimandSpec("logistic_coef"), bootstrap=BootstrapConfig(B=20))
        with pytest.raises(ValueError, match="^labeled outcomes must contain only 0/1 values$"):
            _per_method_cell(full, config, (0, 0))
        with pytest.raises(ValueError, match="^labeled outcomes must contain only 0/1 values$"):
            _run_cell(full, config, (0, 0))

    def test_tunes_once_per_cell(self, monkeypatch):
        # Under lambda_mode "tuned", ppboot and ppboot-tuned both take the tuned multiplier.
        full = _bern_data(total=400)
        config = _study_config(n_grid=(50,), trials=1, methods=("ppboot", "ppboot-tuned", "classical"),
                               bootstrap=BootstrapConfig(B=200, master_seed=5, lambda_mode="tuned"))
        expected = _per_method_cell(full, config, (0, 0))
        calls = []
        tune = boot.tune_lambda

        def counting_tune(sides, tuning_B, stream, threads=1):
            calls.append(stream.path)
            return tune(sides, tuning_B, stream, threads)

        monkeypatch.setattr(boot, "tune_lambda", counting_tune)
        shared = _run_cell(full, config, (0, 0))
        assert calls == [(0, 0, PHASE_TUNING)]
        assert {m: repr(o) for m, o in shared.items()} == {m: repr(o) for m, o in expected.items()}
        assert shared["ppboot"].lambda_used == shared["ppboot-tuned"].lambda_used != 0.0

    def test_cell_matches_the_reference_oracle(self):
        spec = SyntheticSpec("gaussian_linear", 300, prediction_model="noisy_truth", rho=0.8)
        full = generate_synthetic(spec, RngStream(6, (3,)))
        B, alpha, seed = 200, 0.1, 11
        config = _study_config(n_grid=(20, 40), trials=2, methods=("ppboot", "ppboot-tuned", "classical"),
                               bootstrap=BootstrapConfig(B=B, alpha=alpha, master_seed=seed))
        for cell in [(ni, t) for ni in range(2) for t in range(2)]:
            out = _run_cell(full, config, cell)
            labeled, unlabeled = split_trial(full, config.n_grid[cell[0]], RngStream(seed, cell).child(PHASE_SPLIT))
            y, f, fu = labeled.outcomes, labeled.predictions, unlabeled.predictions
            lam = ref.tune_lambda(y, f, fu, "mean", B, seed, cell)
            expected = {
                method: (*ref.ppboot_interval(None, y, f, None, fu, "mean", m, B, alpha, seed, cell)[:2], m)
                for method, m in (("ppboot", 1.0), ("ppboot-tuned", lam))
            }
            expected["classical"] = (*ref.classical_interval(y, "mean", B, alpha, seed, cell)[:2], 0.0)
            for method, (lower, upper, lambda_used) in expected.items():
                ci = out[method]
                assert ci.lower == pytest.approx(lower, abs=1e-12), (cell, method)
                assert ci.upper == pytest.approx(upper, abs=1e-12), (cell, method)
                assert ci.lambda_used == pytest.approx(lambda_used, abs=1e-12), (cell, method)

    def test_non_finite_interval_is_the_methods_failure(self):
        # lambda * 100 overflows, so the combined values and point are not finite.
        g = np.random.default_rng(4)
        y = 100.0 + g.standard_normal(200)
        full = LabeledDataset(g.standard_normal((200, 1)), y, y + 0.1 * g.standard_normal(200))
        config = _study_config(n_grid=(30,), trials=1, methods=("ppboot", "classical"),
                               bootstrap=BootstrapConfig(B=50, lambda_mode="fixed", lambda_value=1e308))
        out = _run_cell(full, config, (0, 0))
        assert isinstance(out["ppboot"], EstimationError)
        assert str(out["ppboot"]).startswith("non-finite interval: ")
        assert isinstance(out["classical"], ConfidenceInterval)


class TestReports:
    def test_csv_round_trip_exact(self, tmp_path):
        summary = run_coverage_study(_bern_data(), _study_config())
        paths = write_reports(summary, str(tmp_path))
        agg_rows, trial_rows = summarize_to_tables(summary)
        assert parse_report_csv(paths["coverage"]) == agg_rows
        assert parse_report_csv(paths["intervals"]) == trial_rows

    def test_rerun_byte_identical(self, tmp_path):
        full = _bern_data()
        config = _study_config()
        pa = write_reports(run_coverage_study(full, config), str(tmp_path / "a"))
        pb = write_reports(run_coverage_study(full, config, threads=3), str(tmp_path / "b"))
        for key in pa:
            assert Path(pa[key]).read_bytes() == Path(pb[key]).read_bytes()


class TestStudyFromConfig:
    def test_synthetic_roundtrip(self):
        raw = {
            "data": {"synthetic": {"dgp": "bernoulli_mean", "total_rows": 500, "p": 0.3,
                                    "prediction_model": "noisy_truth", "rho": 0.9}},
            "estimand": {"kind": "mean"},
            "n_grid": [50],
            "trials": 2,
            "methods": ["ppboot"],
            "bootstrap": {"B": 100},
        }
        full, config = study_from_config(raw, seed=9)
        assert full.n == 500
        assert config.bootstrap.master_seed == 9
        summary = run_coverage_study(full, config)
        assert summary.trials == 2

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            study_from_config({"data": {}, "n_grid": [5], "trials": 1, "methods": ["ppboot"],
                               "estimand": {"kind": "mean"}, "bogus": 1}, seed=0)
        with pytest.raises(ValueError):
            study_from_config({"n_grid": [5], "trials": 1, "methods": ["ppboot"],
                               "estimand": {"kind": "mean"}}, seed=0)

    @pytest.mark.parametrize("n", [50.9, True], ids=["float", "bool"])
    def test_non_integer_n_grid_rejected(self, n):
        with pytest.raises(ValueError, match="n_grid"):
            _study_config(n_grid=(n,))

    @pytest.mark.parametrize("overrides, message", [
        pytest.param({"crossfit_k": 1}, "crossfit 'k' must be >= 2", id="k-1"),
        pytest.param({"split_fraction": 1.5}, r"crossfit 'split_fraction' must lie strictly inside \(0, 1\)",
                     id="split-fraction-1.5"),
        pytest.param({"split_fraction": 0.0}, r"crossfit 'split_fraction' must lie strictly inside \(0, 1\)",
                     id="split-fraction-0"),
    ])
    def test_crossfit_settings_checked_at_construction(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            _study_config(**overrides)

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="^method 'ppboot' is listed more than once$"):
            _study_config(methods=("ppboot", "classical", "ppboot"))

    def test_mean_only_methods_validated(self):
        with pytest.raises(ValueError):
            TrialConfig(
                n_grid=(10,), trials=1, methods=("ppi-mean",),
                estimand=EstimandSpec("quantile", q=0.5),
            )
