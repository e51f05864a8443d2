"""Synthetic generators, the coverage harness, and report serialization."""

import copy
import multiprocessing
import os
import resource
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

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
from ppboot.experiments import parse_report_csv, study_from_config, width_inversions


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
        assert width_inversions(summary, "classical") <= 1

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
            ConfidenceInterval(0.0, 0.0, 0.0, 1.0, 0, 0.1, degenerate_reason="singular design"),
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
            assert (tmp_path / "workers" / os.path.basename(path)).read_bytes() == open(path, "rb").read()

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
            blobs.append({key: open(path, "rb").read() for key, path in paths.items()})
        assert blobs[0] == blobs[1]

    def test_cells_run_in_child_processes(self):
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
            assert open(pa[key], "rb").read() == open(pb[key], "rb").read()


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

    def test_mean_only_methods_validated(self):
        with pytest.raises(ValueError):
            TrialConfig(
                n_grid=(10,), trials=1, methods=("ppi-mean",),
                estimand=EstimandSpec("quantile", q=0.5),
            )
