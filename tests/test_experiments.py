"""Synthetic generators, the coverage harness, and report serialization."""

import numpy as np
import pytest

from ppboot import (
    BootstrapConfig,
    EstimandSpec,
    EstimationError,
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
