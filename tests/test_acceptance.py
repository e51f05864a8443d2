"""End-to-end acceptance suite.

Every test prints one ``criterion NN [name]: PASS/FAIL`` line (run pytest with
``-s`` to see them all) and enforces its stated tolerance and runtime budget.
Heavy Monte Carlo studies are shared via module-scoped fixtures.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

import _reference as ref
from ppboot import (
    BootstrapConfig,
    EstimandSpec,
    LearnerSpec,
    RngStream,
    SyntheticSpec,
    TrialConfig,
    classical_bootstrap_interval,
    evaluate,
    generate_synthetic,
    interval_resamplers,
    ppboot_draws,
    ppboot_interval,
    run_coverage_study,
    split_trial,
)
from ppboot.cli import main as cli_main
from ppboot.resampling import PHASE_MAIN, PHASE_SPLIT, draw_unlabeled_indices

pytestmark = pytest.mark.acceptance

SEED = 20240
THREADS = min(8, os.cpu_count() or 1)


def check(num, name, ok, detail="", elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.1f}s" + (f" < {budget:.0f}s budget]" if budget else "]")
    print(f"criterion {num:02d} [{name}]: {status} {detail}{timing}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    if elapsed is not None and budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.1f}s >= {budget}s"


def _estimand_suite():
    """One (dataset spec, estimand) pair per supported estimand."""
    return {
        "mean": (
            SyntheticSpec("bernoulli_mean", 3000, p=0.3, prediction_model="noisy_truth", rho=0.9),
            EstimandSpec("mean"),
        ),
        "quantile": (
            SyntheticSpec("gaussian_linear", 3000, coef=(1.0,), noise_sd=1.0,
                          prediction_model="noisy_truth", rho=0.9),
            EstimandSpec("quantile", q=0.5),
        ),
        "ols_coef": (
            SyntheticSpec("gaussian_linear", 3000, coef=(2.0, -1.0), noise_sd=1.0,
                          prediction_model="noisy_truth", rho=0.9),
            EstimandSpec("ols_coef", target_index=0),
        ),
        "logistic_coef": (
            SyntheticSpec("logistic", 3000, coef=(1.0,), prediction_model="noisy_truth", rho=0.9),
            EstimandSpec("logistic_coef", target_index=0),
        ),
        "log_odds_ratio": (
            SyntheticSpec("binary_pair", 3000, joint=(0.3, 0.2, 0.2, 0.3),
                          prediction_model="noisy_truth", rho=0.9),
            EstimandSpec("log_odds_ratio", exposure_column=0),
        ),
        "pearson_corr": (
            SyntheticSpec("gaussian_linear", 3000, coef=(1.0,), noise_sd=1.0,
                          prediction_model="noisy_truth", rho=0.9),
            EstimandSpec("pearson_corr", feature_column=0),
        ),
    }


def _run_study(spec, estimand, methods, trials, n_grid, **config_overrides):
    full = generate_synthetic(spec, RngStream(SEED, (3,)))
    config = TrialConfig(
        n_grid=n_grid,
        trials=trials,
        methods=methods,
        estimand=estimand,
        bootstrap=BootstrapConfig(B=1000, alpha=0.1, master_seed=SEED),
        **config_overrides,
    )
    start = time.time()
    summary = run_coverage_study(full, config, threads=THREADS)
    return summary, time.time() - start


def _agg(summary, method, n=None):
    for a in summary.aggregates:
        if a.method == method and (n is None or a.n == n):
            return a
    raise KeyError(method)


DEMO_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                           "configs", "binary_fraction_demo.json")


@pytest.fixture(scope="module")
def study_main():
    # The bundled demo config is the study under test for criteria 3-5.
    from ppboot.experiments import study_from_config

    with open(DEMO_CONFIG, encoding="utf-8") as fh:
        raw = json.load(fh)
    full, config = study_from_config(raw, SEED)
    start = time.time()
    summary = run_coverage_study(full, config, threads=THREADS)
    return summary, time.time() - start


@pytest.fixture(scope="module")
def study_noise():
    spec = SyntheticSpec("bernoulli_mean", 10000, p=0.3, prediction_model="pure_noise")
    return _run_study(spec, EstimandSpec("mean"), ("ppboot", "ppboot-tuned", "classical"), 200, (200,))


@pytest.fixture(scope="module")
def study_biased():
    offset = 5.0 * math.sqrt(0.3 * 0.7 / 200)  # five classical standard errors at n=200
    spec = SyntheticSpec("bernoulli_mean", 10000, p=0.3, prediction_model="biased",
                         offset=offset, prediction_noise_sd=0.1)
    return _run_study(spec, EstimandSpec("mean"), ("ppboot", "imputed"), 200, (200,))


def test_criterion_01_lambda_zero_identity():
    start = time.time()
    failures = []
    for name, (spec, estimand) in _estimand_suite().items():
        full = generate_synthetic(dataclasses.replace(spec, total_rows=120), RngStream(SEED, (3,)))
        base = RngStream(SEED, (1,))
        labeled, unlabeled = split_trial(full, 40, base.child(PHASE_SPLIT))
        cfg = BootstrapConfig(B=200, alpha=0.1, lambda_mode="fixed", lambda_value=0.0, master_seed=SEED)
        pp = ppboot_interval(labeled, unlabeled, estimand, cfg, base)
        cl = classical_bootstrap_interval(labeled, estimand, cfg, base)
        same = (
            pp.lower == cl.lower
            and pp.upper == cl.upper
            and pp.point_estimate == cl.point_estimate
            and pp.degenerate_iterations == cl.degenerate_iterations
        )
        if not same:
            failures.append(name)
    check(1, "lambda-zero identity", not failures,
          f"estimands checked={len(_estimand_suite())} mismatches={failures}",
          time.time() - start, 10)


def test_criterion_02_perfect_prediction_collapse():
    start = time.time()
    spec = SyntheticSpec("gaussian_linear", 400, coef=(1.5,), noise_sd=1.0, prediction_model="oracle")
    full = generate_synthetic(spec, RngStream(SEED, (3,)))
    base = RngStream(SEED, (2,))
    labeled, unlabeled = split_trial(full, 50, base.child(PHASE_SPLIT))
    ok = True
    for estimand in (EstimandSpec("mean"), EstimandSpec("quantile", q=0.5)):
        B = 300
        [(values, _)] = ppboot_draws(interval_resamplers(labeled, unlabeled, estimand), [1.0], B, base)
        expected = []
        for b in range(B):
            unlabeled_idx = draw_unlabeled_indices(unlabeled.N, base.child(PHASE_MAIN, b, 0))
            expected.append(
                evaluate(estimand, unlabeled.features[unlabeled_idx],
                         unlabeled.predictions[unlabeled_idx]).value
            )
        ok = ok and sorted(values.tolist()) == sorted(expected)
    check(2, "perfect-prediction collapse", ok, "mean and median draw multisets match exactly",
          time.time() - start, 5)


def test_criterion_03_coverage_mean(study_main):
    summary, elapsed = study_main
    pp = _agg(summary, "ppboot").coverage
    cl = _agg(summary, "classical").coverage
    ok = 0.84 <= pp <= 0.95 and 0.84 <= cl <= 0.95
    check(3, "coverage (mean estimand)", ok, f"ppboot={pp:.3f} classical={cl:.3f} target=[0.84,0.95]",
          elapsed, 600)


def test_criterion_04_width_gain(study_main):
    summary, _ = study_main
    ratio = _agg(summary, "ppboot").mean_width / _agg(summary, "classical").mean_width
    check(4, "width gain over classical", ratio <= 0.8, f"width ratio={ratio:.3f} target<=0.8")


def test_criterion_05_ppi_agreement(study_main):
    summary, _ = study_main
    w_pp = _agg(summary, "ppboot").mean_width
    w_ppi = _agg(summary, "ppi-mean").mean_width
    ratio = max(w_pp, w_ppi) / min(w_pp, w_ppi)
    check(5, "agreement with CLT-based method", ratio <= 1.15,
          f"ppboot={w_pp:.4f} ppi={w_ppi:.4f} ratio={ratio:.3f} target<=1.15")


def test_criterion_06_tuning_never_hurts(study_noise):
    summary, elapsed = study_noise
    tuned = _agg(summary, "ppboot-tuned").mean_width
    untuned = _agg(summary, "ppboot").mean_width
    classical = _agg(summary, "classical").mean_width
    ok = tuned <= 1.1 * classical and tuned <= untuned
    check(6, "power tuning never hurts", ok,
          f"tuned={tuned:.4f} untuned={untuned:.4f} classical={classical:.4f}",
          elapsed, 600)


def test_criterion_07_imputed_failure(study_biased):
    summary, elapsed = study_biased
    imputed = _agg(summary, "imputed").coverage
    pp = _agg(summary, "ppboot").coverage
    ok = imputed < 0.10 and pp >= 0.84
    check(7, "imputed approach fails under bias", ok,
          f"imputed coverage={imputed:.3f} (<0.10) ppboot coverage={pp:.3f} (>=0.84)",
          elapsed, 600)


def test_criterion_08_crossfit_gain():
    spec = SyntheticSpec("gaussian_linear", 2000, coef=(2.0,), noise_sd=1.0, prediction_model="oracle")
    summary, elapsed = _run_study(
        spec, EstimandSpec("mean"), ("cross-ppboot", "split-ppboot"), 100, (100, 200, 400),
        crossfit_k=10, learner=LearnerSpec("linear_least_squares"), split_fraction=0.5,
    )
    detail = []
    ok = True
    for n in (100, 200, 400):
        cross = _agg(summary, "cross-ppboot", n).mean_width
        split = _agg(summary, "split-ppboot", n).mean_width
        detail.append(f"n={n}: {cross:.4f} vs {split:.4f}")
        ok = ok and cross <= split
    check(8, "cross-fitting beats data splitting", ok, "; ".join(detail), elapsed, 900)


def test_criterion_09_estimator_oracles():
    start = time.time()
    problems = []

    # IRLS vs brute-force likelihood grid on <=8-row instances.
    g = np.random.default_rng(SEED)
    checked = 0
    while checked < 6:
        rows = int(g.integers(5, 9))
        x = g.standard_normal((rows, 1))
        y = (g.random(rows) < 0.5).astype(float)
        est = evaluate(EstimandSpec("logistic_coef", target_index=0, intercept=True), x, y)
        if not est.ok:
            continue
        grid = ref.grid_logistic_slope(x, y)
        if abs(est.value - grid) > 1e-4:
            problems.append(f"logistic mismatch {est.value} vs {grid}")
        checked += 1

    # OLS on noiseless data recovers exact coefficients.
    X = g.standard_normal((40, 3))
    beta = np.array([1.25, -0.5, 3.0])
    y_lin = X @ beta + 2.0
    for j in range(3):
        err = abs(evaluate(EstimandSpec("ols_coef", target_index=j, intercept=True), X, y_lin).value - beta[j])
        if err > 1e-10:
            problems.append(f"ols coef {j} error {err:.2e}")

    # Hand-computed values.
    if evaluate(EstimandSpec("quantile", q=0.5), None, [1.0, 2.0, 3.0, 4.0]).value != 2.0:
        problems.append("quantile hand value")
    exposure = np.array([1.0] * 30 + [0.0] * 30)
    outcome = [1.0] * 20 + [0.0] * 10 + [1.0] * 10 + [0.0] * 20
    if abs(evaluate(EstimandSpec("log_odds_ratio"), exposure[:, None], outcome).value - math.log(4.0)) > 1e-12:
        problems.append("log odds hand value")
    pearson = evaluate(EstimandSpec("pearson_corr", feature_column=0), [[1.0], [2.0], [3.0], [4.0]], [1.0, 3.0, 2.0, 4.0])
    if abs(pearson.value - 0.8) > 1e-12:
        problems.append("pearson hand value")

    check(9, "estimator oracles", not problems, str(problems or "grid/exact/hand values all agree"),
          time.time() - start, 60)


def test_criterion_10_thread_determinism(tmp_path):
    start = time.time()
    raw = {
        "data": {"synthetic": {"dgp": "bernoulli_mean", "total_rows": 1000, "p": 0.3,
                                "prediction_model": "noisy_truth", "rho": 0.9}},
        "estimand": {"kind": "mean"},
        "n_grid": [50, 100],
        "trials": 10,
        "methods": ["ppboot", "classical"],
        "bootstrap": {"B": 300},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw), encoding="utf-8")
    blobs = {}
    for label, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out_dir = tmp_path / label
        code = cli_main(["study", "--config", str(config_path), "--out", str(out_dir),
                         "--seed", "11", "--threads", threads])
        assert code == 0
        blobs[label] = {
            name: (out_dir / name).read_bytes()
            for name in ("coverage.csv", "intervals.csv", "report.json", "manifest.json")
        }
    ok = blobs["a"] == blobs["b"] == blobs["c"]
    check(10, "byte-identical reports across threads", ok, "threads in {1,4} and rerun",
          time.time() - start, 300)


def test_criterion_11_all_estimand_paths():
    start = time.time()
    results = {}
    ok = True
    for name, (spec, estimand) in _estimand_suite().items():
        summary, _ = _run_study(spec, estimand, ("ppboot",), 50, (300,))
        coverage = _agg(summary, "ppboot").coverage
        results[name] = coverage
        ok = ok and coverage >= 0.80
    detail = " ".join(f"{k}={v:.2f}" for k, v in results.items())
    check(11, "all six estimand paths", ok, detail + " (target >= 0.80 at nominal 0.90)",
          time.time() - start, 1200)
