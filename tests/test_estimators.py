"""Estimator examples, hand-computed oracles, and invariance properties."""

import math

import numpy as np
import pytest

from ppboot import (
    EstimandSpec,
    est_log_odds_ratio,
    est_logistic_coef,
    est_mean,
    est_ols_coef,
    est_pearson_corr,
    est_quantile,
    evaluate,
)
from ppboot.estimators import _sigmoid, canonical_resampler
from _reference import grid_logistic_slope


class TestMean:
    def test_constant(self):
        assert est_mean([1.0, 1.0, 1.0]).value == 1.0

    def test_symmetry(self):
        assert est_mean([0.0, 1.0, 0.0, 1.0]).value == 0.5

    def test_hand_value(self):
        assert est_mean([0.2, 0.4, 0.9]).value == pytest.approx(0.5, abs=1e-15)

    def test_affine_equivariance(self):
        g = np.random.default_rng(0)
        y = g.standard_normal(31)
        assert est_mean(3.5 * y + 2.0).value == pytest.approx(3.5 * est_mean(y).value + 2.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            est_mean([])


class TestQuantile:
    def test_constant(self):
        assert est_quantile([5.0, 5.0, 5.0], 0.5).value == 5.0

    def test_four_point_median(self):
        # ceil(0.5 * 4) = 2nd order statistic under the nearest-rank convention;
        # cross-check against explicit order statistics.
        values = [1.0, 2.0, 3.0, 4.0]
        assert est_quantile(values, 0.5).value == sorted(values)[1] == 2.0

    def test_maximum(self):
        assert est_quantile([3.0, 1.0, 2.0], 0.99).value == 3.0

    def test_always_element(self):
        g = np.random.default_rng(3)
        for _ in range(40):
            y = g.standard_normal(g.integers(1, 25))
            q = float(g.uniform(0.02, 0.98))
            assert est_quantile(y, q).value in y


class TestOlsCoef:
    def test_exact_linear(self):
        est = est_ols_coef([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], 0, intercept=False)
        assert est.ok and est.value == pytest.approx(2.0, abs=1e-10)

    def test_exact_affine(self):
        est = est_ols_coef([[1.0], [2.0], [3.0]], [3.0, 5.0, 7.0], 0, intercept=True)
        assert est.ok and est.value == pytest.approx(2.0, abs=1e-10)

    def test_collinear_flagged(self):
        est = est_ols_coef([[1.0], [1.0], [1.0]], [1.0, 2.0, 3.0], 0, intercept=True)
        assert not est.ok and est.reason == "singular design"

    def test_recovers_generating_coefficients(self):
        g = np.random.default_rng(2)
        X = g.standard_normal((30, 3))
        beta = np.array([1.5, -2.0, 0.25])
        y = X @ beta + 4.0
        for j in range(3):
            est = est_ols_coef(X, y, j, intercept=True)
            assert est.value == pytest.approx(beta[j], abs=1e-10)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            est_ols_coef([[1.0, 2.0]], [1.0], 0, intercept=True)


class TestLogisticCoef:
    def test_symmetric_zero_slope(self):
        est = est_logistic_coef([[-1.0], [-1.0], [1.0], [1.0]], [0.0, 1.0, 0.0, 1.0], 0)
        assert est.ok and est.value == pytest.approx(0.0, abs=1e-12)

    def test_constant_outcome_flagged(self):
        est = est_logistic_coef([[-1.0], [0.0], [1.0]], [1.0, 1.0, 1.0], 0)
        assert not est.ok and est.reason == "constant outcome"

    def test_matches_grid_maximizer(self):
        x = [[-2.0], [-1.0], [0.0], [1.0], [2.0]]
        y = [0.0, 0.0, 1.0, 0.0, 1.0]
        est = est_logistic_coef(x, y, 0, intercept=True)
        assert est.ok
        assert est.value == pytest.approx(grid_logistic_slope(x, y), abs=1e-4)

    def test_grid_agreement_on_random_small_instances(self):
        g = np.random.default_rng(5)
        checked = 0
        while checked < 4:
            n = int(g.integers(5, 9))
            x = g.standard_normal((n, 1))
            y = (g.random(n) < 0.5).astype(float)
            est = est_logistic_coef(x, y, 0, intercept=True)
            if not est.ok:
                continue
            assert est.value == pytest.approx(grid_logistic_slope(x, y), abs=1e-4)
            checked += 1

    def test_separation_flagged(self):
        est = est_logistic_coef([[-2.0], [-1.0], [1.0], [2.0]], [0.0, 0.0, 1.0, 1.0], 0)
        assert not est.ok and est.reason == "separation"

    def test_collinear_design_flagged(self):
        est = est_logistic_coef([[1.0], [1.0], [1.0], [1.0]], [0.0, 1.0, 0.0, 1.0], 0, intercept=True)
        assert not est.ok and est.reason == "singular design"

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            est_logistic_coef([[1.0], [2.0], [3.0]], [0.0, 0.5, 1.0], 0)


class TestLogOddsRatio:
    def test_hand_value(self):
        exposure = [1.0] * 30 + [0.0] * 30
        outcome = [1.0] * 20 + [0.0] * 10 + [1.0] * 10 + [0.0] * 20
        est = est_log_odds_ratio(exposure, outcome)
        assert est.ok and est.value == pytest.approx(math.log(4.0), abs=1e-12)

    def test_no_association(self):
        exposure = [1.0] * 10 + [0.0] * 10
        outcome = [1.0] * 5 + [0.0] * 5 + [1.0] * 5 + [0.0] * 5
        assert est_log_odds_ratio(exposure, outcome).value == pytest.approx(0.0, abs=1e-15)

    def test_identical_vectors_corrected(self):
        v = [1.0, 1.0, 0.0, 0.0, 1.0]
        est = est_log_odds_ratio(v, v)
        assert est.reason == "zero cell corrected"
        assert math.isfinite(est.value)
        # counts become (3.5, .5, .5, 2.5) after correction
        assert est.value == pytest.approx(math.log(3.5 * 2.5 / 0.25), abs=1e-12)

    def test_antisymmetric_under_outcome_flip(self):
        g = np.random.default_rng(8)
        for _ in range(20):
            e = (g.random(40) < 0.5).astype(float)
            y = (g.random(40) < 0.5).astype(float)
            a = est_log_odds_ratio(e, y)
            b = est_log_odds_ratio(e, 1.0 - y)
            if a.ok and b.ok:
                assert a.value == pytest.approx(-b.value, abs=1e-12)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            est_log_odds_ratio([0.0, 1.0, 2.0, 1.0], [0.0, 1.0, 0.0, 1.0])


class TestPearsonCorr:
    def test_perfect_linear(self):
        est = est_pearson_corr([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], 0)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anti_linear(self):
        est = est_pearson_corr([[1.0], [2.0], [3.0]], [3.0, 2.0, 1.0], 0)
        assert est.value == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        est = est_pearson_corr([[1.0], [2.0], [3.0], [4.0]], [1.0, 3.0, 2.0, 4.0], 0)
        assert est.value == pytest.approx(0.8, abs=1e-12)

    def test_constant_flagged(self):
        est = est_pearson_corr([[1.0], [1.0], [1.0]], [1.0, 2.0, 3.0], 0)
        assert not est.ok and est.reason == "constant variable"

    @pytest.mark.parametrize("features, outcomes", [
        # 0.1 + 0.1 + 0.1 != 0.3, so centring leaves a nonzero sum of squares.
        pytest.param([[0.1], [0.1], [0.1]], [1.0, 2.0, 4.0], id="constant-x-inexact-mean"),
        pytest.param([[1.0], [2.0], [4.0]], [0.1, 0.1, 0.1], id="constant-y-inexact-mean"),
    ])
    def test_constant_with_inexact_mean_flagged(self, features, outcomes):
        est = est_pearson_corr(features, outcomes, 0)
        assert not est.ok and est.reason == "constant variable"
        assert math.isnan(est.value)

    def test_range(self):
        g = np.random.default_rng(13)
        for _ in range(50):
            x = g.standard_normal((10, 1))
            y = g.standard_normal(10)
            assert abs(est_pearson_corr(x, y, 0).value) <= 1.0 + 1e-12


class TestPermutationInvariance:
    def test_all_estimators(self):
        g = np.random.default_rng(21)
        X = g.standard_normal((24, 2))
        y_cont = X[:, 0] + g.standard_normal(24)
        y_bin = (g.random(24) < 0.5).astype(float)
        e_bin = (g.random(24) < 0.5).astype(float)
        Xb = np.column_stack([e_bin, X[:, 1]])
        perm = g.permutation(24)
        cases = [
            (est_mean(y_cont).value, est_mean(y_cont[perm]).value),
            (est_quantile(y_cont, 0.3).value, est_quantile(y_cont[perm], 0.3).value),
            (est_ols_coef(X, y_cont, 0).value, est_ols_coef(X[perm], y_cont[perm], 0).value),
            (est_logistic_coef(X, y_bin, 0).value, est_logistic_coef(X[perm], y_bin[perm], 0).value),
            (est_log_odds_ratio(e_bin, y_bin).value, est_log_odds_ratio(e_bin[perm], y_bin[perm]).value),
            (est_pearson_corr(X, y_cont, 1).value, est_pearson_corr(X[perm], y_cont[perm], 1).value),
        ]
        for original, permuted in cases:
            assert original == permuted


class TestEvaluateDispatch:
    def test_each_kind_routes(self):
        g = np.random.default_rng(4)
        X = g.standard_normal((30, 2))
        y = X[:, 0] + 0.1 * g.standard_normal(30)
        y_bin = (g.random(30) < 0.5).astype(float)
        e_bin = (g.random(30) < 0.5).astype(float)
        Xbin = np.column_stack([e_bin, X[:, 1]])
        assert evaluate(EstimandSpec("mean"), X, y).value == est_mean(y).value
        assert evaluate(EstimandSpec("quantile", q=0.25), X, y).value == est_quantile(y, 0.25).value
        assert evaluate(EstimandSpec("ols_coef", target_index=1), X, y).value == est_ols_coef(X, y, 1).value
        assert (
            evaluate(EstimandSpec("logistic_coef", target_index=0), X, y_bin).value
            == est_logistic_coef(X, y_bin, 0).value
        )
        assert (
            evaluate(EstimandSpec("log_odds_ratio", exposure_column=0), Xbin, y_bin).value
            == est_log_odds_ratio(e_bin, y_bin).value
        )
        assert (
            evaluate(EstimandSpec("pearson_corr", feature_column=0), X, y).value
            == est_pearson_corr(X, y, 0).value
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EstimandSpec("unknown")
        with pytest.raises(ValueError):
            EstimandSpec("quantile", q=1.0)
        with pytest.raises(ValueError):
            EstimandSpec("mean", target_index=-1)
        with pytest.raises(ValueError):
            EstimandSpec("mean", transform="log")

    def test_out_of_range_column_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError):
            evaluate(EstimandSpec("ols_coef", target_index=2), X, np.arange(5.0))


def masked_sigmoid(eta: np.ndarray) -> np.ndarray:
    """The logistic function by boolean masks: each sign gets the form that cannot overflow."""
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestSigmoid:
    def test_bit_identical_to_the_masked_formula(self):
        special = np.array([0.0, 1e-300, 1.0, 36.0, 709.0, 745.0, 1e308])
        grid = np.random.default_rng(13).normal(0.0, 20.0, 100_000)
        eta = np.concatenate([special, np.negative(special), grid])
        assert _sigmoid(eta).tobytes() == masked_sigmoid(eta).tobytes()


class TestSingularDesign:
    """A rank-deficient design stays flagged once rows are merged and weighted."""

    @pytest.mark.parametrize("kind", ["ols_coef", "logistic_coef"])
    @pytest.mark.parametrize("column", ["duplicate", "ones", "zeros"])
    def test_flagged_by_evaluate_and_resampler(self, kind, column):
        g = np.random.default_rng(17)
        m = 40
        x = g.standard_normal(m)
        extra = {"duplicate": x.copy(), "ones": np.ones(m), "zeros": np.zeros(m)}[column]
        X = np.column_stack([x, extra])
        y = np.tile([0.0, 1.0], m // 2)
        spec = EstimandSpec(kind, target_index=0, intercept=True)
        assert evaluate(spec, X, y).reason == "singular design"
        estimate = canonical_resampler(spec, X, y)
        for _ in range(5):
            idx = g.integers(0, m, m)
            assert estimate(idx).reason == "singular design"
