"""Estimator examples, hand-computed oracles, and invariance properties."""

import itertools
import math
import warnings

import numpy as np
import pytest

from ppboot import EstimandSpec, estimators, evaluate
from ppboot.estimators import _sigmoid, canonical_resampler
from _reference import grid_logistic_slope


def estimate(kind, features, outcomes, **params):
    return evaluate(EstimandSpec(kind, **params), features, outcomes)


class TestMean:
    def test_constant(self):
        assert estimate("mean", None, [1.0, 1.0, 1.0]).value == 1.0

    def test_symmetry(self):
        assert estimate("mean", None, [0.0, 1.0, 0.0, 1.0]).value == 0.5

    def test_hand_value(self):
        assert estimate("mean", None, [0.2, 0.4, 0.9]).value == pytest.approx(0.5, abs=1e-15)

    def test_affine_equivariance(self):
        g = np.random.default_rng(0)
        y = g.standard_normal(31)
        shifted = estimate("mean", None, 3.5 * y + 2.0).value
        assert shifted == pytest.approx(3.5 * estimate("mean", None, y).value + 2.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate("mean", None, [])


class TestQuantile:
    def test_constant(self):
        assert estimate("quantile", None, [5.0, 5.0, 5.0], q=0.5).value == 5.0

    def test_four_point_median(self):
        # ceil(0.5 * 4) = 2nd order statistic under the nearest-rank convention;
        # cross-check against explicit order statistics.
        values = [1.0, 2.0, 3.0, 4.0]
        assert estimate("quantile", None, values, q=0.5).value == sorted(values)[1] == 2.0

    def test_maximum(self):
        assert estimate("quantile", None, [3.0, 1.0, 2.0], q=0.99).value == 3.0

    def test_always_element(self):
        g = np.random.default_rng(3)
        for _ in range(40):
            y = g.standard_normal(g.integers(1, 25))
            q = float(g.uniform(0.02, 0.98))
            assert estimate("quantile", None, y, q=q).value in y


class TestOlsCoef:
    def test_exact_linear(self):
        est = estimate("ols_coef", [[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], target_index=0, intercept=False)
        assert est.ok and est.value == pytest.approx(2.0, abs=1e-10)

    def test_exact_affine(self):
        est = estimate("ols_coef", [[1.0], [2.0], [3.0]], [3.0, 5.0, 7.0], target_index=0, intercept=True)
        assert est.ok and est.value == pytest.approx(2.0, abs=1e-10)

    def test_collinear_flagged(self):
        est = estimate("ols_coef", [[1.0], [1.0], [1.0]], [1.0, 2.0, 3.0], target_index=0, intercept=True)
        assert not est.ok and est.reason == "singular design"

    def test_recovers_generating_coefficients(self):
        g = np.random.default_rng(2)
        X = g.standard_normal((30, 3))
        beta = np.array([1.5, -2.0, 0.25])
        y = X @ beta + 4.0
        for j in range(3):
            est = estimate("ols_coef", X, y, target_index=j, intercept=True)
            assert est.value == pytest.approx(beta[j], abs=1e-10)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            estimate("ols_coef", [[1.0, 2.0]], [1.0], target_index=0, intercept=True)

    @pytest.mark.parametrize("exponent", [13, 14, 16, 100, 160])
    def test_large_feature_magnitudes_match_unscaled(self, exponent):
        # Unscaled, the rank cut dropped the intercept column beside features
        # of magnitude 1e14 and above, and the design read "singular design".
        g = np.random.default_rng(15)
        X = g.standard_normal((50, 2))
        y = X @ np.array([1.0, -2.0]) + g.standard_normal(50)
        scale = 10.0 ** exponent
        for j in range(2):
            est = estimate("ols_coef", X * scale, y, target_index=j, intercept=True)
            assert est.ok
            assert est.value * scale == pytest.approx(estimate("ols_coef", X, y, target_index=j).value, rel=1e-12)


class TestLogisticCoef:
    def test_symmetric_zero_slope(self):
        est = estimate("logistic_coef", [[-1.0], [-1.0], [1.0], [1.0]], [0.0, 1.0, 0.0, 1.0], target_index=0)
        assert est.ok and est.value == pytest.approx(0.0, abs=1e-12)

    def test_constant_outcome_flagged(self):
        est = estimate("logistic_coef", [[-1.0], [0.0], [1.0]], [1.0, 1.0, 1.0], target_index=0)
        assert not est.ok and est.reason == "constant outcome"

    def test_matches_grid_maximizer(self):
        x = [[-2.0], [-1.0], [0.0], [1.0], [2.0]]
        y = [0.0, 0.0, 1.0, 0.0, 1.0]
        est = estimate("logistic_coef", x, y, target_index=0, intercept=True)
        assert est.ok
        assert est.value == pytest.approx(grid_logistic_slope(x, y), abs=1e-4)

    def test_grid_agreement_on_random_small_instances(self):
        g = np.random.default_rng(5)
        checked = 0
        while checked < 4:
            n = int(g.integers(5, 9))
            x = g.standard_normal((n, 1))
            y = (g.random(n) < 0.5).astype(float)
            est = estimate("logistic_coef", x, y, target_index=0, intercept=True)
            if not est.ok:
                continue
            assert est.value == pytest.approx(grid_logistic_slope(x, y), abs=1e-4)
            checked += 1

    def test_separation_flagged(self):
        est = estimate("logistic_coef", [[-2.0], [-1.0], [1.0], [2.0]], [0.0, 0.0, 1.0, 1.0], target_index=0)
        assert not est.ok and est.reason == "separation"

    @pytest.mark.parametrize("features, outcomes, intercept", [
        pytest.param([4.0, 10.0, -15.0, -20.0], [1.0, 1.0, 0.0, 0.0], True, id="4-rows"),
        pytest.param([1.1, -1.8, 3.0, -1.9, 0.8], [0.0, 1.0, 0.0, 1.0, 0.0], True, id="5-rows"),
        pytest.param([-20.0, -10.0, 10.0, 20.0, 5.0, -5.0], [0.0, 0.0, 1.0, 1.0, 1.0, 0.0], False,
                     id="6-rows-through-the-origin"),
    ])
    def test_separation_flagged_in_every_row_order(self, features, outcomes, intercept):
        # Each once gave a clean coefficient (5.85, -42.0 and 19.73).
        X, y = np.array(features)[:, None], np.array(outcomes)
        for order in itertools.permutations(range(y.size)):
            order = list(order)
            est = estimate("logistic_coef", X[order], y[order], target_index=0, intercept=intercept)
            assert est.reason == "separation"

    @pytest.mark.parametrize("exponent", range(-6, 7))
    def test_verdict_does_not_depend_on_the_feature_scale(self, exponent):
        # Both outcomes on every distinct row, so the maximum-likelihood
        # estimate exists at every scale.  A bound of 50 on |beta| once read
        # "separation" here from s = 1e-3 down (slope 293).
        X = np.array([-2.0, -2.0, -2.0, -1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 2.0])[:, None]
        y = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        s = 10.0 ** exponent
        est = estimate("logistic_coef", X * s, y, target_index=0)
        assert est.ok
        assert est.value * s == pytest.approx(estimate("logistic_coef", X, y, target_index=0).value, rel=1e-9)

    def test_diverging_newton_steps_end_in_separation_without_a_warning(self, monkeypatch):
        # The engine's Newton steps from this side's own fit take one resample
        # to a non-finite step.  The member stops before its margins are
        # formed, which would be inf - inf; the fit from zero then finds the
        # separation.  RuntimeWarnings are errors here.
        X = np.array([
            [0.10447909337723406, -0.039474234915218696], [0.043475688607875464, -0.09353707404902639],
            [0.37601748565939386, 0.057342591784606815], [0.07577795333776566, 0.03314525118898239],
            [-0.11035300905762165, -0.15667185527578092], [-0.23328310549195186, -0.05217081459119992],
            [0.2801519597178312, 0.14067234519112937], [-0.3689274882138992, 0.16539936606417055],
            [0.53876320625, -0.051095244914610295], [0.10295174992390495, 0.08336117843804407],
            [0.16810728163021763, -0.10837281269665146], [-0.059409410462199115, 0.033492293897095966],
        ])
        y = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        resampler = canonical_resampler(EstimandSpec("logistic_coef", intercept=False), X, y)
        steps = []
        newton_step = estimators._newton_step

        def recorded(*args):
            step, separated = newton_step(*args)
            steps.append(step)
            return step, separated

        monkeypatch.setattr(estimators, "_newton_step", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = resampler(np.array([0, 0, 2, 5, 6, 7, 7, 8, 9, 11, 11, 11]))
        assert est.reason == "separation"
        assert not all(np.isfinite(step).all() for step in steps)

    def test_collinear_design_flagged(self):
        est = estimate("logistic_coef", [[1.0], [1.0], [1.0], [1.0]], [0.0, 1.0, 0.0, 1.0],
                       target_index=0, intercept=True)
        assert not est.ok and est.reason == "singular design"

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            estimate("logistic_coef", [[1.0], [2.0], [3.0]], [0.0, 0.5, 1.0], target_index=0)


class TestLogOddsRatio:
    def test_hand_value(self):
        exposure = np.array([1.0] * 30 + [0.0] * 30)
        outcome = [1.0] * 20 + [0.0] * 10 + [1.0] * 10 + [0.0] * 20
        est = estimate("log_odds_ratio", exposure[:, None], outcome)
        assert est.ok and est.value == pytest.approx(math.log(4.0), abs=1e-12)

    def test_no_association(self):
        exposure = np.array([1.0] * 10 + [0.0] * 10)
        outcome = [1.0] * 5 + [0.0] * 5 + [1.0] * 5 + [0.0] * 5
        assert estimate("log_odds_ratio", exposure[:, None], outcome).value == pytest.approx(0.0, abs=1e-15)

    def test_identical_vectors_leave_an_empty_cell(self):
        v = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
        est = estimate("log_odds_ratio", v[:, None], v)
        # counts (3, 0, 0, 2): no log odds ratio, and no corrected one
        assert est.reason == "empty cell"
        assert math.isnan(est.value)

    def test_antisymmetric_under_outcome_flip(self):
        g = np.random.default_rng(8)
        for _ in range(20):
            e = (g.random(40) < 0.5).astype(float)
            y = (g.random(40) < 0.5).astype(float)
            a = estimate("log_odds_ratio", e[:, None], y)
            b = estimate("log_odds_ratio", e[:, None], 1.0 - y)
            if a.ok and b.ok:
                assert a.value == pytest.approx(-b.value, abs=1e-12)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            estimate("log_odds_ratio", [[0.0], [1.0], [2.0], [1.0]], [0.0, 1.0, 0.0, 1.0])


class TestPearsonCorr:
    def test_perfect_linear(self):
        est = estimate("pearson_corr", [[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0], feature_column=0)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anti_linear(self):
        est = estimate("pearson_corr", [[1.0], [2.0], [3.0]], [3.0, 2.0, 1.0], feature_column=0)
        assert est.value == pytest.approx(-1.0, abs=1e-12)

    def test_hand_value(self):
        est = estimate("pearson_corr", [[1.0], [2.0], [3.0], [4.0]], [1.0, 3.0, 2.0, 4.0], feature_column=0)
        assert est.value == pytest.approx(0.8, abs=1e-12)

    def test_constant_flagged(self):
        est = estimate("pearson_corr", [[1.0], [1.0], [1.0]], [1.0, 2.0, 3.0], feature_column=0)
        assert not est.ok and est.reason == "constant variable"

    @pytest.mark.parametrize("features, outcomes", [
        # 0.1 + 0.1 + 0.1 != 0.3, so centring leaves a nonzero sum of squares.
        pytest.param([[0.1], [0.1], [0.1]], [1.0, 2.0, 4.0], id="constant-x-inexact-mean"),
        pytest.param([[1.0], [2.0], [4.0]], [0.1, 0.1, 0.1], id="constant-y-inexact-mean"),
    ])
    def test_constant_with_inexact_mean_flagged(self, features, outcomes):
        est = estimate("pearson_corr", features, outcomes, feature_column=0)
        assert not est.ok and est.reason == "constant variable"
        assert math.isnan(est.value)

    @pytest.mark.parametrize("scale", [1e100, 1e160])
    def test_large_magnitudes_match_unscaled(self, scale):
        # The centred squares' product overflows at 1e100 and the squares
        # themselves at 1e160.
        g = np.random.default_rng(14)
        x = g.standard_normal((50, 1))
        y = 0.5 * x[:, 0] + g.standard_normal(50)
        est = estimate("pearson_corr", x * scale, y * scale, feature_column=0)
        assert est.ok
        assert est.value == pytest.approx(estimate("pearson_corr", x, y, feature_column=0).value, abs=1e-12)

    def test_range(self):
        g = np.random.default_rng(13)
        for _ in range(50):
            x = g.standard_normal((10, 1))
            y = g.standard_normal(10)
            assert abs(estimate("pearson_corr", x, y, feature_column=0).value) <= 1.0 + 1e-12


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
            ("mean", None, y_cont, {}),
            ("quantile", None, y_cont, {"q": 0.3}),
            ("ols_coef", X, y_cont, {"target_index": 0}),
            ("logistic_coef", X, y_bin, {"target_index": 0}),
            ("log_odds_ratio", e_bin[:, None], y_bin, {}),
            ("pearson_corr", X, y_cont, {"feature_column": 1}),
        ]
        for kind, features, outcomes, params in cases:
            permuted_features = None if features is None else features[perm]
            original = estimate(kind, features, outcomes, **params).value
            permuted = estimate(kind, permuted_features, outcomes[perm], **params).value
            assert original == permuted


class TestEvaluateDispatch:
    def test_each_kind_routes(self):
        g = np.random.default_rng(4)
        X = g.standard_normal((30, 2))
        y = X[:, 0] + 0.1 * g.standard_normal(30)
        y_bin = (g.random(30) < 0.5).astype(float)
        e_bin = (g.random(30) < 0.5).astype(float)
        Xbin = np.column_stack([e_bin, X[:, 1]])
        # Each kind reads only the columns its spec names: none for the mean
        # and quantile, and the named one, wherever it sits, for the others.
        assert evaluate(EstimandSpec("mean"), X, y).value == estimate("mean", None, y).value
        assert evaluate(EstimandSpec("quantile", q=0.25), X, y).value == estimate("quantile", None, y, q=0.25).value
        assert evaluate(EstimandSpec("ols_coef", target_index=1), X, y).value == pytest.approx(
            estimate("ols_coef", X[:, ::-1], y, target_index=0).value, abs=1e-12)
        assert evaluate(EstimandSpec("logistic_coef", target_index=0), X, y_bin).value == pytest.approx(
            estimate("logistic_coef", X[:, ::-1], y_bin, target_index=1).value, abs=1e-12)
        assert (
            evaluate(EstimandSpec("log_odds_ratio", exposure_column=0), Xbin, y_bin).value
            == estimate("log_odds_ratio", e_bin[:, None], y_bin).value
        )
        assert (
            evaluate(EstimandSpec("pearson_corr", feature_column=0), X, y).value
            == estimate("pearson_corr", X[:, [0]], y, feature_column=0).value
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
