"""Core bootstrap behavior: combination identities, tuning, and determinism."""

import dataclasses
import math

import numpy as np
import pytest

import _reference as ref
from ppboot import (
    BootstrapConfig,
    EstimandSpec,
    EstimationError,
    LabeledDataset,
    RngStream,
    UnlabeledDataset,
    classical_bootstrap_interval,
    interval_resamplers,
    ppboot_draws,
    ppboot_interval,
    ppboot_point_estimate,
    tune_lambda,
)
from ppboot import boot, estimators
from ppboot.boot import resample_estimates
from ppboot.resampling import PHASE_TUNING
from conftest import make_pair

MEAN = EstimandSpec("mean")


class TestPointEstimate:
    def test_perfect_predictions_cancel(self):
        g = np.random.default_rng(0)
        y = g.standard_normal(6)
        labeled = LabeledDataset(g.standard_normal((6, 1)), y, y)
        unlabeled = UnlabeledDataset(g.standard_normal((9, 1)), g.standard_normal(9))
        expected = float(np.mean(np.sort(unlabeled.predictions)))
        assert ppboot_point_estimate(interval_resamplers(labeled, unlabeled, MEAN), 1.0) == expected

    def test_lambda_zero_is_classical_estimate(self):
        labeled, unlabeled = make_pair(seed=3)
        sides = interval_resamplers(labeled, unlabeled, MEAN, 0.0)
        assert ppboot_point_estimate(sides, 0.0) == float(np.mean(np.sort(labeled.outcomes)))

    def test_hand_arithmetic(self):
        labeled = LabeledDataset([[0.0], [0.0]], [0.0, 1.0], [1.0, 1.0])
        unlabeled = UnlabeledDataset([[0.0]] * 4, [1.0, 1.0, 1.0, 1.0])
        sides = interval_resamplers(labeled, unlabeled, MEAN)
        assert ppboot_point_estimate(sides, 1.0) == pytest.approx(0.5, abs=1e-15)


class TestLambdaZeroIdentity:
    def test_bit_for_bit_classical(self, stream):
        labeled, unlabeled = make_pair(n=15, N=40, seed=1)
        cfg = BootstrapConfig(B=200, alpha=0.1, lambda_mode="fixed", lambda_value=0.0)
        pp = ppboot_interval(labeled, unlabeled, MEAN, cfg, stream)
        cl = classical_bootstrap_interval(labeled, MEAN, cfg, stream)
        assert pp.lower == cl.lower and pp.upper == cl.upper
        assert pp.point_estimate == cl.point_estimate
        assert pp.degenerate_iterations == cl.degenerate_iterations


class TestPerfectPredictionCollapse:
    def test_multiset_equality(self, stream):
        g = np.random.default_rng(2)
        y = g.standard_normal(12)
        labeled = LabeledDataset(g.standard_normal((12, 1)), y, y)
        unlabeled = UnlabeledDataset(g.standard_normal((30, 1)), g.standard_normal(30))
        B = 150
        [(values, _)] = ppboot_draws(interval_resamplers(labeled, unlabeled, MEAN), [1.0], B, stream)
        expected = []
        for b in range(B):
            unlabeled_idx = ref.unlabeled_indices(30, stream.master_seed, stream.child(2, b, 0).path)
            expected.append(float(np.mean(np.sort(unlabeled.predictions[unlabeled_idx]))))
        assert sorted(values.tolist()) == sorted(expected)


class TestReferenceOracle:
    def test_small_mean_interval_matches(self):
        g = np.random.default_rng(7)
        labeled = LabeledDataset(g.standard_normal((4, 1)), g.standard_normal(4), g.standard_normal(4))
        unlabeled = UnlabeledDataset(g.standard_normal((8, 1)), g.standard_normal(8))
        cfg = BootstrapConfig(B=300, alpha=0.1)
        base = RngStream(42, (5,))
        ci = ppboot_interval(labeled, unlabeled, MEAN, cfg, base)
        lo, hi, _ = ref.ppboot_interval(
            labeled.features, labeled.outcomes, labeled.predictions,
            unlabeled.features, unlabeled.predictions,
            "mean", 1.0, 300, 0.1, 42, (5,),
        )
        assert ci.lower == pytest.approx(lo, abs=1e-12)
        assert ci.upper == pytest.approx(hi, abs=1e-12)

    def test_median_interval_matches(self):
        g = np.random.default_rng(11)
        labeled = LabeledDataset(g.standard_normal((6, 1)), g.standard_normal(6), g.standard_normal(6))
        unlabeled = UnlabeledDataset(g.standard_normal((10, 1)), g.standard_normal(10))
        cfg = BootstrapConfig(B=250, alpha=0.2)
        ci = ppboot_interval(labeled, unlabeled, EstimandSpec("quantile", q=0.5), cfg, RngStream(13))
        lo, hi, _ = ref.ppboot_interval(
            labeled.features, labeled.outcomes, labeled.predictions,
            unlabeled.features, unlabeled.predictions,
            "quantile", 1.0, 250, 0.2, 13, (), q=0.5,
        )
        assert ci.lower == pytest.approx(lo, abs=1e-12)
        assert ci.upper == pytest.approx(hi, abs=1e-12)


class TestIntervalProperties:
    def test_determinism(self, stream):
        labeled, unlabeled = make_pair(seed=4)
        cfg = BootstrapConfig(B=120)
        a = ppboot_interval(labeled, unlabeled, MEAN, cfg, stream)
        b = ppboot_interval(labeled, unlabeled, MEAN, cfg, stream)
        assert a == b

    def test_nesting_in_alpha(self, stream):
        labeled, unlabeled = make_pair(seed=5)
        wide = ppboot_interval(labeled, unlabeled, MEAN, BootstrapConfig(B=200, alpha=0.1), stream)
        narrow = ppboot_interval(labeled, unlabeled, MEAN, BootstrapConfig(B=200, alpha=0.2), stream)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper

    def test_endpoints_are_draw_values(self, stream):
        labeled, unlabeled = make_pair(seed=6)
        cfg = BootstrapConfig(B=173)
        [(values, _)] = ppboot_draws(interval_resamplers(labeled, unlabeled, MEAN), [1.0], cfg.B, stream)
        ci = ppboot_interval(labeled, unlabeled, MEAN, cfg, stream)
        assert ci.lower in values and ci.upper in values
        assert ci.lower <= ci.upper

    def test_shift_equivariance(self, stream):
        labeled, unlabeled = make_pair(seed=8)
        cfg = BootstrapConfig(B=150, lambda_mode="fixed", lambda_value=0.7)
        base = ppboot_interval(labeled, unlabeled, MEAN, cfg, stream)
        c = 3.25
        shifted_lab = LabeledDataset(labeled.features, labeled.outcomes + c, labeled.predictions + c)
        shifted_unl = UnlabeledDataset(unlabeled.features, unlabeled.predictions + c)
        shifted = ppboot_interval(shifted_lab, shifted_unl, MEAN, cfg, stream)
        assert shifted.lower == pytest.approx(base.lower + c, abs=1e-10)
        assert shifted.upper == pytest.approx(base.upper + c, abs=1e-10)
        assert shifted.point_estimate == pytest.approx(base.point_estimate + c, abs=1e-10)

    def test_shift_leaves_tuned_lambda_unchanged(self, stream):
        labeled, unlabeled = make_pair(n=40, N=80, seed=9)
        lam = tune_lambda(interval_resamplers(labeled, unlabeled, MEAN), 200, stream.child(PHASE_TUNING))
        c = -1.75
        shifted_lab = LabeledDataset(labeled.features, labeled.outcomes + c, labeled.predictions + c)
        shifted_unl = UnlabeledDataset(unlabeled.features, unlabeled.predictions + c)
        shifted_sides = interval_resamplers(shifted_lab, shifted_unl, MEAN)
        lam_shift = tune_lambda(shifted_sides, 200, stream.child(PHASE_TUNING))
        assert lam_shift == pytest.approx(lam, abs=1e-10)

    def test_draw_mean_tracks_truth(self):
        # Unbiased predictions: the average bootstrap value sits near the
        # population mean (0 for this generator) within 4 standard errors.
        g = np.random.default_rng(10)
        n, N = 300, 1500
        Xl = g.standard_normal((n, 1))
        y = g.standard_normal(n)
        labeled = LabeledDataset(Xl, y, y + 0.3 * g.standard_normal(n))
        yu = g.standard_normal(N)
        unlabeled = UnlabeledDataset(g.standard_normal((N, 1)), yu + 0.3 * g.standard_normal(N))
        [(values, _)] = ppboot_draws(interval_resamplers(labeled, unlabeled, MEAN), [1.0], 400, RngStream(3))
        se = np.sqrt(0.09 / n + (1.0 + 0.09) / N + 1.0 / n)
        assert abs(float(np.mean(values))) < 4 * se


class TestDegenerateHandling:
    def test_dropped_iterations_counted_and_interval_fails(self, stream):
        # Constant exposure makes the odds ratio degenerate on every resample.
        labeled = LabeledDataset([[1.0]] * 6, [0.0, 1.0, 0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        unlabeled = UnlabeledDataset([[1.0]] * 8, [0.0, 1.0] * 4)
        spec = EstimandSpec("log_odds_ratio", exposure_column=0)
        with pytest.raises(EstimationError, match="bootstrap failure"):
            ppboot_interval(labeled, unlabeled, spec, BootstrapConfig(B=20), stream)

    def test_retry_salvages_occasional_degeneracy(self, stream):
        # Tiny binary dataset: some resamples are single-class, retries recover.
        g = np.random.default_rng(12)
        e = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        labeled = LabeledDataset(e[:, None], y, y)
        unlabeled = UnlabeledDataset((g.random(12) < 0.5).astype(float)[:, None], (g.random(12) < 0.5).astype(float))
        spec = EstimandSpec("log_odds_ratio", exposure_column=0)
        sides = interval_resamplers(labeled, unlabeled, spec)
        [(values, dropped)] = ppboot_draws(sides, [1.0], 60, stream, max_degenerate_retries=10)
        assert values.size + dropped == 60
        assert values.size > 0

    def test_non_finite_estimate_is_never_kept(self, stream):
        class NonFinite:
            size = rows = 5

            def estimates(self, draws, count):
                return np.where(np.arange(count) % 2, math.inf, math.nan), np.zeros(count, dtype=np.int8)

        rows, dropped, classical = resample_estimates((NonFinite(),), 6, stream, 2)
        assert rows.shape == (0, 1) and dropped == 6 and classical.shape == (0,)

    def test_pearson_interval_at_1e160_is_finite(self, stream):
        # At 1e160 the squares overflow: without the power-of-two scaling the
        # bounds came out NaN with no degenerate iteration.
        labeled, unlabeled = make_pair(n=40, N=200, seed=5)
        big_labeled = LabeledDataset(labeled.features * 1e160, labeled.outcomes * 1e160, labeled.predictions * 1e160)
        big_unlabeled = UnlabeledDataset(unlabeled.features * 1e160, unlabeled.predictions * 1e160)
        spec = EstimandSpec("pearson_corr")
        cfg = BootstrapConfig(B=100)
        big = ppboot_interval(big_labeled, big_unlabeled, spec, cfg, stream)
        base = ppboot_interval(labeled, unlabeled, spec, cfg, stream)
        assert big.degenerate_iterations == base.degenerate_iterations == 0
        for field in ("lower", "upper", "point_estimate"):
            assert math.isfinite(getattr(big, field))
            assert getattr(big, field) == pytest.approx(getattr(base, field), abs=1e-12)

    def test_degenerate_point_estimate_raises(self):
        labeled = LabeledDataset([[1.0], [1.0], [1.0]], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        unlabeled = UnlabeledDataset([[1.0]] * 4, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(EstimationError, match="degenerate"):
            ppboot_point_estimate(interval_resamplers(labeled, unlabeled, EstimandSpec("ols_coef")), 1.0)

    def test_feature_width_mismatch_rejected(self, stream):
        labeled, _ = make_pair(d=2)
        _, unlabeled = make_pair(d=1)
        with pytest.raises(ValueError, match="width"):
            ppboot_interval(labeled, unlabeled, MEAN, BootstrapConfig(B=10), stream)

    def test_feature_width_mismatch_rejected_at_lambda_zero(self, stream):
        labeled, _ = make_pair(d=2)
        _, unlabeled = make_pair(d=1)
        cfg = BootstrapConfig(B=10, lambda_mode="fixed", lambda_value=0.0)
        with pytest.raises(ValueError, match="^feature width mismatch: labeled d=2, unlabeled d=1$"):
            ppboot_interval(labeled, unlabeled, MEAN, cfg, stream)

    @pytest.mark.parametrize("mode", ["off", "tuned"])
    def test_missing_unlabeled_needs_zero_multiplier(self, stream, mode):
        labeled, _ = make_pair()
        with pytest.raises(ValueError, match="unlabeled data is required"):
            ppboot_interval(labeled, None, MEAN, BootstrapConfig(B=10, lambda_mode=mode), stream)


class TestArgumentChecks:
    @pytest.mark.parametrize("spec, labeled_preds, unlabeled_preds, message", [
        pytest.param(EstimandSpec("logistic_coef"), [0.0, 0.5, 1.0, 1.0], [0.0, 1.0, 1.0],
                     "labeled predictions must contain only 0/1 values", id="non-binary-predictions"),
        pytest.param(EstimandSpec("logistic_coef"), [0.0, 0.0, 1.0, 1.0], [0.0, 0.5, 1.0],
                     "unlabeled predictions must contain only 0/1 values", id="non-binary-unlabeled-predictions"),
        pytest.param(EstimandSpec("ols_coef", target_index=1), [0.0, 0.5, 1.0, 1.0], [0.0, 1.0, 1.0],
                     r"target_index 1 outside \[0, 1\)", id="target-index"),
    ])
    def test_loop_raises_before_the_first_draw(self, monkeypatch, spec, labeled_preds, unlabeled_preds, message):
        labeled = LabeledDataset([[0.0], [1.0], [2.0], [3.0]], [0.0, 1.0, 0.0, 1.0], labeled_preds)
        unlabeled = UnlabeledDataset([[0.0], [1.0], [2.0]], unlabeled_preds)
        drawn = []
        keys, draw, generator = boot.philox_keys, boot.draw_keyed_indices, RngStream.generator
        monkeypatch.setattr(boot, "philox_keys", lambda *args: drawn.append("keys") or keys(*args))
        monkeypatch.setattr(boot, "draw_keyed_indices", lambda *args: drawn.append("draw") or draw(*args))
        monkeypatch.setattr(RngStream, "generator", lambda self: drawn.append("generator") or generator(self))
        with pytest.raises(ValueError, match=f"^{message}$"):
            ppboot_interval(labeled, unlabeled, spec, BootstrapConfig(B=10, max_degenerate_retries=2), RngStream(0))
        assert drawn == []

    @pytest.mark.parametrize("labeled_features, unlabeled_features, side", [
        pytest.param([[0.0], [1.0], [0.5], [1.0]], [[0.0], [1.0], [1.0]], "labeled features", id="labeled"),
        pytest.param([[0.0], [1.0], [0.0], [1.0]], [[0.0], [0.5], [1.0]], "unlabeled features", id="unlabeled"),
    ])
    def test_exposure_check_names_its_features(self, labeled_features, unlabeled_features, side):
        labeled = LabeledDataset(labeled_features, [0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 1.0])
        unlabeled = UnlabeledDataset(unlabeled_features, [0.0, 1.0, 1.0])
        with pytest.raises(ValueError, match=f"^exposure in the {side} must contain only 0/1 values$"):
            ppboot_interval(labeled, unlabeled, EstimandSpec("log_odds_ratio"), BootstrapConfig(B=10), RngStream(0))


class TestOneMergePerSide:
    """An interval checks and merges each side once, checks retention once, and
    reaches tuning and the point estimate through their public names."""

    @pytest.mark.parametrize("mode", ["fixed", "tuned"])
    @pytest.mark.parametrize("kind", ["mean", "ols_coef"])
    def test_each_side_merged_once(self, monkeypatch, stream, mode, kind):
        labeled, unlabeled = make_pair(n=30, N=60, seed=40, d=2)
        merged, retained, tuned, points = [], [], [], []
        merge, check = estimators.canonical_resampler, boot.require_retained
        tune, point = boot.tune_lambda, boot.ppboot_point_estimate

        def counting_merge(spec, features, outcomes, name="outcomes"):
            merged.append(id(outcomes))
            return merge(spec, features, outcomes, name)

        def counting_check(values, dropped):
            retained.append(values.size + dropped)
            check(values, dropped)

        def counting_tune(sides, tuning_B, stream):
            tuned.append(tuning_B)
            return tune(sides, tuning_B, stream)

        def counting_point(sides, lam):
            points.append(len(sides))
            return point(sides, lam)

        # Every module that may merge a side looks the function up by name.
        for module in (estimators, boot):
            monkeypatch.setattr(module, "canonical_resampler", counting_merge)
        monkeypatch.setattr(boot, "require_retained", counting_check)
        monkeypatch.setattr(boot, "tune_lambda", counting_tune)
        monkeypatch.setattr(boot, "ppboot_point_estimate", counting_point)
        cfg = BootstrapConfig(B=40, lambda_mode=mode, lambda_value=0.5, tuning_B=30)
        ppboot_interval(labeled, unlabeled, EstimandSpec(kind), cfg, stream)
        sides = [id(labeled.outcomes), id(labeled.predictions), id(unlabeled.predictions)]
        assert sorted(merged) == sorted(sides)
        assert retained == [40]
        assert tuned == ([30] if mode == "tuned" else [])
        assert points == [3]


class TestOneDrawPerSide:
    """Each attempt draws its labeled indices once, whatever the number of labeled sides."""

    @pytest.mark.parametrize("lam, sizes", [(1.0, [15, 40]), (0.0, [15])], ids=["three-sides", "one-side"])
    def test_draws_per_iteration(self, monkeypatch, stream, lam, sizes):
        labeled, unlabeled = make_pair(n=15, N=40, seed=6)
        draws, generators = [], []
        draw, generator = boot.draw_keyed_indices, RngStream.generator

        def counting_draw(gen, key, size):
            draws.append(size)
            return draw(gen, key, size)

        def counting_generator(self):
            generators.append(self.path)
            return generator(self)

        monkeypatch.setattr(boot, "draw_keyed_indices", counting_draw)
        monkeypatch.setattr(RngStream, "generator", counting_generator)
        B = 60
        # The mean never degenerates, so every iteration makes one attempt:
        # one labeled draw, and one unlabeled draw on three sides.
        [(values, dropped)] = ppboot_draws(interval_resamplers(labeled, unlabeled, MEAN, lam), [lam], B, stream)
        assert (values.size, dropped) == (B, 0)
        assert sorted(draws) == sorted(sizes * B)
        assert generators == []


class TestKeyedLoop:
    """The loop keys its streams in blocks, with a generator of its own."""

    @pytest.mark.parametrize("key_block, chunk_bytes", [(1, None), (3, None), (7, 16), (7, 48)])
    @pytest.mark.parametrize("spec, n, N", [
        (EstimandSpec("log_odds_ratio", exposure_column=0), 8, 20),
        (EstimandSpec("ols_coef"), 12, 30),
        (MEAN, 12, 30),
    ], ids=["log-odds-ratio", "ols", "mean"])
    def test_block_edges_keep_every_draw(self, monkeypatch, stream, key_block, chunk_bytes, spec, n, N):
        g = np.random.default_rng(31)
        binary = spec.kind == "log_odds_ratio"
        features = [(g.random((m, 1)) < 0.5).astype(float) if binary else g.standard_normal((m, 1)) for m in (n, N)]
        outcomes = [(g.random(m) < 0.5).astype(float) if binary else g.standard_normal(m) for m in (n, n, N)]
        labeled = LabeledDataset(features[0], outcomes[0], outcomes[1])
        unlabeled = UnlabeledDataset(features[1], outcomes[2])
        sides = interval_resamplers(labeled, unlabeled, spec)
        [whole] = ppboot_draws(sides, [1.0], 40, stream, 3)
        tuned = tune_lambda(sides, 40, stream.child(PHASE_TUNING))
        monkeypatch.setattr(boot, "KEY_BLOCK", key_block)
        if chunk_bytes is not None:
            # Chunks of two and of six iterations, under a KEY_BLOCK of seven.
            monkeypatch.setattr(estimators, "CHUNK_BYTES", chunk_bytes * max(side.rows for side in sides))
        [blocked] = ppboot_draws(sides, [1.0], 40, stream, 3)
        assert blocked[1] == whole[1]
        assert blocked[0].tobytes() == whole[0].tobytes()
        assert tune_lambda(sides, 40, stream.child(PHASE_TUNING)) == tuned

    def test_first_attempt_keys_come_in_bounded_blocks(self, monkeypatch, stream):
        labeled, unlabeled = make_pair(n=5, N=9, seed=8)
        rows = []
        keys = boot.philox_keys

        def recording_keys(base, tails):
            rows.append(len(tails))
            return keys(base, tails)

        monkeypatch.setattr(boot, "philox_keys", recording_keys)
        monkeypatch.setattr(boot, "KEY_BLOCK", 64)
        ppboot_draws(interval_resamplers(labeled, unlabeled, MEAN), [1.0], 300, stream)
        assert rows == [64, 64, 64, 64, 44]

    def test_threads_give_the_sequential_intervals(self):
        from concurrent.futures import ThreadPoolExecutor

        problems = [(*make_pair(n=20, N=60, seed=s), RngStream(s, (1,))) for s in (9, 10)]
        cfg = BootstrapConfig(B=150, lambda_mode="tuned")
        sequential = [ppboot_interval(labeled, unlabeled, MEAN, cfg, base) for labeled, unlabeled, base in problems]
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(lambda p: ppboot_interval(p[0], p[1], MEAN, cfg, p[2]), problems))
        assert threaded == sequential


class TestTuneLambda:
    def test_pure_noise_lambda_near_zero(self):
        g = np.random.default_rng(20)
        n, N = 200, 400
        labeled = LabeledDataset(g.standard_normal((n, 1)), g.standard_normal(n), g.standard_normal(n))
        unlabeled = UnlabeledDataset(g.standard_normal((N, 1)), g.standard_normal(N))
        lam = tune_lambda(interval_resamplers(labeled, unlabeled, MEAN), 500, RngStream(21, (PHASE_TUNING,)))
        assert abs(lam) < 0.15

    def test_oracle_predictions_large_n_ratio(self):
        g = np.random.default_rng(22)
        n, N = 50, 5000
        y = g.standard_normal(n)
        labeled = LabeledDataset(g.standard_normal((n, 1)), y, y)
        unlabeled = UnlabeledDataset(g.standard_normal((N, 1)), g.standard_normal(N))
        lam = tune_lambda(interval_resamplers(labeled, unlabeled, MEAN), 400, RngStream(23, (PHASE_TUNING,)))
        assert 0.9 <= lam <= 1.0

    def test_constant_predictions_floor_to_zero(self):
        g = np.random.default_rng(24)
        labeled = LabeledDataset(g.standard_normal((20, 1)), g.standard_normal(20), np.full(20, 2.0))
        unlabeled = UnlabeledDataset(g.standard_normal((30, 1)), np.full(30, 2.0))
        assert tune_lambda(interval_resamplers(labeled, unlabeled, MEAN), 100, RngStream(25, (PHASE_TUNING,))) == 0.0

    def test_tuned_mode_threads_lambda_through(self, stream):
        labeled, unlabeled = make_pair(n=60, N=150, seed=26, pred_noise=0.2)
        cfg = BootstrapConfig(B=150, lambda_mode="tuned", tuning_B=200)
        ci = ppboot_interval(labeled, unlabeled, MEAN, cfg, stream)
        lam = tune_lambda(interval_resamplers(labeled, unlabeled, MEAN), 200, stream.child(PHASE_TUNING))
        assert ci.lambda_used == lam
        assert 0.3 < lam < 1.2

    def test_clip_lambda(self, stream):
        labeled, unlabeled = make_pair(n=12, N=20, seed=27, pred_noise=0.01)
        cfg = BootstrapConfig(B=50, lambda_mode="fixed", lambda_value=1.7, clip_lambda=True)
        ci = ppboot_interval(labeled, unlabeled, MEAN, cfg, stream)
        assert ci.lambda_used == 1.0

    def test_fixed_lambda_clipped_to_zero_needs_no_unlabeled_data(self, stream):
        # Clipping comes before the sides are built, so this is the classical bootstrap.
        labeled, _ = make_pair(n=12, N=20, seed=27)
        cfg = BootstrapConfig(B=50, lambda_mode="fixed", lambda_value=-0.5, clip_lambda=True)
        classical = classical_bootstrap_interval(labeled, MEAN, cfg, stream)
        assert ppboot_interval(labeled, None, MEAN, cfg, stream) == classical

    @pytest.mark.parametrize("kind", ["mean", "quantile"])
    def test_matches_reference_stream_layout(self, kind):
        labeled, unlabeled = make_pair(n=15, N=40, seed=28, pred_noise=0.3)
        spec = EstimandSpec(kind, q=0.3)
        lam = tune_lambda(interval_resamplers(labeled, unlabeled, spec), 120, RngStream(29, (4, PHASE_TUNING)))
        expected = ref.tune_lambda(
            labeled.outcomes, labeled.predictions, unlabeled.predictions, kind, 120, 29, (4,), q=0.3
        )
        assert lam != 0.0
        assert lam == pytest.approx(expected, abs=1e-12)

    def test_reference_floor_fallback(self):
        g = np.random.default_rng(30)
        labeled = LabeledDataset(g.standard_normal((10, 1)), g.standard_normal(10), np.full(10, -0.5))
        unlabeled = UnlabeledDataset(g.standard_normal((25, 1)), np.full(25, -0.5))
        lam = tune_lambda(interval_resamplers(labeled, unlabeled, MEAN), 50, RngStream(31, (PHASE_TUNING,)))
        expected = ref.tune_lambda(labeled.outcomes, labeled.predictions, unlabeled.predictions, "mean", 50, 31)
        assert lam == expected == 0.0

    def test_tuning_failure(self, stream):
        # Degenerate on every tuning resample: constant exposure.
        labeled = LabeledDataset([[1.0]] * 6, [0.0, 1.0] * 3, [1.0, 0.0] * 3)
        unlabeled = UnlabeledDataset([[1.0]] * 6, [0.0, 1.0] * 3)
        spec = EstimandSpec("log_odds_ratio", exposure_column=0)
        with pytest.raises(EstimationError, match="tuning failure"):
            tune_lambda(interval_resamplers(labeled, unlabeled, spec), 20, stream)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            BootstrapConfig(B=1)
        with pytest.raises(ValueError):
            BootstrapConfig(alpha=0.0)
        with pytest.raises(ValueError):
            BootstrapConfig(lambda_mode="auto")
        with pytest.raises(ValueError):
            BootstrapConfig(tuning_B=1)
        assert BootstrapConfig(B=boot.MAX_B, tuning_B=boot.MAX_B).B == boot.MAX_B
        for field in ("B", "tuning_B"):
            with pytest.raises(ValueError, match=f"^{field} must be in"):
                BootstrapConfig(**{field: boot.MAX_B + 1})

    def test_defaults(self):
        cfg = BootstrapConfig()
        assert cfg.B == 1000 and cfg.alpha == 0.1
        assert cfg.effective_tuning_B == 1000
        assert dataclasses.replace(cfg, tuning_B=77).effective_tuning_B == 77
