"""Fold partitioning, learner plumbing, and cross-fitted intervals."""

import tracemalloc

import numpy as np
import pytest

import _reference as ref
from ppboot import (
    BootstrapConfig,
    EstimandSpec,
    EstimationError,
    LabeledDataset,
    LearnerSpec,
    RngStream,
    assemble_cross_predictions,
    classical_bootstrap_interval,
    cross_ppboot_interval,
    make_learner,
    partition_folds,
    split_ppboot_interval,
    train_fold_models,
)
from ppboot.crossfit import KNearestLearner, LinearLeastSquaresLearner, LogisticLearner
from ppboot.errors import ValidationError

MEAN = EstimandSpec("mean")


class ConstantLearner:
    def __init__(self, value=0.0):
        self.value = value

    def fit(self, features, outcomes):
        return lambda queries: np.full(np.asarray(queries).shape[0], self.value)


class RecordingLearner(ConstantLearner):
    """Records the outcome values seen by each fit call."""

    def __init__(self):
        super().__init__(0.0)
        self.seen: list[set] = []

    def fit(self, features, outcomes):
        self.seen.append(set(np.asarray(outcomes).astype(int).tolist()))
        return super().fit(features, outcomes)


class TestPartitionFolds:
    def test_singletons_when_k_equals_n(self):
        folds = partition_folds(10, 10, RngStream(0))
        assert sorted(folds.tolist()) == list(range(10))

    def test_balanced_sizes(self):
        folds = partition_folds(10, 3, RngStream(1))
        sizes = sorted(np.bincount(folds, minlength=3).tolist())
        assert sizes == [3, 3, 4]

    def test_determinism(self):
        a = partition_folds(20, 4, RngStream(2, (7,)))
        b = partition_folds(20, 4, RngStream(2, (7,)))
        assert np.array_equal(a, b)

    def test_balance_property(self):
        g = np.random.default_rng(0)
        for trial in range(25):
            n = int(g.integers(5, 60))
            K = int(g.integers(2, n + 1))
            sizes = np.bincount(partition_folds(n, K, RngStream(3, (trial,))), minlength=K)
            assert sizes.max() - sizes.min() <= 1

    def test_k_out_of_range(self):
        for K in (1, 11):
            with pytest.raises(ValueError):
                partition_folds(10, K, RngStream(0))


class TestTrainFoldModels:
    def test_noiseless_linear_recovery(self):
        g = np.random.default_rng(4)
        X = g.standard_normal((30, 2))
        y = X @ np.array([2.0, -1.0]) + 0.5
        folds = partition_folds(30, 5, RngStream(5))
        models = train_fold_models(X, y, folds, LinearLeastSquaresLearner())
        queries = g.standard_normal((8, 2))
        expected = queries @ np.array([2.0, -1.0]) + 0.5
        for model in models:
            assert np.allclose(model(queries), expected, atol=1e-8)

    def test_exclusion_sets(self):
        n = 12
        X = np.arange(n, dtype=float)[:, None]
        y = np.arange(n, dtype=float)  # outcome i encodes row i
        folds = partition_folds(n, 2, RngStream(6))
        learner = RecordingLearner()
        train_fold_models(X, y, folds, learner)
        for j in range(2):
            complement = set(np.flatnonzero(folds != j).tolist())
            assert learner.seen[j] == complement

    def test_one_nn_memorizes_training_rows(self):
        g = np.random.default_rng(7)
        X = g.standard_normal((15, 2))
        y = g.standard_normal(15)
        folds = partition_folds(15, 3, RngStream(8))
        models = train_fold_models(X, y, folds, KNearestLearner(1))
        for j, model in enumerate(models):
            rows = np.flatnonzero(folds != j)
            assert np.allclose(model(X[rows]), y[rows], atol=1e-12)

    def test_learner_failure_names_fold(self):
        X = np.ones((8, 1))
        y = np.arange(8.0)
        folds = partition_folds(8, 2, RngStream(9))

        class FailingLearner:
            def fit(self, features, outcomes):
                raise np.linalg.LinAlgError("boom")

        with pytest.raises(Exception, match="fold 0"):
            train_fold_models(X, y, folds, FailingLearner())

    def test_single_fold_has_empty_training_complement(self):
        with pytest.raises(EstimationError, match="^training failed on fold 0: empty training complement$"):
            train_fold_models(np.zeros((4, 1)), np.arange(4.0), np.zeros(4, dtype=int), ConstantLearner())


class TestLogisticLearnerFailures:
    def test_separated_data_names_separation(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        with pytest.raises(EstimationError, match="separation"):
            LogisticLearner().fit(X, np.array([0.0, 0.0, 1.0, 1.0]))

    def test_duplicated_column_names_singular_design(self):
        x = np.array([0.3, -1.2, 0.8, 2.0, -0.4, 1.1])
        with pytest.raises(EstimationError, match="singular design"):
            LogisticLearner().fit(np.column_stack([x, x]), np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]))

    def test_fold_prefix_kept(self):
        x = np.arange(8.0)
        folds = partition_folds(8, 2, RngStream(12))
        with pytest.raises(EstimationError, match=r"training failed on fold 0: .*singular design"):
            train_fold_models(np.column_stack([x, x]), np.array([0, 1, 0, 1, 1, 0, 1, 0.0]), folds, LogisticLearner())

    def test_split_prefix_kept(self):
        x = np.linspace(-2.0, 2.0, 12)[:, None]
        with pytest.raises(EstimationError, match=r"^training failed on the split training set: .*separation"):
            split_ppboot_interval(x, (x[:, 0] > 0).astype(float), x, MEAN, BootstrapConfig(B=10),
                                  LogisticLearner(), RngStream(3))


class TestKNearestPredict:
    def test_chunked_rows_match_one_query_at_a_time(self):
        g = np.random.default_rng(40)
        X = np.round(g.standard_normal((500, 5)), 1)
        predict = KNearestLearner(5).fit(X, g.standard_normal(500))
        queries = np.round(g.standard_normal((250, 5)), 1)  # several chunks, ragged tail
        one_by_one = np.concatenate([predict(queries[i:i + 1]) for i in range(250)])
        assert predict(queries).tobytes() == one_by_one.tobytes()

    def test_memory_is_bounded(self):
        # The full query x training x feature tensor would take
        # 5000 * 500 * 5 * 8 bytes = 100 MB.
        g = np.random.default_rng(41)
        predict = KNearestLearner(5).fit(g.standard_normal((500, 5)), g.standard_normal(500))
        queries = g.standard_normal((5000, 5))
        tracemalloc.start()
        try:
            predictions = predict(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert predictions.shape == (5000,)
        assert peak < 20 * 2**20

    def test_memory_is_bounded_with_wide_rows(self):
        # At 40 features the tensor would take 5000 * 500 * 40 * 8 bytes =
        # 800 MB, and predict keeps ten planes alive at once.
        g = np.random.default_rng(42)
        predict = KNearestLearner(5).fit(g.standard_normal((500, 40)), g.standard_normal(500))
        queries = g.standard_normal((5000, 40))
        tracemalloc.start()
        try:
            predictions = predict(queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert predictions.shape == (5000,)
        assert peak < 20 * 2**20


class TestAssemble:
    def test_identical_models_average_to_single_model(self):
        g = np.random.default_rng(10)
        X = g.standard_normal((9, 1))
        Xu = g.standard_normal((5, 1))
        folds = partition_folds(9, 3, RngStream(11))
        models = [lambda q: q[:, 0] * 2.0 for _ in range(3)]
        _, unl = assemble_cross_predictions(X, Xu, folds, models)
        assert np.allclose(unl, Xu[:, 0] * 2.0, atol=1e-15)

    def test_constant_zero_one_models_average_half(self):
        X = np.zeros((4, 1))
        Xu = np.zeros((6, 1))
        folds = partition_folds(4, 2, RngStream(12))
        models = [lambda q: np.zeros(q.shape[0]), lambda q: np.ones(q.shape[0])]
        _, unl = assemble_cross_predictions(X, Xu, folds, models)
        assert np.all(unl == 0.5)

    @pytest.mark.parametrize("bad_id", [-1, 2])
    def test_fold_id_without_a_model_rejected(self, bad_id):
        models = [lambda q: np.zeros(q.shape[0])] * 2
        fold_of = [0, 1, bad_id, 1]
        with pytest.raises(ValueError, match=r"^fold_of must be a vector of 4 fold ids in \[0, 2\)$"):
            assemble_cross_predictions(np.zeros((4, 1)), np.zeros((3, 1)), fold_of, models)

    def test_one_nn_against_brute_force(self):
        g = np.random.default_rng(13)
        n = 10
        X = g.standard_normal((n, 2))
        y = g.standard_normal(n)
        Xu = g.standard_normal((4, 2))
        folds = partition_folds(n, 5, RngStream(14))
        models = train_fold_models(X, y, folds, KNearestLearner(1))
        lab, _ = assemble_cross_predictions(X, Xu, folds, models)
        for i in range(n):
            complement = np.flatnonzero(folds != folds[i])
            d2 = np.sum((X[complement] - X[i]) ** 2, axis=1)
            assert lab[i] == y[complement][int(np.argmin(d2))]

    def test_own_row_never_in_training_set(self):
        n = 20
        X = np.arange(n, dtype=float)[:, None]
        y = np.arange(n, dtype=float)
        folds = partition_folds(n, 4, RngStream(15))
        learner = RecordingLearner()
        train_fold_models(X, y, folds, learner)
        for i in range(n):
            assert i not in learner.seen[folds[i]]


class TestCrossIntervals:
    def test_constant_zero_learner_matches_classical(self):
        g = np.random.default_rng(16)
        X = g.standard_normal((20, 1))
        y = g.standard_normal(20)
        Xu = g.standard_normal((35, 1))
        cfg = BootstrapConfig(B=120, lambda_mode="fixed", lambda_value=1.0)
        base = RngStream(17, (4,))
        ci = cross_ppboot_interval(X, y, Xu, MEAN, cfg, 4, ConstantLearner(0.0), base)
        cl = classical_bootstrap_interval(LabeledDataset(X, y, np.zeros(20)), MEAN, cfg, base)
        assert ci.lower == cl.lower and ci.upper == cl.upper

    def test_constant_learner_tuned_lambda_falls_back_to_classical(self):
        g = np.random.default_rng(18)
        X = g.standard_normal((16, 1))
        y = g.standard_normal(16)
        Xu = g.standard_normal((22, 1))
        cfg = BootstrapConfig(B=100, lambda_mode="tuned", tuning_B=60)
        base = RngStream(19, (2,))
        ci = cross_ppboot_interval(X, y, Xu, MEAN, cfg, 4, ConstantLearner(0.0), base)
        cl = classical_bootstrap_interval(LabeledDataset(X, y, np.zeros(16)), MEAN, cfg, base)
        assert ci.lambda_used == 0.0
        assert ci.lower == cl.lower and ci.upper == cl.upper

    def test_noiseless_linear_cross_never_wider_than_split(self):
        wins = 0
        reps = 100
        for rep in range(reps):
            g = np.random.default_rng(1000 + rep)
            X = g.standard_normal((40, 1))
            y = 3.0 * X[:, 0] + 1.0
            Xu = g.standard_normal((100, 1))
            cfg = BootstrapConfig(B=150)
            base = RngStream(rep, (0,))
            learner = LinearLeastSquaresLearner()
            cross = cross_ppboot_interval(X, y, Xu, MEAN, cfg, 5, learner, base)
            split = split_ppboot_interval(X, y, Xu, MEAN, cfg, learner, base, 0.5)
            if cross.width <= split.width + 1e-12:
                wins += 1
        assert wins >= 80

    def test_leave_one_out_one_nn_matches_reference(self):
        g = np.random.default_rng(20)
        n = 6
        X = g.standard_normal((n, 1))
        y = g.standard_normal(n)
        Xu = g.standard_normal((9, 1))
        cfg = BootstrapConfig(B=200, alpha=0.1)
        base = RngStream(77, (3,))
        ci = cross_ppboot_interval(X, y, Xu, MEAN, cfg, n, KNearestLearner(1), base)
        lo, hi, _ = ref.loo_onenn_cross_ppboot(X, y, Xu, 200, 0.1, 77, (3,))
        assert ci.lower == pytest.approx(lo, abs=1e-12)
        assert ci.upper == pytest.approx(hi, abs=1e-12)


class TestSplitBaseline:
    def test_determinism_and_validity(self):
        g = np.random.default_rng(21)
        X = g.standard_normal((30, 1))
        y = 2.0 * X[:, 0] + g.standard_normal(30) * 0.2
        Xu = g.standard_normal((50, 1))
        cfg = BootstrapConfig(B=100)
        a = split_ppboot_interval(X, y, Xu, MEAN, cfg, LinearLeastSquaresLearner(), RngStream(5, (1,)))
        b = split_ppboot_interval(X, y, Xu, MEAN, cfg, LinearLeastSquaresLearner(), RngStream(5, (1,)))
        assert a == b
        assert a.lower <= a.upper

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_few_rows_rejected(self, n):
        X = np.zeros((n, 1))
        with pytest.raises(ValueError, match=f"^cannot split {n} rows into a training part and >= 2 inference rows$"):
            split_ppboot_interval(X, np.zeros(n), X, MEAN, BootstrapConfig(B=10),
                                  LinearLeastSquaresLearner(), RngStream(0))

    def test_bad_fraction_rejected(self):
        X = np.zeros((10, 1))
        with pytest.raises(ValueError):
            split_ppboot_interval(X, np.zeros(10), X, MEAN, BootstrapConfig(B=10),
                                  LinearLeastSquaresLearner(), RngStream(0), 1.0)

    @pytest.mark.parametrize("learner", [KNearestLearner(3), LinearLeastSquaresLearner()], ids=["knn", "linear"])
    def test_overflowed_predictions_fail_the_check_without_a_warning(self, learner):
        # The suite turns a numpy warning into an error, so a warning from the
        # model would surface here instead of the dataset check's error.
        X = np.arange(8.0)[:, None]
        with pytest.raises(ValidationError, match="predictions contains NaN or infinite entries"):
            split_ppboot_interval(X, np.full(8, 1e308), 1e3 * X, MEAN, BootstrapConfig(B=10), learner, RngStream(0))


class TestLearnerSpec:
    def test_make_learner_kinds(self):
        assert isinstance(make_learner(LearnerSpec("linear_least_squares")), LinearLeastSquaresLearner)
        assert isinstance(make_learner(LearnerSpec("knn", k=3)), KNearestLearner)
        g = np.random.default_rng(22)
        X = g.standard_normal((40, 1))
        y = (g.random(40) < 0.5).astype(float)
        predict = make_learner(LearnerSpec("logistic_irls")).fit(X, y)
        probs = predict(X)
        assert np.all((probs > 0) & (probs < 1))

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            LearnerSpec("forest")
        with pytest.raises(ValueError):
            LearnerSpec("knn", k=0)
