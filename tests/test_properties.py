"""Property-based checks of the invariants the resample loop relies on.

Data are small and drawn from a handful of values, so ties, duplicate rows and
0/1 columns are the rule rather than the exception.  Results are compared bit
for bit, except that merged weighted rows are compared with the same
estimators on the unmerged rows at 1e-12, the chunked engine with the
reference formulas at 1e-12 (the log odds ratio's table bit for bit), and
that affine maps of the data, which change the rounding, are checked to a
relative 1e-9 (the quantile's order statistic still bit for bit).  kNN
predictions, whose distances are summed plane by plane, are compared bit for
bit with the full distance tensor.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from ppboot import (
    BootstrapConfig,
    EstimandSpec,
    EstimationError,
    LabeledDataset,
    RngStream,
    UnlabeledDataset,
    classical_bootstrap_interval,
    evaluate,
    interval_resamplers,
    ppboot_draws,
    ppboot_interval,
)
from ppboot import crossfit, estimators
from ppboot.estimators import (
    ESTIMAND_KINDS,
    OUTCOME_ONLY_KINDS,
    EstimateValue,
    _pearson_two_pass,
    canonical_resampler,
    fit_least_squares,
    fit_logistic,
    with_intercept,
)
from ppboot.resampling import PHASE_MAIN, draw_labeled_indices

VALUES = (-1.5, 0.0, 0.5, 1.0, 2.25)
BINARY = (0.0, 1.0)
# -0.0 ties with 0.0 in every comparison but not in its bits.
SIGNED_VALUES = VALUES + (-0.0,)
SIGNED_BINARY = BINARY + (-0.0,)
RETRIES = 3
# Affine maps y -> a * y + b: scales of both signs and sizes, shifts up to 1e3.
SCALES = (-3.0, -0.5, 0.25, 2.0, 10.0)
SHIFTS = (-4.0, 0.0, 1.5, 1000.0)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# The estimands whose rows merge into weighted rows, and more examples for
# them: the estimates are cheap, and many small samples are degenerate.
MERGED_KINDS = tuple(k for k in ESTIMAND_KINDS if k not in OUTCOME_ONLY_KINDS)
MERGE_SETTINGS = settings(PROPERTY_SETTINGS, max_examples=200)


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def same_estimate(a, b) -> bool:
    return bits(a.value) == bits(b.value) and a.reason == b.reason


def close_estimate(a, b, tol: float = 1e-12) -> bool:
    both_nan = math.isnan(a.value) and math.isnan(b.value)
    return a.reason == b.reason and (both_nan or abs(a.value - b.value) <= tol)


@st.composite
def table(draw, rows: int, binary: list[bool], signed_zeros: bool) -> np.ndarray:
    """``rows`` rows drawn with replacement from a few distinct ones."""
    values, binary_values = (SIGNED_VALUES, SIGNED_BINARY) if signed_zeros else (VALUES, BINARY)
    row = st.tuples(*(st.sampled_from(binary_values if b else values) for b in binary))
    distinct = draw(st.lists(row, min_size=1, max_size=rows))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=rows, max_size=rows))
    return np.array([distinct[i] for i in picks], dtype=np.float64)


@st.composite
def problems(draw, signed_zeros: bool = False, kinds: tuple[str, ...] = ESTIMAND_KINDS):
    """An estimand spec of one of ``kinds`` plus a labeled/unlabeled pair it accepts."""
    kind = draw(st.sampled_from(kinds))
    d = draw(st.integers(1, 3))
    spec = EstimandSpec(
        kind,
        q=draw(st.sampled_from((0.1, 0.3, 0.5, 0.9))),
        target_index=draw(st.integers(0, d - 1)),
        intercept=draw(st.booleans()),
        feature_column=draw(st.integers(0, d - 1)),
    )
    binary_y = kind in ("logistic_coef", "log_odds_ratio") or draw(st.booleans())
    binary_x = [(kind == "log_odds_ratio" and j == 0) or draw(st.booleans()) for j in range(d)]
    n = draw(st.integers(d + 3, 12))
    N = draw(st.integers(4, 14))
    lab = draw(table(n, binary_x + [binary_y, binary_y], signed_zeros))
    unl = draw(table(N, binary_x + [binary_y], signed_zeros))
    return spec, LabeledDataset(lab[:, :d], lab[:, d], lab[:, d + 1]), UnlabeledDataset(unl[:, :d], unl[:, d])


@st.composite
def repeated_rows(draw):
    """A feature-keyed estimand spec plus distinct rows, each repeated a few times."""
    kind = draw(st.sampled_from(MERGED_KINDS))
    d = draw(st.integers(1, 3))
    spec = EstimandSpec(
        kind,
        target_index=draw(st.integers(0, d - 1)),
        intercept=draw(st.booleans()),
        feature_column=draw(st.integers(0, d - 1)),
    )
    binary = [kind == "log_odds_ratio" and j == 0 for j in range(d)] + [kind in ("logistic_coef", "log_odds_ratio")]
    row = st.tuples(*(st.sampled_from(BINARY if b else VALUES) for b in binary))
    distinct = draw(st.lists(row, min_size=d + 2, max_size=8, unique=True))
    if kind == "logistic_coef":
        # Every feature row with both outcomes, so the data are not separated
        # and the maximum-likelihood estimate exists.  Under separation IRLS
        # stops wherever rounding lets it, so merged and unmerged rows may
        # disagree there.
        distinct = [r[:d] + (v,) for r in distinct for v in BINARY]
    distinct = np.array(distinct, dtype=np.float64)
    counts = draw(st.lists(st.integers(1, 4), min_size=len(distinct), max_size=len(distinct)))
    counts[0] += 1  # at least 4 rows, as a 2x2 table needs
    rows = np.repeat(distinct, counts, axis=0)
    return spec, rows[:, :d], rows[:, d]


def interval_or_error(*args):
    try:
        return ppboot_interval(*args)
    except EstimationError as exc:
        return str(exc)


@PROPERTY_SETTINGS
@given(problems(), st.randoms(use_true_random=False))
def test_evaluate_is_invariant_to_row_order(problem, rnd):
    spec, labeled, _ = problem
    perm = list(range(labeled.n))
    rnd.shuffle(perm)
    X, y = labeled.features, labeled.outcomes
    assert same_estimate(evaluate(spec, X, y), evaluate(spec, X[perm], y[perm]))


@PROPERTY_SETTINGS
@given(problems(signed_zeros=True), st.randoms(use_true_random=False))
def test_evaluate_ignores_row_order_and_zero_signs(problem, rnd):
    spec, labeled, _ = problem
    perm = list(range(labeled.n))
    rnd.shuffle(perm)
    X, y = labeled.features, labeled.outcomes
    flipped = [np.where(a == 0.0, -np.copysign(0.0, a), a) for a in (X[perm], y[perm])]
    assert same_estimate(evaluate(spec, X, y), evaluate(spec, *flipped))


@PROPERTY_SETTINGS
@given(problems(signed_zeros=True), st.data())
def test_canonical_gather_equals_evaluate_on_the_resample(problem, data):
    spec, labeled, unlabeled = problem
    sides = [
        (labeled.features, labeled.outcomes),
        (labeled.features, labeled.predictions),
        (unlabeled.features, unlabeled.predictions),
    ]
    for X, y in sides:
        estimate = canonical_resampler(spec, X, y)
        m = y.size
        for _ in range(4):
            idx = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)), dtype=np.intp)
            assert same_estimate(estimate(idx), evaluate(spec, X[idx], y[idx]))


def unmerged_estimate(spec, X, y) -> EstimateValue:
    """The estimate from every row as given: no sorting, no merging, no weights."""
    if spec.kind == "log_odds_ratio":
        e = X[:, spec.exposure_column]
        n11, n10, n01, n00 = (float(np.sum((e == a) & (y == b))) for a, b in ((1, 1), (1, 0), (0, 1), (0, 0)))
        reason = None
        if min(n11, n10, n01, n00) == 0.0:
            n11, n10, n01, n00 = n11 + 0.5, n10 + 0.5, n01 + 0.5, n00 + 0.5
            reason = "zero cell corrected"
        return EstimateValue(float(np.log((n11 * n00) / (n10 * n01))), reason)
    if spec.kind == "pearson_corr":
        x = X[:, spec.feature_column]
        if np.all(x == x[0]) or np.all(y == y[0]):
            return EstimateValue(math.nan, "constant variable")
        xc = x - np.mean(x)
        yc = y - np.mean(y)
        denom = np.sqrt(np.dot(xc, xc) * np.dot(yc, yc))
        if denom == 0.0:
            return EstimateValue(math.nan, "constant variable")
        return EstimateValue(float(np.dot(xc, yc) / denom))
    design = with_intercept(X) if spec.intercept else X
    if spec.kind == "ols_coef":
        beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        reason = "singular design" if rank < design.shape[1] else None
    elif np.all(y == y[0]):
        beta, reason = None, "constant outcome"
    else:
        beta, reason = fit_logistic(design, y)
    return EstimateValue(math.nan, reason) if reason is not None else EstimateValue(float(beta[spec.target_index]))


@MERGE_SETTINGS
@given(repeated_rows())
def test_merged_weighted_kernels_equal_the_unmerged_rows(problem):
    spec, X, y = problem
    merged, unmerged = evaluate(spec, X, y), unmerged_estimate(spec, X, y)
    if spec.kind == "log_odds_ratio":
        assert same_estimate(merged, unmerged)
    else:
        assert close_estimate(merged, unmerged)


@MERGE_SETTINGS
@given(repeated_rows())
def test_duplicating_every_row_keeps_the_estimate(problem):
    spec, X, y = problem
    once = evaluate(spec, X, y)
    twice = evaluate(spec, np.vstack([X, X]), np.concatenate([y, y]))
    if spec.kind != "log_odds_ratio":
        assert close_estimate(once, twice)
    elif once.ok:
        assert same_estimate(once, twice)
    else:
        # The zero-cell correction adds 0.5 to counts that doubled, so only
        # the flag carries over.
        assert twice.reason == once.reason


@PROPERTY_SETTINGS
@given(problems(), st.integers(0, 2**32))
def test_lambda_zero_is_the_classical_bootstrap(problem, seed):
    spec, labeled, unlabeled = problem
    stream = RngStream(seed)
    B = 25
    # A plain classical bootstrap: the estimator on each labeled resample,
    # redrawn on degeneracy exactly as the main loop does.
    expected = []
    for b in range(B):
        for r in range(RETRIES + 1):
            li = draw_labeled_indices(labeled.n, stream.child(PHASE_MAIN, b, r))
            est = evaluate(spec, labeled.features[li], labeled.outcomes[li])
            if est.ok:
                expected.append(bits(est.value))
                break
    values, dropped = ppboot_draws(interval_resamplers(labeled, unlabeled, spec, 0.0), 0.0, B, stream, RETRIES)
    assert [bits(v) for v in values] == expected
    assert dropped == B - len(expected)

    cfg = BootstrapConfig(B=B, lambda_mode="fixed", lambda_value=0.0, max_degenerate_retries=RETRIES)
    assert interval_or_error(labeled, unlabeled, spec, cfg, stream) == interval_or_error(
        labeled, None, spec, cfg, stream
    )
    try:
        classical = classical_bootstrap_interval(labeled, spec, cfg, stream)
    except EstimationError as exc:
        classical = str(exc)
    assert interval_or_error(labeled, unlabeled, spec, cfg, stream) == classical


@PROPERTY_SETTINGS
@given(problems(), st.integers(0, 2**32), st.sampled_from(("off", "fixed", "tuned")))
def test_interval_endpoints_are_draw_values(problem, seed, mode):
    spec, labeled, unlabeled = problem
    stream = RngStream(seed)
    cfg = BootstrapConfig(B=30, alpha=0.2, lambda_mode=mode, lambda_value=0.6, max_degenerate_retries=RETRIES)
    ci = interval_or_error(labeled, unlabeled, spec, cfg, stream)
    if isinstance(ci, str):
        return
    sides = interval_resamplers(labeled, unlabeled, spec, ci.lambda_used)
    draws, _ = ppboot_draws(sides, ci.lambda_used, cfg.B, stream, RETRIES)
    values = {bits(v) for v in draws}
    assert bits(ci.lower) in values and bits(ci.upper) in values
    assert ci.lower <= ci.upper


@PROPERTY_SETTINGS
@given(problems(kinds=("mean", "ols_coef")), st.sampled_from(SCALES), st.sampled_from(SHIFTS))
def test_mean_and_ols_slopes_are_affine_equivariant(problem, a, b):
    spec, labeled, _ = problem
    # With an intercept, y -> a * y + b scales every slope by a and moves
    # only the intercept by b; target_index < d always names a slope.
    spec = replace(spec, intercept=True)
    X, y = labeled.features, labeled.outcomes
    before, after = evaluate(spec, X, y), evaluate(spec, X, a * y + b)
    assert after.reason == before.reason
    if before.ok:
        expected = a * before.value + (b if spec.kind == "mean" else 0.0)
        assert abs(after.value - expected) <= 1e-9 * (abs(a) * (1.0 + abs(before.value)) + abs(b))


@PROPERTY_SETTINGS
@given(problems(kinds=("quantile",)), st.sampled_from([a for a in SCALES if a > 0]), st.sampled_from(SHIFTS))
def test_quantile_is_equivariant_under_increasing_affine_maps(problem, a, b):
    spec, labeled, _ = problem
    y = labeled.outcomes
    # An increasing map keeps the order, and rounding keeps it weakly, so the
    # selected order statistic of a * y + b is the map of the old one.
    assert bits(evaluate(spec, None, a * y + b).value) == bits(a * evaluate(spec, None, y).value + b)


@PROPERTY_SETTINGS
@given(problems(kinds=("mean",)), st.integers(0, 2**32), st.sampled_from(("off", "fixed", "tuned")),
       st.sampled_from((-7.5, 0.25, 3.0, 1000.0)))
def test_ppboot_mean_interval_shifts_with_the_data(problem, seed, mode, c):
    spec, labeled, unlabeled = problem
    shifted_labeled = LabeledDataset(labeled.features, labeled.outcomes + c, labeled.predictions + c)
    shifted_unlabeled = UnlabeledDataset(unlabeled.features, unlabeled.predictions + c)
    cfg = BootstrapConfig(B=30, alpha=0.2, lambda_mode=mode, lambda_value=0.6)
    before = ppboot_interval(labeled, unlabeled, spec, cfg, RngStream(seed))
    after = ppboot_interval(shifted_labeled, shifted_unlabeled, spec, cfg, RngStream(seed))
    # Same index draws on both sides; the values differ by c up to rounding.
    tol = 1e-9 * (1.0 + abs(c))
    assert abs(after.lambda_used - before.lambda_used) <= 1e-9
    for end in ("lower", "upper", "point_estimate"):
        assert abs(getattr(after, end) - (getattr(before, end) + c)) <= tol


@st.composite
def engine_problems(draw, kinds: tuple[str, ...] = MERGED_KINDS):
    """A spec of a chunked-engine kind and a sample that also reaches its fallbacks.

    Rows come from a few values with signed zeros, so singular designs and
    constant columns are common.  A continuous feature may also be shifted
    by 1e3, which makes a design with an intercept ill-conditioned and
    Pearson's raw moments cancel, or set to 0.1, a constant whose mean is
    inexact.
    """
    kind = draw(st.sampled_from(kinds))
    d = draw(st.integers(1, 3))
    spec = EstimandSpec(
        kind,
        target_index=draw(st.integers(0, d - 1)),
        intercept=draw(st.booleans()),
        feature_column=draw(st.integers(0, d - 1)),
    )
    binary = [kind == "log_odds_ratio" and j == 0 for j in range(d)] + [kind in ("logistic_coef", "log_odds_ratio")]
    rows = draw(table(draw(st.integers(d + 3, 12)), binary, signed_zeros=True))
    X, y = rows[:, :d], rows[:, d]
    for j in range(d):
        change = "none" if binary[j] else draw(st.sampled_from(("none", "shift", "constant")))
        if change == "shift":
            X[:, j] += 1000.0
        elif change == "constant":
            X[:, j] = 0.1
    return spec, X, y


def draws_of(data, m: int, count: int) -> list[np.ndarray]:
    return [np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)), dtype=np.intp)
            for _ in range(count)]


def reference_estimate(spec, X, y) -> EstimateValue:
    """The reference formulas on one resample: fit_least_squares, the centred two-pass Pearson, the 2x2 table.

    The rows are merged into counts as the engine merges them, so a resample
    the engine screens out must match bit for bit.
    """
    if spec.kind == "log_odds_ratio":
        return unmerged_estimate(spec, X, y)
    columns = [spec.feature_column] if spec.kind == "pearson_corr" else list(range(X.shape[1]))
    rows, counts = np.unique(np.column_stack([y, X[:, columns]]) + 0.0, axis=0, return_counts=True)
    y_rows, X_rows, w = rows[:, 0], rows[:, 1:], counts.astype(np.float64)
    if spec.kind == "pearson_corr":
        return _pearson_two_pass(X_rows[:, 0], y_rows, w)
    design = with_intercept(X_rows) if spec.intercept else X_rows
    beta, rank = fit_least_squares(design, y_rows, w)
    if rank < design.shape[1]:
        return EstimateValue(math.nan, "singular design")
    return EstimateValue(float(beta[spec.target_index]))


@MERGE_SETTINGS
@given(engine_problems(), st.data())
def test_engine_estimate_is_the_same_alone_and_anywhere_in_a_chunk(problem, data):
    spec, X, y = problem
    resampler = canonical_resampler(spec, X, y)
    draws = draws_of(data, y.size, 7)
    alone = [resampler(idx) for idx in draws]
    for length in (2, 3, 7):
        chunks = [draws[start:start + length] for start in range(0, len(draws), length)]
        chunked = [e for chunk in chunks for e in resampler.estimates(chunk, len(chunk))]
        assert all(same_estimate(a, c) for a, c in zip(alone, chunked, strict=True))
    # Reversed, every draw takes another position.
    reversed_ = resampler.estimates(draws[::-1], len(draws))
    assert all(same_estimate(a, c) for a, c in zip(alone[::-1], reversed_, strict=True))


@MERGE_SETTINGS
@given(engine_problems(kinds=("ols_coef", "pearson_corr", "log_odds_ratio")), st.data())
def test_engine_agrees_with_the_reference_formulas(problem, data):
    spec, X, y = problem
    resampler = canonical_resampler(spec, X, y)
    draws = draws_of(data, y.size, 4)
    for idx, estimate in zip(draws, resampler.estimates(draws, len(draws)), strict=True):
        expected = reference_estimate(spec, X[idx], y[idx])
        if spec.kind == "log_odds_ratio":
            assert same_estimate(estimate, expected)
        else:
            assert close_estimate(estimate, expected)


@st.composite
def knn_problems(draw, d=st.integers(1, 40)):
    """``(X, y, queries, k, chunk)`` on a one-decimal grid, so distances tie.

    In half the problems the training rows permute one row's coordinates
    and each query repeats one value, so the distances are equal in exact
    arithmetic and only the order of the additions decides their last bits
    and the neighbours.  k runs from 1 to past the training row count, and
    the queries fill two to four chunks of ``chunk`` rows plus a ragged tail.
    """
    d = draw(d)
    n = draw(st.integers(1, 60))
    chunk = draw(st.integers(2, 6))
    m = chunk * draw(st.integers(2, 4)) + draw(st.integers(1, chunk - 1))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from((0.3, 1.0, 3.0)))
    if draw(st.booleans()):
        X = g.permuted(np.tile(np.round(g.uniform(-spread, spread, d), 1), (n, 1)), axis=1)
        Q = np.tile(np.round(g.uniform(-spread, spread, (m, 1)), 1), (1, d))
    else:
        X = np.round(g.uniform(-spread, spread, (n, d)), 1)
        Q = np.round(g.uniform(-spread, spread, (m, d)), 1)
    return X, g.standard_normal(n), Q, draw(st.integers(1, n + 3)), chunk


def assert_knn_is_the_tensor_formula(problem):
    X, y, Q, k, chunk = problem
    budget = chunk * X.shape[0] * crossfit._live_planes(X.shape[1])
    with mock.patch.object(crossfit, "KNN_CHUNK_ELEMENTS", budget):
        predict = crossfit.KNearestLearner(k).fit(X, y)
    assert predict(Q).tobytes() == ref.knn_tensor_predict(X, y, Q, k).tobytes()


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(knn_problems())
def test_knn_predictions_are_bitwise_the_tensor_formula(problem):
    assert_knn_is_the_tensor_formula(problem)


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(knn_problems(d=st.sampled_from((129, 200, 249, 300))))
def test_knn_predictions_past_128_features_are_bitwise_the_tensor_formula(problem):
    # numpy's pairwise summation halves more than 128 numbers at a multiple of 8.
    assert_knn_is_the_tensor_formula(problem)


@PROPERTY_SETTINGS
@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_plane_sum_is_bitwise_numpy_sum(d, seed):
    g = np.random.default_rng(seed)
    terms = g.standard_normal((3, 4, d)) * np.exp2(g.integers(-30, 30, (3, 4, d)))
    total = crossfit._pairwise_planes(lambda j: terms[..., j].copy(), 0, d)
    assert total.tobytes() == np.sum(terms, axis=2).tobytes()


def counted(monkeypatch, name: str) -> list:
    """Record each call of ``estimators.<name>``."""
    calls, original = [], getattr(estimators, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators, name, wrapper)
    return calls


class TestEngineFallback:
    """The screens hand exactly the ill-conditioned resamples to the reference formulas."""

    X = np.array([[-1.5, 0.0], [0.0, 1.0], [0.5, 2.25], [1.0, 0.5], [2.25, 1.0], [0.5, -1.5]])
    y = np.array([0.5, -1.5, 2.25, 1.0, 0.0, 1.0])

    @pytest.mark.parametrize("feature, reason, fallback", [
        pytest.param("as-is", None, False, id="well-conditioned"),
        pytest.param("shifted", None, True, id="shifted-by-1e3"),
        pytest.param("duplicate", "singular design", True, id="duplicate-column"),
    ])
    def test_ols(self, monkeypatch, feature, reason, fallback):
        X = self.X.copy()
        X[:, 1] = {"as-is": X[:, 1], "shifted": X[:, 1] + 1000.0, "duplicate": X[:, 0]}[feature]
        calls = counted(monkeypatch, "fit_least_squares")
        spec = EstimandSpec("ols_coef", target_index=0)
        estimate = evaluate(spec, X, self.y)
        assert bool(calls) == fallback
        assert close_estimate(estimate, reference_estimate(spec, X, self.y))
        assert estimate.reason == reason

    @pytest.mark.parametrize("feature, reason, fallback", [
        pytest.param("as-is", None, False, id="well-conditioned"),
        pytest.param("shifted", None, True, id="shifted-by-1e3"),
        pytest.param("constant", "constant variable", True, id="constant-with-inexact-mean"),
    ])
    def test_pearson(self, monkeypatch, feature, reason, fallback):
        X = self.X.copy()
        X[:, 0] = {"as-is": X[:, 0], "shifted": X[:, 0] + 1000.0, "constant": np.full(6, 0.1)}[feature]
        calls = counted(monkeypatch, "_pearson_two_pass")
        spec = EstimandSpec("pearson_corr", feature_column=0)
        estimate = evaluate(spec, X, self.y)
        assert bool(calls) == fallback
        assert close_estimate(estimate, reference_estimate(spec, X, self.y))
        assert estimate.reason == reason

    def test_logistic_singular_design_takes_the_reference_rank(self, monkeypatch):
        X = np.column_stack([self.X[:, 0], self.X[:, 0]])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        calls = counted(monkeypatch, "fit_least_squares")
        assert evaluate(EstimandSpec("logistic_coef"), X, y).reason == "singular design"
        assert len(calls) == 1
