"""Property-based checks of the invariants the resample loop relies on.

Data are small and drawn from a handful of values, so ties, duplicate rows and
0/1 columns are the rule rather than the exception.  Results are compared bit
for bit, except that merged weighted rows are compared with the same
estimators on the unmerged rows at 1e-12, the chunked engine with the
reference formulas at 1e-12 (the log odds ratio's table bit for bit), and
that affine maps of the data, which change the rounding, are checked to a
relative 1e-9 (the quantile's order statistic still bit for bit).  A logistic
resample starts its Newton steps from its side's own fit, so its estimate and
a fresh side's (or IRLS from zero) agree with the same reason and to
``LOGISTIC_TOL``.  kNN predictions, whose distances are summed plane by plane,
are compared bit for bit with the full distance tensor.
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
    LearnerSpec,
    RngStream,
    UnlabeledDataset,
    classical_bootstrap_interval,
    evaluate,
    interval_resamplers,
    ppboot_draws,
    ppboot_interval,
)
from ppboot import crossfit, estimators
from ppboot.boot import resample_estimates
from ppboot.estimators import (
    ESTIMAND_KINDS,
    OUTCOME_ONLY_KINDS,
    REASONS,
    EstimateValue,
    _pearson_two_pass,
    canonical_resampler,
    fit_least_squares,
    fit_logistic,
    with_intercept,
)
from ppboot.resampling import PHASE_MAIN, UNLABELED_TAG, philox_keys

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
# Two logistic fits of one sample from different starts: each stops once its
# Newton step is below IRLS_TOL (1e-8), after which Newton's quadratic
# convergence leaves them within rounding of the maximum and of each other.
LOGISTIC_TOL = 1e-10


def bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def same_estimate(a, b) -> bool:
    return bits(a.value) == bits(b.value) and a.reason == b.reason


def close_estimate(a, b, tol: float = 1e-12) -> bool:
    both_nan = math.isnan(a.value) and math.isnan(b.value)
    return a.reason == b.reason and (both_nan or abs(a.value - b.value) <= tol)


def engine_estimates(resampler, draws) -> list[EstimateValue]:
    """``resampler.estimates`` on ``draws``, one :class:`EstimateValue` per resample."""
    values, codes = resampler.estimates(draws, len(draws))
    return [EstimateValue(float(v), REASONS[c]) for v, c in zip(values, codes, strict=True)]


def same_resample_estimate(spec, a, b) -> bool:
    """Two estimates of one resample: bit for bit, or for logistic (whose start depends on the side) to ``LOGISTIC_TOL``."""
    return close_estimate(a, b, LOGISTIC_TOL) if spec.kind == "logistic_coef" else same_estimate(a, b)


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
            assert same_resample_estimate(spec, estimate(idx), evaluate(spec, X[idx], y[idx]))


def unmerged_estimate(spec, X, y) -> EstimateValue:
    """The estimate from every row as given: no sorting, no merging, no weights."""
    if spec.kind == "log_odds_ratio":
        e = X[:, spec.exposure_column]
        n11, n10, n01, n00 = (float(np.sum((e == a) & (y == b))) for a, b in ((1, 1), (1, 0), (0, 1), (0, 0)))
        if min(n11, n10, n01, n00) == 0.0:
            return EstimateValue(math.nan, "empty cell")
        return EstimateValue(float(np.log((n11 * n00) / (n10 * n01))))
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
            li = ref.labeled_indices(labeled.n, seed, stream.child(PHASE_MAIN, b, r).path)
            est = evaluate(spec, labeled.features[li], labeled.outcomes[li])
            if est.ok:
                expected.append(est)
                break
    [(values, dropped)] = ppboot_draws(interval_resamplers(labeled, unlabeled, spec, 0.0), [0.0], B, stream, RETRIES)
    assert len(values) == len(expected)
    assert all(same_resample_estimate(spec, EstimateValue(v), e) for v, e in zip(values, expected))
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


@st.composite
def degenerate_prone_problems(draw, kind: str):
    """A spec of ``kind`` and a small labeled/unlabeled pair on which many resamples degenerate.

    A side's degeneracy turns on the row of its largest feature ``x``,
    which a resample misses about a third of the time: a second draw of it
    overflows the mean (its value is 1e308); without it an OLS design is
    singular (it holds the only 1 of a 0/1 feature), a logistic sample is
    separated (its outcome alone crosses the order of ``x``), a 2x2 cell is
    empty (it is the only exposed row of outcome 0) and a Pearson column is
    constant (0.1 elsewhere).  Quantiles never degenerate.  The labeled
    predictions of the 0/1 kinds are the outcomes with two of them flipped.
    """
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, N = draw(st.integers(8, 12)), draw(st.integers(10, 16))

    def side(m: int) -> tuple[np.ndarray, np.ndarray]:
        x, y = g.standard_normal(m), g.standard_normal(m)
        rare = x == x.max()
        if kind == "mean":
            y[rare] = 1e308
        elif kind == "ols_coef":
            x = rare.astype(float)
        elif kind == "logistic_coef":
            y = ((x > 0.0) != rare).astype(float)
        elif kind == "log_odds_ratio":
            x = ((g.random(m) < 0.5) | rare).astype(float)
            y = np.where(x == 1.0, ~rare, g.random(m) < 0.5).astype(float)
        elif kind == "pearson_corr":
            x = np.where(rare, x, 0.1)
        return x[:, None], y

    X, y = side(n)
    if kind in ("logistic_coef", "log_odds_ratio"):
        f = y.copy()
        f[:2] = 1.0 - f[:2]
    else:
        f = g.standard_normal(n)
    return EstimandSpec(kind, q=0.3), LabeledDataset(X, y, f), UnlabeledDataset(*side(N))


@pytest.mark.parametrize("kind", ESTIMAND_KINDS)
@settings(PROPERTY_SETTINGS, max_examples=4)
@given(data=st.data())
def test_the_resample_loop_keeps_what_a_plain_loop_keeps(kind, data):
    # A plain loop over the attempts: each side evaluated on its own drawn
    # rows, an attempt kept when all three are clean, else redrawn at r + 1
    # up to ``retries`` times; the classical value is the first side's at
    # its first clean attempt.
    spec, labeled, unlabeled = data.draw(degenerate_prone_problems(kind))
    seed = data.draw(st.integers(0, 2**32))
    base = (5, PHASE_MAIN)
    B, retries = 30, 2
    expected, classical, degenerate = [], [], 0
    for b in range(B):
        first = None
        for r in range(retries + 1):
            path = base + (b, r)
            li = ref.labeled_indices(labeled.n, seed, path)
            ui = ref.unlabeled_indices(unlabeled.N, seed, path)
            ests = [evaluate(spec, labeled.features[li], labeled.outcomes[li]),
                    evaluate(spec, labeled.features[li], labeled.predictions[li]),
                    evaluate(spec, unlabeled.features[ui], unlabeled.predictions[ui])]
            if first is None and ests[0].ok:
                first = ests[0]
            if all(e.ok for e in ests):
                expected.append(ests)
                break
            degenerate += 1
        if first is not None:
            classical.append(first)
    rows, dropped, got = resample_estimates(interval_resamplers(labeled, unlabeled, spec), B,
                                            RngStream(seed, base), retries)
    assert kind == "quantile" or degenerate > 0
    assert rows.shape == (len(expected), 3) and dropped == B - len(expected)
    assert all(same_resample_estimate(spec, EstimateValue(v), e)
               for row, ests in zip(rows.tolist(), expected) for v, e in zip(row, ests))
    assert len(got) == len(classical)
    assert all(same_resample_estimate(spec, EstimateValue(v), e) for v, e in zip(got.tolist(), classical))


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
    [(draws, _)] = ppboot_draws(sides, [ci.lambda_used], cfg.B, stream, RETRIES)
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
    inexact.  A continuous column other than the target is then scaled by
    ``2**k``, ``|k| <= 30``.
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
    # A power-of-two scale is exact and leaves the target's coefficient as it
    # is, but a large one makes the Gram matrix badly scaled, shifted or not.
    scalable = [j for j in range(d) if not binary[j] and j != spec.target_index]
    if scalable:
        X[:, draw(st.sampled_from(scalable))] *= 2.0 ** draw(st.integers(-30, 30))
    return spec, X, y


def draws_of(data, m: int, count: int) -> list[np.ndarray]:
    return [np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m)), dtype=np.intp)
            for _ in range(count)]


def reference_estimate(spec, X, y) -> EstimateValue:
    """The reference formulas on one resample: fit_least_squares, IRLS from zero, the centred two-pass Pearson, the 2x2 table.

    The rows are merged into counts as the engine merges them, so a resample
    the engine screens out must match bit for bit.
    """
    if spec.kind == "log_odds_ratio":
        return unmerged_estimate(spec, X, y)
    columns = [spec.feature_column] if spec.kind == "pearson_corr" else list(range(X.shape[1]))
    rows, counts = np.unique(np.column_stack([y, X[:, columns]]) + 0.0, axis=0, return_counts=True)
    y_rows, X_rows, w = rows[:, 0], rows[:, 1:], counts.astype(np.float64)
    if spec.kind == "pearson_corr":
        value, code = _pearson_two_pass(X_rows[:, 0], y_rows, w)
        return EstimateValue(value, REASONS[code])
    design = with_intercept(X_rows) if spec.intercept else X_rows
    if spec.kind == "logistic_coef":
        if y_rows[0] == y_rows[-1]:
            return EstimateValue(math.nan, "constant outcome")
        beta, reason = fit_logistic(design, y_rows, w)
        return EstimateValue(math.nan, reason) if reason else EstimateValue(float(beta[spec.target_index]))
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
        chunked = [e for chunk in chunks for e in engine_estimates(resampler, chunk)]
        assert all(same_estimate(a, c) for a, c in zip(alone, chunked, strict=True))
    # Reversed, every draw takes another position.
    reversed_ = engine_estimates(resampler, draws[::-1])
    assert all(same_estimate(a, c) for a, c in zip(alone[::-1], reversed_, strict=True))


@MERGE_SETTINGS
@given(engine_problems(), st.data())
def test_engine_agrees_with_the_reference_formulas(problem, data):
    spec, X, y = problem
    resampler = canonical_resampler(spec, X, y)
    draws = draws_of(data, y.size, 4)
    for idx, estimate in zip(draws, engine_estimates(resampler, draws), strict=True):
        expected = reference_estimate(spec, X[idx], y[idx])
        if spec.kind == "log_odds_ratio":
            assert same_estimate(estimate, expected)
        else:
            assert close_estimate(estimate, expected, LOGISTIC_TOL if spec.kind == "logistic_coef" else 1e-12)


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
        predict = LearnerSpec("knn", k).fit(X, y)
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


@st.composite
def key_paths(draw):
    """A master seed, a shared path prefix and the rows of path tails after it, 1 to 6 components in all."""
    seed = draw(st.one_of(st.integers(0, 2**64 - 1), st.sampled_from((0, 2**32 - 1, 2**63, 2**64 - 1))))
    component = st.integers(0, 2**32 - 1)
    prefix = draw(st.lists(component, max_size=5))
    width = draw(st.integers(1, 6 - len(prefix)))
    tails = draw(st.lists(st.lists(component, min_size=width, max_size=width), min_size=1, max_size=8))
    return RngStream(seed, tuple(prefix)), np.array(tails, dtype=np.uint64)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(key_paths())
def test_philox_keys_are_the_seed_sequence_keys(problem):
    # Computed here through numpy itself: a numpy whose SeedSequence hashes
    # otherwise fails this property.
    stream, tails = problem
    keys, unlabeled_keys = philox_keys(stream, tails)
    for tail, key, unlabeled_key in zip(tails.tolist(), keys, unlabeled_keys):
        path = stream.path + tuple(tail)
        assert key.dtype == unlabeled_key.dtype == np.uint64
        for spawn_key, got in ((path, key), (path + (UNLABELED_TAG,), unlabeled_key)):
            expected = np.random.SeedSequence(stream.master_seed, spawn_key=spawn_key).generate_state(2, np.uint64)
            assert got.tolist() == expected.tolist()


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
        resampler = canonical_resampler(EstimandSpec("logistic_coef"), X, y)
        assert resampler.anchor.tobytes() == np.zeros(3).tobytes()  # its own fit is singular
        calls = counted(monkeypatch, "fit_least_squares")
        assert resampler(np.arange(y.size)).reason == "singular design"
        assert len(calls) == 1


def newton_member_steps(monkeypatch) -> list:
    """Record the number of members of each stacked Newton step."""
    sizes, original = [], estimators._newton_step

    def wrapper(design, y, w, beta):
        sizes.append(beta.shape[0])
        return original(design, y, w, beta)

    monkeypatch.setattr(estimators, "_newton_step", wrapper)
    return sizes


class TestLogisticStack:
    """A small logistic side takes a chunk's later Newton steps as one stack, each member on its own."""

    rows = 40
    g = np.random.default_rng(7)
    # The second feature is nonzero on rows 0 and 1 only, so a resample
    # without them has a zero column and falls back to the reference.
    X = np.column_stack([g.standard_normal(rows), (np.arange(rows) < 2).astype(float)])
    y = (g.random(rows) < 1.0 / (1.0 + np.exp(-X[:, 0]))).astype(float)
    y[:2] = [0.0, 1.0]
    draws = [
        np.arange(rows),  # the side itself: its first step from the anchor converges
        np.concatenate([[0, 1], g.integers(0, rows, rows - 2)]),
        np.concatenate([[0, 1], g.integers(0, rows, rows - 2)]),
        g.integers(2, rows, rows),  # misses rows 0 and 1
    ]

    def test_members_stop_apart_and_one_falls_back(self, monkeypatch):
        resampler = canonical_resampler(EstimandSpec("logistic_coef"), self.X, self.y)
        assert resampler.rows <= estimators.STACK_ROWS
        sizes = newton_member_steps(monkeypatch)
        calls = counted(monkeypatch, "fit_least_squares")
        estimates = engine_estimates(resampler, self.draws)
        # Three members stack.  The side itself stops at its first step, so
        # the later steps start with two members; the fallback is singular
        # and takes none.
        assert sizes[0] == 2 and sorted(sizes, reverse=True) == sizes
        assert len(calls) == 1
        assert [e.reason for e in estimates] == [None, None, None, "singular design"]

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)])
    def test_estimate_is_the_same_alone_and_anywhere_in_a_chunk(self, order):
        resampler = canonical_resampler(EstimandSpec("logistic_coef"), self.X, self.y)
        alone = [resampler(idx) for idx in self.draws]
        draws = [self.draws[k] for k in order]
        for length in (2, 3, 4):
            chunks = [draws[start:start + length] for start in range(0, len(draws), length)]
            chunked = [e for chunk in chunks for e in engine_estimates(resampler, chunk)]
            assert all(same_estimate(alone[k], e) for k, e in zip(order, chunked, strict=True))


def test_a_zero_anchor_gives_the_least_squares_statistics_bit_for_bit():
    # Where a side's own fit is degenerate the engine's step is 4 times the
    # least-squares solve of y - 1/2, as from zero.
    g = np.random.default_rng(5)
    X = with_intercept(g.standard_normal((50, 2)) * np.array([1.0, 1e3]))
    y = (g.random(50) < 0.5).astype(float)
    stats = estimators._row_statistics("logistic_coef", X, y, np.zeros(3))
    i, j = np.triu_indices(3)
    expected = np.column_stack([X[:, i] * X[:, j], X * (y - 0.5)[:, None]])
    assert stats.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", [200, 2 * estimators.STACK_ROWS])
def test_anchored_newton_steps_are_fewer_than_from_zero(monkeypatch, rows):
    # A well-posed side, stacked (200 rows) or fitted per resample.
    g = np.random.default_rng(3)
    X = g.standard_normal((rows, 3))
    y = (g.random(rows) < 1.0 / (1.0 + np.exp(-(X @ np.array([0.8, -0.5, 0.3]) - 0.2)))).astype(float)
    spec = EstimandSpec("logistic_coef")
    resampler = canonical_resampler(spec, X, y)
    draws = [g.integers(0, rows, rows) for _ in range(20)]
    sizes = newton_member_steps(monkeypatch)
    anchored = engine_estimates(resampler, draws)
    anchored_steps, sizes[:] = sum(sizes), []
    for idx, estimate in zip(draws, anchored, strict=True):
        assert close_estimate(estimate, reference_estimate(spec, X[idx], y[idx]), LOGISTIC_TOL)
    # The reference fit starts from zero; the first step of each is free.
    assert anchored_steps < sum(sizes)


# Feature scales of the separation properties.  No verdict reads the size of
# the coefficients, so small features, whose coefficients are large, are
# judged as unit ones are.
FEATURE_SCALES = (1e-4, 1e-2, 1.0, 10.0, 1000.0)


@st.composite
def separated_designs(draw):
    """``(spec, X, y)``: integer rows on both sides of an integer hyperplane, so the data are separated.

    The outcome is 1 on the positive side.  Rows on the hyperplane are
    dropped (complete separation) or kept with outcomes of either kind
    (quasi-complete separation).  The features are then scaled.
    """
    d = draw(st.integers(1, 2))
    intercept = draw(st.booleans())
    normal = np.array(draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)))
    offset = draw(st.integers(-3, 3)) if intercept else 0
    X = np.array(draw(st.lists(st.lists(st.integers(-5, 5), min_size=d, max_size=d), min_size=4, max_size=30)),
                 dtype=np.float64)
    margin = X @ normal + offset
    y = (margin > 0).astype(np.float64)
    on = margin == 0
    if draw(st.booleans()):
        X, y = X[~on], y[~on]
    else:
        y[on] = draw(st.lists(st.sampled_from(BINARY), min_size=int(on.sum()), max_size=int(on.sum())))
    spec = EstimandSpec("logistic_coef", target_index=draw(st.integers(0, d - 1)), intercept=intercept)
    return spec, X * draw(st.sampled_from(FEATURE_SCALES)), y


@st.composite
def overlapping_designs(draw):
    """``(spec, X, y)``: every distinct feature row carries both outcomes, so the data are not separated."""
    d = draw(st.integers(1, 2))
    spec = EstimandSpec("logistic_coef", target_index=draw(st.integers(0, d - 1)), intercept=draw(st.booleans()))
    distinct = draw(st.lists(st.tuples(*[st.integers(-5, 5)] * d), min_size=1, max_size=8, unique=True))
    counts = draw(st.lists(st.integers(1, 3), min_size=2 * len(distinct), max_size=2 * len(distinct)))
    rows = np.repeat([r + (v,) for r in distinct for v in BINARY], counts, axis=0).astype(np.float64)
    return spec, rows[:, :d] * draw(st.sampled_from(FEATURE_SCALES)), rows[:, d]


@MERGE_SETTINGS
@given(separated_designs())
def test_separated_designs_never_give_a_clean_coefficient(problem):
    spec, X, y = problem
    if y.size < X.shape[1] + spec.intercept or np.all(y == y[0]):
        return
    assert evaluate(spec, X, y).reason in ("separation", "singular design")


@MERGE_SETTINGS
@given(overlapping_designs())
def test_designs_with_both_outcomes_on_every_row_never_read_separation(problem):
    spec, X, y = problem
    if y.size < X.shape[1] + spec.intercept:
        return
    assert evaluate(spec, X, y).reason in (None, "singular design")


@st.composite
def logistic_sides(draw):
    """``(spec, X, y, draws)``: a small side from a logistic model, and 15 resamples of it."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, d = draw(st.integers(8, 40)), draw(st.integers(1, 2))
    X = g.standard_normal((rows, d))
    y = (g.random(rows) < 1.0 / (1.0 + np.exp(-(X @ g.normal(0.0, 2.0, d))))).astype(np.float64)
    y[:2] = BINARY  # both outcomes
    spec = EstimandSpec("logistic_coef", target_index=draw(st.integers(0, d - 1)), intercept=draw(st.booleans()))
    return spec, X, y, [g.integers(0, rows, rows) for _ in range(15)]


@PROPERTY_SETTINGS
@given(logistic_sides(), st.data())
def test_a_power_of_two_feature_scale_keeps_every_engine_resample(side, data):
    # Scaling column j by 2**k is exact and scales its coefficient by 2**-k,
    # so every reason must stay.  The value must follow to within rounding
    # where k <= 0.  Where k > 0 the coefficient shrinks and IRLS, which
    # stops on an absolute step size (IRLS_TOL), stops it early: it drifts by
    # up to about 1e-4 relative at k = 20.
    spec, X, y, draws = side
    j, k = data.draw(st.integers(0, X.shape[1] - 1)), data.draw(st.integers(-20, 20))
    scaled = X.copy()
    scaled[:, j] *= 2.0 ** k
    factor = 2.0 ** k if j == spec.target_index else 1.0
    plain = engine_estimates(canonical_resampler(spec, X, y), draws)
    for a, b in zip(plain, engine_estimates(canonical_resampler(spec, scaled, y), draws), strict=True):
        assert a.reason == b.reason
        assert a.reason is not None or k > 0 or b.value * factor == pytest.approx(a.value, rel=1e-10)


@st.composite
def integer_sides(draw):
    """The values of an integer-valued mean side that sums exactly: 0/1 data, small integers or the 2**53 bound.

    Each holds ``-0.0`` sometimes.  A side ``at-bound`` has a value of the
    largest magnitude the bound allows, ``2**53 // size``, so the draw of
    that value ``size`` times sums to ``2**53`` where ``size`` divides it.
    """
    size = draw(st.sampled_from((1, 2, 3, 4, 7, 8, 16, 31, 32)) | st.integers(1, 40))
    kind = draw(st.sampled_from(("binary", "small", "at-bound")))
    top = 2**53 // size
    elements = {"binary": st.sampled_from(SIGNED_BINARY),
                "small": st.integers(-50, 50).map(float) | st.just(-0.0),
                "at-bound": st.integers(-top, top).map(float) | st.just(-0.0)}[kind]
    values = draw(st.lists(elements, min_size=size, max_size=size))
    if kind == "at-bound":
        values[draw(st.integers(0, size - 1))] = float(draw(st.sampled_from((top, -top))))
    return np.array(values)


def integer_side_draws(values: np.ndarray, data) -> list[np.ndarray]:
    """Random resamples, and the one that draws the largest magnitude every time."""
    size = values.size
    draws = [np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)))
             for _ in range(3)]
    return draws + [np.full(size, int(np.argmax(np.abs(values))))]


@PROPERTY_SETTINGS
@given(integer_sides(), st.data())
def test_an_integer_mean_side_sums_unsorted_to_the_sorted_bits(values, data):
    spec = EstimandSpec("mean")
    side = canonical_resampler(spec, None, values)
    assert side.exact_sum
    assert not canonical_resampler(EstimandSpec("quantile"), None, values).exact_sum
    draws = integer_side_draws(values, data)
    with mock.patch.object(estimators, "_outcome_kernel", wraps=estimators._outcome_kernel) as kernel:
        got = engine_estimates(side, draws)
    assert kernel.call_count == 0
    for idx, estimate in zip(draws, got, strict=True):
        # The parent's path: the sorted sum of the drawn values.
        assert estimate.ok and bits(estimate.value) == bits(estimators._outcome_kernel(spec, side.values[idx]))
        assert bits(estimate.value) == bits(float(np.sum(np.sort(values[idx] + 0.0))) / values.size)


@PROPERTY_SETTINGS
@given(integer_sides(), st.sampled_from(("fraction", "over-bound")), st.data())
def test_a_side_past_the_bound_or_with_a_fraction_sorts(values, change, data):
    spec = EstimandSpec("mean")
    values = values.copy()
    size = values.size
    # 2**53 + 1 is no double, so a side of one row goes over by 2.
    over = 2**53 // size + (2 if size == 1 else 1)
    values[data.draw(st.integers(0, size - 1))] = (data.draw(st.sampled_from((0.5, -2.5)))
                                                   if change == "fraction" else float(over))
    assert change == "fraction" or size * int(max(abs(values))) > 2**53
    side = canonical_resampler(spec, None, values)
    assert not side.exact_sum
    draws = integer_side_draws(values, data)
    with mock.patch.object(estimators, "_outcome_kernel", wraps=estimators._outcome_kernel) as kernel:
        side.estimates(draws, len(draws))
    assert kernel.call_count == len(draws)
