"""Whole intervals of the log odds ratio, the Pearson correlation, OLS and logistic against textbook forms.

``tests/_reference.py`` counts each resample's 2x2 table, correlates by the
centred formula, fits OLS by ``np.linalg.lstsq`` on the drawn rows, fits
logistic by Newton's method from zero after deciding separation in closed
form, and applies the retry-and-drop rule in a plain loop over the streams;
nothing in it comes from the package but its errors.  The problems are small
so that resamples often degenerate: tables with an empty cell, a feature
column that is constant but for two rows, a 0/1 column with two 1s, which a
resample often draws all 0, leaving the design singular, and logistic data
that a resample often draws separated.
"""

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
    ppboot_interval,
)
from ppboot.estimators import REASONS, canonical_resampler

B = 200
COLUMN = 1  # the exposure and the correlated feature sit after a column the estimands do not read


def odds_problem(seed):
    """Rare exposure and 0/1 outcomes, predictions 0/1 too: a resample's table often has an empty cell."""
    g = np.random.default_rng(seed)
    n, N = 16, 40
    e = (g.random(n) < 0.3).astype(float)
    y = (g.random(n) < 0.4 + 0.3 * e).astype(float)
    f = np.where(g.random(n) < 0.8, y, 1.0 - y)
    eu = (g.random(N) < 0.3).astype(float)
    fu = (g.random(N) < 0.4 + 0.3 * eu).astype(float)
    return np.column_stack([g.standard_normal(n), e]), y, f, np.column_stack([g.standard_normal(N), eu]), fu


def pearson_problem(seed):
    """A feature constant but for two rows on each side: a resample often draws it constant.

    Labeled, it is 0 elsewhere; unlabeled, 1000, whose mean dominates its
    spread, so the engine takes the centred two-pass formula there.
    """
    g = np.random.default_rng(seed)
    n, N = 15, 30
    x = np.zeros(n)
    x[:2] = [0.5, -0.25]
    xu = np.full(N, 1000.0)
    xu[:2] = [1000.25, 1002.0]
    y = x + g.standard_normal(n)
    f = y + 0.5 * g.standard_normal(n)
    fu = (xu - 1000.0) + g.standard_normal(N)
    return np.column_stack([g.standard_normal(n), x]), y, f, np.column_stack([g.standard_normal(N), xu]), fu


def ols_problem(seed, rare=False):
    """Two features and a linear outcome; with ``rare``, the target column is 0/1 with two 1s on each side."""
    g = np.random.default_rng(seed)
    n, N = 15, 30
    X, Xu = g.standard_normal((n, 2)), g.standard_normal((N, 2))
    if rare:
        X[:, COLUMN], Xu[:, COLUMN] = 0.0, 0.0
        X[:2, COLUMN], Xu[:2, COLUMN] = 1.0, 1.0
    y = X @ [0.5, -1.0] + g.standard_normal(n)
    f = y + 0.5 * g.standard_normal(n)
    fu = Xu @ [0.5, -1.0] + 0.5 * g.standard_normal(N)
    return X, y, f, Xu, fu


def logistic_problem(seed):
    """One feature and 0/1 outcomes of slope 2, 0/1 predictions: a resample is sometimes separated."""
    g = np.random.default_rng(seed)
    n, N = 16, 40
    x, xu = g.standard_normal(n), g.standard_normal(N)
    y = (g.random(n) < 1.0 / (1.0 + np.exp(-2.0 * x))).astype(float)
    f = np.where(g.random(n) < 0.8, y, 1.0 - y)
    fu = (g.random(N) < 1.0 / (1.0 + np.exp(-2.0 * xu))).astype(float)
    return x[:, None], y, f, xu[:, None], fu


def near_separated_problem(seed):
    """One feature on a grid of 1/2 whose sign is the class (either at 0), but for the rows (1/2, 0) and (-1/2, 1).

    Each side's classes overlap beyond the point 0 only through those two
    rows, so a resample that misses both is separated: quasi-completely
    (the classes' x ranges meet in one point) when it draws both classes
    at 0, which rows (0, 0) and (0, 1) make common.  The predictions flip
    one more labeled outcome.
    """
    g = np.random.default_rng(seed)

    def side(size):
        x = np.round(2.0 * g.standard_normal(size)) / 2.0
        y = np.where(x == 0.0, g.random(size) < 0.5, x > 0.0).astype(float)
        x[:4], y[:4] = [0.5, -0.5, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0]
        return x[:, None], y

    X, y = side(20)
    f = y.copy()
    f[4] = 1.0 - f[4]
    Xu, fu = side(40)
    return X, y, f, Xu, fu


# Each problem's estimand and data; all but "ols" often degenerate, "logistic" less often.
PROBLEMS = {
    "log_odds_ratio": ("log_odds_ratio", odds_problem),
    "pearson_corr": ("pearson_corr", pearson_problem),
    "ols": ("ols_coef", ols_problem),
    "ols-rare-binary": ("ols_coef", lambda seed: ols_problem(seed, rare=True)),
    "logistic": ("logistic_coef", logistic_problem),
    "logistic-near-separated": ("logistic_coef", near_separated_problem),
}
DEGENERATE = ["log_odds_ratio", "pearson_corr", "ols-rare-binary", "logistic-near-separated"]


def spec_of(kind):
    if kind == "logistic_coef":  # the slope of the one feature, whose separation the reference decides
        return EstimandSpec(kind)
    return EstimandSpec(kind, target_index=COLUMN, exposure_column=COLUMN, feature_column=COLUMN)


@pytest.mark.parametrize("retries", [10, 1])
@pytest.mark.parametrize("lam", [1.0, 0.6, 0.0])
@pytest.mark.parametrize("problem, seed", [("log_odds_ratio", 0), ("log_odds_ratio", 2), ("pearson_corr", 2),
                                           ("ols", 0), ("ols-rare-binary", 3), ("logistic", 0),
                                           ("logistic-near-separated", 0)])
def test_interval_is_the_textbook_interval(problem, seed, lam, retries):
    kind, make = PROBLEMS[problem]
    X, y, f, Xu, fu = make(seed)
    cfg = BootstrapConfig(B=B, alpha=0.1, lambda_mode="fixed", lambda_value=lam, max_degenerate_retries=retries)
    ci = ppboot_interval(LabeledDataset(X, y, f), UnlabeledDataset(Xu, fu), spec_of(kind), cfg, RngStream(seed, (4,)))
    lower, upper, values = ref.ppboot_interval(X, y, f, Xu, fu, kind, lam, B, 0.1, seed, (4,),
                                               column=COLUMN, max_retries=retries)
    assert ci.lower == pytest.approx(lower, abs=1e-8)
    assert ci.upper == pytest.approx(upper, abs=1e-8)
    assert ci.degenerate_iterations == B - len(values)
    sides = [ref.est_value(kind, X, y, column=COLUMN)]
    if lam != 0.0:
        sides += [ref.est_value(kind, X, f, column=COLUMN), ref.est_value(kind, Xu, fu, column=COLUMN)]
    point = sides[0] if lam == 0.0 else lam * sides[2] + (sides[0] - lam * sides[1])
    assert ci.point_estimate == pytest.approx(point, abs=1e-8)


@pytest.mark.parametrize("problem", DEGENERATE)
def test_problems_exercise_the_retry_and_drop_rule(problem):
    # Some iteration of each problem is dropped after one retry: the cases
    # above check the dropped count, not only the endpoints.
    kind, make = PROBLEMS[problem]
    X, y, f, Xu, fu = make(2)
    _, _, values = ref.ppboot_interval(X, y, f, Xu, fu, kind, 1.0, B, 0.1, 2, (4,), column=COLUMN, max_retries=1)
    assert 0 < B - len(values) < B // 2


def test_fewer_than_half_kept_fails_in_both():
    # The labeled predictions' table has an empty cell, so every resample of it has one too.
    X, y, f, Xu, fu = odds_problem(1)
    assert ref.log_odds_ratio(X[:, COLUMN], f)[1] == "empty cell"
    cfg = BootstrapConfig(B=B, lambda_mode="fixed", lambda_value=1.0)
    with pytest.raises(EstimationError, match=r"^bootstrap failure: only 0 of 200 iterations usable"):
        ppboot_interval(LabeledDataset(X, y, f), UnlabeledDataset(Xu, fu), spec_of("log_odds_ratio"), cfg,
                        RngStream(1, (4,)))
    with pytest.raises(EstimationError, match="only 0 of 200"):
        ref.ppboot_interval(X, y, f, Xu, fu, "log_odds_ratio", 1.0, B, 0.1, 1, (4,), column=COLUMN)


@pytest.mark.parametrize("side", ["labeled", "unlabeled"])
@pytest.mark.parametrize("problem", DEGENERATE)
def test_each_resample_is_the_textbook_value_and_reason(problem, side):
    # Degenerate resamples never reach an interval, so their values are
    # compared here: NaN where a table has an empty cell, and each reason code.
    kind, make = PROBLEMS[problem]
    X, y, _, Xu, fu = make(0)
    if side == "unlabeled":
        X, y = Xu, fu
    draws = [ref.labeled_indices(y.size, 9, (b,)) for b in range(300)]
    values, codes = canonical_resampler(spec_of(kind), X, y).estimates(draws, len(draws))
    reasons = set()
    for idx, value, code in zip(draws, values.tolist(), codes.tolist()):
        expected, reason = ref.estimate(kind, X[idx], y[idx], column=COLUMN)
        assert REASONS[code] == reason
        reasons.add(reason)
        if math.isnan(expected):
            assert math.isnan(value)
        else:
            assert value == pytest.approx(expected, abs=1e-8)
    assert len(reasons) == 2  # clean and degenerate resamples both occur


def test_near_separated_resamples_reach_the_one_point_overlap():
    # The closed-form rule's boundary: some resamples' classes meet in one
    # point (quasi-complete separation, which the engine must find from
    # vanishing weights), others overlap on more and have a finite fit.
    X, y, _, _, _ = near_separated_problem(0)
    overlaps = set()
    for b in range(100):
        idx = ref.labeled_indices(y.size, 9, (b,))
        zeros, ones = X[idx, 0][y[idx] == 0.0], X[idx, 0][y[idx] == 1.0]
        overlaps.add(min(zeros.max(), ones.max()) - max(zeros.min(), ones.min()))
    assert 0.0 in overlaps and max(overlaps) > 0.0
