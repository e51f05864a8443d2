"""Scalar estimators applied interchangeably to outcomes and to predictions.

Every estimate takes one path: check, merge, reduce.  :func:`check_args` is
the one argument check: wrong shapes, empty input or non-binary data raise
``ValueError`` there.  :func:`canonical_resampler` is the one place where row
order is decided: for the feature-keyed estimands (Pearson, log odds ratio,
OLS, logistic) it merges the rows that tie on their key into sorted rows, and
a resample becomes a vector of counts over them; mean and quantile keep the
drawn values.  :class:`Resampler` reduces a chunk of resamples to a value
array and a reason-code array, and :func:`evaluate` is the identity resample.
Conditions that make the target ill-defined on a sample (singular design,
separation, constant variables) are reason codes into ``REASONS``, not
exceptions, so the bootstrap loop can redraw.  The engine's screens send an
ill-conditioned resample to the reference formula alone
(:func:`fit_least_squares`, :func:`fit_logistic`, :func:`_pearson_two_pass`),
so its code is the one that formula gives.  README "How a resample is
computed" explains the band grid, the screens and the separation rule.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import NUMBER, check_config
from .resampling import nearest_rank_index

ESTIMAND_KINDS = (
    "mean",
    "quantile",
    "ols_coef",
    "logistic_coef",
    "log_odds_ratio",
    "pearson_corr",
)
REPORT_TRANSFORMS = ("identity", "exp", "fisher_z_inverse")
# Estimands of the outcomes alone; the others read feature columns too.
OUTCOME_ONLY_KINDS = ("mean", "quantile")

# A chunk's count matrix (resamples x merged rows, float64) and its labeled
# draws (resamples x n, int64) each stay within CHUNK_BYTES: about 13
# resamples at 9800 merged rows.  A mean or quantile chunk holds only its
# labeled draws, within DRAW_CHUNK_BYTES: 32 resamples at n = 1000.  Four
# times that measured no faster and 0.45 MB more peak memory on two threads
# at n = 1000, N = 100k (a 2-vCPU Xeon).
CHUNK_BYTES = 1 << 20
DRAW_CHUNK_BYTES = 1 << 18
# Band boundaries lie at bit BAND_OFFSET + k * width (see _split_bands).  Any
# fixed grid is exact; this one lets a statistic of moderate size, from about
# 2**-16 to 2**8 at 10**4 rows, take two bands where it would straddle three.
BAND_OFFSET = 8
# Screens that send a resample from the chunked engine to the reference
# formula alone.  SCALED_CONDITION_MAX bounds the conditioning of the
# unit-diagonal Gram matrix, which (van der Sluis, 1969) sets how far the
# solve of the normal equations strays from fit_least_squares at any column
# scale (2e-13 at most on designs like the property tests'; 1e4 allowed
# 2e-12).  PEARSON_CANCELLATION is the smallest centred share of a raw
# second moment the raw-moment formula takes.
SCALED_CONDITION_MAX = 1e3
PEARSON_CANCELLATION = 1.0 / 64.0

IRLS_TOL = 1e-8
# A logistic side of at most this many merged rows takes its later Newton
# steps as one stack over a chunk's resamples, on the merged rows; a larger
# side takes them per resample, on the drawn rows.
STACK_ROWS = 512
IRLS_MAX_ITER = 100
# The relative tolerance of the separation test (_separates).
SEPARATION_TOL = 1e-10

# The reason of each code the engine returns beside a value; code 0 is a clean estimate.
REASONS = (None, "non-finite estimate", "constant variable", "singular design", "separation",
           "constant outcome", "empty cell")
CODE = {reason: code for code, reason in enumerate(REASONS)}


@dataclass(frozen=True)
class EstimateValue:
    """A scalar estimate plus an optional degeneracy reason.

    ``reason`` is ``None`` for a clean estimate.  A non-``None`` reason marks
    the sample as degenerate for this estimand and comes with a value that
    is not finite: the engine gives NaN, for example with ``"empty cell"``
    for a log odds ratio table with an empty cell.  Every interval path
    redraws such a resample, and a point estimate or a study's ground truth
    on it fails.
    A clean estimate is finite: a non-finite value given without a reason
    gets the reason ``"non-finite estimate"``, so an unforeseen overflow
    never passes as a value.
    """

    value: float
    reason: str | None = None

    def __post_init__(self):
        if self.reason is None and not math.isfinite(self.value):
            object.__setattr__(self, "reason", "non-finite estimate")

    @property
    def ok(self) -> bool:
        return self.reason is None


@dataclass(frozen=True)
class EstimandSpec:
    """Which scalar functional is targeted and its estimator parameters."""

    kind: str
    q: float = 0.5
    target_index: int = 0
    intercept: bool = True
    exposure_column: int = 0
    feature_column: int = 0
    transform: str = "identity"

    def __post_init__(self):
        if self.kind not in ESTIMAND_KINDS:
            raise ValueError(f"unknown estimand kind {self.kind!r}; expected one of {ESTIMAND_KINDS}")
        if self.transform not in REPORT_TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}; expected one of {REPORT_TRANSFORMS}")
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"quantile level must lie strictly inside (0, 1): got {self.q}")
        for name in ("target_index", "exposure_column", "feature_column"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def from_dict(cls, raw: dict) -> "EstimandSpec":
        check_config(raw, {
            "kind": (str,), "q": NUMBER, "target_index": (int,), "intercept": (bool,),
            "exposure_column": (int,), "feature_column": (int,), "transform": (str,),
        }, "estimand")
        if "kind" not in raw:
            raise ValueError("estimand config requires a 'kind' key")
        return cls(**raw)


def _as_array(values, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    return arr


def _require_binary(arr: np.ndarray, name: str) -> None:
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ValueError(f"{name} must contain only 0/1 values")


def _require_column(index: int, name: str, X: np.ndarray) -> None:
    if not (0 <= index < X.shape[1]):
        raise ValueError(f"{name} {index} outside [0, {X.shape[1]})")


def check_args(spec: EstimandSpec, features, outcomes, name: str = "outcomes") -> tuple[np.ndarray | None, np.ndarray]:
    """The one argument check: ``(features, outcomes)`` as float arrays, or ``ValueError``.

    ``name`` is what the messages call ``outcomes``: an interval names each
    side it checks ("labeled predictions", ...), and its features after it
    ("labeled features", ...).

    Mean and quantile never read ``features`` (it may be ``None``, and comes
    back as ``None``).  A resample keeps its source's shape and a subset of
    its values, so one check covers it.
    """
    if spec.kind in OUTCOME_ONLY_KINDS:
        y = _as_array(outcomes, name, 1)
        if y.size < 1:
            raise ValueError(f"{name} must be non-empty")
        return None, y
    X = _as_array(features, "features", 2)
    if spec.kind == "log_odds_ratio":
        _require_column(spec.exposure_column, "exposure_column", X)
        features_name = " ".join(name.split()[:-1] + ["features"])
        _require_binary(X[:, spec.exposure_column], f"exposure in the {features_name}")
    y = _as_array(outcomes, name, 1)
    if spec.kind in ("logistic_coef", "log_odds_ratio"):
        _require_binary(y, name)
    if X.shape[0] != y.size:
        what = "length mismatch: exposure" if spec.kind == "log_odds_ratio" else "row mismatch: features"
        raise ValueError(f"{what} {X.shape[0]} vs {name} {y.size}")
    if spec.kind == "log_odds_ratio":
        if y.size < 4:
            raise ValueError("need at least 4 observations for a 2x2 table")
    elif spec.kind == "pearson_corr":
        _require_column(spec.feature_column, "feature_column", X)
        if y.size < 3:
            raise ValueError("need at least 3 observations")
    else:
        _require_column(spec.target_index, "target_index", X)
        columns = X.shape[1] + spec.intercept
        if y.size < columns:
            raise ValueError(f"need at least {columns} rows, got {y.size}")
    return X, y


def with_intercept(X: np.ndarray) -> np.ndarray:
    """Design matrix with a trailing column of ones."""
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # exp(-|eta|) never overflows; both branches are the textbook forms
    # 1 / (1 + exp(-eta)) and exp(eta) / (1 + exp(eta)), bit for bit.
    t = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, t) / (1.0 + t)


def fit_least_squares(design: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """Weighted least squares: ``(beta, rank)``, row ``i`` counting ``w[i]`` times (all once by default).

    Scaling row ``i`` by ``sqrt(w[i])`` gives the singular values of the
    design with row ``i`` repeated ``w[i]`` times, so numpy's default cut,
    ``eps * max(rows, columns)``, taken over the expanded rows makes ``rank``
    their rank.  Each column is first scaled by an exact power of two that
    puts its largest magnitude in [1/2, 1) (a zero column is left alone), so
    the cut compares columns on one footing: an intercept beside features of
    magnitude 1e14 is not cut as negligible.  ``beta`` is scaled back.
    """
    w = np.ones(y.size) if w is None else w
    root = np.sqrt(w)
    # frexp(0) has exponent 0: a zero column keeps its scale.
    exponent = np.frexp(np.max(np.abs(design), axis=0))[1]
    cut = np.finfo(np.float64).eps * max(np.sum(w), design.shape[1])
    # y * root may overflow on outcomes near the float range; callers reject
    # the non-finite coefficients that follow.
    with np.errstate(over="ignore", invalid="ignore"):
        beta, _, rank, _ = np.linalg.lstsq(np.ldexp(design, -exponent) * root[:, None], y * root, rcond=cut)
    return np.ldexp(beta, -exponent), rank


def fit_logistic(design: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> tuple[np.ndarray | None, str | None]:
    """Maximum-likelihood logistic fit via iteratively reweighted least squares.

    Row ``i`` counts ``w[i]`` times (all once by default).  Returns
    ``(beta, None)``, or ``(None, reason)`` when the fit is ill-posed.  IRLS
    (:func:`_irls`) starts from zero, where every fitted probability is 1/2,
    so the first Newton step is 4 times the weighted least-squares fit of
    ``y - 1/2``.  It comes from :func:`fit_least_squares`, and a design
    without full column rank there (the test of ``ols_coef``) is a
    "singular design".
    """
    w = np.ones(y.size) if w is None else w
    step, rank = fit_least_squares(design, y - 0.5, w)
    if rank < design.shape[1]:
        return None, "singular design"
    return _irls(design, y, w[None], np.zeros((1, design.shape[1])), 4.0 * step[None])[0]


def _irls(
    design: np.ndarray, y: np.ndarray, w: np.ndarray, beta: np.ndarray, step: np.ndarray
) -> list[tuple[np.ndarray | None, str | None]]:
    """The one IRLS loop, on a stack of members: ``(beta, reason)`` for each.

    Member ``k`` weights the rows by ``w[k]``, starts at ``beta[k]`` and
    takes ``step[k]`` first.  Each later Newton step is computed per member
    by the same matrix products and LAPACK solve whatever the stack holds,
    so a member's bits do not depend on the others.  A member converges when
    its largest absolute coefficient change drops below ``IRLS_TOL``; it
    stops after ``IRLS_MAX_ITER`` steps, the first included.  It ends in
    separation when :func:`_newton_step` says so, or as soon as its
    coefficients stop being finite, before they enter a product.
    """
    fits: list = [None] * w.shape[0]
    live, separated = np.arange(w.shape[0]), np.zeros(w.shape[0], dtype=bool)
    for iteration in range(IRLS_MAX_ITER):
        if iteration:
            step, separated = _newton_step(design, y, w, beta)
        beta = beta + step
        separated |= ~np.isfinite(beta).all(axis=1)
        done = separated | (np.abs(step).max(axis=1) < IRLS_TOL)
        if iteration == IRLS_MAX_ITER - 1:
            done[:] = True
        if not done.any():
            continue
        for a in np.flatnonzero(done):
            fits[live[a]] = (None, "separation") if separated[a] else (beta[a], None)
        if done.all():
            break
        live, w, beta = live[~done], w[~done], beta[~done]
    return fits


def _newton_step(design: np.ndarray, y: np.ndarray, w: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each member's Newton step from ``beta[k]``, and whether the member ends there in separation.

    It does when its Hessian is singular (the design has full rank, so the
    fitted probabilities saturated the weights to zero), or when
    :func:`_separates` says so, which is asked only where a margin on a row
    of positive weight exceeds ``log(1 / (4 SEPARATION_TOL))`` in size:
    below that every weight ``μ (1 - μ)`` is at least ``SEPARATION_TOL``.
    """
    eta = (design @ beta[:, :, None])[:, :, 0]
    mu = _sigmoid(eta)
    hessian = design.T @ (design * (w * mu * (1.0 - mu))[:, :, None])
    score = design.T @ (w * (y - mu))[:, :, None]
    separated = np.zeros(w.shape[0], dtype=bool)
    try:
        step = np.linalg.solve(hessian, score)[:, :, 0]
    except np.linalg.LinAlgError:
        # LAPACK solves each matrix on its own: solving them one at a time
        # gives the same bits, and finds the singular ones.
        step = np.zeros(beta.shape)
        for k in range(w.shape[0]):
            try:
                step[k] = np.linalg.solve(hessian[k], score[k])[:, 0]
            except np.linalg.LinAlgError:
                separated[k] = True
    limit = -math.log(4.0 * SEPARATION_TOL)
    if np.abs(eta).max() > limit:  # every row first, in one cheap reduction
        tried = np.max(np.abs(eta), axis=1, where=w > 0.0, initial=0.0) > limit
        separated |= tried & _separates(design, y, w, beta, eta, hessian)
    return step, separated


def _separates(
    design: np.ndarray, y: np.ndarray, w: np.ndarray, beta: np.ndarray, eta: np.ndarray, hessian: np.ndarray
) -> np.ndarray:
    """Whether ``beta[k]`` shows the rows of positive weight ``w[k]`` to be separated, for each ``k``.

    Albert and Anderson (Biometrika 1984): the likelihood has no maximum when
    some direction ``v`` has every margin ``(2y - 1) x·v`` at least 0 and one
    above 0, here up to ``SEPARATION_TOL`` times the largest, rounding room
    free of the features' scale (a row with both outcomes has the margins
    ``±x·v``).  ``beta`` itself finds complete separation, where IRLS drives
    every margin up.  Under quasi-complete separation the weights
    ``μ (1 - μ)`` vanish but on the boundary rows, which keep margins of both
    signs, so ``v`` is the part of ``beta`` along which the Hessian
    ``H = xᵀ W M x`` is below ``SEPARATION_TOL`` times ``G = xᵀ W x`` (``W``
    the counts).  There is none where ``H - SEPARATION_TOL G`` is positive
    definite, as one factorization of the stack usually shows.
    """
    # A row of zero weight gets the sign 0, and so a margin that decides nothing.
    sign = np.where(w > 0.0, 2.0 * y - 1.0, 0.0)
    margin = sign * eta
    gram = design.T @ (design * w[:, :, None])
    try:
        np.linalg.cholesky(hessian - SEPARATION_TOL * gram)
    except np.linalg.LinAlgError:
        if w.shape[0] > 1:  # each half again, down to the members that fail alone
            halves = (slice(None, w.shape[0] // 2), slice(w.shape[0] // 2, None))
            return np.concatenate([_separates(design, y, w[h], beta[h], eta[h], hessian[h]) for h in halves])
        with contextlib.suppress(np.linalg.LinAlgError):  # where G is not positive definite, no direction
            root = np.linalg.cholesky(gram[0])
            # The eigenvalues of H relative to G = L Lᵀ are those of L⁻¹ H L⁻ᵀ.
            inverse = np.linalg.inv(root)
            ratios, vectors = np.linalg.eigh(inverse @ hessian[0] @ inverse.T)
            null = vectors[:, ratios < SEPARATION_TOL]
            direction = inverse.T @ (null @ (null.T @ (root.T @ beta[0])))
            margin = np.stack([margin, sign * (design @ direction)])
    top = margin.max(axis=-1)
    return ((top > 0.0) & (margin.min(axis=-1) >= -SEPARATION_TOL * top)).reshape(-1, w.shape[0]).any(axis=0)


def _outcome_kernel(spec: EstimandSpec, y: np.ndarray) -> float:
    """Mean or quantile of the drawn values ``y``, in any order; ``y`` is sorted or partitioned in place."""
    if spec.kind == "mean":
        # Sorted, so the float sum does not depend on the input order.  An
        # overflowed sum is not finite, which no loop keeps.
        y.sort()
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.sum(y)) / y.size
    k = nearest_rank_index(spec.q, y.size)
    y.partition(k)
    return float(y[k])


def _sums_exactly(values: np.ndarray) -> bool:
    """Whether every sum of ``values.size`` draws from ``values`` is exact in any order.

    It is when the values are integers and ``size * max|v| <= 2**53``: then
    every partial sum is an integer of at most that magnitude, which a double
    holds exactly.  The product is taken in Python integers, so it is exact too.
    """
    if not np.all(values == np.trunc(values)):  # NaN and inf fail here or at the bound
        return False
    top = float(np.max(np.abs(values)))
    return math.isfinite(top) and values.size * int(top) <= 2**53


def _pearson_two_pass(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[float, int]:
    """Weighted Pearson correlation, centred first, and its code: the reference the raw-moment path is screened against."""
    # Exact tests, since a constant column whose mean is inexact has a
    # nonzero centred sum of squares.  The merged rows are sorted by y.
    if y[0] == y[-1] or np.all(x == x[0]):
        return math.nan, CODE["constant variable"]
    # Scaling by a power of two into [-1, 1] is exact, so a normal-range
    # sample keeps its bits, and the squares and their product stay in range
    # at any magnitude.
    x = np.ldexp(x, -int(np.frexp(np.max(np.abs(x)))[1]))
    y = np.ldexp(y, -int(np.frexp(np.max(np.abs(y)))[1]))
    # np.sum, not np.dot: BLAS splits long dot products across its threads,
    # which would tie the bits to the thread count.
    total = np.sum(w)
    xc = x - np.sum(w * x) / total
    yc = y - np.sum(w * y) / total
    wxc = w * xc
    denom = np.sqrt(np.sum(wxc * xc) * np.sum(w * yc * yc))
    if denom == 0.0:  # a guard: after the scaling the squares cannot underflow
        return math.nan, CODE["constant variable"]
    return float(np.sum(wxc * yc) / denom), 0


def _row_statistics(kind: str, X: np.ndarray, y: np.ndarray, anchor: np.ndarray | None = None) -> np.ndarray:
    """Per merged row, the statistics whose count-weighted sums give the estimate.

    One-hot cells for the log odds ratio; the raw moments x, y, x², y², xy for
    Pearson; for OLS the upper triangle of ``x xᵀ`` and then ``x y``.  For
    logistic, the Newton step from ``anchor``, with fitted probabilities
    ``μ``: the upper triangle of ``x xᵀ`` times ``4 μ (1 - μ)``, and then
    ``x (y - μ)``.  The factor 4 makes the weights exactly 1 at a zero
    anchor, where ``μ`` is exactly 1/2, so there the statistics are those of
    the least-squares fit of ``y - 1/2`` and the step is 4 times its solve.
    """
    weight = None
    if kind == "log_odds_ratio":
        e, f = X[:, 0], 1.0 - X[:, 0]
        pairs = [(e, y), (e, 1.0 - y), (f, y), (f, 1.0 - y)]
    elif kind == "pearson_corr":
        x, one = X[:, 0], np.ones_like(y)
        pairs = [(x, one), (y, one), (x, x), (y, y), (x, y)]
    else:
        t = y
        if kind == "logistic_coef":
            mu = _sigmoid(X @ anchor)
            t, weight = y - mu, 4.0 * mu * (1.0 - mu)
        p = X.shape[1]
        pairs = [(X[:, i], X[:, j]) for i in range(p) for j in range(i, p)] + [(X[:, i], t) for i in range(p)]
    stats = np.empty((y.size, len(pairs)))
    # A product may overflow; _split_bands and the screens handle infinities.
    with np.errstate(over="ignore", invalid="ignore"):
        for c, (a, b) in enumerate(pairs):
            np.multiply(a, b, out=stats[:, c])
        if weight is not None:
            stats[:, :-X.shape[1]] *= weight[:, None]
    return stats


def _split_bands(stats: np.ndarray, size: int) -> list[tuple[np.ndarray | None, np.ndarray]]:
    """Split ``stats`` into bands on a fixed power-of-two grid, smallest band first.

    A band holds a value's bits in ``[2**u, 2**(u+b))``, where
    ``b = 52 - size.bit_length()`` and ``u = BAND_OFFSET + k*b`` for an
    integer ``k``, and the bands of a value add up to it.  The grid is
    absolute, so a row's bands do not depend on the other rows.  Any count
    vector over the rows sums to at most ``size``, so each count times a band
    value is exact and every partial sum of a band column is a multiple of
    ``2**u`` below ``2**(u + 52)``: the band sums are exact in any order, on
    any BLAS blocking or thread count.

    Each band is ``(rows, values)``: ``values`` holds the band on ``rows``,
    or on every row when ``rows`` is None.  Zero rows add exact zeros, so a
    band that is zero on most rows keeps only the others, and an empty band
    is dropped.  ``stats`` is overwritten.  Non-finite statistics (overflowed
    products) are left unsplit: every sum they enter is then non-finite or
    NaN, which fails every screen.
    """
    if not np.all(np.isfinite(stats)):
        return [(None, stats)]
    magnitude = np.abs(stats)
    top = float(np.max(magnitude, initial=0.0))
    if top == 0.0:
        return [(None, stats)]
    # A value v has no bits below 2**(frexp(v)[1] - 53), and none lies below 2**-1074.
    low = max(int(np.frexp(np.min(magnitude, where=stats != 0.0, initial=top))[1]) - 53, -1074)
    del magnitude
    width = 52 - size.bit_length()
    # The highest band: top < 2**(unit + width).
    unit = BAND_OFFSET + (-(-(int(np.frexp(top)[1]) - BAND_OFFSET) // width) - 1) * width
    bands = []
    while True:
        if unit <= low:  # the lowest band: all that is left
            band, stats = stats, None
        else:  # in place: one new array per band
            band = np.ldexp(stats, -unit)
            np.trunc(band, out=band)
            np.ldexp(band, unit, out=band)
            stats -= band
        rows = np.flatnonzero(np.any(band, axis=1))
        if 2 * rows.size > band.shape[0]:
            bands.append((None, band))
        elif rows.size:
            bands.append((rows, band[rows]))
        if stats is None:
            return bands[::-1]
        unit -= width


def _solve_gram(G: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``G beta = r`` for a stack of small Gram matrices; ``(beta, ok)``.

    One batched ``np.linalg.eigh`` of the unit-diagonal ``S = D^-1/2 G D^-1/2``
    gives ``S = V diag(w) Vᵀ``; LAPACK takes each matrix on its own, so a
    result does not depend on its position or on the stack's length.  ``ok``
    is the screen: ``p Σ 1/w`` (that is, ``p Σ G_jj (G⁻¹)_jj``) within
    ``SCALED_CONDITION_MAX``, every ``w`` positive and ``beta`` finite.  A
    matrix with a non-finite entry or a non-positive diagonal, on which
    LAPACK could fail the whole stack, is skipped and not ok.
    """
    beta = np.full(r.shape, np.nan)
    ok = np.zeros(r.shape[0], dtype=bool)
    diagonal = np.diagonal(G, axis1=1, axis2=2)
    run = np.isfinite(G).all(axis=(1, 2)) & np.isfinite(r).all(axis=1) & np.all(diagonal > 0.0, axis=1)
    s = 1.0 / np.sqrt(diagonal[run])
    w, V = np.linalg.eigh(G[run] * s[:, :, None] * s[:, None, :])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # beta = s V diag(1/w) Vᵀ (s r)
        z = (V * (s * r[run])[:, :, None]).sum(axis=1) / w
        beta[run] = s * (V * z[:, None, :]).sum(axis=2)
        ok[run] = (w[:, 0] > 0.0) & (r.shape[1] * (1.0 / w).sum(axis=1) <= SCALED_CONDITION_MAX)
    return beta, ok & np.isfinite(beta).all(axis=1)


class Resampler:
    """One checked and merged dataset; a resample is a vector of counts over its rows.

    Built by :func:`canonical_resampler`.  :meth:`estimates` gives the
    estimate on each of a chunk of resamples, as a value and a reason code
    into ``REASONS``; calling it gives one :class:`EstimateValue`.  For mean
    and quantile ``values`` holds the sample and each draw is estimated on
    its own drawn values; ``exact_sum`` marks a mean side that sums its
    draws unsorted (:func:`_sums_exactly`).  For the other kinds ``X``, ``y``
    are the merged rows in key order, ``row_id`` maps each sample row to its
    merged row, and ``bands``
    holds the rows' statistics (:func:`_row_statistics`) split by
    :func:`_split_bands`.  For logistic, ``anchor`` is the side's own fit
    (zero when that is degenerate), from which the engine's Newton step is
    taken.  A plain class: a frozen dataclass would add about 1 ms to every
    import of the package.
    """

    def __init__(
        self,
        spec: EstimandSpec,
        size: int,
        values: np.ndarray | None = None,
        X: np.ndarray | None = None,
        y: np.ndarray | None = None,
        row_id: np.ndarray | None = None,
        bands: list[tuple[np.ndarray | None, np.ndarray]] | None = None,
        anchor: np.ndarray | None = None,
        exact_sum: bool = False,
    ):
        self.spec, self.size, self.values, self.exact_sum = spec, size, values, exact_sum
        self.X, self.y, self.row_id, self.bands, self.anchor = X, y, row_id, bands, anchor

    @property
    def rows(self) -> int:
        """Columns of this side's count matrix, its merged rows; 0 for mean and quantile, which have none.

        A mean or quantile side estimates each draw as it is read and holds
        no per-draw entries across a chunk (:func:`chunk_length`).
        """
        return 0 if self.values is not None else self.y.size

    def __call__(self, idx: np.ndarray) -> EstimateValue:
        """The estimate on the single resample ``idx``: a chunk of one."""
        values, codes = self.estimates([idx], 1)
        return EstimateValue(float(values[0]), REASONS[codes[0]])

    def estimates(self, draws: Iterable[np.ndarray], count: int) -> tuple[np.ndarray, np.ndarray]:
        """The estimate on each of ``count`` resamples, each draw holding its drawn row indices.

        Returns ``(values, codes)``: float64 estimates and int8 indices into
        ``REASONS``, code 0 for a clean estimate.  A clean value may still
        be non-finite (an overflow), which :class:`EstimateValue` and the
        loop's keep step both treat as degenerate.  ``draws`` is read once,
        in order, and no draw is kept, so a caller may generate them as they
        are read.  The draws' counts over the merged rows form a count
        matrix, whose product with ``bands`` gives each resample's exact band
        sums; adding the bands smallest first gives its statistic sums.
        Every resample's bits depend on its own counts alone.
        """
        spec = self.spec
        if self.values is not None:
            if self.exact_sum:  # the sorted sum's bits, without the sort
                values = np.fromiter((self.values.take(idx).sum() for idx in draws), np.float64, count) / self.size
            else:
                values = np.fromiter((_outcome_kernel(spec, self.values.take(idx)) for idx in draws), np.float64, count)
            return values, np.zeros(count, dtype=np.int8)
        counts = np.empty((count, self.rows))
        for k, idx in zip(range(count), draws, strict=True):
            counts[k] = np.bincount(self.row_id[idx], minlength=self.rows)
        # Starting from +0.0 also turns a -0.0 band sum into 0.0.
        sums = np.zeros((count, self.bands[0][1].shape[1]))
        # Overflowed statistics make these sums inf or NaN, which the screens reject.
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, values in self.bands:
                sums = sums + (counts @ values if rows is None else counts[:, rows] @ values)
        if spec.kind == "log_odds_ratio":
            return _log_odds_ratio(sums)
        if spec.kind == "pearson_corr":
            return self._pearson(counts, sums)
        return self._regression(counts, sums)

    def _drawn(self, counts: np.ndarray):
        drawn = np.flatnonzero(counts != 0)
        # take() gathers rows several times faster than fancy indexing.
        return self.X.take(drawn, axis=0), self.y.take(drawn), counts.take(drawn)

    def _pearson(self, counts: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        sx, sy, sxx, syy, sxy = sums.T
        total = float(self.size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            cx = sxx - sx * sx / total
            cy = syy - sy * sy / total
            squares = cx * cy
            value = (sxy - sx * sy / total) / np.sqrt(squares)
        # The raw-moment formula cancels when a variable's mean dominates its
        # spread; such a resample, any constant variable and any squares
        # outside the normal range take the centred formula.
        ok = ((cx > PEARSON_CANCELLATION * sxx) & (cy > PEARSON_CANCELLATION * syy)
              & (squares > np.finfo(np.float64).tiny) & np.isfinite(squares) & np.isfinite(value))
        codes = np.zeros(counts.shape[0], dtype=np.int8)
        for k in np.flatnonzero(~ok):
            X, y, w = self._drawn(counts[k])
            value[k], codes[k] = _pearson_two_pass(X[:, 0], y, w)
        return value, codes

    def _regression(self, counts: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        K, p = counts.shape[0], self.X.shape[1]
        i, j = np.triu_indices(p)
        G = np.empty((K, p, p))
        G[:, i, j] = G[:, j, i] = sums[:, :i.size]
        beta, ok = _solve_gram(G, sums[:, i.size:])
        target = self.spec.target_index
        if self.spec.kind == "ols_coef":
            fits = [(beta[k], None) if ok[k] else self._least_squares(counts[k]) for k in range(K)]
        else:
            # Binary outcomes: the count of drawn ones is exact.
            ones = counts @ self.y
            step = 4.0 * beta  # the engine's step from the anchor
            stacked = self.rows <= STACK_ROWS
            fits = []
            for k in range(K):
                if ones[k] in (0.0, self.size):
                    fits.append((None, "constant outcome"))
                elif ok[k] and not stacked:
                    X, y, w = self._drawn(counts[k])
                    fits.append(_irls(X, y, w[None], self.anchor[None], step[k:k + 1])[0])
                else:
                    fits.append(None)  # stepped below in one stack, or failed the screen
            members = [k for k, fit in enumerate(fits) if fit is None and ok[k]]
            if members:
                starts = np.broadcast_to(self.anchor, (len(members), p))
                for k, fit in zip(members, _irls(self.X, self.y, counts[members], starts, step[members])):
                    fits[k] = fit
            # The reference fit from zero, whose verdict stands, for a resample that fails the
            # screen or whose steps from the anchor (which may diverge) end in separation.
            fits = [fit_logistic(*self._drawn(counts[k])) if fit is None or fit[1] == "separation" else fit
                    for k, fit in enumerate(fits)]
        return (np.array([math.nan if reason else coef[target] for coef, reason in fits]),
                np.array([CODE[reason] for _, reason in fits], dtype=np.int8))

    def _least_squares(self, counts: np.ndarray) -> tuple[np.ndarray | None, str | None]:
        """The reference least-squares fit on the drawn rows."""
        coef, rank = fit_least_squares(*self._drawn(counts))
        return (None, "singular design") if rank < self.X.shape[1] else (coef, None)


def _log_odds_ratio(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log odds ratios and codes of exact 2x2 tables, rows of ``(n11, n10, n01, n00)``.

    A table with an empty cell has no log odds ratio: NaN, flagged ``"empty cell"``.
    """
    empty = cells.min(axis=1) == 0.0
    # An empty table's cells read 1 here, so its discarded log never divides by zero.
    n11, n10, n01, n00 = np.where(empty[:, None], 1.0, cells).T
    return (np.where(empty, math.nan, np.log((n11 * n00) / (n10 * n01))),
            np.where(empty, CODE["empty cell"], 0).astype(np.int8))


def canonical_resampler(spec: EstimandSpec, features, outcomes, name: str = "outcomes") -> Resampler:
    """Check and merge one dataset once, and split its rows' statistics into bands.

    The merge key is y, then the feature columns ``spec`` reads (one for
    Pearson and the log odds ratio, all for OLS and logistic); rows tying on
    it are equal in all an estimate reads.  The merged rows are in key order,
    and OLS and logistic get their intercept column here.  A logistic side
    also fits itself once, from zero, for the anchor of the engine's Newton
    step.  Mean and quantile keep the sample as it is, and a mean side
    learns here whether it sums exactly unsorted.
    """
    X, y = check_args(spec, features, outcomes, name)
    if spec.kind in OUTCOME_ONLY_KINDS:
        values = y + 0.0
        return Resampler(spec, y.size, values=values, exact_sum=spec.kind == "mean" and _sums_exactly(values))
    columns = {"pearson_corr": [spec.feature_column],
               "log_odds_ratio": [spec.exposure_column]}.get(spec.kind, range(X.shape[1]))
    # Adding 0.0 turns -0.0 into 0.0: signed zeros tie in the key but differ
    # in bits, and their sign can steer the linear algebra.
    rows, row_id = np.unique(np.column_stack([y, X[:, list(columns)]]) + 0.0, axis=0, return_inverse=True)
    y_rows, X_rows = rows[:, 0], rows[:, 1:]
    if spec.kind in ("ols_coef", "logistic_coef") and spec.intercept:
        X_rows = with_intercept(X_rows)
    anchor = None
    if spec.kind == "logistic_coef":
        # The side's own fit, or zero where it is degenerate.
        anchor = np.zeros(X_rows.shape[1])
        if y_rows[0] != y_rows[-1]:
            coef, reason = fit_logistic(X_rows, y_rows, np.bincount(row_id).astype(np.float64))
            anchor = anchor if reason is not None else coef
    bands = _split_bands(_row_statistics(spec.kind, X_rows, y_rows, anchor), y.size)
    return Resampler(spec, y.size, X=X_rows, y=y_rows, row_id=row_id, bands=bands, anchor=anchor)


def chunk_length(resamplers) -> int:
    """Resamples per chunk: what a chunk holds for each resample stays within a byte bound.

    That is the labeled draw, the first side's ``size`` indices of 8 bytes,
    or where it is larger, a row of the largest count matrix (8-byte counts
    over merged rows), within ``CHUNK_BYTES``; where no side has a count
    matrix (mean and quantile), the labeled draw within ``DRAW_CHUNK_BYTES``.
    A side estimates each unlabeled draw as it is drawn, so a chunk never
    holds N indices per resample.
    """
    rows = max(r.rows for r in resamplers)
    n = resamplers[0].size
    return max(1, CHUNK_BYTES // (8 * max(rows, n)) if rows else DRAW_CHUNK_BYTES // (8 * n))


def evaluate(spec: EstimandSpec, features, outcomes) -> EstimateValue:
    """Apply the estimator of ``spec`` to one dataset (outcomes or predictions): the identity resample."""
    return canonical_resampler(spec, features, outcomes)(np.arange(np.size(outcomes)))
