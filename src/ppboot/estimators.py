"""Scalar estimators applied interchangeably to outcomes and to predictions.

Every estimate takes one path: check, merge, reduce.  :func:`check_args` is
the one argument check: wrong shapes, empty input or non-binary data raise
``ValueError`` there.  :func:`canonical_resampler` is the one place where row
order is decided: for the feature-keyed estimands (Pearson, log odds ratio,
OLS, logistic) it merges the rows that tie on their key into sorted rows, and
a resample becomes a vector of counts over them (Efron's multinomial
weights).  :func:`evaluate` is the identity resample.

The feature-keyed estimands run a chunked engine (:class:`Resampler`).  Each
merged row carries the statistics whose count-weighted sums determine the
estimate: one-hot cells for the log odds ratio, raw moments for Pearson, and
for OLS the upper triangle of ``x xᵀ`` plus ``x y`` (for logistic's first
Newton step ``x (y - 1/2)``).  These are split once into bands on a fixed
power-of-two grid of width ``52 - bit_length(sample size)`` bits, after the
error-free transformation of Ozaki, Ogita, Oishi and Rump (Numerical
Algorithms 59, 2012): integer counts times one band sum exactly in any
order, so one matrix product of a chunk's count matrix with the bands gives
every resample's sums, bit for bit the same alone or in any chunk, at any
BLAS thread count, and on the full side or on a fresh side of the drawn
rows.  Adding the band sums smallest first gives the statistics.  Each
resample then gets a small batched solve, and a screen sends an
ill-conditioned one to the reference formula alone: a Gram matrix whose
condition bounds fail (:func:`_solve_gram`) to :func:`fit_least_squares`, a
Pearson moment that cancels to the centred two-pass formula.  So every
degeneracy reason comes from the reference rule.  Logistic's later Newton
steps run per resample in :func:`fit_logistic`, the one IRLS.

Mean and quantile stay on the drawn values: the mean's bits are those of the
sorted sum, which a weighted sum would not reproduce.  Conditions that make
the target ill-defined on a sample (singular design, separation, constant
variables) are reported through the degenerate flag rather than raised, so
bootstrap loops can redraw.
"""

from __future__ import annotations

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

# A chunk's count matrix (resamples x merged rows, float64) stays within this
# many bytes: about 13 resamples at 9800 merged rows.
CHUNK_BYTES = 1 << 20
# Band boundaries lie at bit BAND_OFFSET + k * width (see _split_bands).  Any
# fixed grid is exact; this one lets a statistic of moderate size, from about
# 2**-16 to 2**8 at 10**4 rows, take two bands where it would straddle three.
BAND_OFFSET = 8
# Screens that send a resample from the chunked engine to the reference
# formula alone.  GRAM_CONDITION_MAX keeps the weighted design's smallest
# singular value above 1e-6 of its largest, far from the rank cut of
# fit_least_squares.  SCALED_CONDITION_MAX bounds the conditioning of the
# unit-diagonal Gram matrix, which sets how far the Cholesky solve of the
# normal equations strays from fit_least_squares (2e-13 at most on designs
# like the property tests'; 1e4 allowed 2e-12).  PEARSON_CANCELLATION is the
# smallest centred share of a raw second moment the raw-moment formula takes.
GRAM_CONDITION_MAX = 1e12
SCALED_CONDITION_MAX = 1e3
PEARSON_CANCELLATION = 1.0 / 64.0

IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
SEPARATION_BOUND = 50.0


@dataclass(frozen=True)
class EstimateValue:
    """A scalar estimate plus an optional degeneracy reason.

    ``reason`` is ``None`` for a clean estimate.  A non-``None`` reason marks
    the sample as degenerate for this estimand; ``value`` may still be finite
    when a documented correction applies (e.g. zero-cell-corrected odds).
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


def check_args(spec: EstimandSpec, features, outcomes) -> tuple[np.ndarray | None, np.ndarray]:
    """The one argument check: ``(features, outcomes)`` as float arrays, or ``ValueError``.

    Mean and quantile never read ``features`` (it may be ``None``, and comes
    back as ``None``).  A resample keeps its source's shape and a subset of
    its values, so one check covers it.
    """
    if spec.kind in OUTCOME_ONLY_KINDS:
        y = _as_array(outcomes, "outcomes", 1)
        if y.size < 1:
            raise ValueError("outcomes must be non-empty")
        return None, y
    X = _as_array(features, "features", 2)
    if spec.kind == "log_odds_ratio":
        _require_column(spec.exposure_column, "exposure_column", X)
        _require_binary(X[:, spec.exposure_column], "exposure")
    y = _as_array(outcomes, "outcomes", 1)
    if spec.kind in ("logistic_coef", "log_odds_ratio"):
        _require_binary(y, "outcomes")
    if X.shape[0] != y.size:
        what = "length mismatch: exposure" if spec.kind == "log_odds_ratio" else "row mismatch: features"
        raise ValueError(f"{what} {X.shape[0]} vs outcomes {y.size}")
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
    beta, _, rank, _ = np.linalg.lstsq(np.ldexp(design, -exponent) * root[:, None], y * root, rcond=cut)
    return np.ldexp(beta, -exponent), rank


def fit_logistic(
    design: np.ndarray, y: np.ndarray, w: np.ndarray | None = None, step: np.ndarray | None = None
) -> tuple[np.ndarray | None, str | None]:
    """Maximum-likelihood logistic fit via iteratively reweighted least squares.

    Row ``i`` counts ``w[i]`` times (all once by default).  Returns
    ``(beta, None)``, or ``(None, reason)`` when the fit is ill-posed.  IRLS
    starts from zero, where every fitted probability is 1/2, so the first
    Newton step is 4 times the weighted least-squares fit of ``y - 1/2``.  A
    caller that has solved it passes it as ``step`` (the resample engine does
    so for a whole chunk); otherwise it comes from :func:`fit_least_squares`,
    and a design without full column rank there (the test of ``ols_coef``)
    is a "singular design".  IRLS converges when the largest absolute
    coefficient change drops below ``IRLS_TOL`` or after ``IRLS_MAX_ITER``
    steps, the first included.  A coefficient escaping ``SEPARATION_BOUND``
    during iteration is treated as separation.
    """
    w = np.ones(y.size) if w is None else w
    if step is None:
        step, rank = fit_least_squares(design, y - 0.5, w)
        if rank < design.shape[1]:
            return None, "singular design"
        step = 4.0 * step
    beta = np.zeros(design.shape[1])
    for iteration in range(IRLS_MAX_ITER):
        if iteration:
            mu = _sigmoid(design @ beta)
            hessian = design.T @ (design * (w * mu * (1.0 - mu))[:, None])
            score = design.T @ (w * (y - mu))
            try:
                step = np.linalg.solve(hessian, score)
            except np.linalg.LinAlgError:
                # The design has full rank, so the fitted probabilities
                # saturated the weights to zero: separation.
                return None, "separation"
        beta = beta + step
        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            return None, "separation"
        if np.max(np.abs(step)) < IRLS_TOL:
            break
    return beta, None


def _outcome_kernel(spec: EstimandSpec, y: np.ndarray) -> EstimateValue:
    """Mean or quantile of the drawn values ``y``, in any order."""
    if spec.kind == "mean":
        # Sorted, so the float sum does not depend on the input order.
        return EstimateValue(float(np.sum(np.sort(y))) / y.size)
    k = nearest_rank_index(spec.q, y.size)
    return EstimateValue(float(np.partition(y, k)[k]))


def _pearson_two_pass(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> EstimateValue:
    """Weighted Pearson correlation, centred first: the reference the raw-moment path is screened against."""
    # Exact tests, since a constant column whose mean is inexact has a
    # nonzero centred sum of squares.  The merged rows are sorted by y.
    if y[0] == y[-1] or np.all(x == x[0]):
        return EstimateValue(float("nan"), "constant variable")
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
        return EstimateValue(float("nan"), "constant variable")
    return EstimateValue(float(np.sum(wxc * yc) / denom))


def _row_statistics(kind: str, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per merged row, the statistics whose count-weighted sums give the estimate.

    One-hot cells for the log odds ratio; the raw moments x, y, x², y², xy for
    Pearson; for OLS and logistic the upper triangle of ``x xᵀ`` and then
    ``x t``, where ``t`` is y for OLS and ``y - 1/2`` for logistic's first
    Newton step.
    """
    if kind == "log_odds_ratio":
        e, f = X[:, 0], 1.0 - X[:, 0]
        pairs = [(e, y), (e, 1.0 - y), (f, y), (f, 1.0 - y)]
    elif kind == "pearson_corr":
        x, one = X[:, 0], np.ones_like(y)
        pairs = [(x, one), (y, one), (x, x), (y, y), (x, y)]
    else:
        t = y - 0.5 if kind == "logistic_coef" else y
        p = X.shape[1]
        pairs = [(X[:, i], X[:, j]) for i in range(p) for j in range(i, p)] + [(X[:, i], t) for i in range(p)]
    stats = np.empty((y.size, len(pairs)))
    # A product may overflow; _split_bands and the screens handle infinities.
    with np.errstate(over="ignore"):
        for c, (a, b) in enumerate(pairs):
            np.multiply(a, b, out=stats[:, c])
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

    A Cholesky factorisation ``G = L Lᵀ`` and the inverse of ``L``, written
    out as elementwise operations across the stack, so a matrix's result does
    not depend on its position or on the stack's length.  ``ok`` is the
    screen: ``tr(G) tr(G⁻¹)`` bounds the condition number of ``G``, the
    square of the weighted design's, and ``p Σ G_jj (G⁻¹)_jj`` bounds it for
    the unit-diagonal ``G``, which governs the accuracy of the Cholesky
    solve.  Both must stay within their limits, and the pivots and the
    solution must be finite.
    """
    p = r.shape[1]
    L = np.zeros_like(G)
    M = np.zeros_like(G)  # L⁻¹
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(p):
            pivot = G[:, j, j]
            for k in range(j):
                pivot = pivot - L[:, j, k] * L[:, j, k]
            L[:, j, j] = np.sqrt(pivot)
            for i in range(j + 1, p):
                s = G[:, i, j]
                for k in range(j):
                    s = s - L[:, i, k] * L[:, j, k]
                L[:, i, j] = s / L[:, j, j]
        for i in range(p):
            M[:, i, i] = 1.0 / L[:, i, i]
            for j in range(i):
                s = L[:, i, j] * M[:, j, j]
                for k in range(j + 1, i):
                    s = s + L[:, i, k] * M[:, k, j]
                M[:, i, j] = -s / L[:, i, i]
        z = [sum(M[:, i, k] * r[:, k] for k in range(i + 1)) for i in range(p)]
        beta = np.column_stack([sum(M[:, i, j] * z[i] for i in range(j, p)) for j in range(p)])
        inverse_diagonal = [sum(M[:, i, j] * M[:, i, j] for i in range(j, p)) for j in range(p)]
        diagonal = [G[:, j, j] for j in range(p)]
        condition = sum(diagonal) * sum(inverse_diagonal)
        scaled = p * sum(d * v for d, v in zip(diagonal, inverse_diagonal))
    ok = (condition <= GRAM_CONDITION_MAX) & (scaled <= SCALED_CONDITION_MAX) & np.isfinite(beta).all(axis=1)
    return beta, ok


class Resampler:
    """One checked and merged dataset; a resample is a vector of counts over its rows.

    Built by :func:`canonical_resampler`.  :meth:`estimates` gives the
    estimate on each of a chunk of resamples.  For mean and quantile
    ``values`` holds the sample and each draw is estimated on its own drawn
    values.  For the other kinds ``X``, ``y`` are the merged rows in key
    order, ``row_id`` maps each sample row to its merged row, and ``bands``
    holds the rows' statistics (:func:`_row_statistics`) split by
    :func:`_split_bands`.  A plain class: a frozen dataclass would add about
    1 ms to every import of the package.
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
    ):
        self.spec, self.size, self.values = spec, size, values
        self.X, self.y, self.row_id, self.bands = X, y, row_id, bands

    @property
    def rows(self) -> int:
        """Entries per draw that a chunk holds: merged rows, or the sample for mean and quantile."""
        return self.size if self.values is not None else self.y.size

    def __call__(self, idx: np.ndarray) -> EstimateValue:
        """The estimate on the single resample ``idx``: a chunk of one."""
        return self.estimates([idx], 1)[0]

    def estimates(self, draws: Iterable[np.ndarray], count: int) -> list[EstimateValue]:
        """The estimate on each of ``count`` resamples, each draw holding its drawn row indices.

        ``draws`` is read once, in order, and no draw is kept, so a caller
        may generate them as they are read.  The draws' counts over the
        merged rows form a count matrix, whose product with ``bands`` gives
        each resample's exact band sums; adding the bands smallest first
        gives its statistic sums.  Every resample's bits depend on its own
        counts alone.
        """
        spec = self.spec
        if self.values is not None:
            return [_outcome_kernel(spec, self.values[idx]) for idx in draws]
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
            return [_log_odds_ratio(*cells) for cells in sums.tolist()]
        if spec.kind == "pearson_corr":
            return self._pearson(counts, sums)
        return self._regression(counts, sums)

    def _drawn(self, counts: np.ndarray):
        drawn = np.flatnonzero(counts)
        # take() gathers rows several times faster than fancy indexing.
        return self.X.take(drawn, axis=0), self.y.take(drawn), counts.take(drawn)

    def _pearson(self, counts: np.ndarray, sums: np.ndarray) -> list[EstimateValue]:
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
        out = []
        for k in range(counts.shape[0]):
            if ok[k]:
                out.append(EstimateValue(float(value[k])))
            else:
                X, y, w = self._drawn(counts[k])
                out.append(_pearson_two_pass(X[:, 0], y, w))
        return out

    def _regression(self, counts: np.ndarray, sums: np.ndarray) -> list[EstimateValue]:
        K, p = counts.shape[0], self.X.shape[1]
        i, j = np.triu_indices(p)
        G = np.empty((K, p, p))
        G[:, i, j] = G[:, j, i] = sums[:, :i.size]
        beta, ok = _solve_gram(G, sums[:, i.size:])
        out = []
        for k in range(K):
            if self.spec.kind == "ols_coef" and ok[k]:
                out.append(EstimateValue(float(beta[k, self.spec.target_index])))
                continue
            X, y, w = self._drawn(counts[k])
            if self.spec.kind == "ols_coef":
                coef, rank = fit_least_squares(X, y, w)
                reason = "singular design" if rank < p else None
            elif np.all(y == y[0]):
                coef, reason = None, "constant outcome"
            else:
                coef, reason = fit_logistic(X, y, w, 4.0 * beta[k] if ok[k] else None)
            out.append(EstimateValue(float("nan"), reason) if reason is not None
                       else EstimateValue(float(coef[self.spec.target_index])))
        return out


def _log_odds_ratio(n11: float, n10: float, n01: float, n00: float) -> EstimateValue:
    """Log odds ratio of an exact 2x2 table; an empty cell adds 0.5 to every cell and flags."""
    reason = None
    if min(n11, n10, n01, n00) == 0.0:
        n11, n10, n01, n00 = n11 + 0.5, n10 + 0.5, n01 + 0.5, n00 + 0.5
        reason = "zero cell corrected"
    return EstimateValue(float(np.log((n11 * n00) / (n10 * n01))), reason)


def canonical_resampler(spec: EstimandSpec, features, outcomes) -> Resampler:
    """Check and merge one dataset once, and split its rows' statistics into bands.

    The merge key is y, then the feature columns ``spec`` reads (one for
    Pearson and the log odds ratio, all for OLS and logistic); rows tying on
    it are equal in all an estimate reads.  The merged rows are in key order,
    and OLS and logistic get their intercept column here.  Mean and quantile
    keep the sample as it is.
    """
    X, y = check_args(spec, features, outcomes)
    if spec.kind in OUTCOME_ONLY_KINDS:
        return Resampler(spec, y.size, values=y + 0.0)
    columns = {"pearson_corr": [spec.feature_column],
               "log_odds_ratio": [spec.exposure_column]}.get(spec.kind, range(X.shape[1]))
    # Adding 0.0 turns -0.0 into 0.0: signed zeros tie in the key but differ
    # in bits, and their sign can steer the linear algebra.
    rows, row_id = np.unique(np.column_stack([y, X[:, list(columns)]]) + 0.0, axis=0, return_inverse=True)
    y_rows, X_rows = rows[:, 0], rows[:, 1:]
    if spec.kind in ("ols_coef", "logistic_coef") and spec.intercept:
        X_rows = with_intercept(X_rows)
    bands = _split_bands(_row_statistics(spec.kind, X_rows, y_rows), y.size)
    return Resampler(spec, y.size, X=X_rows, y=y_rows, row_id=row_id, bands=bands)


def chunk_length(resamplers) -> int:
    """Resamples per chunk: the largest count matrix stays within ``CHUNK_BYTES``."""
    return max(1, CHUNK_BYTES // (8 * max(r.rows for r in resamplers)))


def evaluate(spec: EstimandSpec, features, outcomes) -> EstimateValue:
    """Apply the estimator of ``spec`` to one dataset (outcomes or predictions): the identity resample."""
    return canonical_resampler(spec, features, outcomes)(np.arange(np.size(outcomes)))


def est_mean(outcomes) -> EstimateValue:
    """Arithmetic mean."""
    return evaluate(EstimandSpec("mean"), None, outcomes)


def est_quantile(outcomes, q: float) -> EstimateValue:
    """Nearest-rank upper sample quantile (always an element of the sample)."""
    return evaluate(EstimandSpec("quantile", q=q), None, outcomes)


def est_ols_coef(features, outcomes, target_index: int, intercept: bool = True) -> EstimateValue:
    """Least-squares coefficient at ``target_index``; the intercept is a trailing column."""
    return evaluate(EstimandSpec("ols_coef", target_index=target_index, intercept=intercept), features, outcomes)


def est_logistic_coef(features, outcomes, target_index: int, intercept: bool = True) -> EstimateValue:
    """Maximum-likelihood logistic coefficient (see :func:`fit_logistic`)."""
    return evaluate(EstimandSpec("logistic_coef", target_index=target_index, intercept=intercept), features, outcomes)


def est_log_odds_ratio(exposure, outcomes) -> EstimateValue:
    """Log odds ratio of two binary variables; an empty cell adds 0.5 to every cell and flags."""
    return evaluate(EstimandSpec("log_odds_ratio"), _as_array(exposure, "exposure", 1)[:, None], outcomes)


def est_pearson_corr(features, outcomes, feature_column: int) -> EstimateValue:
    """Sample Pearson correlation between one feature column and the outcomes."""
    return evaluate(EstimandSpec("pearson_corr", feature_column=feature_column), features, outcomes)
