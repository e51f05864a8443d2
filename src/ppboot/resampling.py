"""Deterministic, parallel-safe resampling primitives.

All randomness in the package flows through :class:`RngStream`, a counter-based
substream keyed by ``(master_seed, path)``.  Because every draw is a pure
function of its stream, results are bit-identical regardless of execution
order or thread count.  Path components are allocated by convention: the first
components identify the task (e.g. trial index), followed by a phase tag and
the iteration number within the phase.

A resample has two halves, each with its own draw function:
:func:`draw_labeled_indices` draws on the attempt's stream and
:func:`draw_unlabeled_indices` on its ``UNLABELED_TAG`` child, so the stream
layout lives in this module alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Phase tags appended to stream paths.  Tuning and the main bootstrap must
# never share draws; data splits and synthetic generation get their own tags.
PHASE_SPLIT = 0
PHASE_TUNING = 1
PHASE_MAIN = 2
PHASE_SYNTHETIC = 3

_MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class RngStream:
    """A position in the substream tree.

    Identical ``(master_seed, path)`` pairs produce identical draw sequences;
    distinct paths produce statistically independent streams.  A path is never
    reused for two purposes: derive a fresh child instead.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if not (0 <= int(self.master_seed) <= _MAX_SEED):
            raise ValueError(f"master_seed must be in [0, 2^64): got {self.master_seed}")
        path = tuple(int(c) for c in self.path)
        if any(c < 0 for c in path):
            raise ValueError(f"path components must be non-negative: got {path}")
        object.__setattr__(self, "path", path)

    def child(self, *components: int) -> "RngStream":
        """Return the stream at ``path + components``."""
        return RngStream(self.master_seed, self.path + tuple(components))

    def generator(self) -> np.random.Generator:
        """Instantiate the counter-based generator for this stream."""
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))


# Sub-tag for the unlabeled half of a resample.  Keeping the two halves on
# sibling streams means the labeled draws are the same whether or not the
# unlabeled data is resampled (the classical bootstrap is the labeled half
# alone), and the unlabeled draws are the same across methods whose labeled
# sizes differ (cross-fitting vs data splitting).
UNLABELED_TAG = 1


def draw_labeled_indices(n: int, stream: RngStream) -> np.ndarray:
    """The labeled half of a resample: ``n`` i.i.d. uniform indices from ``[0, n)``, drawn on ``stream``."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return stream.generator().integers(0, n, size=n)


def draw_unlabeled_indices(N: int, stream: RngStream) -> np.ndarray:
    """The unlabeled half of a resample: ``N`` i.i.d. uniform indices from ``[0, N)``.

    They are drawn on ``stream.child(UNLABELED_TAG)``, so they do not depend
    on the labeled size.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    return stream.child(UNLABELED_TAG).generator().integers(0, N, size=N)


def nearest_rank_index(q: float, m: int) -> int:
    """0-based position of the nearest-rank upper q-quantile in a sorted sample.

    Computes ``ceil(q * m)`` (1-based, clamped to [1, m]) with a small fuzz so
    products that are mathematically integral do not round upward.
    """
    k = math.ceil(q * m - 1e-9)
    return min(max(k, 1), m) - 1


def empirical_quantile(values, q: float) -> float:
    """Nearest-rank upper quantile: the sorted sample's ceil(q*len)-th element."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    if not (0.0 < q < 1.0):
        raise ValueError(f"q must lie strictly inside (0, 1): got {q}")
    k = nearest_rank_index(q, arr.size)
    return float(np.partition(arr, k)[k])
