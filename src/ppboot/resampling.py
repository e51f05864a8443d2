"""Deterministic, parallel-safe resampling primitives.

All randomness in the package flows through :class:`RngStream`, a counter-based
substream keyed by ``(master_seed, path)``.  Because every draw is a pure
function of its stream, results are bit-identical regardless of execution
order or thread count.  Path components are allocated by convention: the first
components identify the task (e.g. trial index), followed by a phase tag and
the iteration number within the phase.

A resample has two halves: its labeled indices are drawn on the attempt's
stream and its unlabeled indices on that stream's ``UNLABELED_TAG`` child.
The bootstrap loop keys these streams in bulk: a stream's generator is a
Philox keyed by ``SeedSequence(master_seed, spawn_key=path)``
``.generate_state(2, np.uint64)`` (Salmon et al., SC'11), a pure function of
``(master_seed, path)``.  :func:`philox_keys` computes the keys of many
paths, and of their ``UNLABELED_TAG`` children, in one pass of numpy
arithmetic that follows numpy's ``SeedSequence`` hash (O'Neill's
``seed_seq`` design), and :func:`draw_keyed_indices` resets one generator
to a key's stream start before each draw, so every index is the one
:meth:`RngStream.generator` would give.  ``tests/_reference.py`` re-derives
the streams through ``SeedSequence`` on its own.
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

# numpy's SeedSequence hash: a pool of four 32-bit words, the hashmix
# constants of the pool (A) and of its output (B), and the mix multipliers.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# A reset Philox: counter 0 and an empty four-word buffer, as a fresh one starts.
_ZEROS = (0, 0, 0, 0)


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


def _mix(x, y):
    """seed_seq's mix of a pool word ``x`` with a hashed word ``y`` (Python ints or uint32 arrays)."""
    r = (x * _MIX_L - y * _MIX_R) & _MASK32
    return r ^ r >> 16


def _constants(h: int, mult: int, count: int) -> np.ndarray:
    """``h`` and the ``count`` hash constants after it, ``h * mult**k`` mod 2**32, as a uint32 column."""
    out = [h]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _prefix_pool(stream: RngStream) -> tuple[list[int], int]:
    """SeedSequence's pool after the master seed and ``stream.path``, and its next hash constant.

    Python ints, computed once per call of :func:`philox_keys`: the seed's
    two words padded to the pool size (as a non-empty spawn key requires),
    the pool's cross-mix, then one word per path component.
    """
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    seed = stream.master_seed
    pool = [hashmix(word) for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in stream.path:
        pool = [_mix(x, hashmix(word)) for x in pool]
    return pool, h


def _hashed_keys(stream: RngStream, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The keys of ``stream.child(*row)`` and of its ``UNLABELED_TAG`` child, one row of ``words`` each.

    ``words`` is a (K, m) uint32 array.  Each column is hashed into every
    row's four pool words at once; uint32 arrays wrap as the hash does, and
    no step touches a numpy scalar, whose wrap-around would warn.
    """
    pool, h = _prefix_pool(stream)
    pool = np.array(pool, dtype=np.uint32)[:, None]
    m = words.shape[1]
    a = _constants(h, _MULT_A, 4 * m + 4)
    b = _constants(_INIT_B, _MULT_B, 4)

    def absorb(j, column):
        nonlocal pool
        v = (column ^ a[4 * j:4 * j + 4]) * a[4 * j + 1:4 * j + 5]
        pool = _mix(pool, v ^ v >> 16)

    def key():
        v = (pool ^ b[:4]) * b[1:]
        v = (v ^ v >> 16).astype(np.uint64)
        return (v[0::2] | v[1::2] << 32).T

    for j, column in enumerate(words.T):
        absorb(j, column)
    keys = key()
    absorb(m, UNLABELED_TAG)
    return keys, key()


def philox_keys(stream: RngStream, tails) -> tuple[np.ndarray, np.ndarray]:
    """The Philox keys of ``stream.child(*tail)`` and of its ``UNLABELED_TAG`` child, for each row of ``tails``.

    ``tails`` is a (K, m) array of non-negative path components; both
    results are (K, 2) uint64 arrays, each row equal to
    ``SeedSequence(master_seed, spawn_key=path).generate_state(2, np.uint64)``.
    A path with a component of 2**32 or more, which ``SeedSequence`` splits
    into several words, takes ``SeedSequence`` itself.
    """
    tails = np.asarray(tails)
    wide = np.any(tails >= 2**32, axis=1) | any(c >> 32 for c in stream.path)
    keys = np.empty((2, len(tails), 2), dtype=np.uint64)
    for k in np.flatnonzero(wide):
        path = stream.child(*tails[k].tolist()).path
        for j, spawn_key in enumerate((path, path + (UNLABELED_TAG,))):
            keys[j, k] = np.random.SeedSequence(stream.master_seed, spawn_key=spawn_key).generate_state(2, np.uint64)
    if not wide.all():
        keys[0, ~wide], keys[1, ~wide] = _hashed_keys(stream, tails[~wide].astype(np.uint32))
    return keys[0], keys[1]


def draw_keyed_indices(generator: np.random.Generator, key, size: int) -> np.ndarray:
    """``size`` i.i.d. uniform indices from ``[0, size)`` on the stream whose Philox key is ``key``.

    ``generator`` wraps a Philox, which is reset to the stream's start
    first, so the draw is the one a fresh generator of that stream gives.
    """
    generator.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return generator.integers(0, size, size=size)


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
