"""Substream determinism, resample bounds, and nearest-rank quantiles."""

import numpy as np
import pytest

import _reference as ref
from ppboot import RngStream, empirical_quantile
from ppboot.boot import resample_estimates
from ppboot.resampling import PHASE_MAIN, draw_keyed_indices, nearest_rank_index, philox_keys


class TestRngStream:
    def test_same_path_same_draws(self):
        a = RngStream(7, (1, 2, 3)).generator().integers(0, 1000, 20)
        b = RngStream(7, (1, 2, 3)).generator().integers(0, 1000, 20)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = RngStream(7, (1, 2, 3)).generator().integers(0, 1000, 20)
        b = RngStream(7, (1, 2, 4)).generator().integers(0, 1000, 20)
        assert not np.array_equal(a, b)

    def test_prefix_paths_are_distinct_streams(self):
        # (0,) and (0, 1) must not collide even though one extends the other.
        a = RngStream(7, (0,)).generator().integers(0, 1000, 20)
        b = RngStream(7, (0, 1)).generator().integers(0, 1000, 20)
        assert not np.array_equal(a, b)

    def test_child_appends_components(self):
        s = RngStream(7, (1,)).child(2, 3)
        assert s.path == (1, 2, 3)
        assert s.master_seed == 7

    def test_rejects_bad_seed_and_path(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, (-2,))


class _Recorder:
    """A stand-in side that records the draws the resample loop hands it."""

    def __init__(self, size):
        self.size = self.rows = size
        self.seen = []

    def estimates(self, draws, count):
        self.seen += [idx.tolist() for idx in draws]
        return np.zeros(count), np.zeros(count, dtype=np.int8)


def _loop_draws(sizes):
    sides = tuple(_Recorder(size) for size in sizes)
    resample_estimates(sides, 5, RngStream(9, (4, 2)), 0)
    return [side.seen for side in sides]


def _keyed_draws(size, stream, count):
    """The draws of ``size`` indices on ``stream.child(b)`` for each ``b < count``, as the loop draws them."""
    keys, _ = philox_keys(stream, np.arange(count)[:, None])
    generator = np.random.Generator(np.random.Philox(0))
    return [draw_keyed_indices(generator, key, size) for key in keys.tolist()]


class _Fingerprint:
    """A stand-in side whose estimate fingerprints its drawn indices, degenerate when the first is even."""

    def __init__(self, size):
        self.size = self.rows = size

    def estimates(self, draws, count):
        draws = list(draws)
        return (np.array([float(idx @ np.arange(1, idx.size + 1)) for idx in draws]),
                np.array([0 if idx[0] % 2 else 2 for idx in draws], dtype=np.int8))


class TestDrawResample:
    """The two halves of a resample as the resample loop draws them."""

    def test_singleton_draw_is_forced(self):
        assert _loop_draws((1, 1, 1)) == [[[0]] * 5] * 3

    def test_determinism(self):
        assert _loop_draws((5, 5, 9)) == _loop_draws((5, 5, 9))

    def test_bounds_and_sizes(self):
        labeled_draws, _, unlabeled_draws = _loop_draws((5, 5, 9))
        for draws, size in ((labeled_draws, 5), (unlabeled_draws, 9)):
            assert all(len(idx) == size and 0 <= min(idx) and max(idx) < size for idx in draws)

    def test_marginal_uniformity(self):
        # 10000 resamples of size 5: each index frequency within 3 SE of 1/5.
        counts = sum(np.bincount(idx, minlength=5) for idx in _keyed_draws(5, RngStream(11), 10000))
        freqs = counts / counts.sum()
        se = np.sqrt(0.2 * 0.8 / counts.sum())
        assert np.all(np.abs(freqs - 0.2) < 3 * se)

    def test_streams_never_collide(self):
        seen = {tuple(idx.tolist()) for idx in _keyed_draws(20, RngStream(5, (2,)), 1000)}
        assert len(seen) == 1000

    def test_labeled_prefix_matches_labeled_only_draw(self):
        # Classical (labeled-only) loops must see the same indices as both
        # labeled sides of a three-side loop.
        both = _loop_draws((8, 8, 30))
        only = _loop_draws((8,))
        assert both[0] == both[1] == only[0]

    def test_unlabeled_draws_independent_of_labeled_size(self):
        # Methods with different labeled sizes stay paired on the unlabeled side.
        a = _loop_draws((5, 5, 30))
        b = _loop_draws((17, 17, 30))
        assert a[2] == b[2]

    @pytest.mark.parametrize("base", [RngStream(9, (4,)), RngStream(2**64 - 1, (2**40, 3))], ids=["narrow", "wide"])
    def test_loop_draws_each_attempt_on_its_stream(self, base):
        # Iteration b, attempt r reads the labeled and unlabeled indices drawn
        # on base.child(PHASE_MAIN, b, r), redrawn where the attempt degenerates.
        # The classical values are the first side's at its first clean attempt.
        sides = (_Fingerprint(8), _Fingerprint(8), _Fingerprint(30))
        B, retries = 30, 2
        expected, classical = [], []
        for b in range(B):
            first = None
            for r in range(retries + 1):
                attempt = base.child(PHASE_MAIN, b, r).path
                labeled_idx = ref.labeled_indices(8, base.master_seed, attempt)
                unlabeled_idx = ref.unlabeled_indices(30, base.master_seed, attempt)
                values, codes = sides[0].estimates([labeled_idx, labeled_idx, unlabeled_idx], 3)
                if first is None and codes[0] == 0:
                    first = values[0]
                if not codes.any():
                    expected.append(values.tolist())
                    break
            if first is not None:
                classical.append(first)
        rows, dropped, first_ok = resample_estimates(sides, B, base.child(PHASE_MAIN), retries)
        assert 0 < dropped < B
        assert rows.tolist() == expected and dropped == B - len(expected)
        assert first_ok.tolist() == classical and len(classical) > len(expected)

    def test_wide_component_draws_as_its_generator(self):
        # A component of 2**32 or more spans two SeedSequence words; its keys
        # come from SeedSequence itself.
        base = RngStream(7, (2**32,))
        keys, unlabeled_keys = philox_keys(base, np.array([[3, 0], [3, 2**33]]))
        generator = np.random.Generator(np.random.Philox(0))
        for key, ukey, tail in zip(keys.tolist(), unlabeled_keys.tolist(), [(3, 0), (3, 2**33)]):
            stream = base.child(*tail)
            assert np.array_equal(draw_keyed_indices(generator, key, 50), stream.generator().integers(0, 50, 50))
            assert np.array_equal(draw_keyed_indices(generator, ukey, 50),
                                  ref.unlabeled_indices(50, stream.master_seed, stream.path))


class TestEmpiricalQuantile:
    def test_constant_vector(self):
        for q in (0.01, 0.5, 0.99):
            assert empirical_quantile([4.2] * 7, q) == 4.2

    def test_fifth_order_statistic(self):
        # 100 values 10..1000; q=0.05 picks the 5th smallest by explicit sort.
        values = [10.0 * k for k in range(1, 101)]
        assert empirical_quantile(values, 0.05) == sorted(values)[4] == 50.0

    def test_small_median(self):
        assert empirical_quantile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_monotone_in_q(self):
        g = np.random.default_rng(0)
        v = g.standard_normal(37)
        qs = np.linspace(0.01, 0.99, 25)
        vals = [empirical_quantile(v, q) for q in qs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_returns_element_of_sample(self):
        g = np.random.default_rng(1)
        for trial in range(50):
            v = g.standard_normal(g.integers(1, 40))
            q = float(g.uniform(0.01, 0.99))
            assert empirical_quantile(v, q) in v

    def test_integral_products_do_not_round_up(self):
        # q*m mathematically integral must land on that rank exactly.
        assert nearest_rank_index(0.05, 100) == 4
        assert nearest_rank_index(0.2, 5) == 0
        assert nearest_rank_index(0.5, 4) == 1
        assert nearest_rank_index(0.95, 1000) == 949

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 1.0)
