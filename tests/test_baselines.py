"""CLT interval, classical/imputed bootstraps, and the CLT-based mean method."""

import math

import numpy as np
import pytest

import _reference as ref
from ppboot import (
    BootstrapConfig,
    EstimandSpec,
    LabeledDataset,
    RngStream,
    UnlabeledDataset,
    classical_bootstrap_interval,
    classical_clt_mean_interval,
    imputed_interval,
    ppi_mean_interval,
)

MEAN = EstimandSpec("mean")


class TestNormalQuantile:
    """The normal quantile z(1 - alpha/2) of the CLT intervals."""

    # Reference values from standard tables (15+ significant digits).
    KNOWN = {
        0.95: 1.6448536269514722,
        0.975: 1.959963984540054,
        0.99: 2.3263478740408408,
        0.999: 3.090232306167813,
    }

    def test_known_values(self):
        # [0, 2] has standard deviation sqrt(2), so its standard error is 1
        # and the half-width is z itself.
        for p, z in self.KNOWN.items():
            ci = classical_clt_mean_interval([0.0, 2.0], 2.0 * (1.0 - p))
            assert ci.upper - ci.point_estimate == pytest.approx(z, abs=1e-8)

    def test_domain(self):
        labeled = LabeledDataset(np.zeros((3, 1)), [0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        unlabeled = UnlabeledDataset(np.zeros((3, 1)), [0.0, 1.0, 2.0])
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="alpha must lie strictly inside"):
                classical_clt_mean_interval([0.0, 2.0], alpha)
            with pytest.raises(ValueError, match="alpha must lie strictly inside"):
                ppi_mean_interval(labeled, unlabeled, alpha)


class TestCltMeanInterval:
    def test_constant_vector_gives_zero_width(self):
        ci = classical_clt_mean_interval([2.0, 2.0, 2.0], 0.1)
        assert ci.lower == ci.upper == ci.point_estimate == 2.0

    def test_width_vanishes_as_alpha_approaches_one(self):
        y = [0.0, 1.0, 2.0, 3.0]
        assert classical_clt_mean_interval(y, 0.999999).width < 1e-4
        assert classical_clt_mean_interval(y, 0.5).width < classical_clt_mean_interval(y, 0.1).width

    def test_hand_value_balanced_binary(self):
        y = np.concatenate([np.zeros(500), np.ones(500)])
        ci = classical_clt_mean_interval(y, 0.1)
        sd = 0.5 * math.sqrt(1000 / 999)
        half = 1.6448536269514722 * sd / math.sqrt(1000)
        assert ci.lower == pytest.approx(0.5 - half, abs=1e-9)
        assert ci.upper == pytest.approx(0.5 + half, abs=1e-9)
        assert round(ci.lower, 4) == 0.4740 and round(ci.upper, 4) == 0.5260

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            classical_clt_mean_interval([1.0], 0.1)


class TestClassicalBootstrap:
    def test_constant_outcomes_zero_width(self, stream):
        labeled = LabeledDataset(np.arange(6.0)[:, None], np.full(6, 3.0), np.zeros(6))
        ci = classical_bootstrap_interval(labeled, MEAN, BootstrapConfig(B=50), stream)
        assert ci.lower == ci.upper == 3.0

    def test_matches_reference_oracle(self):
        g = np.random.default_rng(30)
        labeled = LabeledDataset(g.standard_normal((5, 1)), g.standard_normal(5), g.standard_normal(5))
        cfg = BootstrapConfig(B=400, alpha=0.1)
        ci = classical_bootstrap_interval(labeled, MEAN, cfg, RngStream(7))
        lo, hi, _ = ref.classical_interval(labeled.outcomes, "mean", 400, 0.1, 7)
        assert ci.lower == pytest.approx(lo, abs=1e-12)
        assert ci.upper == pytest.approx(hi, abs=1e-12)

    def test_lambda_used_is_zero(self, stream):
        g = np.random.default_rng(31)
        labeled = LabeledDataset(g.standard_normal((8, 1)), g.standard_normal(8), g.standard_normal(8))
        ci = classical_bootstrap_interval(labeled, MEAN, BootstrapConfig(B=40), stream)
        assert ci.lambda_used == 0.0


class TestImputed:
    def test_oracle_predictions_cover_prediction_mean(self, stream):
        g = np.random.default_rng(32)
        preds = g.standard_normal(200)
        unlabeled = UnlabeledDataset(g.standard_normal((200, 1)), preds)
        ci = imputed_interval(unlabeled, MEAN, BootstrapConfig(B=300), stream)
        assert ci.lower <= float(np.mean(preds)) <= ci.upper

    def test_shifted_predictions_shift_center(self, stream):
        g = np.random.default_rng(33)
        y = g.standard_normal(400)
        base = UnlabeledDataset(g.standard_normal((400, 1)), y)
        shifted = UnlabeledDataset(base.features, y + 10.0)
        cfg = BootstrapConfig(B=200)
        a = imputed_interval(base, MEAN, cfg, stream)
        b = imputed_interval(shifted, MEAN, cfg, stream)
        assert b.point_estimate == pytest.approx(a.point_estimate + 10.0, abs=1e-10)
        # an interval of width ~4/sqrt(400) centered 10 away misses the truth
        assert not (b.lower <= float(np.mean(y)) <= b.upper)


class TestPpiMean:
    def test_zero_width_when_residual_and_predictions_constant(self):
        g = np.random.default_rng(34)
        y = g.standard_normal(10)
        labeled = LabeledDataset(g.standard_normal((10, 1)), y, y)
        unlabeled = UnlabeledDataset(g.standard_normal((7, 1)), np.full(7, 1.5))
        ci = ppi_mean_interval(labeled, unlabeled, 0.1)
        assert ci.lower == ci.upper == pytest.approx(1.5, abs=1e-12)

    def test_zero_predictions_reduce_to_clt(self):
        g = np.random.default_rng(35)
        y = g.standard_normal(50)
        labeled = LabeledDataset(g.standard_normal((50, 1)), y, np.zeros(50))
        unlabeled = UnlabeledDataset(g.standard_normal((80, 1)), np.zeros(80))
        ppi = ppi_mean_interval(labeled, unlabeled, 0.1)
        clt = classical_clt_mean_interval(y, 0.1)
        assert ppi.lower == pytest.approx(clt.lower, abs=1e-12)
        assert ppi.upper == pytest.approx(clt.upper, abs=1e-12)

    def test_accurate_predictions_beat_clt_width(self):
        # corr(f, Y) ~ 0.9, n=200, N=20000: mean PPI width under 0.55x CLT width.
        g = np.random.default_rng(36)
        n, N, trials = 200, 20000, 200
        noise = math.sqrt(1.0 / 0.9**2 - 1.0)
        ratios = []
        for _ in range(trials):
            y = g.standard_normal(n)
            f = y + noise * g.standard_normal(n)
            yu = g.standard_normal(N)
            fu = yu + noise * g.standard_normal(N)
            labeled = LabeledDataset(g.standard_normal((n, 1)), y, f)
            unlabeled = UnlabeledDataset(g.standard_normal((N, 1)), fu)
            ratios.append(
                ppi_mean_interval(labeled, unlabeled, 0.1).width
                / classical_clt_mean_interval(y, 0.1).width
            )
        assert float(np.mean(ratios)) < 0.55

    def test_short_inputs_rejected(self):
        g = np.random.default_rng(37)
        labeled = LabeledDataset(g.standard_normal((2, 1)), np.zeros(2), np.zeros(2))
        unlabeled = UnlabeledDataset(g.standard_normal((2, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            ppi_mean_interval(labeled, unlabeled, 1.5)
