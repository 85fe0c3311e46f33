"""Process-variation and fault models."""

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.reram.device import DeviceSpec
from repro.reram.variation import StuckAtFaultModel, VariationModel


class TestVariationModel:
    def test_zero_sigma_is_identity(self, rng):
        model = VariationModel(sigma=0.0)
        g = rng.uniform(1e-6, 2e-5, (8, 8))
        assert np.array_equal(model.perturb(g, rng), g)

    def test_normal_statistics(self):
        model = VariationModel(sigma=0.1)
        rng = np.random.default_rng(0)
        mult = model.multipliers((200_000,), rng)
        assert mult.mean() == pytest.approx(1.0, abs=5e-3)
        assert mult.std() == pytest.approx(0.1, abs=5e-3)

    def test_lognormal_statistics(self):
        model = VariationModel(sigma=0.2, distribution="lognormal")
        rng = np.random.default_rng(0)
        mult = model.multipliers((200_000,), rng)
        assert mult.mean() == pytest.approx(1.0, abs=5e-3)
        assert mult.std() == pytest.approx(0.2, abs=5e-3)
        assert np.all(mult > 0)

    def test_never_negative(self):
        model = VariationModel(sigma=0.8, clip_to_window=False)
        rng = np.random.default_rng(1)
        out = model.perturb(np.full(10_000, 1e-5), rng)
        assert np.all(out >= 0)

    def test_clip_to_window(self):
        spec = DeviceSpec.paper_linear_range()
        model = VariationModel(sigma=0.5)
        rng = np.random.default_rng(2)
        out = model.perturb(np.full(10_000, spec.g_max), rng, spec=spec)
        assert np.all(out <= spec.g_max + 1e-18)
        assert np.all(out >= spec.g_min - 1e-18)

    def test_input_not_modified(self, rng):
        g = np.full((4, 4), 1e-5)
        original = g.copy()
        VariationModel(sigma=0.2).perturb(g, rng)
        assert np.array_equal(g, original)

    def test_validation(self):
        with pytest.raises(DeviceError):
            VariationModel(sigma=-0.1)
        with pytest.raises(DeviceError):
            VariationModel(sigma=0.1, distribution="cauchy")


class TestStuckAtFaults:
    def test_zero_rates_identity(self, rng):
        spec = DeviceSpec.paper_linear_range()
        model = StuckAtFaultModel()
        g = rng.uniform(spec.g_min, spec.g_max, (16, 16))
        assert np.array_equal(model.inject(g, rng, spec), g)

    def test_fault_rates_observed(self):
        spec = DeviceSpec.paper_linear_range()
        model = StuckAtFaultModel(stuck_on_rate=0.1, stuck_off_rate=0.05)
        rng = np.random.default_rng(3)
        mid = 0.5 * (spec.g_min + spec.g_max)
        g = np.full(100_000, mid)
        out = model.inject(g, rng, spec)
        on_frac = np.mean(out == spec.g_max)
        off_frac = np.mean(out == spec.g_min)
        assert on_frac == pytest.approx(0.1, abs=5e-3)
        assert off_frac == pytest.approx(0.05, abs=5e-3)

    def test_total_rate(self):
        assert StuckAtFaultModel(0.02, 0.03).total_rate == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(DeviceError):
            StuckAtFaultModel(stuck_on_rate=1.2)
        with pytest.raises(DeviceError):
            StuckAtFaultModel(stuck_on_rate=0.6, stuck_off_rate=0.6)
