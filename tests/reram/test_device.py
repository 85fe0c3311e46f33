"""ReRAM device model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceError
from repro.reram.device import DeviceSpec


class TestDeviceSpec:
    def test_paper_windows(self):
        full = DeviceSpec.paper_full_range()
        assert full.r_lrs == pytest.approx(10e3)
        assert full.dynamic_range == pytest.approx(100.0)
        linear = DeviceSpec.paper_linear_range()
        assert linear.r_lrs == pytest.approx(50e3)
        assert linear.dynamic_range == pytest.approx(20.0)

    def test_linear_window_respects_column_bound(self):
        # 32 cells all at LRS stay within the paper's 1.6 mS budget.
        spec = DeviceSpec.paper_linear_range()
        assert 32 * spec.g_max <= 1.6e-3 + 1e-12

    def test_clip(self):
        spec = DeviceSpec.paper_linear_range()
        assert spec.clip(1.0) == pytest.approx(spec.g_max)
        assert spec.clip(0.0) == pytest.approx(spec.g_min)

    def test_contains(self):
        spec = DeviceSpec.paper_linear_range()
        assert spec.contains(spec.g_min)
        assert spec.contains(spec.g_max)
        assert not spec.contains(2 * spec.g_max)

    def test_quantise_continuous_is_clip(self):
        spec = DeviceSpec.paper_linear_range()
        g = spec.g_min + 0.123456 * spec.g_range
        assert spec.quantise(g) == pytest.approx(g)

    def test_quantise_levels(self):
        spec = DeviceSpec(levels=5)
        step = spec.g_range / 4
        g = spec.g_min + 1.4 * step
        assert spec.quantise(g) == pytest.approx(spec.g_min + step)

    def test_quantise_idempotent(self, rng):
        spec = DeviceSpec(levels=16)
        g = rng.uniform(spec.g_min, spec.g_max, 100)
        once = spec.quantise(g)
        assert np.allclose(spec.quantise(once), once)

    @given(w=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_normalised_round_trip(self, w):
        spec = DeviceSpec.paper_linear_range()
        g = spec.normalised_to_conductance(w)
        assert spec.conductance_to_normalised(g) == pytest.approx(w, abs=1e-12)

    def test_normalised_rejects_out_of_range(self):
        spec = DeviceSpec.paper_linear_range()
        with pytest.raises(DeviceError):
            spec.normalised_to_conductance(1.5)
        with pytest.raises(DeviceError):
            spec.conductance_to_normalised(spec.g_max * 2)

    def test_validation(self):
        with pytest.raises(DeviceError):
            DeviceSpec(r_lrs=1e6, r_hrs=1e6)
        with pytest.raises(DeviceError):
            DeviceSpec(levels=1)
        with pytest.raises(DeviceError):
            DeviceSpec(write_voltage=0.0)
