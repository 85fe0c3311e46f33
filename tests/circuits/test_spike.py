"""Spike signal types."""

import pytest

from repro.circuits.spike import NO_SPIKE, SingleSpike
from repro.errors import EncodingError


class TestSingleSpike:
    def test_fired(self):
        assert SingleSpike(time=10e-9).fired
        assert not NO_SPIKE.fired

    def test_within(self):
        s = SingleSpike(time=50e-9)
        assert s.within(100e-9)
        assert not s.within(40e-9)
        assert not NO_SPIKE.within(100e-9)

    def test_delayed(self):
        s = SingleSpike(time=10e-9).delayed(5e-9)
        assert s.time == pytest.approx(15e-9)

    def test_delayed_no_spike_is_noop(self):
        assert NO_SPIKE.delayed(5e-9) is NO_SPIKE

    def test_waveform_points(self):
        pts = SingleSpike(time=10e-9, width=1e-9).waveform_points(100e-9)
        assert pts[0] == pytest.approx((0.0, 0.0))
        assert pts[1][1] == pytest.approx(1.0)

    def test_waveform_points_no_spike(self):
        pts = NO_SPIKE.waveform_points(100e-9)
        assert all(level == pytest.approx(0.0) for _, level in pts)

    def test_rejects_negative_time(self):
        with pytest.raises(EncodingError):
            SingleSpike(time=-1e-9)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(EncodingError):
            SingleSpike(time=1e-9, width=0.0)
