"""Thevenin reduction of the charging branches (Eq. 2)."""

import pytest

from repro.circuits.rc import TheveninEquivalent, thevenin
from repro.errors import CircuitError


class TestThevenin:
    def test_eq2_two_sources(self):
        # The paper's Eq. 2 with V_in1, V_in2 through G_1, G_2.
        eq = thevenin([0.4, 0.8], [1e-5, 3e-5])
        assert eq.voltage == pytest.approx((0.4e-5 + 0.8 * 3e-5) / 4e-5)
        assert eq.resistance == pytest.approx(1.0 / 4e-5)

    def test_voltage_is_convex_combination(self, rng):
        v = rng.random(8)
        g = rng.random(8) + 0.1
        eq = thevenin(v, g)
        assert v.min() <= eq.voltage <= v.max()

    def test_zero_branches_ignored(self):
        eq = thevenin([1.0, 0.5], [0.0, 2e-5])
        assert eq.voltage == pytest.approx(0.5)

    def test_rejects_all_zero(self):
        with pytest.raises(CircuitError):
            thevenin([1.0], [0.0])

    def test_rejects_negative_conductance(self):
        with pytest.raises(CircuitError):
            thevenin([1.0], [-1e-5])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(CircuitError):
            thevenin([1.0, 2.0], [1e-5])

    def test_tau(self):
        eq = TheveninEquivalent(voltage=1.0, resistance=1e3)
        assert eq.tau(1e-12) == pytest.approx(1e-9)

    def test_tau_rejects_nonpositive_cap(self):
        with pytest.raises(CircuitError):
            TheveninEquivalent(1.0, 1e3).tau(0.0)
