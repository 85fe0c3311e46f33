"""Thermal-noise floors of the sampled datapath."""

import pytest

from repro.circuits.noise import ktc_noise_voltage, minimum_capacitance_for_bits
from repro.errors import CircuitError


class TestKtcNoise:
    def test_textbook_value_at_100ff(self):
        # sqrt(kT/C) at 300 K, 100 fF is ~203 uV — the classic number.
        assert ktc_noise_voltage(100e-15) == pytest.approx(203e-6, rel=0.01)

    def test_scales_inverse_sqrt(self):
        assert ktc_noise_voltage(25e-15) == pytest.approx(
            2 * ktc_noise_voltage(100e-15)
        )

    def test_colder_is_quieter(self):
        assert ktc_noise_voltage(100e-15, temperature=77.0) < ktc_noise_voltage(
            100e-15, temperature=300.0
        )

    def test_validation(self):
        with pytest.raises(CircuitError):
            ktc_noise_voltage(0.0)
        with pytest.raises(CircuitError):
            ktc_noise_voltage(1e-15, temperature=0.0)


class TestCapacitorSizing:
    def test_bits_sizing_monotone(self):
        c8 = minimum_capacitance_for_bits(1.0, 8)
        c10 = minimum_capacitance_for_bits(1.0, 10)
        assert c10 > c8

    def test_paper_capacitor_supports_8_bits(self):
        """The paper's 100 fF C_cog comfortably exceeds the kT/C floor
        for 8-bit operation at a 1 V swing — i.e. noise does not limit
        the published sizing; linearity does (DESIGN.md section 1)."""
        c_min = minimum_capacitance_for_bits(1.0, 8)
        assert c_min < 100e-15

    def test_scaling_floor_exists(self):
        """Shrinking C_cog for energy eventually hits the noise floor:
        12-bit operation already needs more than 100 fF at 1 V."""
        assert minimum_capacitance_for_bits(1.0, 12) > 100e-15

    def test_validation(self):
        with pytest.raises(CircuitError):
            minimum_capacitance_for_bits(1.0, 0.0)
