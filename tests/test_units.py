"""Unit helpers."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.units import (
    ATTO,
    FEMTO,
    GIGA,
    KILO,
    MEGA,
    MICRO,
    MILLI,
    NANO,
    PICO,
    TERA,
    conductance,
    parallel,
    resistance,
    si_format,
)


class TestPrefixes:
    def test_prefix_values(self):
        expected = [
            (ATTO, 1e-18), (FEMTO, 1e-15), (PICO, 1e-12), (NANO, 1e-9),
            (MICRO, 1e-6), (MILLI, 1e-3), (KILO, 1e3), (MEGA, 1e6),
            (GIGA, 1e9), (TERA, 1e12),
        ]
        for constant, value in expected:
            # SI prefixes must be bit-exact powers of ten, not merely close.
            assert math.isclose(constant, value, rel_tol=0.0, abs_tol=0.0)

    def test_datasheet_style_composition(self):
        assert 100 * FEMTO == pytest.approx(1e-13)
        assert 100 * NANO == pytest.approx(1e-7)


class TestSiFormat:
    def test_basic(self):
        assert si_format(1e-13, "F") == "100 fF"
        assert si_format(2.5e-3, "S") == "2.5 mS"
        assert si_format(1e9, "Hz") == "1 GHz"

    def test_zero(self):
        assert si_format(0.0, "W") == "0 W"
        assert si_format(-0.0, "W") == "-0 W"
        assert si_format(0.0) == "0"

    def test_negative(self):
        assert si_format(-3e-9, "s") == "-3 ns"
        assert si_format(-2.5e-3, "S") == "-2.5 mS"
        assert si_format(-1500.0, "W") == "-1.5 kW"

    def test_no_unit(self):
        assert si_format(1500.0) == "1.5 k"

    def test_non_finite(self):
        assert "inf" in si_format(float("inf"), "s")
        assert "-inf" in si_format(float("-inf"), "s")
        assert "nan" in si_format(float("nan"), "s")

    def test_sub_atto_falls_back_to_scientific(self):
        # Below the smallest prefix no engineering form exists; the
        # formatter must not emit misleading fractions of atto.
        assert si_format(5e-19, "F") == "5e-19 F"
        assert si_format(1e-21, "F") == "1e-21 F"
        assert si_format(-5e-19, "F") == "-5e-19 F"

    def test_supra_tera_falls_back_to_scientific(self):
        assert si_format(1e15, "Hz") == "1e+15 Hz"
        assert si_format(2.5e16, "Hz") == "2.5e+16 Hz"
        assert si_format(-1e15, "Hz") == "-1e+15 Hz"

    def test_rounding_promotes_across_prefix_boundary(self):
        # 999.96 ns rounds to 1000 at 4 significant digits -> promote
        # to the next prefix instead of rendering "1000 ns".
        assert si_format(999.96e-9, "s", digits=4) == "1 us"
        assert si_format(-999.96e-9, "s", digits=4) == "-1 us"
        # ... but a value that does not round across stays put.
        assert si_format(999.4e-9, "s", digits=4) == "999.4 ns"
        assert si_format(999.96e9, "Hz", digits=4) == "1 THz"

    def test_rounding_at_tera_falls_back_to_scientific(self):
        # There is no prefix above tera to promote into.
        assert si_format(999.96e12, "Hz", digits=4) == "1e+15 Hz"

    def test_digits_control_significant_figures(self):
        assert si_format(123.456e-9, "s", digits=4) == "123.5 ns"
        assert si_format(123.456e-9, "s", digits=2) == "120 ns"


class TestParallel:
    def test_two_equal(self):
        assert parallel(10e3, 10e3) == pytest.approx(5e3)

    def test_single(self):
        assert parallel(42.0) == pytest.approx(42.0)

    def test_dominated_by_smallest(self):
        assert parallel(1.0, 1e9) == pytest.approx(1.0, rel=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            parallel(10.0, -5.0)
        with pytest.raises(ConfigurationError):
            parallel()

    def test_rejection_still_catchable_as_valueerror(self):
        # Back-compat: ConfigurationError derives from ValueError.
        with pytest.raises(ValueError):
            parallel(0.0)


class TestConductanceResistance:
    def test_inverse_pair(self):
        assert conductance(50e3) == pytest.approx(2e-5)
        assert resistance(2e-5) == pytest.approx(50e3)
        assert resistance(conductance(123.0)) == pytest.approx(123.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            conductance(0.0)
        with pytest.raises(ConfigurationError):
            resistance(-1.0)
