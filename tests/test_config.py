"""CircuitParameters operating points."""

import dataclasses
import math

import pytest

from repro.config import CircuitParameters
from repro.errors import ConfigurationError


class TestPaperPoint:
    def test_published_values(self, paper_params):
        p = paper_params
        assert p.v_s == pytest.approx(1.0)
        assert p.r_gd == pytest.approx(100e3)
        assert p.c_gd == pytest.approx(100e-15)
        assert p.c_cog == pytest.approx(100e-15)
        assert p.slice_length == pytest.approx(100e-9)
        assert p.dt == pytest.approx(1e-9)
        assert p.rows == p.cols == 32
        assert p.r_lrs == pytest.approx(10e3)
        assert p.r_hrs == pytest.approx(1e6)

    def test_tau_gd(self, paper_params):
        assert paper_params.tau_gd == pytest.approx(10e-9)

    def test_mac_gain(self, paper_params):
        # dt/C_cog = 1 ns / 100 fF = 10 kOhm
        assert paper_params.mac_gain == pytest.approx(1e4)

    def test_mvm_latency_two_slices(self, paper_params):
        assert paper_params.mvm_latency == pytest.approx(200e-9)

    def test_paper_point_saturates_at_linear_limit(self, paper_params):
        # The DESIGN.md consistency note: ~16 time constants at 1.6 mS.
        assert paper_params.saturation_depth(1.6e-3) == pytest.approx(16.0)
        assert not paper_params.is_linear_regime(1.6e-3)


class TestCalibratedPoint:
    def test_column_linearity(self, calibrated_params):
        p = calibrated_params
        assert p.saturation_depth(p.g_column_linear_limit) == pytest.approx(0.5)
        assert p.is_linear_regime(p.g_column_linear_limit)

    def test_ramp_linearity(self, calibrated_params):
        p = calibrated_params
        assert p.t_in_max / p.tau_gd == pytest.approx(0.1)

    def test_expected_c_cog(self, calibrated_params):
        assert calibrated_params.c_cog == pytest.approx(3.2e-12)

    def test_overrides_forwarded(self):
        p = CircuitParameters.calibrated(rows=16, cols=8)
        assert (p.rows, p.cols) == (16, 8)

    def test_ratio_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitParameters.calibrated(linearity_ratio=0.0)
        with pytest.raises(ConfigurationError):
            CircuitParameters.calibrated(ramp_ratio=-1.0)


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("v_s", 0.0),
            ("r_gd", -1.0),
            ("c_gd", 0.0),
            ("c_cog", -1e-15),
            ("slice_length", 0.0),
            ("spike_width", 0.0),
        ],
    )
    def test_rejects_nonpositive(self, field, value):
        with pytest.raises(ConfigurationError):
            CircuitParameters(**{field: value})

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            CircuitParameters(rows=0)

    def test_rejects_lrs_above_hrs(self):
        with pytest.raises(ConfigurationError):
            CircuitParameters(r_lrs=2e6, r_hrs=1e6)

    def test_rejects_dt_longer_than_slice(self):
        with pytest.raises(ConfigurationError):
            CircuitParameters(dt=200e-9)

    def test_rejects_bad_input_window(self):
        with pytest.raises(ConfigurationError):
            CircuitParameters(t_in_min=90e-9, t_in_max=80e-9)
        with pytest.raises(ConfigurationError):
            CircuitParameters(t_in_max=200e-9)

    def test_frozen(self, paper_params):
        with pytest.raises(dataclasses.FrozenInstanceError):
            paper_params.v_s = 2.0


class TestDerived:
    def test_conductance_states(self, paper_params):
        assert paper_params.g_lrs == pytest.approx(1e-4)
        assert paper_params.g_hrs == pytest.approx(1e-6)

    def test_max_column_conductance(self, paper_params):
        assert paper_params.max_column_conductance == pytest.approx(32e-4)

    def test_column_time_constant(self, paper_params):
        tau = paper_params.column_time_constant(1e-3)
        assert tau == pytest.approx(100e-15 / 1e-3)

    def test_column_time_constant_rejects_zero(self, paper_params):
        with pytest.raises(ConfigurationError):
            paper_params.column_time_constant(0.0)

    def test_ramp_voltage_exact(self, paper_params):
        p = paper_params
        t = 40e-9
        expected = p.v_s * (1 - math.exp(-t / p.tau_gd))
        assert p.ramp_voltage(t) == pytest.approx(expected)

    def test_ramp_voltage_rejects_negative_time(self, paper_params):
        with pytest.raises(ConfigurationError):
            paper_params.ramp_voltage(-1e-9)

    def test_describe_mentions_key_values(self, paper_params):
        text = paper_params.describe()
        assert "100 fF" in text
        assert "32 x 32" in text
