"""Timing-noise analysis of the single-spiking readout."""

import numpy as np
import pytest

from repro.circuits.comparator import ComparatorModel
from repro.config import CircuitParameters
from repro.core.cog import ColumnOutputGenerator
from repro.core.timing_noise import (
    TimingNoiseReport,
    analyse_timing_noise,
    effective_bits,
    ramp_slope,
    timing_noise_from_voltage_noise,
    total_timing_noise,
)
from repro.errors import CircuitError


class TestRampSlope:
    def test_initial_slope(self, calibrated_params):
        p = calibrated_params
        assert ramp_slope(0.0, p) == pytest.approx(p.v_s / p.tau_gd)

    def test_slope_decays(self, calibrated_params):
        assert ramp_slope(50e-9, calibrated_params) < ramp_slope(
            5e-9, calibrated_params
        )

    def test_rejects_negative_time(self, calibrated_params):
        with pytest.raises(CircuitError):
            ramp_slope(-1e-9, calibrated_params)


class TestPropagation:
    def test_noise_grows_with_time(self, calibrated_params):
        """The exponential ramp makes late crossings noisier — the
        characteristic signature of timing-domain readout."""
        early = timing_noise_from_voltage_noise(1e-3, 10e-9, calibrated_params)
        late = timing_noise_from_voltage_noise(1e-3, 80e-9, calibrated_params)
        assert late > early

    def test_linear_in_voltage_noise(self, calibrated_params):
        a = timing_noise_from_voltage_noise(1e-3, 40e-9, calibrated_params)
        b = timing_noise_from_voltage_noise(2e-3, 40e-9, calibrated_params)
        assert b == pytest.approx(2 * a)

    def test_total_is_rss(self, calibrated_params):
        v_only = total_timing_noise(40e-9, calibrated_params,
                                    sigma_v=1e-3, sigma_delay=0, sigma_clock=0)
        combined = total_timing_noise(40e-9, calibrated_params,
                                      sigma_v=1e-3, sigma_delay=v_only,
                                      sigma_clock=0)
        assert combined == pytest.approx(v_only * np.sqrt(2))

    def test_validation(self, calibrated_params):
        with pytest.raises(CircuitError):
            timing_noise_from_voltage_noise(-1e-3, 10e-9, calibrated_params)
        with pytest.raises(CircuitError):
            total_timing_noise(10e-9, calibrated_params, sigma_delay=-1)


class TestEffectiveBits:
    def test_reasonable_resolution(self, calibrated_params):
        """At representative 65 nm noise figures a ReSiPE column is worth
        mid-single-digit to ~8 bits — competitive with the 8-bit ADCs of
        level-based designs (Table I positioning)."""
        bits = effective_bits(calibrated_params)
        assert 4.0 < bits < 12.0

    def test_more_noise_fewer_bits(self, calibrated_params):
        quiet = effective_bits(calibrated_params, sigma_v=0.2e-3)
        noisy = effective_bits(calibrated_params, sigma_v=5e-3)
        assert quiet > noisy

    def test_zero_for_hopeless_noise(self, calibrated_params):
        assert effective_bits(calibrated_params, sigma_v=10.0) == pytest.approx(0.0)

    def test_validation(self, calibrated_params):
        with pytest.raises(CircuitError):
            effective_bits(calibrated_params, t_full_scale=0.0)


class TestReport:
    def test_report_fields(self, calibrated_params):
        report = analyse_timing_noise(calibrated_params)
        assert isinstance(report, TimingNoiseReport)
        assert report.sigma_t_late > report.sigma_t_early > 0
        assert 0 < report.worst_value_noise < 1
        assert report.effective_bits > 0


class TestMonteCarloAgreement:
    def test_matches_closed_form(self, calibrated_params):
        """Randomised comparator offsets through the exact COG reproduce
        the analytic sigma_v/slope propagation within MC error."""
        p = calibrated_params
        sigma_v = 1e-3
        v_out = 0.05  # mid-range held voltage
        t_out = -p.tau_gd * np.log(1 - v_out / p.v_s)
        predicted = timing_noise_from_voltage_noise(sigma_v, t_out, p)
        rng = np.random.default_rng(0)
        times = [
            ColumnOutputGenerator(
                p, comparator=ComparatorModel(offset_sigma=sigma_v).randomised(rng)
            ).times_from_voltages(v_out).times[0]
            for _ in range(400)
        ]
        assert np.std(times, ddof=1) == pytest.approx(predicted, rel=0.15)
