"""Non-linearity analysis (paper Section III-D)."""

import numpy as np
import pytest

from repro.core.nonlinearity import (
    compensate_column_saturation,
    exact_mac_output,
    linear_mac_output,
)
from repro.errors import CircuitError, ShapeError


class TestTransfers:
    def test_linear_is_eq6(self, calibrated_params, rng):
        g = rng.uniform(1e-6, 2e-5, 16)
        t = rng.uniform(10e-9, 80e-9, 16)
        expected = calibrated_params.mac_gain * float(t @ g)
        assert linear_mac_output(t, g, calibrated_params) == pytest.approx(expected)

    def test_exact_below_linear(self, calibrated_params, rng):
        g = rng.uniform(1e-6, 2e-5, 16)
        t = rng.uniform(10e-9, 80e-9, 16)
        assert exact_mac_output(t, g, calibrated_params) <= linear_mac_output(
            t, g, calibrated_params
        )

    def test_batch_shapes(self, calibrated_params, rng):
        g = rng.uniform(1e-6, 2e-5, 8)
        t = rng.uniform(10e-9, 80e-9, (5, 8))
        assert np.asarray(exact_mac_output(t, g, calibrated_params)).shape == (5,)

    def test_nan_means_silent(self, calibrated_params):
        g = np.array([1e-5, 1e-5])
        with_nan = exact_mac_output(
            np.array([np.nan, 40e-9]), g, calibrated_params
        )
        # A nan input contributes nothing; equivalent to a silent row
        # of the same column (conductance still loads the column).
        explicit = exact_mac_output(np.array([0.0, 40e-9]), g, calibrated_params)
        assert with_nan == pytest.approx(explicit)

    def test_shape_validation(self, calibrated_params):
        with pytest.raises(ShapeError):
            linear_mac_output(np.zeros(3), np.zeros((2, 2)), calibrated_params)
        with pytest.raises(CircuitError):
            exact_mac_output(np.zeros(2), np.zeros(2), calibrated_params)


def transfer_error(times, conductances, params):
    """Relative droop ``(t_linear - t_exact) / t_linear`` of one column."""
    lin = linear_mac_output(times, conductances, params)
    return (lin - exact_mac_output(times, conductances, params)) / lin


class TestTransferError:
    def test_grows_with_conductance(self, calibrated_params):
        t = np.full(32, 50e-9)
        small = transfer_error(t, np.full(32, 0.32e-3 / 32), calibrated_params)
        large = transfer_error(t, np.full(32, 3.2e-3 / 32), calibrated_params)
        assert 0 < small < large

    def test_linear_regime_bounded(self, calibrated_params):
        """Inside the paper's bound the droop stays modest."""
        t = np.full(32, 80e-9)
        g = np.full(32, 1.6e-3 / 32)
        assert transfer_error(t, g, calibrated_params) < 0.30


class TestCompensation:
    def test_inverts_saturation(self, calibrated_params):
        g = np.full(32, 2.5e-3 / 32)  # beyond the linear bound
        t = np.full(32, 60e-9)
        raw = exact_mac_output(t, g, calibrated_params)
        linear = linear_mac_output(t, g, calibrated_params)
        fixed = compensate_column_saturation(raw, float(g.sum()), calibrated_params)
        assert abs(fixed - linear) < abs(raw - linear)

    def test_exact_inverse_without_ramp_curvature(self, calibrated_params):
        """With a single linear-regime input the compensation recovers
        the linear result to the residual ramp-curvature error only."""
        g = np.array([2e-5])
        t = np.array([20e-9])
        raw = exact_mac_output(t, g, calibrated_params)
        fixed = compensate_column_saturation(raw, 2e-5, calibrated_params)
        linear = linear_mac_output(t, g, calibrated_params)
        assert fixed == pytest.approx(linear, rel=0.02)

    def test_rejects_bad_conductance(self, calibrated_params):
        with pytest.raises(CircuitError):
            compensate_column_saturation(10e-9, 0.0, calibrated_params)
