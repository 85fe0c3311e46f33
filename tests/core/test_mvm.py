"""Single-spike MVM operator (Eqs. 5-6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.mvm import MVMMode, SingleSpikeMVM
from repro.core.nonlinearity import exact_mac_output
from repro.errors import ConfigurationError, ShapeError
from repro.reram.crossbar import CrossbarArray
from repro.reram.device import DeviceSpec
from repro.reram.nonideal import IRDropSolver, WireParasitics


@pytest.fixture
def array(rng):
    xb = CrossbarArray(16, 8)
    xb.program_normalised(rng.random((16, 8)))
    return xb


class TestLinearMode:
    def test_eq6(self, array, calibrated_params, rng):
        mvm = SingleSpikeMVM(array, calibrated_params, mode=MVMMode.LINEAR)
        times = rng.uniform(10e-9, 80e-9, 16)
        expected = calibrated_params.mac_gain * (times @ array.conductances)
        assert np.allclose(mvm.output_times(times), expected)

    def test_nan_contributes_zero(self, array, calibrated_params):
        mvm = SingleSpikeMVM(array, calibrated_params, mode=MVMMode.LINEAR)
        times = np.full(16, np.nan)
        times[0] = 50e-9
        expected = calibrated_params.mac_gain * 50e-9 * array.conductances[0]
        assert np.allclose(mvm.output_times(times), expected)

    def test_batch(self, array, calibrated_params, rng):
        mvm = SingleSpikeMVM(array, calibrated_params, mode=MVMMode.LINEAR)
        times = rng.uniform(10e-9, 80e-9, (4, 16))
        out = mvm.output_times(times)
        assert out.shape == (4, 8)

    def test_clamps_to_slice(self, calibrated_params, rng):
        # A huge gain configuration saturates the slice.
        xb = CrossbarArray(32, 2, spec=DeviceSpec.paper_full_range())
        xb.program_normalised(np.ones((32, 2)))
        import dataclasses
        params = dataclasses.replace(calibrated_params, c_cog=1e-14)
        mvm = SingleSpikeMVM(xb, params, mode=MVMMode.LINEAR)
        result = mvm.evaluate(np.full(32, 80e-9))
        assert not result.fired.all()
        assert np.all(result.times <= params.slice_length)


class TestExactMode:
    def test_matches_scalar_oracle(self, array, calibrated_params, rng):
        mvm = SingleSpikeMVM(array, calibrated_params, mode=MVMMode.EXACT)
        times = rng.uniform(10e-9, 80e-9, 16)
        out = mvm.output_times(times)
        for j in range(8):
            oracle = exact_mac_output(
                times, array.conductances[:, j], calibrated_params
            )
            assert out[j] == pytest.approx(oracle, rel=1e-12)

    def test_exact_below_linear(self, array, calibrated_params, rng):
        """Saturation always pulls the exact output below Eq. 6."""
        times = rng.uniform(10e-9, 80e-9, 16)
        exact = SingleSpikeMVM(array, calibrated_params, MVMMode.EXACT)
        linear = SingleSpikeMVM(array, calibrated_params, MVMMode.LINEAR)
        assert np.all(exact.output_times(times) <= linear.output_times(times) + 1e-15)

    @given(
        times=hnp.arrays(
            np.float64, (16,), elements=st.floats(10e-9, 80e-9)
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_monotonicity_property(self, times):
        """Increasing any input time never decreases any output time."""
        from repro.config import CircuitParameters

        params = CircuitParameters.calibrated()
        xb = CrossbarArray(16, 4)
        xb.program_normalised(np.linspace(0, 1, 64).reshape(16, 4))
        mvm = SingleSpikeMVM(xb, params, MVMMode.EXACT)
        base = mvm.output_times(times)
        bumped = times.copy()
        bumped[3] = min(80e-9, bumped[3] + 5e-9)
        after = mvm.output_times(bumped)
        assert np.all(after >= base - 1e-18)


class TestInterface:
    def test_shape_checked(self, array, calibrated_params):
        mvm = SingleSpikeMVM(array, calibrated_params)
        with pytest.raises(ShapeError):
            mvm.output_times(np.zeros(5))

    def test_saturation_mask(self, calibrated_params):
        xb = CrossbarArray(32, 2, spec=DeviceSpec.paper_full_range())
        targets = np.full((32, 2), xb.spec.g_min)
        targets[:, 1] = xb.spec.g_max
        xb.program(targets)
        mvm = SingleSpikeMVM(xb, calibrated_params)
        mask = mvm.saturation_mask()
        assert list(mask) == [False, True]

    def test_linear_full_scale_time(self, array, calibrated_params):
        mvm = SingleSpikeMVM(array, calibrated_params)
        expected = (
            calibrated_params.mac_gain
            * 80e-9
            * array.column_total_conductance().max()
        )
        assert mvm.linear_full_scale_time(80e-9) == pytest.approx(expected)


class TestParasiticThevenin:
    """IR drop keeps one explicit route: one realization only."""

    @pytest.fixture
    def thevenin(self, array):
        return IRDropSolver(array, WireParasitics()).column_thevenin()

    def test_one_realization_accepted(self, array, calibrated_params,
                                      thevenin, rng):
        mvm = SingleSpikeMVM(array, calibrated_params,
                             parasitic_thevenin=thevenin)
        times = rng.uniform(10e-9, 80e-9, (3, 16))
        result = mvm.evaluate(times)
        ideal = SingleSpikeMVM(array, calibrated_params).evaluate(times)
        assert result.times.shape == (3, 8)
        assert not np.array_equal(result.v_out, ideal.v_out)

    def test_trial_stack_rejected(self, array, calibrated_params, thevenin):
        stack = array.with_conductances(
            np.stack([array.conductances, array.conductances])
        )
        with pytest.raises(ConfigurationError):
            SingleSpikeMVM(stack, calibrated_params,
                           parasitic_thevenin=thevenin)
