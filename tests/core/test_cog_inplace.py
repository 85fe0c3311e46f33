"""The in-place COG ramp inversion against the allocating reference.

:meth:`ColumnOutputGenerator.times_from_voltages` transforms one times
buffer in place.  It must give exactly the bytes of the straightforward
masked-select expression (below), never write into the voltages it was
given, and keep those voltages as :attr:`COGResult.v_out` -- for
reachable, unreachable (``V_out >= V_s``) and unfired (``t > slice``)
elements, with and without a comparator model, and for 0-d input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.comparator import ComparatorModel
from repro.config import CircuitParameters
from repro.core.cog import ColumnOutputGenerator
from repro.core.mvm import MVMMode, SingleSpikeMVM
from repro.reram.crossbar import CrossbarArray

PARAMS = CircuitParameters.calibrated()


def reference(cog: ColumnOutputGenerator, v_out):
    """The allocating expression: one fresh array per stage."""
    p = cog.params
    v = np.atleast_1d(np.asarray(v_out, dtype=float))
    threshold = v
    if cog.comparator is not None:
        threshold = np.maximum(
            np.asarray(cog.comparator.effective_threshold(v), dtype=float),
            0.0,
        )
    if cog.exact:
        ratio = threshold / p.v_s
        reachable = ratio < 1.0
        t = -p.tau_gd * np.log1p(-np.where(reachable, ratio, 0.0))
        t = np.where(reachable, t, np.inf)
    else:
        t = threshold * p.tau_gd / p.v_s
    if cog.comparator is not None:
        t = np.asarray(cog.comparator.output_edge_time(t), dtype=float)
    fired = t <= p.slice_length
    return np.where(fired, t, p.slice_length), fired


def _unfired_voltage(p) -> float:
    """A voltage the ramp reaches only after the slice has ended."""
    edge = p.v_s * (1.0 - np.exp(-p.slice_length / p.tau_gd))
    return 0.5 * (edge + p.v_s)


def _voltages(p) -> np.ndarray:
    """Reachable, exactly-V_s, above-V_s and unfired elements, 2-D."""
    return np.array([
        [0.0, 0.1 * p.v_s, 0.5 * p.v_s, p.v_s],
        [1.5 * p.v_s, _unfired_voltage(p), 0.9 * p.v_s, 1e-6],
    ])


COGS = {
    "exact": ColumnOutputGenerator(PARAMS, exact=True),
    "linear": ColumnOutputGenerator(PARAMS, exact=False),
    "comparator": ColumnOutputGenerator(
        PARAMS, exact=True,
        comparator=ComparatorModel(offset=-0.05 * PARAMS.v_s, delay=2e-9),
    ),
    "linear-comparator": ColumnOutputGenerator(
        PARAMS, exact=False,
        comparator=ComparatorModel(offset=0.02 * PARAMS.v_s, delay=1e-9),
    ),
}


@pytest.mark.parametrize("name", sorted(COGS))
class TestTimesFromVoltages:
    def test_matches_reference_bytes(self, name):
        cog = COGS[name]
        v = _voltages(PARAMS)
        result = cog.times_from_voltages(v)
        times, fired = reference(cog, v)
        assert result.times.tobytes() == times.tobytes()
        assert np.array_equal(result.fired, fired)

    def test_input_untouched_and_held(self, name):
        cog = COGS[name]
        v = _voltages(PARAMS)
        before = v.copy()
        result = cog.times_from_voltages(v)
        assert v.tobytes() == before.tobytes()
        assert result.v_out.tobytes() == before.tobytes()
        assert not np.shares_memory(result.times, v)

    def test_read_only_input_accepted(self, name):
        v = _voltages(PARAMS)
        v.flags.writeable = False
        times, _ = reference(COGS[name], v)
        assert np.array_equal(COGS[name].times_from_voltages(v).times, times)

    def test_zero_d_input(self, name):
        cog = COGS[name]
        for value in (0.0, 0.3 * PARAMS.v_s, PARAMS.v_s, 2.0 * PARAMS.v_s):
            result = cog.times_from_voltages(value)
            times, fired = reference(cog, value)
            assert result.times.shape == (1,)
            assert result.times.tobytes() == times.tobytes()
            assert np.array_equal(result.fired, fired)
            assert result.v_out.tolist() == [value]


def test_saturation_cases_covered():
    """The fixture really holds unreachable and unfired elements."""
    result = COGS["exact"].times_from_voltages(_voltages(PARAMS))
    assert not result.fired.all()
    v = _voltages(PARAMS)
    unfired = (v < PARAMS.v_s) & ~result.fired
    assert unfired.any()
    assert np.all(result.times[~result.fired] == PARAMS.slice_length)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=2.0 * PARAMS.v_s,
                  allow_nan=False),
        min_size=1, max_size=40,
    ),
    st.sampled_from(sorted(COGS)),
)
def test_property_matches_reference(values, name):
    cog = COGS[name]
    v = np.array(values)
    before = v.copy()
    result = cog.times_from_voltages(v)
    times, fired = reference(cog, before)
    assert result.times.tobytes() == times.tobytes()
    assert np.array_equal(result.fired, fired)
    assert v.tobytes() == before.tobytes()


@pytest.mark.parametrize("mode", [MVMMode.EXACT, MVMMode.LINEAR])
def test_stacked_evaluate_keeps_inputs(mode):
    rng = np.random.default_rng(3)
    arrays = []
    for _ in range(3):
        array = CrossbarArray(8, 5)
        array.program_normalised(rng.random((8, 5)))
        arrays.append(array)
    stacked = arrays[0].with_conductances(
        np.stack([a.conductances for a in arrays])
    )
    g_before = stacked.conductances.copy()
    times = rng.uniform(0.0, PARAMS.t_in_max, (4, 8))
    times[0, 2] = np.nan  # an absent spike
    times_before = times.copy()
    mvm = SingleSpikeMVM(stacked, PARAMS, mode=mode)
    result = mvm.evaluate(times)
    assert np.array_equal(times, times_before, equal_nan=True)
    assert np.array_equal(stacked.conductances, g_before)
    for t, array in enumerate(arrays):
        serial = SingleSpikeMVM(array, PARAMS, mode=mode).evaluate(times)
        assert result.times[t].tobytes() == serial.times.tobytes()
        assert result.v_out[t].tobytes() == serial.v_out.tobytes()
