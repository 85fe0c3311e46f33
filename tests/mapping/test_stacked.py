"""Trial stacks: slice ``t`` of a T-stack is the lone run of clone ``t``.

One datapath evaluates a lone chip and a stack of ``T`` Monte-Carlo
conductance realizations; the stack only adds a leading trial axis.
The contract, at every layer (crossbar, MVM, tile, network): slice
``t`` of the stacked result carries the *same bytes* as the ``T = 1``
run of clone ``t``.  Everything here compares bytes, not ``allclose``.
"""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import CircuitParameters
from repro.core.mvm import MVMMode, SingleSpikeMVM
from repro.errors import MappingError, ShapeError
from repro.faults import HealthProbe, StuckAtInjector, VariationInjector
from repro.mapping import (
    IdealBackend,
    PatchedLayer,
    PIMExecutor,
    ReSiPEBackend,
    compile_network,
    detect_and_remap,
    stack_tiles,
)
from repro.mapping.stacked import stack_networks
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.reram.crossbar import CrossbarArray


def _variants(rng, trials=4, rows=16, cols=8):
    base = CrossbarArray(rows, cols)
    base.program_normalised(rng.random((rows, cols)))
    variation = VariationInjector(sigma=0.1)
    return [base.injected(variation, rng) for _ in range(trials)]


def _stack(arrays):
    """One array holding every realization as a ``(T, rows, cols)`` stack."""
    return arrays[0].with_conductances(
        np.stack([a.conductances for a in arrays])
    )


class TestStackedCrossbar:
    """A crossbar holding a trial stack."""

    def test_mvm_matches_per_trial(self, rng):
        arrays = _variants(rng)
        v = rng.random((5, 16))
        out = _stack(arrays).mvm_currents(v)
        assert out.shape == (4, 5, 8)
        for t, array in enumerate(arrays):
            assert out[t].tobytes() == array.mvm_currents(v).tobytes()

    def test_column_totals_match_per_trial(self, rng):
        arrays = _variants(rng)
        totals = _stack(arrays).column_total_conductance()
        for t, array in enumerate(arrays):
            assert np.array_equal(totals[t], array.column_total_conductance())

    def test_rejects_mismatched_arrays(self, rng):
        backend = ReSiPEBackend(params=CircuitParameters.calibrated())
        small = backend.program(rng.random((4, 4)))
        big = backend.program(rng.random((8, 4)))
        with pytest.raises(ShapeError):
            stack_tiles([small, big])

    def test_mvm_shape_checked(self, rng):
        stacked = _stack(_variants(rng))
        with pytest.raises(ShapeError):
            stacked.mvm_currents(rng.random(7))


class TestEvaluateStacked:
    @pytest.mark.parametrize("mode", [MVMMode.EXACT, MVMMode.LINEAR])
    def test_bit_identical_to_serial(self, rng, calibrated_params, mode):
        arrays = _variants(rng)
        mvm = SingleSpikeMVM(_stack(arrays), calibrated_params, mode=mode)
        times = rng.uniform(10e-9, 80e-9, (3, 16))
        result = mvm.evaluate(times)
        assert result.times.shape == (4, 3, 8)
        for t, array in enumerate(arrays):
            serial = SingleSpikeMVM(array, calibrated_params, mode=mode)
            ref = serial.evaluate(times)
            assert result.times[t].tobytes() == ref.times.tobytes()
            assert np.array_equal(result.fired[t], ref.fired)
            assert result.v_out[t].tobytes() == ref.v_out.tobytes()

    def test_per_trial_inputs(self, rng, calibrated_params):
        arrays = _variants(rng)
        mvm = SingleSpikeMVM(_stack(arrays), calibrated_params)
        times = rng.uniform(10e-9, 80e-9, (4, 3, 16))
        result = mvm.evaluate(times)
        for t, array in enumerate(arrays):
            serial = SingleSpikeMVM(array, calibrated_params)
            assert (result.times[t].tobytes()
                    == serial.evaluate(times[t]).times.tobytes())

    def test_trial_count_mismatch(self, rng, calibrated_params):
        mvm = SingleSpikeMVM(_stack(_variants(rng)), calibrated_params)
        with pytest.raises(ShapeError):
            mvm.evaluate(rng.uniform(10e-9, 80e-9, (3, 2, 16)))


class TestStackTiles:
    @pytest.mark.parametrize("backend", [
        IdealBackend(),
        ReSiPEBackend(params=CircuitParameters.calibrated(),
                      mode=MVMMode.LINEAR),
        ReSiPEBackend(params=CircuitParameters.calibrated(),
                      mode=MVMMode.EXACT),
    ])
    def test_bit_identical_to_serial(self, rng, backend):
        base = backend.program(rng.random((16, 6)))
        tiles = [base.faulted(VariationInjector(0.1), rng) for _ in range(3)]
        stacked = stack_tiles(tiles)
        x = rng.random((5, 16))
        out = stacked.matmul(x)
        assert out.shape == (3, 5, 6)
        for t, tile in enumerate(tiles):
            assert out[t].tobytes() == tile.matmul(x).tobytes()

    def test_tiles_of_different_positions_stack(self, rng):
        # Tiles programmed by one backend with different weights (e.g.
        # a layer's spare strips) stack like clones of one tile.
        backend = ReSiPEBackend(mode=MVMMode.LINEAR)
        tiles = [backend.program(rng.random((4, 1))) for _ in range(3)]
        x = rng.random((2, 4))
        stacked = stack_tiles(tiles).matmul(x)
        for t, tile in enumerate(tiles):
            assert stacked[t].tobytes() == tile.matmul(x).tobytes()

    def test_empty_rejected(self):
        with pytest.raises(MappingError):
            stack_tiles([])

    def test_mixed_types_rejected(self, rng):
        w = rng.random((8, 4))
        ideal = IdealBackend().program(w)
        resipe = ReSiPEBackend(
            params=CircuitParameters.calibrated(), mode=MVMMode.LINEAR
        ).program(w)
        with pytest.raises(MappingError):
            stack_tiles([ideal, resipe])


def _mlp(rng):
    return Sequential(
        [Dense(40, 36, rng=rng), ReLU(), Dense(36, 5, rng=rng)], name="mlp"
    )


def _cnn(rng):
    return Sequential(
        [Conv2D(1, 3, rng=rng), ReLU(), MaxPool2D(2), Flatten(),
         Dense(3 * 4 * 4, 5, rng=rng)],
        name="cnn",
    )


@functools.lru_cache(maxsize=None)
def _executor(mode, redundancy, conv):
    """A calibrated executor: an MLP whose 40x36 layer spans a 2x2 grid
    of 32x32 tiles, or a small conv net on 8x8 images."""
    rng = np.random.default_rng(7)
    model = _cnn(rng) if conv else _mlp(rng)
    backend = ReSiPEBackend(
        params=CircuitParameters.calibrated(), mode=mode,
        redundancy=redundancy,
    )
    shape = (1, 8, 8) if conv else (40,)
    return PIMExecutor(compile_network(model, backend),
                       rng.random((16,) + shape)), shape


@settings(max_examples=30, deadline=None)
@given(
    trials=st.integers(1, 4),
    batch=st.integers(1, 5),
    mode=st.sampled_from([MVMMode.EXACT, MVMMode.LINEAR]),
    redundancy=st.integers(1, 2),
    per_trial=st.booleans(),
    conv=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_slice_equals_lone_clone(trials, batch, mode, redundancy,
                                 per_trial, conv, seed):
    """Slice ``t`` of a T-stack equals the T = 1 run of clone ``t``, for
    inputs shared by every trial or per-trial ones."""
    assume(trials > 1 or not per_trial)
    executor, shape = _executor(mode, redundancy, conv)
    rng = np.random.default_rng(seed)
    variation = VariationInjector(0.1)
    clones = [executor.network.faulted(variation, rng) for _ in range(trials)]
    if per_trial:
        x = rng.random((trials, batch) + shape)
        out = executor._forward(x, stack_networks(clones))
    else:
        x = rng.random((batch,) + shape)
        out = executor.forward_trials(x, clones)
    assert out.shape[:2] == (trials, batch)
    for t, clone in enumerate(clones):
        lone = executor._clone_with_network(clone).forward(
            x[t] if per_trial else x
        )
        assert out[t].tobytes() == lone.tobytes()


class TestExecutorTrials:
    @pytest.fixture
    def executor(self, rng):
        model = Sequential(
            [Dense(12, 10, rng=rng), ReLU(), Dense(10, 4, rng=rng)],
            name="toy",
        )
        backend = ReSiPEBackend(
            params=CircuitParameters.calibrated(), mode=MVMMode.LINEAR
        )
        mapped = compile_network(model, backend)
        return PIMExecutor(mapped, rng.random((32, 12)))

    def test_forward_trials_bit_identical(self, rng, executor):
        variation = VariationInjector(0.1)
        clones = [executor.faulted(variation, rng) for _ in range(3)]
        x = rng.random((6, 12))
        stacked_out = executor.forward_trials(x, [c.network for c in clones])
        assert stacked_out.shape[0] == 3
        for t, clone in enumerate(clones):
            assert np.array_equal(stacked_out[t], clone.forward(x))

    def test_accuracy_trials_bit_identical(self, rng, executor):
        variation = VariationInjector(0.2)
        clones = [executor.faulted(variation, rng) for _ in range(3)]
        x = rng.random((20, 12))
        labels = rng.integers(0, 4, 20)
        accs = executor.accuracy_trials(x, labels, [c.network for c in clones])
        assert accs.shape == (3,)
        for t, clone in enumerate(clones):
            assert float(accs[t]) == pytest.approx(
                clone.accuracy(x, labels), abs=0.0
            )

    def test_one_network_is_its_own_stack(self, rng, executor):
        clone = executor.faulted(VariationInjector(0.1), rng).network
        assert stack_networks([clone]) is clone
        x = rng.random((6, 12))
        out = executor.forward_trials(x, [clone])
        assert out.shape == (1, 6, 4)
        assert out[0].tobytes() == executor._clone_with_network(
            clone).forward(x).tobytes()

    def test_stack_networks_rejects_mixed_models(self, rng, executor):
        other_model = Sequential(
            [Dense(12, 10, rng=rng), ReLU(), Dense(10, 4, rng=rng)],
            name="other",
        )
        backend = ReSiPEBackend(
            params=CircuitParameters.calibrated(), mode=MVMMode.LINEAR
        )
        other = compile_network(other_model, backend)
        with pytest.raises(MappingError):
            stack_networks([executor.network, other])

    def test_stack_networks_rejects_remapped(self, rng, executor):
        """Remapped networks are terminal: stacking them fails into the
        error taxonomy, while a lone one still runs forward."""
        backend = ReSiPEBackend(
            params=CircuitParameters.calibrated(), mode=MVMMode.LINEAR
        )
        injector = StuckAtInjector(stuck_on_rate=0.2, stuck_off_rate=0.0)
        faulted = executor.faulted(injector, rng)
        remapped = detect_and_remap(
            executor.network, faulted.network, backend,
            HealthProbe(vectors=4, threshold=0.01, seed=0),
            injector=injector, rng=rng,
        ).network
        assert any(isinstance(s, PatchedLayer) for s in remapped.stages)
        x = rng.random((6, 12))
        with pytest.raises(MappingError):
            executor.forward_trials(x, [remapped, remapped])
        with pytest.raises(MappingError):
            stack_networks([remapped])
        out = executor._clone_with_network(remapped).forward(x)
        assert out.shape == (6, 4)

    def test_a_trial_stack_cannot_be_redrawn(self, rng, executor):
        """Re-drawing a trial stack raises instead of slicing the
        ``(T, rows, cols)`` buffers as if they were one chip."""
        variation = VariationInjector(0.1)
        stack = stack_networks(
            [executor.network.faulted(variation, rng) for _ in range(2)]
        )
        assert stack.trials == 2
        stacked_executor = executor._clone_with_network(stack)
        for injector in (variation, StuckAtInjector(0.1),
                         VariationInjector(0.0)):
            with pytest.raises(MappingError, match="trial stack"):
                stack.faulted(injector, rng)
            with pytest.raises(MappingError, match="trial stack"):
                stacked_executor.faulted(injector, rng)
