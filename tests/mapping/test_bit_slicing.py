"""Bit-sliced weight mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.mvm import MVMMode
from repro.errors import MappingError
from repro.faults import CompositeInjector, StuckAtInjector, VariationInjector
from repro.mapping import PIMExecutor, compile_network
from repro.mapping.backends import IdealBackend, ReSiPEBackend
from repro.mapping.bit_slicing import BitSlicingBackend, slice_weights
from repro.nn import Dense, ReLU, Sequential
from repro.reram.device import DeviceSpec


class TestSliceWeights:
    def test_reconstruction_exact(self, rng):
        w = rng.random((8, 4))
        slices = slice_weights(w, total_bits=8, bits_per_slice=2)
        recombined = sum(scale * w_k for w_k, scale in slices)
        quantised = np.round(w * 255) / 255
        assert np.allclose(recombined, quantised, atol=1e-12)

    def test_slice_count(self, rng):
        slices = slice_weights(rng.random((4, 4)), 8, 2)
        assert len(slices) == 4

    def test_slice_values_are_low_precision(self, rng):
        for w_k, _ in slice_weights(rng.random((16, 16)), 8, 2):
            codes = w_k * 3
            assert np.allclose(codes, np.round(codes), atol=1e-9)

    def test_msb_slice_has_largest_scale(self, rng):
        scales = [s for _, s in slice_weights(rng.random((4, 4)), 8, 4)]
        assert scales == sorted(scales, reverse=True)

    @given(
        w=hnp.arrays(np.float64, (4, 3), elements=st.floats(0, 1)),
        bits=st.sampled_from([(4, 1), (4, 2), (8, 2), (8, 4), (6, 3)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_property(self, w, bits):
        total, per_slice = bits
        slices = slice_weights(w, total, per_slice)
        recombined = sum(scale * w_k for w_k, scale in slices)
        levels = 2**total - 1
        quantised = np.round(w * levels) / levels
        assert np.allclose(recombined, quantised, atol=1e-12)

    def test_validation(self, rng):
        w = rng.random((2, 2))
        with pytest.raises(MappingError):
            slice_weights(w, 8, 3)  # not a divisor
        with pytest.raises(MappingError):
            slice_weights(w, 2, 4)
        with pytest.raises(MappingError):
            slice_weights(w * 3, 8, 2)  # out of range


class TestBitSlicingBackend:
    def test_ideal_inner_matches_quantised_matmul(self, rng):
        backend = BitSlicingBackend(total_bits=8, bits_per_slice=2,
                                    inner=IdealBackend())
        w = rng.random((8, 4))
        tile = backend.program(w)
        x = rng.random((3, 8))
        quantised = np.round(w * 255) / 255
        assert np.allclose(tile.matmul(x), x @ quantised, atol=1e-9)

    def test_default_inner_uses_quantised_devices(self):
        backend = BitSlicingBackend(total_bits=8, bits_per_slice=2)
        assert backend.inner.spec.levels == 4
        assert backend.slices_per_weight == 4

    def test_beats_direct_low_level_mapping(self, rng):
        """With 2-bit devices, 4-slice storage of 8-bit weights is far
        more accurate than programming the analog weight directly onto
        a 4-level cell — the reason bit slicing exists."""
        w = rng.random((16, 8))
        x = rng.random((8, 16))
        reference = x @ w

        coarse_spec = DeviceSpec(
            r_lrs=50e3, r_hrs=1e6, levels=4
        )
        direct = ReSiPEBackend(mode=MVMMode.LINEAR, spec=coarse_spec).program(w)
        sliced = BitSlicingBackend(
            total_bits=8, bits_per_slice=2,
            inner=ReSiPEBackend(mode=MVMMode.LINEAR, spec=coarse_spec),
        ).program(w)
        err_direct = np.abs(direct.matmul(x) - reference).mean()
        err_sliced = np.abs(sliced.matmul(x) - reference).mean()
        assert err_sliced < err_direct / 3

    def test_perturbed_propagates(self, rng):
        backend = BitSlicingBackend(total_bits=4, bits_per_slice=2)
        tile = backend.program(rng.random((8, 4)))
        x = rng.random(8)
        base = tile.matmul(x)
        noisy = tile.faulted(VariationInjector(0.2), rng).matmul(x)
        assert not np.allclose(base, noisy)

    def test_faults_reach_every_slice(self, rng):
        model = Sequential(
            [Dense(10, 6, rng=rng), ReLU(), Dense(6, 3, rng=rng)], name="bits"
        )
        backend = BitSlicingBackend(total_bits=4, bits_per_slice=2)
        executor = PIMExecutor(compile_network(model, backend),
                               rng.random((8, 10)))
        x = rng.random((5, 10))
        stuck = executor.faulted(
            StuckAtInjector(stuck_on_rate=0.5), np.random.default_rng(3)
        )
        assert stuck.forward(x).tobytes() != executor.forward(x).tobytes()

    def test_slices_draw_in_slice_order(self, rng):
        tile = BitSlicingBackend(total_bits=6, bits_per_slice=2).program(
            rng.random((8, 5))
        )
        injector = CompositeInjector(
            VariationInjector(0.1), StuckAtInjector(stuck_off_rate=0.2)
        )
        drawn = tile.faulted(injector, np.random.default_rng(4))
        oracle = np.random.default_rng(4)
        for pristine, clone in zip(tile._tiles, drawn._tiles):
            (e0,), (e1,) = pristine._engines, clone._engines
            expected = injector.apply(
                e0.array.conductances, oracle, e0.array.spec
            )
            assert e1.array.conductances.tobytes() == expected.tobytes()

    def test_validation(self):
        with pytest.raises(MappingError):
            BitSlicingBackend(total_bits=8, bits_per_slice=3)
        with pytest.raises(MappingError):
            BitSlicingBackend(total_bits=0)
