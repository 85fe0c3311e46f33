"""Crossbar-scale ReSiPE engine."""

import numpy as np
import pytest

from repro.core.engine import ReSiPEEngine
from repro.core.mvm import MVMMode
from repro.errors import ShapeError
from repro.faults import VariationInjector
from repro.reram.device import DeviceSpec


@pytest.fixture
def weights(rng):
    return rng.random((32, 16))


@pytest.fixture
def engine(weights, calibrated_params):
    return ReSiPEEngine.from_normalised_weights(weights, calibrated_params)


class TestLinearFidelity:
    def test_linear_mode_is_matmul(self, weights, calibrated_params, rng):
        engine = ReSiPEEngine.from_normalised_weights(
            weights, calibrated_params, mode=MVMMode.LINEAR
        )
        x = rng.random((4, 32))
        assert np.allclose(
            engine.mvm_values(x), x @ engine.normalised_weights, atol=1e-12
        )

    def test_normalised_weights_definition(self, engine):
        assert np.allclose(
            engine.normalised_weights,
            engine.array.conductances / engine.array.spec.g_max,
        )


class TestExactFidelity:
    def test_small_systematic_error(self, engine, rng):
        x = rng.random((8, 32))
        y = engine.mvm_values(x)
        ref = x @ engine.normalised_weights
        rel = np.abs(y - ref) / np.maximum(ref, 1e-9)
        assert rel.max() < 0.15  # calibrated regime keeps droop bounded

    def test_compensation_reduces_error(self, weights, calibrated_params, rng):
        plain = ReSiPEEngine.from_normalised_weights(weights, calibrated_params)
        comp = ReSiPEEngine.from_normalised_weights(
            weights, calibrated_params, compensate=True
        )
        x = rng.random((8, 32))
        ref = x @ plain.normalised_weights
        err_plain = np.abs(plain.mvm_values(x) - ref).mean()
        err_comp = np.abs(comp.mvm_values(x) - ref).mean()
        assert err_comp < err_plain

    def test_zero_input_zero_output(self, engine):
        y = engine.mvm_values(np.zeros(32))
        assert np.allclose(y, 0.0, atol=1e-12)

    def test_output_times_within_slice(self, engine, rng):
        t = engine.output_times(rng.random(32))
        assert np.all(t >= 0)
        assert np.all(t <= engine.params.slice_length)


class TestVariation:
    def test_perturbed_changes_outputs(self, engine, rng):
        x = rng.random(32)
        base = engine.mvm_values(x)
        noisy = engine.faulted(VariationInjector(0.2), rng).mvm_values(x)
        assert not np.allclose(base, noisy)

    def test_perturbed_preserves_original(self, engine, rng):
        before = engine.array.conductances.copy()
        engine.faulted(VariationInjector(0.2), rng)
        assert np.array_equal(engine.array.conductances, before)

    def test_zero_sigma_near_identity(self, engine, rng):
        x = rng.random(32)
        assert np.allclose(
            engine.mvm_values(x),
            engine.faulted(VariationInjector(0.0), rng).mvm_values(x),
        )

    def test_error_grows_with_sigma(self, engine):
        x = np.random.default_rng(0).random((16, 32))
        ref = engine.mvm_values(x)
        errs = []
        for sigma in (0.05, 0.2):
            trial_errs = []
            for seed in range(5):
                noisy = engine.faulted(
                    VariationInjector(sigma), np.random.default_rng(seed)
                )
                trial_errs.append(np.abs(noisy.mvm_values(x) - ref).mean())
            errs.append(np.mean(trial_errs))
        assert errs[1] > errs[0]


class TestConstruction:
    def test_rejects_non_2d(self, calibrated_params):
        with pytest.raises(ShapeError):
            ReSiPEEngine.from_normalised_weights(np.zeros(4), calibrated_params)

    def test_custom_spec(self, weights, calibrated_params):
        engine = ReSiPEEngine.from_normalised_weights(
            weights, calibrated_params, spec=DeviceSpec.paper_full_range()
        )
        assert engine.array.spec.r_lrs == pytest.approx(10e3)

    def test_dynamic_range_ceiling(self, engine):
        assert engine.dynamic_range_ceiling() == pytest.approx(
            engine.params.slice_length / engine.output_scale
        )
