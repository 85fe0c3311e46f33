"""Fault-injection robustness tests (extension beyond the paper)."""

import numpy as np
import pytest

from repro.config import CircuitParameters
from repro.core.engine import ReSiPEEngine
from repro.faults import CompositeInjector, StuckAtInjector, VariationInjector
from repro.reram.device import DeviceSpec


@pytest.fixture(scope="module")
def engine():
    rng = np.random.default_rng(0)
    return ReSiPEEngine.from_normalised_weights(
        rng.random((32, 16)), CircuitParameters.calibrated()
    )


@pytest.fixture(scope="module")
def stimulus():
    return np.random.default_rng(1).random((16, 32))


class TestStuckAtFaults:
    def test_stuck_off_reduces_outputs(self, engine, stimulus):
        rng = np.random.default_rng(2)
        faulty = engine.faulted(StuckAtInjector(stuck_off_rate=0.3), rng)
        base = engine.mvm_values(stimulus)
        hit = faulty.mvm_values(stimulus)
        assert hit.mean() < base.mean()

    def test_stuck_on_increases_outputs(self, engine, stimulus):
        rng = np.random.default_rng(3)
        faulty = engine.faulted(StuckAtInjector(stuck_on_rate=0.3), rng)
        assert faulty.mvm_values(stimulus).mean() > engine.mvm_values(stimulus).mean()

    def test_error_monotone_in_fault_rate(self, engine, stimulus):
        base = engine.mvm_values(stimulus)
        errors = []
        for rate in (0.01, 0.05, 0.2):
            trial = []
            for seed in range(4):
                faulty = engine.faulted(
                    StuckAtInjector(stuck_off_rate=rate),
                    np.random.default_rng(seed),
                )
                trial.append(np.abs(faulty.mvm_values(stimulus) - base).mean())
            errors.append(np.mean(trial))
        assert errors[0] < errors[1] < errors[2]

    def test_outputs_remain_physical_under_faults(self, engine, stimulus):
        """Even a badly damaged array produces finite, bounded spikes."""
        faults = CompositeInjector(
            VariationInjector(0.3),
            StuckAtInjector(stuck_on_rate=0.4, stuck_off_rate=0.4),
        )
        faulty = engine.faulted(faults, np.random.default_rng(4))
        times = faulty.output_times(stimulus)
        assert np.all(np.isfinite(times))
        assert np.all(times >= 0)
        assert np.all(times <= faulty.params.slice_length)


class TestExtremeVariation:
    def test_survives_50_percent_sigma(self, engine, stimulus):
        noisy = engine.faulted(
            VariationInjector(0.5), np.random.default_rng(5)
        )
        y = noisy.mvm_values(stimulus)
        assert np.all(np.isfinite(y))

    def test_window_clipping_respected(self, engine):
        """Variation can never push a conductance outside the device
        window (the physical clip in VariationModel)."""
        noisy = engine.faulted(
            VariationInjector(0.8), np.random.default_rng(6)
        )
        g = noisy.array.conductances
        spec = noisy.array.spec
        assert np.all(g >= spec.g_min - 1e-18)
        assert np.all(g <= spec.g_max + 1e-18)


class TestNarrowWindowDevices:
    def test_low_dynamic_range_device_still_computes(self, stimulus):
        """A 4x window device (pessimistic ReRAM) still yields a usable
        engine — just with a compressed weight range."""
        spec = DeviceSpec(r_lrs=250e3, r_hrs=1e6)
        rng = np.random.default_rng(7)
        engine = ReSiPEEngine.from_normalised_weights(
            rng.random((32, 16)), CircuitParameters.calibrated(), spec=spec
        )
        y = engine.mvm_values(stimulus)
        assert np.all(np.isfinite(y))
        assert y.max() > 0
