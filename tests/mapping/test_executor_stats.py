"""Executor hardware-activity instrumentation."""

import numpy as np
import pytest

from repro.config import CircuitParameters
from repro.core.mvm import MVMMode
from repro.core.power import ReSiPEPowerModel
from repro.faults import VariationInjector
from repro.mapping import PIMExecutor, ReSiPEBackend, compile_network
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential


@pytest.fixture
def executor(rng):
    model = Sequential([Dense(20, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)],
                       name="stats")
    net = compile_network(model, ReSiPEBackend(mode=MVMMode.LINEAR))
    return PIMExecutor(net, rng.random((8, 20))), net


class TestLaunchCounting:
    def test_calibration_not_counted(self, executor):
        ex, _ = executor
        assert ex.total_mvm_launches() == 0

    def test_dense_counts(self, executor, rng):
        ex, net = executor
        batch = rng.random((10, 20))
        ex.forward(batch)
        stats = ex.stats()
        for stage in net.mapped_layers():
            assert stats[stage.name] == 10 * stage.num_tiles

    def test_accumulates_across_calls(self, executor, rng):
        ex, _ = executor
        ex.forward(rng.random((4, 20)))
        ex.forward(rng.random((6, 20)))
        first_layer = next(iter(ex.stats()))
        per_sample = ex.stats()[first_layer] // 10
        assert ex.stats()[first_layer] == 10 * per_sample

    def test_reset(self, executor, rng):
        ex, _ = executor
        ex.forward(rng.random((4, 20)))
        ex.reset_stats()
        assert ex.total_mvm_launches() == 0

    def test_conv_counts_positions(self, rng):
        model = Sequential(
            [
                Conv2D(1, 4, kernel=3, pad=1, rng=rng), ReLU(), MaxPool2D(2),
                Flatten(), Dense(4 * 4 * 4, 3, rng=rng),
            ],
            name="conv-stats",
        )
        net = compile_network(model, ReSiPEBackend(mode=MVMMode.LINEAR))
        ex = PIMExecutor(net, rng.random((2, 1, 8, 8)))
        ex.reset_stats()
        ex.forward(rng.random((3, 1, 8, 8)))
        conv_stage = net.mapped_layers()[0]
        # 3 samples x 64 output positions per sample.
        assert ex.stats()[conv_stage.name] == 3 * 64 * conv_stage.num_tiles

    def test_clones_start_clean(self, executor, rng):
        ex, _ = executor
        ex.forward(rng.random((4, 20)))
        clone = ex.faulted(VariationInjector(0.1), rng)
        assert clone.total_mvm_launches() == 0


class TestEnergyEstimate:
    def test_energy_scales_with_activity(self, executor, rng):
        ex, _ = executor
        model = ReSiPEPowerModel(CircuitParameters.paper())
        ex.forward(rng.random((5, 20)))
        e5 = ex.energy_estimate(model)
        ex.forward(rng.random((5, 20)))
        assert ex.energy_estimate(model) == pytest.approx(2 * e5)

    def test_energy_matches_hand_calc(self, executor, rng):
        ex, _ = executor
        model = ReSiPEPowerModel(CircuitParameters.paper())
        ex.forward(rng.random((1, 20)))
        expected = ex.total_mvm_launches() * model.power() * model.latency
        assert ex.energy_estimate(model) == pytest.approx(expected)
