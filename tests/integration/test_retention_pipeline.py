"""Retention drift through the full engine/mapping stack."""

import numpy as np
import pytest

from repro.config import CircuitParameters
from repro.core.engine import ReSiPEEngine
from repro.core.mvm import MVMMode
from repro.faults import DriftInjector
from repro.mapping import PIMExecutor, ReSiPEBackend, compile_network
from repro.nn import Dense, ReLU, Sequential


@pytest.fixture(scope="module")
def engine():
    rng = np.random.default_rng(0)
    return ReSiPEEngine.from_normalised_weights(
        rng.random((16, 8)), CircuitParameters.calibrated()
    )


class TestEngineAging:
    def test_aged_outputs_decay(self, engine, rng):
        x = rng.random((8, 16))
        fresh = engine.mvm_values(x)
        old = engine.faulted(DriftInjector(1e6, nu=0.05), rng).mvm_values(x)
        assert old.mean() < fresh.mean()

    def test_original_untouched(self, engine, rng):
        before = engine.array.conductances.copy()
        engine.faulted(DriftInjector(1e6, nu=0.05), rng)
        assert np.array_equal(engine.array.conductances, before)

    def test_zero_elapsed_identity(self, engine, rng):
        x = rng.random(16)
        aged = engine.faulted(DriftInjector(0.0, nu=0.05), rng)
        assert np.allclose(aged.mvm_values(x), engine.mvm_values(x))


class TestExecutorAging:
    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(1)
        model = Sequential([Dense(20, 12, rng=rng), ReLU(), Dense(12, 4, rng=rng)],
                           name="aging")
        net = compile_network(model, ReSiPEBackend(mode=MVMMode.EXACT))
        x = rng.random((32, 20))
        return PIMExecutor(net, x[:8]), x

    def test_aged_executor_differs(self, setup, rng):
        executor, x = setup
        drift = DriftInjector(1e7, nu=0.05, nu_sigma=0.3)
        fresh = executor.forward(x)
        aged = executor.faulted(drift, rng).forward(x)
        assert not np.allclose(fresh, aged)

    def test_differential_mapping_partially_cancels_uniform_drift(self, setup):
        """Uniform (zero-spread) drift scales both polarities equally, so
        the differential output merely scales — far more benign than the
        same magnitude of random variation."""
        executor, x = setup
        uniform = DriftInjector(1e6, nu=0.05, nu_sigma=0.0)
        fresh = executor.forward(x)
        aged = executor.faulted(uniform, None).forward(x)
        # Outputs shrink but stay highly correlated with the fresh ones.
        corr = np.corrcoef(fresh.ravel(), aged.ravel())[0, 1]
        assert corr > 0.99

    def test_ideal_tiles_drift_on_the_unit_window(self, rng):
        from repro.mapping.backends import IdealBackend

        model = Sequential([Dense(6, 3, rng=rng)], name="tiny")
        net = compile_network(model, IdealBackend())
        executor = PIMExecutor(net, rng.random((4, 6)))
        x = rng.random((4, 6))
        aged = executor.faulted(DriftInjector(1e9, nu=0.1), rng)
        assert not np.allclose(executor.forward(x), aged.forward(x))
