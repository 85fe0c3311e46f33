"""Retention-drift model."""

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.faults import DriftInjector
from repro.reram.crossbar import CrossbarArray
from repro.reram.retention import RetentionModel


@pytest.fixture
def programmed(rng):
    xb = CrossbarArray(8, 8)
    xb.program_normalised(rng.random((8, 8)))
    return xb


class TestDecayFactor:
    def test_no_drift_at_t0_zero_elapsed(self):
        model = RetentionModel(nu=0.02)
        assert float(model.decay_factor(0.0)) == pytest.approx(1.0)

    def test_log_time_law(self):
        model = RetentionModel(nu=0.01, t0=1.0)
        one_decade = float(model.decay_factor(9.0))       # log10(10) = 1
        two_decades = float(model.decay_factor(99.0))     # log10(100) = 2
        assert one_decade == pytest.approx(0.99)
        assert two_decades == pytest.approx(0.98)

    def test_monotone_decay(self):
        model = RetentionModel(nu=0.02)
        times = [1.0, 1e2, 1e4, 1e6]
        factors = [float(model.decay_factor(t)) for t in times]
        assert factors == sorted(factors, reverse=True)

    def test_never_negative(self):
        model = RetentionModel(nu=0.5)
        assert float(model.decay_factor(1e30)) == pytest.approx(0.0)

    def test_per_device_spread(self, rng):
        model = RetentionModel(nu=0.05, nu_sigma=0.3)
        factors = model.decay_factor(1e4, shape=(1000,), rng=rng)
        assert factors.std() > 0
        assert np.all(factors <= 1.0)

    def test_validation(self):
        with pytest.raises(DeviceError):
            RetentionModel(nu=1.5)
        with pytest.raises(DeviceError):
            RetentionModel(t0=0.0)
        with pytest.raises(DeviceError):
            RetentionModel().decay_factor(-1.0)


class TestSeededReproducibility:
    def test_decay_factor_reproducible(self):
        model = RetentionModel(nu=0.05, nu_sigma=0.3)
        a = model.decay_factor(1e4, shape=(64,), rng=np.random.default_rng(9))
        b = model.decay_factor(1e4, shape=(64,), rng=np.random.default_rng(9))
        c = model.decay_factor(1e4, shape=(64,), rng=np.random.default_rng(10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_age_array_reproducible(self, programmed):
        drift = DriftInjector(1e5, nu=0.05, nu_sigma=0.3)
        a = programmed.injected(drift, np.random.default_rng(9))
        b = programmed.injected(drift, np.random.default_rng(9))
        assert np.array_equal(a.conductances, b.conductances)


class TestAgeArray:
    def test_zero_elapsed_is_identity(self, programmed, rng):
        aged = programmed.injected(DriftInjector(0.0, nu=0.05), rng)
        assert np.allclose(aged.conductances, programmed.conductances)

    def test_original_untouched(self, programmed, rng):
        before = programmed.conductances.copy()
        programmed.injected(DriftInjector(1e5, nu=0.05), rng)
        assert np.array_equal(programmed.conductances, before)

    def test_aged_conductances_lower_or_clipped(self, programmed, rng):
        aged = programmed.injected(DriftInjector(1e5, nu=0.05), rng)
        g0 = programmed.conductances
        g1 = aged.conductances
        # Cells already at g_min stay clipped there; others decay.
        assert np.all(g1 <= g0 + 1e-18)
        assert np.all(g1 >= programmed.spec.g_min - 1e-18)

    def test_longer_elapsed_more_decay(self, programmed, rng):
        young = programmed.injected(DriftInjector(1e2, nu=0.05), None)
        old = programmed.injected(DriftInjector(1e6, nu=0.05), None)
        assert old.conductances.sum() < young.conductances.sum()


class TestTimeToDrift:
    def test_inverse_of_decay(self):
        model = RetentionModel(nu=0.01, t0=1.0)
        t = model.time_to_drift(0.02)  # 2 decades
        assert t == pytest.approx(99.0)
        assert float(model.decay_factor(t)) == pytest.approx(0.98)

    def test_zero_nu_never_drifts(self):
        assert RetentionModel(nu=0.0).time_to_drift(0.1) == float("inf")

    def test_validation(self):
        with pytest.raises(DeviceError):
            RetentionModel().time_to_drift(1.5)
