"""Health probe — BIST-style column fault detection."""

import numpy as np
import pytest

from repro.errors import MappingError
from repro.faults import HealthProbe, StuckAtInjector
from repro.faults.injectors import FaultInjector
from repro.mapping import IdealBackend, compile_network
from repro.nn import Dense, ReLU, Sequential


class KillColumn(FaultInjector):
    """Test fault: pins one tile column to the lowest conductance."""

    def __init__(self, col: int) -> None:
        self.col = col

    def apply(self, conductances, rng, spec=None):
        g = np.array(conductances, dtype=float)
        if self.col < g.shape[1]:
            g[:, self.col] = 0.0 if spec is None else spec.g_min
        return g

    def describe(self):
        return {"type": "kill-column", "col": self.col}


@pytest.fixture
def network(rng):
    model = Sequential(
        [Dense(6, 5, rng=rng), ReLU(), Dense(5, 4, rng=rng)], name="toy"
    )
    return compile_network(model, IdealBackend(), clip_percentile=100)


class TestStimulus:
    def test_shape_and_amplitude(self):
        probe = HealthProbe(vectors=3, amplitude=0.5)
        x = probe.stimulus(8)
        assert x.shape == (4, 8)  # 3 random + all-ones
        assert np.all(x >= 0) and np.all(x <= 0.5)
        assert np.allclose(x[-1], 0.5)  # the row-sum vector

    def test_deterministic_in_seed_and_width(self):
        a = HealthProbe(seed=5).stimulus(8)
        b = HealthProbe(seed=5).stimulus(8)
        c = HealthProbe(seed=6).stimulus(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(MappingError):
            HealthProbe(threshold=0.0)
        with pytest.raises(MappingError):
            HealthProbe(amplitude=1.5)
        with pytest.raises(MappingError):
            HealthProbe(vectors=-1)
        with pytest.raises(MappingError):
            HealthProbe().stimulus(0)


class TestProbeLayer:
    def test_pristine_chip_is_healthy(self, network):
        probe = HealthProbe()
        reports = probe.probe_network(network, network)
        assert reports and all(r.healthy for r in reports.values())

    def test_flags_the_killed_column(self, network, rng):
        probe = HealthProbe()
        faulted = network.faulted(KillColumn(2), rng)
        report = probe.probe_layer(network.stages[0], faulted.stages[0])
        assert 2 in report.flagged
        assert report.worst() == pytest.approx(report.deviations[2])

    def test_flagged_sorted_worst_first(self, network, rng):
        probe = HealthProbe(threshold=0.01)
        faulted = network.faulted(StuckAtInjector(stuck_on_rate=0.3), rng)
        report = probe.probe_layer(network.stages[0], faulted.stages[0])
        devs = [report.deviations[c] for c in report.flagged]
        assert devs == sorted(devs, reverse=True)

    def test_geometry_mismatch_rejected(self, network, rng):
        other = compile_network(
            Sequential([Dense(6, 3, rng=rng)], name="other"), IdealBackend()
        )
        with pytest.raises(MappingError):
            HealthProbe().probe_layer(network.stages[0], other.stages[0])

    def test_probe_network_alignment_checked(self, network, rng):
        other = compile_network(
            Sequential([Dense(6, 5, rng=rng)], name="other"), IdealBackend()
        )
        with pytest.raises(MappingError):
            HealthProbe().probe_network(network, other)

    def test_golden_response_reused_per_reference(self, network, rng):
        # The golden response is computed once per reference layer and
        # replaced, not accumulated, when a new reference takes the
        # layer's name.
        probe = HealthProbe()
        layer = network.stages[0]
        first = probe.probe_layer(layer, layer)
        assert probe.probe_layer(layer, layer).golden is first.golden
        assert not first.golden.flags.writeable
        recompiled = compile_network(network.model, IdealBackend(),
                                     clip_percentile=100)
        fresh = probe.probe_layer(recompiled.stages[0], layer)
        assert fresh.golden is not first.golden
        assert np.array_equal(fresh.golden, first.golden)
        assert len(probe._references) == 1
