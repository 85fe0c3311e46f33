"""Two-slice pipeline scheduler."""

import pytest

from repro.core.pipeline import schedule_pipeline
from repro.errors import ConfigurationError

SLICE = 100e-9


class TestPipelined:
    def test_latency_is_l_plus_1_slices(self):
        sched = schedule_pipeline(4, 1, SLICE)
        assert sched.sample_latency_slices == 5
        assert sched.sample_latency == pytest.approx(5 * SLICE)

    def test_initiation_interval_two_slices(self):
        sched = schedule_pipeline(4, 8, SLICE)
        assert sched.initiation_interval_slices == 2

    def test_throughput(self):
        sched = schedule_pipeline(3, 10, SLICE)
        assert sched.throughput == pytest.approx(1.0 / (2 * SLICE))

    def test_s2_equals_next_s1_slot(self):
        sched = schedule_pipeline(3, 1, SLICE)
        by_stage = {(t.layer, t.stage): t.slot for t in sched.tasks}
        for layer in range(2):
            assert by_stage[(layer, "S2")] == by_stage[(layer + 1, "S1")]

    def test_makespan(self):
        sched = schedule_pipeline(2, 5, SLICE)
        # Last sample launches at slot 8, finishes S2 of layer 1 at slot 10.
        assert sched.total_slices == 11


class TestNonPipelined:
    def test_latency_is_2l_slices(self):
        sched = schedule_pipeline(4, 1, SLICE, pipelined=False)
        assert sched.sample_latency_slices == 8

    def test_initiation_interval_2l(self):
        sched = schedule_pipeline(4, 3, SLICE, pipelined=False)
        assert sched.initiation_interval_slices == 8

    def test_pipelining_speedup(self):
        """The paper's conclusion: pipelining cuts steady-state cost from
        2L slices/sample to 2."""
        layers, samples = 5, 20
        pipe = schedule_pipeline(layers, samples, SLICE)
        serial = schedule_pipeline(layers, samples, SLICE, pipelined=False)
        assert serial.makespan / pipe.makespan > layers * 0.8


class TestInvariants:
    @pytest.mark.parametrize("layers,samples", [(1, 1), (3, 7), (6, 2)])
    def test_no_engine_double_booking(self, layers, samples):
        sched = schedule_pipeline(layers, samples, SLICE)
        seen = {}
        for t in sched.tasks:
            key = (t.layer, t.slot)
            assert key not in seen or seen[key] == (t.sample, t.stage)
            seen[key] = (t.sample, t.stage)

    def test_every_sample_visits_every_layer(self):
        sched = schedule_pipeline(3, 4, SLICE)
        for sample in range(4):
            layers = {t.layer for t in sched.tasks if t.sample == sample}
            assert layers == {0, 1, 2}

    def test_occupancy_bounded(self):
        occ = schedule_pipeline(3, 10, SLICE).engine_occupancy()
        assert all(0 < v <= 1 for v in occ.values())

    def test_single_sample_occupancy(self):
        occ = schedule_pipeline(2, 1, SLICE).engine_occupancy()
        assert occ[0] == pytest.approx(2 / 3)


class TestValidation:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            schedule_pipeline(0, 1, SLICE)
        with pytest.raises(ConfigurationError):
            schedule_pipeline(1, 0, SLICE)
        for layers, samples in [(2.5, 1), (1, 2.0), (True, 1), (1, False)]:
            with pytest.raises(ConfigurationError):
                schedule_pipeline(layers, samples, SLICE)

    def test_rejects_bad_slice(self):
        for slice_length in [0.0, -SLICE, float("nan"), float("inf")]:
            with pytest.raises(ConfigurationError):
                schedule_pipeline(1, 1, slice_length)
