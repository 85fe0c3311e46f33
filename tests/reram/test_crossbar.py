"""Crossbar array model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import DeviceError, ShapeError
from repro.faults import CompositeInjector, StuckAtInjector, VariationInjector
from repro.reram.crossbar import CrossbarArray
from repro.reram.device import DeviceSpec


@pytest.fixture
def programmed(rng):
    xb = CrossbarArray(8, 6)
    xb.program_normalised(rng.random((8, 6)))
    return xb


class TestProgramming:
    def test_fresh_array_at_hrs(self):
        xb = CrossbarArray(4, 4)
        assert np.allclose(xb.conductances, xb.spec.g_min)

    def test_program_quantises_into_window(self, rng):
        xb = CrossbarArray(4, 4)
        xb.program(np.full((4, 4), 1.0))  # way above g_max
        assert np.allclose(xb.conductances, xb.spec.g_max)

    def test_program_normalised(self):
        xb = CrossbarArray(2, 2)
        xb.program_normalised(np.array([[0.0, 1.0], [0.5, 0.25]]))
        g = xb.conductances
        assert g[0, 0] == pytest.approx(xb.spec.g_min)
        assert g[0, 1] == pytest.approx(xb.spec.g_max)

    def test_write_count(self, programmed):
        assert programmed.write_count == 1

    def test_shape_checked(self):
        xb = CrossbarArray(4, 4)
        with pytest.raises(ShapeError):
            xb.program(np.zeros((3, 4)))

    def test_negative_rejected(self):
        xb = CrossbarArray(2, 2)
        with pytest.raises(DeviceError):
            xb.program(np.full((2, 2), -1e-6))

    def test_conductances_read_only(self, programmed):
        with pytest.raises(ValueError):
            programmed.conductances[0, 0] = 1.0

    def test_bad_dimensions(self):
        with pytest.raises(DeviceError):
            CrossbarArray(0, 4)


class TestMVM:
    def test_matches_matmul(self, programmed, rng):
        v = rng.random(8)
        assert np.allclose(programmed.mvm_currents(v), v @ programmed.conductances)

    def test_batched(self, programmed, rng):
        v = rng.random((5, 8))
        out = programmed.mvm_currents(v)
        assert out.shape == (5, 6)
        assert np.allclose(out, v @ programmed.conductances)

    def test_shape_checked(self, programmed):
        with pytest.raises(ShapeError):
            programmed.mvm_currents(np.zeros(7))

    @given(
        v=hnp.arrays(np.float64, (8,), elements=st.floats(0, 1)),
    )
    @settings(max_examples=30, deadline=None)
    def test_linearity_property(self, v):
        """MVM is linear: f(2v) = 2 f(v)."""
        xb = CrossbarArray(8, 4)
        xb.program_normalised(np.linspace(0, 1, 32).reshape(8, 4))
        assert np.allclose(xb.mvm_currents(2 * v), 2 * xb.mvm_currents(v))


class TestColumnAnalysis:
    def test_total_conductance(self, programmed):
        assert np.allclose(
            programmed.column_total_conductance(), programmed.conductances.sum(axis=0)
        )

    def test_thevenin_matches_eq2(self, programmed, rng):
        v = rng.random(8)
        v_eq, r_eq = programmed.column_thevenin(v)
        g = programmed.conductances
        assert np.allclose(v_eq, (v @ g) / g.sum(axis=0))
        assert np.allclose(r_eq, 1.0 / g.sum(axis=0))

    def test_thevenin_voltage_bounded(self, programmed, rng):
        v = rng.random(8)
        v_eq, _ = programmed.column_thevenin(v)
        assert np.all(v_eq <= v.max() + 1e-12)
        assert np.all(v_eq >= v.min() - 1e-12)

    def test_linear_limit_mask(self):
        xb = CrossbarArray(32, 2, spec=DeviceSpec.paper_full_range())
        targets = np.full((32, 2), xb.spec.g_min)
        targets[:, 1] = xb.spec.g_max  # 32 x 0.1 mS = 3.2 mS
        xb.program(targets)
        mask = xb.exceeds_linear_limit(1.6e-3)
        assert not mask[0]
        assert mask[1]

    def test_compute_power(self, programmed, rng):
        v = rng.random(8)
        expected = float((v**2) @ programmed.conductances.sum(axis=1))
        assert programmed.compute_power(v) == pytest.approx(expected)


class TestPerturb:
    def test_original_untouched(self, programmed, rng):
        before = programmed.conductances.copy()
        programmed.injected(VariationInjector(sigma=0.2), rng)
        assert np.array_equal(programmed.conductances, before)

    def test_clone_differs(self, programmed, rng):
        clone = programmed.injected(VariationInjector(sigma=0.2), rng)
        assert not np.array_equal(clone.conductances, programmed.conductances)

    def test_faults_applied(self, programmed, rng):
        clone = programmed.injected(StuckAtInjector(stuck_on_rate=1.0), rng)
        assert np.allclose(clone.conductances, programmed.spec.g_max)

    def test_noop_clone_equal(self, programmed, rng):
        clone = programmed.injected(CompositeInjector(), rng)
        assert np.array_equal(clone.conductances, programmed.conductances)
