"""IR-drop solver on small crossbars."""

import numpy as np
import pytest

from repro.errors import DeviceError, ShapeError
from repro.reram.crossbar import CrossbarArray
from repro.reram.nonideal import IRDropSolver, WireParasitics


class TestIRDrop:
    def test_ideal_parasitics_match_matmul(self, rng):
        xb = CrossbarArray(6, 6)
        xb.program_normalised(rng.random((6, 6)))
        v = rng.random(6)
        solver = IRDropSolver(xb, WireParasitics.ideal())
        assert np.allclose(
            solver.solve_currents(v), xb.mvm_currents(v), rtol=1e-6
        )

    def test_wire_resistance_reduces_current(self, rng):
        xb = CrossbarArray(8, 8)
        xb.program_normalised(np.ones((8, 8)))  # worst case: all LRS
        v = np.ones(8)
        heavy = IRDropSolver(xb, WireParasitics(r_wire_wl=50.0, r_wire_bl=50.0))
        currents = heavy.solve_currents(v)
        ideal = xb.mvm_currents(v)
        assert np.all(currents < ideal)

    def test_error_grows_with_wire_resistance(self, rng):
        xb = CrossbarArray(8, 8)
        xb.program_normalised(rng.random((8, 8)))
        v = rng.random(8)
        _, small = IRDropSolver(xb, WireParasitics(1.0, 1.0)).error_vs_ideal(v)
        _, large = IRDropSolver(xb, WireParasitics(25.0, 25.0)).error_vs_ideal(v)
        assert large > small

    def test_shape_checked(self, rng):
        xb = CrossbarArray(4, 4)
        solver = IRDropSolver(xb, WireParasitics())
        with pytest.raises(ShapeError):
            solver.solve_currents(np.zeros(5))

    def test_parasitics_validation(self):
        with pytest.raises(DeviceError):
            WireParasitics(r_wire_wl=-1.0)
        with pytest.raises(DeviceError):
            WireParasitics(r_sense=0.0)
