"""Parasitic-aware column Thevenin extraction and the IR-aware MVM."""

import numpy as np
import pytest

from repro.config import CircuitParameters
from repro.core.mvm import MVMMode, SingleSpikeMVM
from repro.errors import CircuitError, ShapeError
from repro.reram.crossbar import CrossbarArray
from repro.reram.nonideal import IRDropSolver, ParasiticThevenin, WireParasitics


@pytest.fixture(scope="module")
def programmed():
    rng = np.random.default_rng(0)
    xb = CrossbarArray(8, 6)
    xb.program_normalised(rng.random((8, 6)))
    return xb


class TestTheveninExtraction:
    def test_ideal_wires_match_analytic(self, programmed):
        """With vanishing wire resistance the extracted equivalents
        collapse to the textbook Eq. 2 values."""
        solver = IRDropSolver(programmed, WireParasitics.ideal())
        thevenin = solver.column_thevenin()
        rng = np.random.default_rng(1)
        v = rng.random(8)
        v_eq_ideal, r_eq_ideal = programmed.column_thevenin(v)
        assert np.allclose(thevenin.v_eq(v), v_eq_ideal, rtol=1e-4)
        assert np.allclose(thevenin.r_eq, r_eq_ideal, rtol=1e-4)

    def test_wire_resistance_raises_r_eq(self, programmed):
        ideal = IRDropSolver(programmed, WireParasitics.ideal()).column_thevenin()
        heavy = IRDropSolver(
            programmed, WireParasitics(r_wire_wl=25.0, r_wire_bl=25.0)
        ).column_thevenin()
        assert np.all(heavy.r_eq > ideal.r_eq)

    def test_wire_resistance_lowers_v_eq(self, programmed):
        rng = np.random.default_rng(2)
        v = rng.random(8)
        ideal = IRDropSolver(programmed, WireParasitics.ideal()).column_thevenin()
        heavy = IRDropSolver(
            programmed, WireParasitics(r_wire_wl=25.0, r_wire_bl=25.0)
        ).column_thevenin()
        assert np.all(heavy.v_eq(v) <= ideal.v_eq(v) + 1e-12)

    def test_linearity_of_response(self, programmed):
        thevenin = IRDropSolver(programmed, WireParasitics()).column_thevenin()
        rng = np.random.default_rng(3)
        a, b = rng.random(8), rng.random(8)
        assert np.allclose(
            thevenin.v_eq(a + b), thevenin.v_eq(a) + thevenin.v_eq(b), atol=1e-9
        )

    def test_batch_api(self, programmed):
        thevenin = IRDropSolver(programmed, WireParasitics()).column_thevenin()
        rng = np.random.default_rng(4)
        batch = rng.random((5, 8))
        out = thevenin.v_eq(batch)
        assert out.shape == (5, 6)
        assert np.allclose(out[0], thevenin.v_eq(batch[0]))

    def test_validation(self):
        with pytest.raises(ShapeError):
            ParasiticThevenin(response=np.ones((2, 3)), r_eq=np.ones(3))
        thevenin = ParasiticThevenin(response=np.ones((2, 3)), r_eq=np.ones(2))
        with pytest.raises(ShapeError):
            thevenin.v_eq(np.ones(4))


class TestIRAwareMVM:
    def test_ideal_parasitics_match_plain_exact(self, programmed):
        params = CircuitParameters.calibrated()
        thevenin = IRDropSolver(programmed, WireParasitics.ideal()).column_thevenin()
        plain = SingleSpikeMVM(programmed, params, MVMMode.EXACT)
        aware = SingleSpikeMVM(
            programmed, params, MVMMode.EXACT, parasitic_thevenin=thevenin
        )
        rng = np.random.default_rng(5)
        times = rng.uniform(10e-9, 80e-9, 8)
        assert np.allclose(
            aware.output_times(times), plain.output_times(times), rtol=1e-4
        )

    def test_ir_drop_reduces_outputs(self, programmed):
        params = CircuitParameters.calibrated()
        thevenin = IRDropSolver(
            programmed, WireParasitics(r_wire_wl=25.0, r_wire_bl=25.0)
        ).column_thevenin()
        plain = SingleSpikeMVM(programmed, params, MVMMode.EXACT)
        aware = SingleSpikeMVM(
            programmed, params, MVMMode.EXACT, parasitic_thevenin=thevenin
        )
        rng = np.random.default_rng(6)
        times = rng.uniform(10e-9, 80e-9, 8)
        assert np.all(
            aware.output_times(times) <= plain.output_times(times) + 1e-15
        )


class TestSingularSystems:
    """A singular IR-drop system is a CircuitError, never a swallowed
    failure or a raw scipy exception (the generic MNA solver's case is
    ``tests/circuits/test_mna.py::TestValidation``)."""

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    @pytest.mark.parametrize("n, message", [
        (2, "non-finite"),  # dense LU: scipy only warns; the solve catches it
        (18, "factorization failed"),  # > 600 unknowns: sparse LU raises
    ])
    def test_ir_drop_solver(self, n, message):
        # No cells conduct, so the open-foot Thevenin probe leaves every
        # bitline node floating.
        floating = CrossbarArray(n, n).with_conductances(np.zeros((n, n)))
        solver = IRDropSolver(floating, WireParasitics())
        with pytest.raises(CircuitError, match=message):
            solver.column_thevenin()
