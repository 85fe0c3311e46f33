"""Vectorized MNA assembly regression vs quadruple-loop stamping.

The IR-drop solver assembles its MNA matrix with numpy index arithmetic
(:meth:`IRDropSolver._stamps`).  These tests rebuild the same matrix the
slow way — one Python loop iteration per wordline segment, bitline
segment and cell — and check the two agree, then verify the solved
currents against a netlist solved by the :class:`DCCircuit` test
oracle, plus the LU-cache bookkeeping.
"""

import numpy as np
import pytest

from repro.reram.crossbar import CrossbarArray
from repro.reram.nonideal import IRDropSolver, WireParasitics
from tests.circuits.dc_circuit import DCCircuit


def _loop_built_matrix(solver, sense_resistance, wire_floor):
    """Dense MNA matrix via nested stamp loops (the pre-vectorized
    assembly), using the solver's documented node numbering."""
    rows, cols = solver.array.shape
    g = solver.array.conductances
    p = solver.parasitics
    n = 2 * rows * cols
    matrix = np.zeros((n + rows, n + rows))

    def wl(i, j):
        return i * cols + j

    def bl(i, j):
        return rows * cols + i * cols + j

    def stamp(a, b, conductance):
        matrix[a, a] += conductance
        matrix[b, b] += conductance
        matrix[a, b] -= conductance
        matrix[b, a] -= conductance

    for i in range(rows):
        for j in range(cols - 1):
            stamp(wl(i, j), wl(i, j + 1), 1.0 / max(p.r_wire_wl, wire_floor))
    for j in range(cols):
        for i in range(rows - 1):
            stamp(bl(i, j), bl(i + 1, j), 1.0 / max(p.r_wire_bl, wire_floor))
        if sense_resistance is not None:
            matrix[bl(rows - 1, j), bl(rows - 1, j)] += 1.0 / sense_resistance
    for i in range(rows):
        for j in range(cols):
            if g[i, j] > 0:
                stamp(wl(i, j), bl(i, j), g[i, j])
    for i in range(rows):
        matrix[wl(i, 0), n + i] = 1.0
        matrix[n + i, wl(i, 0)] = 1.0
    return matrix


def _programmed(rng, rows=16, cols=16):
    xb = CrossbarArray(rows, cols)
    xb.program_normalised(rng.random((rows, cols)))
    return xb


class TestVectorizedAssembly:
    @pytest.mark.parametrize("sense_resistance,wire_floor",
                             [(1.0, 1e-12), (1e9, 1e-3), (None, 1e-3)])
    def test_matches_loop_built_matrix(self, rng, sense_resistance,
                                       wire_floor):
        solver = IRDropSolver(_programmed(rng), WireParasitics())
        i_idx, j_idx, vals, size, _ = solver._stamps(
            sense_resistance, wire_floor
        )
        vectorized = np.zeros((size, size))
        np.add.at(vectorized, (i_idx, j_idx), vals)
        reference = _loop_built_matrix(solver, sense_resistance, wire_floor)
        assert vectorized.shape == reference.shape
        assert np.allclose(vectorized, reference, rtol=1e-12, atol=0.0)

    def test_zero_conductance_cells_not_stamped(self, rng):
        xb = _programmed(rng, 4, 4)
        xb._g[1, 2] = 0.0  # bypass quantisation to force an open cell
        solver = IRDropSolver(xb, WireParasitics())
        i_idx, j_idx, vals, size, _ = solver._stamps(1.0, 1e-12)
        vectorized = np.zeros((size, size))
        np.add.at(vectorized, (i_idx, j_idx), vals)
        reference = _loop_built_matrix(solver, 1.0, 1e-12)
        assert np.allclose(vectorized, reference, rtol=1e-12, atol=0.0)

    def test_currents_match_netlist_solver(self, rng):
        """End-to-end: cached-LU currents vs a DCCircuit netlist built
        with the original per-component loops."""
        xb = _programmed(rng)
        rows, cols = xb.shape
        p = WireParasitics(r_wire_wl=5.0, r_wire_bl=5.0)
        v = rng.random(rows)

        circuit = DCCircuit()
        for i in range(rows):
            circuit.add_voltage_source(f"wl_{i}_0", float(v[i]))
            for j in range(cols - 1):
                circuit.add_resistor(f"wl_{i}_{j}", f"wl_{i}_{j + 1}",
                                     p.r_wire_wl)
        for j in range(cols):
            for i in range(rows - 1):
                circuit.add_resistor(f"bl_{i}_{j}", f"bl_{i + 1}_{j}",
                                     p.r_wire_bl)
            circuit.add_resistor(f"bl_{rows - 1}_{j}", "gnd", p.r_sense)
        g = xb.conductances
        for i in range(rows):
            for j in range(cols):
                if g[i, j] > 0:
                    circuit.add_resistor(f"wl_{i}_{j}", f"bl_{i}_{j}",
                                         1.0 / g[i, j])
        solution = circuit.solve()
        reference = np.array([
            solution.voltage(f"bl_{rows - 1}_{j}") / p.r_sense
            for j in range(cols)
        ])

        solver = IRDropSolver(xb, p)
        assert np.allclose(solver.solve_currents(v), reference,
                           rtol=1e-9, atol=1e-12)

    def test_lu_cache_reused_across_drives(self, rng):
        solver = IRDropSolver(_programmed(rng, 8, 8), WireParasitics())
        first = solver.solve_currents(rng.random(8))
        assert len(solver._factor_cache) == 1
        solver.solve_currents(rng.random(8))
        assert len(solver._factor_cache) == 1
        # Same drive, warm cache: identical answer.
        v = rng.random(8)
        assert np.array_equal(solver.solve_currents(v),
                              solver.solve_currents(v))
        assert first.shape == (8,)

    def test_lu_cache_invalidated_by_reprogram(self, rng):
        xb = _programmed(rng, 6, 6)
        solver = IRDropSolver(xb, WireParasitics(10.0, 10.0))
        before = solver.solve_currents(np.ones(6))
        xb.program_normalised(rng.random((6, 6)))
        after = solver.solve_currents(np.ones(6))
        assert len(solver._factor_cache) == 2
        assert not np.allclose(before, after)
