"""The MNA DC solver that serves as the IR-drop test oracle."""

import numpy as np
import pytest

from repro.errors import CircuitError
from tests.circuits.dc_circuit import DCCircuit


class TestVoltageDivider:
    def test_two_resistor_divider(self):
        c = DCCircuit()
        c.add_voltage_source("in", 1.0)
        c.add_resistor("in", "mid", 1e3)
        c.add_resistor("mid", "gnd", 3e3)
        sol = c.solve()
        assert sol.voltage("mid") == pytest.approx(0.75)

    def test_source_current(self):
        c = DCCircuit()
        c.add_voltage_source("in", 2.0, name="V1")
        c.add_resistor("in", "gnd", 1e3)
        sol = c.solve()
        assert sol.source_currents["V1"] == pytest.approx(2e-3)

    def test_branch_current_and_power(self):
        c = DCCircuit()
        c.add_voltage_source("in", 1.0)
        r = c.add_resistor("in", "gnd", 2e3)
        sol = c.solve()
        assert sol.branch_current(r) == pytest.approx(0.5e-3)
        assert sol.branch_power(r) == pytest.approx(0.5e-3)


class TestParallelAndSuperposition:
    def test_parallel_resistors(self):
        c = DCCircuit()
        c.add_voltage_source("in", 1.0, name="V")
        c.add_resistor("in", "gnd", 1e3)
        c.add_resistor("in", "gnd", 1e3)
        sol = c.solve()
        assert sol.source_currents["V"] == pytest.approx(2e-3)

    def test_current_source_into_resistor(self):
        c = DCCircuit()
        c.add_current_source("n", 1e-3)
        c.add_resistor("n", "gnd", 2e3)
        sol = c.solve()
        assert sol.voltage("n") == pytest.approx(2.0)

    def test_two_sources_superpose(self):
        c = DCCircuit()
        c.add_voltage_source("a", 1.0)
        c.add_voltage_source("b", 0.0)
        c.add_resistor("a", "mid", 1e3)
        c.add_resistor("b", "mid", 1e3)
        sol = c.solve()
        assert sol.voltage("mid") == pytest.approx(0.5)


class TestCrossbarStyle:
    def test_mini_crossbar_matches_ideal(self, rng):
        """A 4x4 crossbar with negligible wire resistance reproduces G^T V."""
        rows, cols = 4, 4
        g = rng.uniform(1e-6, 2e-5, (rows, cols))
        v = rng.uniform(0.0, 1.0, rows)
        c = DCCircuit()
        for i in range(rows):
            c.add_voltage_source(f"r{i}", float(v[i]), name=f"V{i}")
        for j in range(cols):
            c.add_resistor(f"c{j}", "gnd", 1e-6, name=f"sense{j}")
            for i in range(rows):
                c.add_resistor(f"r{i}", f"c{j}", 1.0 / g[i, j])
        sol = c.solve()
        for j in range(cols):
            current = sol.voltage(f"c{j}") / 1e-6
            assert current == pytest.approx(float(v @ g[:, j]), rel=1e-3)

    def test_sparse_path_matches_dense(self, rng):
        """Grids big enough for the sparse branch agree with numpy math."""
        n = 40  # 40x40 ladder -> >600 unknowns triggers sparse
        c = DCCircuit()
        c.add_voltage_source("n0_0", 1.0)
        for i in range(n):
            for j in range(n):
                if i + 1 < n:
                    c.add_resistor(f"n{i}_{j}", f"n{i + 1}_{j}", 1e3)
                if j + 1 < n:
                    c.add_resistor(f"n{i}_{j}", f"n{i}_{j + 1}", 1e3)
        c.add_resistor(f"n{n - 1}_{n - 1}", "gnd", 1e3)
        sol = c.solve()
        # Sanity: monotone potential drop from source to sink corner.
        assert 0 < sol.voltage(f"n{n - 1}_{n - 1}") < 1.0


class TestValidation:
    def test_empty_circuit(self):
        with pytest.raises(CircuitError):
            DCCircuit().solve()

    def test_floating_node_is_singular(self):
        c = DCCircuit()
        c.add_voltage_source("in", 1.0)
        c.add_resistor("in", "gnd", 1e3)
        c.add_resistor("float_a", "float_b", 1e3)
        with pytest.raises(CircuitError, match="MNA solve failed") as raised:
            c.solve()
        assert raised.value.__cause__ is not None

    def test_rejects_nonpositive_resistor(self):
        with pytest.raises(CircuitError):
            DCCircuit().add_resistor("a", "b", 0.0)

    def test_rejects_self_loop(self):
        with pytest.raises(CircuitError):
            DCCircuit().add_resistor("a", "a", 1e3)

    def test_unknown_node_lookup(self):
        c = DCCircuit()
        c.add_voltage_source("in", 1.0)
        c.add_resistor("in", "gnd", 1e3)
        sol = c.solve()
        with pytest.raises(CircuitError):
            sol.voltage("nope")
