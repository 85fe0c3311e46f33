"""Modified nodal analysis (MNA) DC solver: the IR-drop test oracle.

A general resistive netlist with ideal voltage and current sources,
solved by the textbook formulation.  The unknowns are the non-ground
node voltages plus one current per ideal voltage source,

    [ G   B ] [ v ]   [ i ]
    [ B^T  0 ] [ j ] = [ e ]

solved densely with numpy for small systems and with scipy's sparse LU
for large ones.  :class:`repro.reram.nonideal.IRDropSolver` stamps the
crossbar's fixed topology directly; the tests build the same crossbar
as a netlist here and compare the two.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from repro.circuits.transient import GROUND
from repro.errors import CircuitError

_SPARSE_THRESHOLD = 600  # unknowns beyond which we switch to scipy.sparse


@dataclasses.dataclass(frozen=True)
class Resistor:
    """A two-terminal resistor between ``a`` and ``b``."""

    a: str
    b: str
    resistance: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise CircuitError(
                f"resistor {self.name or '(unnamed)'}: resistance must be "
                f"positive, got {self.resistance!r}"
            )
        if self.a == self.b:
            raise CircuitError(f"resistor {self.name or '(unnamed)'} shorts a node to itself")

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance


@dataclasses.dataclass(frozen=True)
class VoltageSource:
    """An ideal voltage source driving node ``pos`` relative to ``neg``."""

    pos: str
    neg: str
    voltage: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.pos == self.neg:
            raise CircuitError(
                f"voltage source {self.name or '(unnamed)'} connects a node to itself"
            )


@dataclasses.dataclass(frozen=True)
class CurrentSource:
    """An ideal current source pushing ``current`` amps from ``neg``
    into ``pos`` (i.e. out of the ``pos`` terminal externally)."""

    pos: str
    neg: str
    current: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.pos == self.neg:
            raise CircuitError(
                f"current source {self.name or '(unnamed)'} connects a node to itself"
            )


@dataclasses.dataclass
class DCSolution:
    """Solved DC operating point.

    Attributes
    ----------
    node_voltages:
        Mapping node name -> voltage (ground included at 0 V).
    source_currents:
        Mapping voltage-source name (or auto index) -> current flowing
        out of the source's positive terminal into the circuit.
    """

    node_voltages: Dict[str, float]
    source_currents: Dict[str, float]

    def voltage(self, node: str) -> float:
        """Voltage of ``node`` (volts)."""
        try:
            return self.node_voltages[node]
        except KeyError:
            raise CircuitError(f"unknown node {node!r}") from None

    def branch_current(self, resistor: Resistor) -> float:
        """Current through ``resistor`` flowing from ``a`` to ``b``."""
        return (self.voltage(resistor.a) - self.voltage(resistor.b)) * resistor.conductance

    def branch_power(self, resistor: Resistor) -> float:
        """Power dissipated in ``resistor`` (watts)."""
        dv = self.voltage(resistor.a) - self.voltage(resistor.b)
        return dv * dv * resistor.conductance


class DCCircuit:
    """A resistive netlist with ideal voltage/current sources."""

    def __init__(self) -> None:
        self._resistors: List[Resistor] = []
        self._vsources: List[VoltageSource] = []
        self._isources: List[CurrentSource] = []

    # ------------------------------------------------------------------
    # Netlist construction
    # ------------------------------------------------------------------
    def add_resistor(self, a: str, b: str, resistance: float, name: str = "") -> Resistor:
        """Add a resistor and return it."""
        r = Resistor(a=a, b=b, resistance=resistance, name=name)
        self._resistors.append(r)
        return r

    def add_voltage_source(
        self, pos: str, voltage: float, neg: str = GROUND, name: str = ""
    ) -> VoltageSource:
        """Add an ideal voltage source and return it."""
        src = VoltageSource(pos=pos, neg=neg, voltage=voltage, name=name)
        self._vsources.append(src)
        return src

    def add_current_source(
        self, pos: str, current: float, neg: str = GROUND, name: str = ""
    ) -> CurrentSource:
        """Add an ideal current source and return it."""
        src = CurrentSource(pos=pos, neg=neg, current=current, name=name)
        self._isources.append(src)
        return src

    @property
    def resistors(self) -> Tuple[Resistor, ...]:
        return tuple(self._resistors)

    @property
    def voltage_sources(self) -> Tuple[VoltageSource, ...]:
        return tuple(self._vsources)

    def nodes(self) -> List[str]:
        """All node names, ground excluded, in first-seen order."""
        seen: Dict[str, None] = {}
        for r in self._resistors:
            for n in (r.a, r.b):
                if n != GROUND:
                    seen.setdefault(n)
        for s in self._vsources:
            for n in (s.pos, s.neg):
                if n != GROUND:
                    seen.setdefault(n)
        for s in self._isources:
            for n in (s.pos, s.neg):
                if n != GROUND:
                    seen.setdefault(n)
        return list(seen)

    # ------------------------------------------------------------------
    # Solve
    # ------------------------------------------------------------------
    def solve(self) -> DCSolution:
        """Assemble and solve the MNA system.

        Raises
        ------
        CircuitError
            If the netlist is empty or the system is singular (typically a
            floating subcircuit with no DC path to a source or ground).
        """
        nodes = self.nodes()
        if not nodes and not self._vsources:
            raise CircuitError("cannot solve an empty circuit")
        index = {name: i for i, name in enumerate(nodes)}
        n = len(nodes)
        m = len(self._vsources)
        size = n + m

        use_sparse = size > _SPARSE_THRESHOLD
        if use_sparse:
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla

            rows: List[int] = []
            cols: List[int] = []
            vals: List[float] = []

            def stamp(i: int, j: int, value: float) -> None:
                rows.append(i)
                cols.append(j)
                vals.append(value)
        else:
            matrix = np.zeros((size, size), dtype=float)

            def stamp(i: int, j: int, value: float) -> None:
                matrix[i, j] += value

        rhs = np.zeros(size, dtype=float)

        for r in self._resistors:
            g = r.conductance
            ia = index.get(r.a)
            ib = index.get(r.b)
            if ia is not None:
                stamp(ia, ia, g)
            if ib is not None:
                stamp(ib, ib, g)
            if ia is not None and ib is not None:
                stamp(ia, ib, -g)
                stamp(ib, ia, -g)

        for k, s in enumerate(self._vsources):
            row = n + k
            ip = index.get(s.pos)
            ineg = index.get(s.neg)
            if ip is not None:
                stamp(ip, row, 1.0)
                stamp(row, ip, 1.0)
            if ineg is not None:
                stamp(ineg, row, -1.0)
                stamp(row, ineg, -1.0)
            rhs[row] = s.voltage

        for s in self._isources:
            ip = index.get(s.pos)
            ineg = index.get(s.neg)
            if ip is not None:
                rhs[ip] += s.current
            if ineg is not None:
                rhs[ineg] -= s.current

        try:
            if use_sparse:
                system = sp.csc_matrix((vals, (rows, cols)), shape=(size, size))
                solution = spla.spsolve(system, rhs)
            else:
                solution = np.linalg.solve(matrix, rhs)
        except Exception as exc:  # singular matrix, etc.
            raise CircuitError(f"MNA solve failed: {exc}") from exc
        if not np.all(np.isfinite(solution)):
            raise CircuitError("MNA solve produced non-finite voltages "
                               "(floating subcircuit?)")

        voltages = {GROUND: 0.0}
        for name, i in index.items():
            voltages[name] = float(solution[i])
        currents: Dict[str, float] = {}
        for k, s in enumerate(self._vsources):
            key = s.name or f"V{k}"
            # MNA convention: the auxiliary unknown is the current flowing
            # from pos through the source to neg inside the source, i.e.
            # INTO the pos terminal from the circuit.  Negate so positive
            # means the source delivers current into the circuit.
            currents[key] = float(-solution[n + k])
        return DCSolution(node_voltages=voltages, source_currents=currents)
