"""Wire-parasitic (IR-drop) crossbar model.

The ideal array assumes every cell sees the full wordline voltage and a
perfectly grounded bitline.  In a real crossbar the metal lines have
per-segment resistance, so cells far from the drivers see degraded
voltages — the classic IR-drop accuracy loss.  This module builds the
full resistive network (one node per cell per line) and solves it by
modified nodal analysis, providing the substrate for the IR-drop
ablation bench.

Topology (for an R×C array):

* wordline i: driver node ``wl_i_0`` … ``wl_i_{C-1}``, adjacent nodes
  joined by ``r_wire_wl``; the driver (ideal source) feeds ``wl_i_0``.
* bitline j: nodes ``bl_0_j`` … ``bl_{R-1}_j`` joined by ``r_wire_bl``;
  the last node connects to ground through ``r_sense`` (the
  virtual-ground sense resistance).
* cell (i, j): resistor ``1/G[i,j]`` from ``wl_i_j`` to ``bl_i_j``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import CircuitError, DeviceError, ShapeError
from ..units import GIGA, NANO
from .crossbar import CrossbarArray

__all__ = ["WireParasitics", "IRDropSolver", "ParasiticThevenin"]

_SPARSE_THRESHOLD = 600  # unknowns beyond which the LU is sparse


@dataclasses.dataclass(frozen=True)
class ParasiticThevenin:
    """Precomputed parasitic-aware column Thevenin equivalents.

    Attributes
    ----------
    response:
        ``(cols, rows)`` linear map from wordline drive voltages to
        per-column open-circuit voltages: ``V_oc = response @ v``.
    r_eq:
        Per-column Thevenin resistance (ohms), including wire segments.
    """

    response: np.ndarray
    r_eq: np.ndarray

    def __post_init__(self) -> None:
        response = np.asarray(self.response, dtype=float)
        r_eq = np.asarray(self.r_eq, dtype=float)
        if response.ndim != 2 or r_eq.shape != (response.shape[0],):
            raise ShapeError(
                f"inconsistent Thevenin shapes: {response.shape} vs {r_eq.shape}"
            )
        if np.any(r_eq <= 0):
            raise DeviceError("Thevenin resistances must be positive")
        object.__setattr__(self, "response", response)
        object.__setattr__(self, "r_eq", r_eq)

    def v_eq(self, voltages: np.ndarray) -> np.ndarray:
        """Open-circuit column voltages for drive vector(s).

        Accepts ``(rows,)`` or ``(batch, rows)``; returns ``(cols,)`` or
        ``(batch, cols)``.
        """
        v = np.asarray(voltages, dtype=float)
        if v.shape[-1] != self.response.shape[1]:
            raise ShapeError(
                f"drive vector length {v.shape[-1]} != rows "
                f"{self.response.shape[1]}"
            )
        return v @ self.response.T


@dataclasses.dataclass(frozen=True)
class WireParasitics:
    """Per-segment interconnect resistances.

    Typical 65 nm crossbar values are ~1–3 Ω per cell pitch; the default
    2.5 Ω follows common ReRAM PIM modelling practice (e.g. the ISAAC /
    PRIME line of work).
    """

    r_wire_wl: float = 2.5
    r_wire_bl: float = 2.5
    r_sense: float = 1.0

    def __post_init__(self) -> None:
        if self.r_wire_wl < 0 or self.r_wire_bl < 0:
            raise DeviceError("wire resistances must be >= 0")
        if self.r_sense <= 0:
            raise DeviceError("sense resistance must be positive")

    @classmethod
    def ideal(cls) -> "WireParasitics":
        """Vanishingly small parasitics (sanity-check configuration)."""
        return cls(r_wire_wl=1 * NANO, r_wire_bl=1 * NANO, r_sense=1 * NANO)


class IRDropSolver:
    """Solves the parasitic crossbar network for bitline currents.

    The MNA system is assembled with vectorized index arithmetic — node
    numbers are computed from ``(row, col)`` grids and all resistor
    stamps land through batched scatter-adds, with no per-cell Python
    loop.  Drive voltages only enter the right-hand side, so the matrix
    (and its LU factorization) depends solely on the conductance state;
    both are cached per :attr:`CrossbarArray.write_count` and reused
    across drive vectors.

    Node layout for an R×C array (``gnd`` is eliminated): wordline node
    ``(i, j)`` is unknown ``i*C + j``, bitline node ``(i, j)`` is
    ``R*C + i*C + j``, and the R wordline-driver source currents occupy
    the last R unknowns.
    """

    def __init__(self, array: CrossbarArray, parasitics: WireParasitics) -> None:
        self.array = array
        self.parasitics = parasitics
        self._factor_cache: Dict[tuple, Callable[[np.ndarray], np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Vectorized MNA assembly + cached factorization
    # ------------------------------------------------------------------
    def _stamps(
        self, sense_resistance: Optional[float], wire_floor: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
        """COO triplets ``(i, j, value)`` of the MNA matrix.

        ``sense_resistance`` of None leaves the bitline feet open (the
        Thevenin-resistance probe configuration); ``wire_floor`` clamps
        vanishing wire resistances for conditioning.
        """
        rows, cols = self.array.shape
        g = self.array.conductances
        p = self.parasitics
        wl = np.arange(rows * cols).reshape(rows, cols)
        bl = wl + rows * cols
        n = 2 * rows * cols

        ii: list = []
        jj: list = []
        vv: list = []

        def stamp_between(a: np.ndarray, b: np.ndarray,
                          cond: np.ndarray) -> None:
            ii.extend((a, b, a, b))
            jj.extend((a, b, b, a))
            vv.extend((cond, cond, -cond, -cond))

        if cols > 1:
            a = wl[:, :-1].ravel()
            g_wl = 1.0 / max(p.r_wire_wl, wire_floor)
            stamp_between(a, wl[:, 1:].ravel(), np.full(a.size, g_wl))
        if rows > 1:
            a = bl[:-1, :].ravel()
            g_bl = 1.0 / max(p.r_wire_bl, wire_floor)
            stamp_between(a, bl[1:, :].ravel(), np.full(a.size, g_bl))
        feet = bl[rows - 1]
        if sense_resistance is not None:
            ii.append(feet)
            jj.append(feet)
            vv.append(np.full(cols, 1.0 / sense_resistance))
        mask = g > 0
        if np.any(mask):
            stamp_between(wl[mask], bl[mask], g[mask])
        # Wordline drivers: ideal sources into column-0 nodes.
        drivers = wl[:, 0]
        source_rows = n + np.arange(rows)
        ii.extend((drivers, source_rows))
        jj.extend((source_rows, drivers))
        vv.extend((np.ones(rows), np.ones(rows)))

        return (
            np.concatenate(ii),
            np.concatenate(jj),
            np.concatenate(vv),
            n + rows,
            n,
        )

    def _factorization(
        self, sense_resistance: Optional[float], wire_floor: float
    ) -> Callable[[np.ndarray], np.ndarray]:
        """LU solve closure for the current conductance state (cached)."""
        key = (self.array.write_count, sense_resistance, wire_floor)
        cached = self._factor_cache.get(key)
        if cached is not None:
            return cached
        i_idx, j_idx, vals, size, _n = self._stamps(
            sense_resistance, wire_floor
        )
        try:
            if size > _SPARSE_THRESHOLD:
                import scipy.sparse as sp
                import scipy.sparse.linalg as spla

                system = sp.csc_matrix(
                    (vals, (i_idx, j_idx)), shape=(size, size)
                )
                lu = spla.splu(system)
                solve = lu.solve
            else:
                import scipy.linalg as sla

                matrix = np.zeros((size, size), dtype=float)
                np.add.at(matrix, (i_idx, j_idx), vals)
                lu_piv = sla.lu_factor(matrix)

                def solve(rhs: np.ndarray) -> np.ndarray:
                    return sla.lu_solve(lu_piv, rhs)
        except Exception as exc:  # singular matrix, etc.
            raise CircuitError(f"MNA factorization failed: {exc}") from exc
        self._factor_cache[key] = solve
        return solve

    def _solve(self, solve: Callable[[np.ndarray], np.ndarray],
               rhs: np.ndarray) -> np.ndarray:
        solution = solve(rhs)
        if not np.all(np.isfinite(solution)):
            raise CircuitError(
                "MNA solve produced non-finite voltages "
                "(floating subcircuit?)"
            )
        return solution

    def solve_currents(self, voltages: np.ndarray) -> np.ndarray:
        """Bitline sense currents under wordline ``voltages``.

        Returns an array of length ``cols``.  With
        :meth:`WireParasitics.ideal` this converges to the ideal
        ``v @ G`` result.
        """
        v = np.asarray(voltages, dtype=float)
        if v.shape != (self.array.rows,):
            raise ShapeError(
                f"expected voltages of shape ({self.array.rows},), got {v.shape}"
            )
        rows, cols = self.array.shape
        p = self.parasitics
        solve = self._factorization(p.r_sense, 1e-12)
        n = 2 * rows * cols
        rhs = np.zeros(n + rows, dtype=float)
        rhs[n:] = v
        solution = self._solve(solve, rhs)
        feet = (2 * rows - 1) * cols + np.arange(cols)
        return solution[feet] / p.r_sense

    # ------------------------------------------------------------------
    # Thevenin extraction (feeds the parasitic-aware ReSiPE engine)
    # ------------------------------------------------------------------
    def column_thevenin(self) -> "ParasiticThevenin":
        """Extract per-column Thevenin equivalents *including* wire
        parasitics, seen by the COG capacitors at the bitline feet.

        The network is linear, so the open-circuit column voltage is a
        linear map of the wordline drive vector: ``V_oc = A v``.  ``A``
        (cols × rows) and the per-column Thevenin resistance come from
        two cached factorizations solved against batched right-hand
        sides (all unit drives at once, all column probes at once),
        after which parasitic-aware MVMs cost the same as ideal ones.
        """
        rows, cols = self.array.shape
        n = 2 * rows * cols
        feet = (2 * rows - 1) * cols + np.arange(cols)
        # Response matrix: superposition over unit wordline drives, with
        # the sense feet open — 1e9 Ohm approximates an open foot while
        # keeping the system well conditioned against the ~mOhm wire
        # floor.
        solve = self._factorization(1 * GIGA, 1e-3)
        rhs = np.zeros((n + rows, rows), dtype=float)
        rhs[n:, :] = np.eye(rows)
        response = self._solve(solve, rhs)[feet, :]
        # Thevenin resistance per column: drive 1 A into the sense foot
        # with every wordline driver at 0 V and no sense resistors.
        solve_open = self._factorization(None, 1e-3)
        rhs = np.zeros((n + rows, cols), dtype=float)
        rhs[feet, np.arange(cols)] = 1.0
        r_eq = self._solve(solve_open, rhs)[feet, np.arange(cols)]
        return ParasiticThevenin(response=response, r_eq=r_eq)

    def error_vs_ideal(self, voltages: np.ndarray) -> Tuple[np.ndarray, float]:
        """Per-column relative current error and its maximum.

        Returns ``(relative_errors, max_relative_error)`` where the
        reference is the ideal ``v @ G`` current.  Columns whose ideal
        current is zero are reported as zero error.
        """
        ideal = self.array.mvm_currents(np.asarray(voltages, dtype=float))
        actual = self.solve_currents(voltages)
        denom = np.where(np.abs(ideal) > 0, np.abs(ideal), 1.0)
        rel = np.abs(actual - ideal) / denom
        rel = np.where(np.abs(ideal) > 0, rel, 0.0)
        return rel, float(rel.max())
