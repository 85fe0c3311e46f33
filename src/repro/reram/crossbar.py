"""Vectorised ReRAM crossbar array.

The array holds an ``(rows, cols)`` conductance matrix ``G``.  Wordlines
(rows) are driven with voltages; each bitline (column) j sinks current

    I_j = Σ_i  V_i · G[i, j]

which is the analog matrix-vector multiplication at the heart of every
ReRAM PIM design (paper Section I).  The ReSiPE engine additionally
needs per-column *total* conductance (Eq. 2) and the Thevenin view of a
column, both provided here.

Non-idealities live elsewhere so the ideal array stays exact:
process variation in :mod:`repro.reram.variation`, wire parasitics in
:mod:`repro.reram.nonideal`.

For Monte-Carlo sweeps one array can hold ``T`` conductance
realizations as a single ``(T, rows, cols)`` tensor (see
:meth:`CrossbarArray.with_conductances`); the analog compute broadcasts
over that optional leading trial axis, so all trials evaluate in one
numpy expression and a lone array is simply the ``T = 1`` case.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import DeviceError, ShapeError
from .device import DeviceSpec

__all__ = ["CrossbarArray"]


class CrossbarArray:
    """A programmable crossbar of ReRAM cells.

    Parameters
    ----------
    rows, cols:
        Array dimensions (wordlines × bitlines).
    spec:
        Device window and quantisation behaviour.
    r_access:
        Series access-transistor on-resistance per cell (ohms); the
        programmed *effective* conductance accounts for it.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        spec: Optional[DeviceSpec] = None,
        r_access: float = 0.0,
    ) -> None:
        if rows < 1 or cols < 1:
            raise DeviceError(f"array dimensions must be >= 1, got {rows}x{cols}")
        if r_access < 0:
            raise DeviceError(f"access resistance must be >= 0, got {r_access!r}")
        self.rows = rows
        self.cols = cols
        self.spec = spec if spec is not None else DeviceSpec.paper_linear_range()
        self.r_access = r_access
        self._g = np.full((rows, cols), self.spec.g_min, dtype=float)
        self._write_count = 0
        self._column_totals: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    @property
    def conductances(self) -> np.ndarray:
        """The effective conductance matrix (read-only view)."""
        g = self._g.view()
        g.flags.writeable = False
        return g

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def write_count(self) -> int:
        """Number of whole-array programming operations performed."""
        return self._write_count

    def program(self, g_target: np.ndarray) -> None:
        """Program the array to the target *effective* conductances.

        Targets are quantised to the device window; with non-zero
        ``r_access`` the stored matrix still represents the effective
        (device + access) conductance, i.e. programming is assumed
        write-verified against the effective value (see
        :mod:`repro.reram.programming` for the explicit loop).
        """
        g = np.asarray(g_target, dtype=float)
        if g.shape != (self.rows, self.cols):
            raise ShapeError(
                f"target shape {g.shape} does not match array {self.shape}"
            )
        if np.any(g < 0):
            raise DeviceError("conductance targets must be non-negative")
        self._g = np.asarray(self.spec.quantise(g), dtype=float)
        self._write_count += 1
        self._column_totals = None

    def program_normalised(self, weights: np.ndarray) -> None:
        """Program from normalised weights in ``[0, 1]`` (linear map onto
        the conductance window)."""
        self.program(np.asarray(self.spec.normalised_to_conductance(weights)))

    def injected(self, injector, rng: np.random.Generator) -> "CrossbarArray":
        """A *copy* of this array disturbed by a
        :class:`~repro.faults.injectors.FaultInjector` (any object with
        ``apply(g, rng, spec)``): process variation, stuck-at cells,
        retention drift, or any composition.  The original stays
        pristine, so one programming can be evaluated under many
        Monte-Carlo draws (the Fig. 7 protocol).
        """
        g = np.asarray(injector.apply(self._g, rng, spec=self.spec),
                       dtype=float)
        if g.shape != (self.rows, self.cols):
            raise ShapeError(
                f"injector changed array shape to {g.shape}, "
                f"expected {self.shape}"
            )
        return self.with_conductances(g)

    def with_conductances(self, g: np.ndarray) -> "CrossbarArray":
        """A clone of this array (spec, access resistance, write count)
        holding ``g`` as its conductance matrix.

        ``g`` is taken as is — no copy, no quantisation, no shape check
        — so a Monte-Carlo clone can be a view into a buffer drawn for a
        whole network; callers own its window clipping.  The clone's
        dimensions are those of ``g``, so a column slice of the
        conductances is a narrower array.  A ``(T, rows, cols)`` tensor
        makes the clone a trial stack: ``T`` realizations evaluated at
        once by the analog compute below.
        """
        clone = object.__new__(CrossbarArray)
        clone.__dict__.update(self.__dict__)
        clone._g = g
        clone.rows, clone.cols = g.shape[-2:]
        clone._column_totals = None
        return clone

    # ------------------------------------------------------------------
    # Analog compute
    # ------------------------------------------------------------------
    def mvm_currents(self, voltages: np.ndarray) -> np.ndarray:
        """Ideal bitline currents for wordline ``voltages``.

        Accepts a vector ``(rows,)`` or a batch ``(n, rows)``; returns
        ``(cols,)`` or ``(n, cols)`` respectively.  A trial stack returns
        ``(T, cols)`` / ``(T, n, cols)`` and also takes per-trial inputs
        ``(T, n, rows)``: one broadcast ``np.matmul`` runs the same 2-D
        GEMM per trial slice, so slice ``t`` is bit-identical to the lone
        realization ``t``.
        """
        v = np.asarray(voltages, dtype=float)
        if v.shape[-1] != self.rows:
            raise ShapeError(
                f"voltage vector length {v.shape[-1]} != rows {self.rows}"
            )
        if v.ndim == 3 and self._g.ndim == 3 and v.shape[0] != len(self._g):
            raise ShapeError(
                f"per-trial voltages carry {v.shape[0]} trials, "
                f"array holds {len(self._g)}"
            )
        return v @ self._g

    def column_total_conductance(self) -> np.ndarray:
        """Per-column ``Σ_i G[i, j]`` — the paper's Eq. 2 denominator
        (``(T, cols)`` for a trial stack).

        Cached between programming operations: every ``mvm_values`` call
        (and the saturation-compensation branch) needs it, so a hot
        inference loop would otherwise re-reduce the matrix per sample
        batch.  ``program`` invalidates; clones start without totals.
        """
        if self._column_totals is None:
            totals = self._g.sum(axis=-2)
            totals.flags.writeable = False
            self._column_totals = totals
        return self._column_totals

    def column_thevenin(self, voltages: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-column Thevenin equivalents seen by the COG capacitors.

        Returns ``(v_eq, r_eq)`` arrays of length ``cols`` (Eq. 2):

            V_eq,j = Σ_i V_i G_ij / Σ_i G_ij,   R_eq,j = 1 / Σ_i G_ij
        """
        v = np.asarray(voltages, dtype=float)
        if v.shape != (self.rows,):
            raise ShapeError(f"expected voltages of shape ({self.rows},), got {v.shape}")
        total = self.column_total_conductance()
        if np.any(total <= 0):
            raise DeviceError("a column has zero total conductance")
        v_eq = (v @ self._g) / total
        return v_eq, 1.0 / total

    def exceeds_linear_limit(self, g_limit_total: float) -> np.ndarray:
        """Boolean mask of columns whose total conductance exceeds the
        linear-operation bound (paper: 1.6 mS)."""
        return self.column_total_conductance() > g_limit_total

    def compute_power(self, voltages: np.ndarray) -> float:
        """Instantaneous ohmic power drawn from the wordline drivers with
        bitlines held near ground (watts): ``Σ_ij V_i² G_ij``."""
        v = np.asarray(voltages, dtype=float)
        if v.shape != (self.rows,):
            raise ShapeError(f"expected voltages of shape ({self.rows},), got {v.shape}")
        return float((v**2) @ self._g.sum(axis=1))

    def __repr__(self) -> str:
        return (
            f"CrossbarArray({self.rows}x{self.cols}, "
            f"window [{self.spec.g_min:.2e}, {self.spec.g_max:.2e}] S)"
        )

