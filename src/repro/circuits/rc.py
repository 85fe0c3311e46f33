"""Closed-form first-order RC responses.

Every dynamic element in the ReSiPE datapath is a capacitor charged or
discharged through a resistive network, so its trajectory between circuit
events is exactly

    V(t) = V_inf + (V_0 - V_inf) * exp(-t / tau)

with ``V_inf`` and ``tau`` set by the Thevenin equivalent of the
resistive branches driving the capacitor, which :func:`thevenin` computes.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..errors import CircuitError

__all__ = ["TheveninEquivalent", "thevenin"]


@dataclasses.dataclass(frozen=True)
class TheveninEquivalent:
    """Thevenin reduction of a resistive divider network.

    Attributes
    ----------
    voltage:
        Open-circuit voltage (volts).
    resistance:
        Equivalent source resistance (ohms).
    """

    voltage: float
    resistance: float

    def tau(self, capacitance: float) -> float:
        """Charging time constant when the equivalent drives a capacitor."""
        if capacitance <= 0:
            raise CircuitError(f"capacitance must be positive, got {capacitance!r}")
        return self.resistance * capacitance


def thevenin(
    voltages: Sequence[float], conductances: Sequence[float]
) -> TheveninEquivalent:
    """Thevenin equivalent of voltage sources driving one node in parallel.

    This is exactly the paper's Eq. (2): wordline voltages ``V_in,i`` drive
    the shared column capacitor through cell conductances ``G_i``::

        V_eq = sum(V_i G_i) / sum(G_i),   R_eq = 1 / sum(G_i)

    Parameters
    ----------
    voltages:
        Source voltages (volts).
    conductances:
        Series conductance of each source branch (siemens, > 0 each;
        zero-conductance branches may be passed and are ignored).
    """
    v = np.asarray(voltages, dtype=float)
    g = np.asarray(conductances, dtype=float)
    if v.shape != g.shape:
        raise CircuitError(
            f"voltages and conductances must match, got {v.shape} vs {g.shape}"
        )
    if np.any(g < 0):
        raise CircuitError("branch conductances must be non-negative")
    total_g = float(g.sum())
    if total_g <= 0:
        raise CircuitError("at least one branch must have positive conductance")
    v_eq = float((v * g).sum() / total_g)
    return TheveninEquivalent(voltage=v_eq, resistance=1.0 / total_g)
