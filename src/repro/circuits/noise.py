"""Fundamental noise floors of the sampled-analog datapath.

The ReSiPE signal chain samples voltages onto capacitors twice (the
S/H capture in S1 and the C_cog hold after the computation stage), so
its irreducible noise floor is thermal ``kT/C`` noise — the quantity
that ultimately bounds how small the COG capacitors (and hence the
dominant energy term) can scale.  This module provides the standard
expressions and the derived "minimum capacitor for N-bit operation"
sizing rule used by the timing-noise study.
"""

from __future__ import annotations

import math

from ..errors import CircuitError

__all__ = [
    "BOLTZMANN",
    "ktc_noise_voltage",
    "minimum_capacitance_for_bits",
]

#: Boltzmann constant (J/K).
BOLTZMANN = 1.380649e-23

_DEFAULT_T = 300.0  # kelvin


def ktc_noise_voltage(capacitance: float, temperature: float = _DEFAULT_T) -> float:
    """RMS thermal noise voltage sampled onto a capacitor:
    ``sqrt(kT/C)`` (volts).

    >>> round(ktc_noise_voltage(100e-15) * 1e6)  # ~203 uV at 100 fF
    203
    """
    if capacitance <= 0:
        raise CircuitError(f"capacitance must be positive, got {capacitance!r}")
    if temperature <= 0:
        raise CircuitError(f"temperature must be positive, got {temperature!r}")
    return math.sqrt(BOLTZMANN * temperature / capacitance)


def minimum_capacitance_for_bits(
    full_scale: float, bits: float, temperature: float = _DEFAULT_T
) -> float:
    """Smallest sampling capacitor supporting ``bits`` of resolution.

    Uses the quantisation-noise-matched criterion: the kT/C noise must
    not exceed the LSB/sqrt(12) quantisation noise of a ``bits``
    converter over the same full scale.  This is the physics behind the
    paper's "smaller MIM capacitors -> further energy reduction" remark
    having a floor.
    """
    if bits <= 0:
        raise CircuitError(f"bits must be positive, got {bits!r}")
    lsb = full_scale / (2**bits)
    q_noise = lsb / math.sqrt(12.0)
    if q_noise <= 0:
        raise CircuitError("quantisation noise underflow")
    return BOLTZMANN * temperature / q_noise**2
