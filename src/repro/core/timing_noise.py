"""Timing-noise analysis of the single-spiking readout.

The single-spiking format replaces the ADC with a comparator racing a
ramp, so every voltage-domain non-ideality becomes a *timing* error:

* comparator input-referred noise / offset ``σ_v`` maps through the
  ramp slope, ``σ_t = σ_v / (dV/dt)`` — and the exponential ramp's
  slope *decays* with time, so late (large-value) outputs are noisier;
* comparator delay jitter and clock/slice-boundary jitter add directly
  in time.

This module provides the closed-form error propagation, the effective
resolution ("how many ADC bits is a ReSiPE column worth?").  It
substantiates the Table I positioning of ReSiPE against ADC-based
designs with numbers instead of adjectives.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Union

import numpy as np

from ..config import CircuitParameters
from ..errors import CircuitError

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "ramp_slope",
    "timing_noise_from_voltage_noise",
    "total_timing_noise",
    "effective_bits",
    "TimingNoiseReport",
    "analyse_timing_noise",
]


def ramp_slope(t: ArrayLike, params: CircuitParameters) -> ArrayLike:
    """Slope of the shared ramp at time ``t`` into a slice (V/s):
    ``dV/dt = (V_s / τ_gd) · e^{-t/τ_gd}``."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise CircuitError("slope defined for t >= 0")
    out = params.v_s / params.tau_gd * np.exp(-t_arr / params.tau_gd)
    return out if np.ndim(out) else float(out)


def timing_noise_from_voltage_noise(
    sigma_v: float, t_out: ArrayLike, params: CircuitParameters
) -> ArrayLike:
    """Output-time standard deviation caused by comparator voltage noise
    ``sigma_v`` at a crossing happening at ``t_out``."""
    if sigma_v < 0:
        raise CircuitError("voltage noise must be >= 0")
    slope = np.asarray(ramp_slope(t_out, params), dtype=float)
    out = sigma_v / slope
    return out if np.ndim(out) else float(out)


def total_timing_noise(
    t_out: ArrayLike,
    params: CircuitParameters,
    sigma_v: float = 0.5e-3,
    sigma_delay: float = 10e-12,
    sigma_clock: float = 5e-12,
) -> ArrayLike:
    """RSS of the three timing-noise contributors at ``t_out``.

    Defaults are representative 65 nm figures: 0.5 mV comparator noise,
    10 ps delay jitter, 5 ps clock jitter.
    """
    for name, value in (("sigma_delay", sigma_delay), ("sigma_clock", sigma_clock)):
        if value < 0:
            raise CircuitError(f"{name} must be >= 0")
    from_voltage = np.asarray(
        timing_noise_from_voltage_noise(sigma_v, t_out, params), dtype=float
    )
    out = np.sqrt(from_voltage**2 + sigma_delay**2 + sigma_clock**2)
    return out if np.ndim(out) else float(out)


def effective_bits(
    params: CircuitParameters,
    sigma_v: float = 0.5e-3,
    sigma_delay: float = 10e-12,
    sigma_clock: float = 5e-12,
    t_full_scale: Optional[float] = None,
) -> float:
    """Effective output resolution in bits.

    The usable output range is ``[0, t_full_scale]`` (default
    ``t_in_max``); the worst-case (largest) timing noise over that range
    defines the least significant step ``q = σ·√12`` of an equivalent
    uniform quantiser, giving ``bits = log2(range / q)``.
    """
    full_scale = t_full_scale if t_full_scale is not None else params.t_in_max
    if full_scale <= 0:
        raise CircuitError("full-scale time must be positive")
    grid = np.linspace(full_scale * 1e-3, full_scale, 64)
    worst = float(
        np.max(total_timing_noise(grid, params, sigma_v, sigma_delay, sigma_clock))
    )
    q = worst * math.sqrt(12.0)
    if q >= full_scale:
        return 0.0
    return math.log2(full_scale / q)


@dataclasses.dataclass(frozen=True)
class TimingNoiseReport:
    """Summary of the timing-noise analysis at one operating point.

    Attributes
    ----------
    sigma_t_early / sigma_t_late:
        Timing noise at 10 % and 100 % of full scale (seconds) — the
        exponential ramp makes late crossings noisier.
    worst_value_noise:
        Worst-case noise expressed as a fraction of full scale.
    effective_bits:
        Equivalent uniform-quantiser resolution.
    """

    sigma_t_early: float
    sigma_t_late: float
    worst_value_noise: float
    effective_bits: float


def analyse_timing_noise(
    params: CircuitParameters,
    sigma_v: float = 0.5e-3,
    sigma_delay: float = 10e-12,
    sigma_clock: float = 5e-12,
) -> TimingNoiseReport:
    """Closed-form timing-noise summary for an operating point."""
    full_scale = params.t_in_max
    early = float(total_timing_noise(0.1 * full_scale, params, sigma_v,
                                     sigma_delay, sigma_clock))
    late = float(total_timing_noise(full_scale, params, sigma_v,
                                    sigma_delay, sigma_clock))
    return TimingNoiseReport(
        sigma_t_early=early,
        sigma_t_late=late,
        worst_value_noise=late / full_scale,
        effective_bits=effective_bits(params, sigma_v, sigma_delay, sigma_clock),
    )
