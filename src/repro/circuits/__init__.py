"""Analog circuit substrate.

This subpackage replaces the paper's Cadence Virtuoso setup with an exact
semi-analytic toolkit for the class of circuits ReSiPE is built from:

* :mod:`repro.circuits.rc` — Thevenin reduction of the resistive
  branches that charge a capacitor (the paper's Eq. 2).
* :mod:`repro.circuits.waveform` — sampled waveforms with arithmetic,
  interpolation and edge/crossing detection.
* :mod:`repro.circuits.spike` — the single-spike signal type.
* :mod:`repro.circuits.transient` — an event-driven piecewise-exponential
  transient simulator (sources, switches, RC nodes, comparators,
  sample-and-holds, pulse shapers).  Exact for first-order networks.
* :mod:`repro.circuits.noise` — kT/C noise floors of the sampled
  datapath.
"""

from .rc import thevenin, TheveninEquivalent
from .spike import SingleSpike, NO_SPIKE
from .waveform import Waveform
from .transient import (
    Comparator,
    PulseShaper,
    RCNodeSpec,
    SampleHold,
    SwitchSpec,
    TransientEngine,
    TransientResult,
    PiecewiseConstantSource,
)
from .noise import ktc_noise_voltage, minimum_capacitance_for_bits
from .sample_hold import SampleHoldModel
from .comparator import ComparatorModel

__all__ = [
    "thevenin",
    "TheveninEquivalent",
    "SingleSpike",
    "NO_SPIKE",
    "Waveform",
    "Comparator",
    "PulseShaper",
    "RCNodeSpec",
    "SampleHold",
    "SwitchSpec",
    "TransientEngine",
    "TransientResult",
    "PiecewiseConstantSource",
    "ktc_noise_voltage",
    "minimum_capacitance_for_bits",
    "SampleHoldModel",
    "ComparatorModel",
]
