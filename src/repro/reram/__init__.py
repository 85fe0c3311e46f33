"""ReRAM device and crossbar-array substrate.

Models the storage/compute fabric the paper builds on:

* :mod:`repro.reram.device` — conductance-state device model with
  LRS/HRS bounds (paper Section III-D: 10 kΩ–1 MΩ, restricted to
  50 kΩ–1 MΩ for linear operation).
* :mod:`repro.reram.variation` — process-variation and fault models
  (normal-distributed conductance variation per refs [21, 22]).
* :mod:`repro.reram.crossbar` — the crossbar array: programming, reads,
  ideal analog MVM, column conductance accounting.
* :mod:`repro.reram.nonideal` — wire-parasitic (IR-drop) crossbar model
  solved with modified nodal analysis.
* :mod:`repro.reram.retention` — conductance drift with time since
  programming.
"""

from .device import DeviceSpec
from .variation import VariationModel, StuckAtFaultModel
from .crossbar import CrossbarArray
from .nonideal import WireParasitics, IRDropSolver
from .retention import RetentionModel

__all__ = [
    "DeviceSpec",
    "VariationModel",
    "StuckAtFaultModel",
    "CrossbarArray",
    "WireParasitics",
    "IRDropSolver",
    "RetentionModel",
]
