"""Neural-network → crossbar mapping compiler and executor.

Bridges the trained numpy networks and the PIM hardware models:

* :mod:`repro.mapping.weight_mapping` — signed weights → differential
  conductance pairs (positive/negative column groups, digital
  subtraction), bias folding, scale bookkeeping.
* :mod:`repro.mapping.tiling` — matrices larger than one crossbar are
  split into tiles; row-tile partials sum, column tiles concatenate.
* :mod:`repro.mapping.backends` — pluggable hardware backends: ideal
  or ReSiPE (exact circuit equations, Monte-Carlo process variation).
* :mod:`repro.mapping.compiler` — compiles a Sequential model into
  programmed tiles.
* :mod:`repro.mapping.executor` — runs inference through the mapped
  hardware with activation-scale calibration (the Fig. 7 pipeline).
* :mod:`repro.mapping.stacked` — trial stacks: ``T`` Monte-Carlo
  realizations collapse into ``(T, rows, cols)`` tile tensors so
  variation sweeps run all trials through the one datapath at once.
* :mod:`repro.mapping.remap` — detect-and-remap graceful degradation:
  probe-flagged columns move onto spare column strips (or an exact
  software fallback) so a faulty chip keeps classifying.
"""

from .weight_mapping import DifferentialWeights, map_signed_weights
from .tiling import TileGrid, tile_matrix
from .backends import (
    HardwareBackend,
    ProgrammedTile,
    IdealBackend,
    ReSiPEBackend,
    stack_tiles,
)
from .compiler import MappedLayer, MappedNetwork, compile_network
from .executor import PIMExecutor
from .stacked import stack_networks
from .deployment import DeploymentReport, LayerDeployment, plan_deployment
from .bit_slicing import BitSlicingBackend, slice_weights
from .remap import (
    PatchedLayer,
    RemapRecord,
    RemapResult,
    detect_and_remap,
    spare_columns_for,
)

__all__ = [
    "DifferentialWeights",
    "map_signed_weights",
    "TileGrid",
    "tile_matrix",
    "HardwareBackend",
    "ProgrammedTile",
    "IdealBackend",
    "ReSiPEBackend",
    "stack_tiles",
    "MappedLayer",
    "MappedNetwork",
    "compile_network",
    "PIMExecutor",
    "stack_networks",
    "DeploymentReport",
    "LayerDeployment",
    "plan_deployment",
    "BitSlicingBackend",
    "slice_weights",
    "PatchedLayer",
    "RemapRecord",
    "RemapResult",
    "detect_and_remap",
    "spare_columns_for",
]
