"""ReSiPE reproduction — a ReRAM-based single-spiking PIM engine.

Full-system reproduction of *ReSiPE: ReRAM-based Single-Spiking
Processing-In-Memory Engine* (Li, Yan, Li — DAC 2020): the
single-spiking data format and MVM circuits, the ReRAM crossbar
substrate, the compared level/PWM/rate-coding baselines, a pure-numpy
neural-network stack, the network-to-crossbar mapping compiler, and
harnesses regenerating every table and figure of the paper's
evaluation.  See DESIGN.md for the system inventory and EXPERIMENTS.md
for paper-vs-measured results.

Quick start::

    import numpy as np
    from repro import CircuitParameters, ReSiPEEngine

    params = CircuitParameters.calibrated()
    weights = np.random.default_rng(0).random((32, 16))
    engine = ReSiPEEngine.from_normalised_weights(weights, params)
    y = engine.mvm_values(np.random.default_rng(1).random(32))
"""

from .config import CircuitParameters
from .core import (
    ColumnOutputGenerator,
    GlobalDecoder,
    MVMMode,
    ReSiPEEngine,
    ReSiPEPowerModel,
    SingleSpikeCodec,
    SingleSpikeMAC,
    SingleSpikeMVM,
)
from .errors import (
    ArtifactError,
    CircuitError,
    ConfigurationError,
    DeviceError,
    EncodingError,
    MappingError,
    ReproError,
    ShapeError,
    TrainingError,
)
from .reram import CrossbarArray, DeviceSpec, VariationModel

__version__ = "1.0.0"

__all__ = [
    "CircuitParameters",
    "SingleSpikeCodec",
    "GlobalDecoder",
    "ColumnOutputGenerator",
    "SingleSpikeMAC",
    "SingleSpikeMVM",
    "MVMMode",
    "ReSiPEEngine",
    "ReSiPEPowerModel",
    "CrossbarArray",
    "DeviceSpec",
    "VariationModel",
    "ReproError",
    "ArtifactError",
    "ConfigurationError",
    "CircuitError",
    "DeviceError",
    "EncodingError",
    "MappingError",
    "ShapeError",
    "TrainingError",
    "__version__",
]
