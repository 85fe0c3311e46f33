"""ReSiPE core: the paper's primary contribution.

* :mod:`repro.core.encoding` — the single-spiking data format: a value is
  the arrival time of one spike inside a slice (Section III-A).
* :mod:`repro.core.global_decoder` — GD module: spike timing → wordline
  voltage via the shared ramp (Eq. 1).
* :mod:`repro.core.cog` — column output generator: column charge-up and
  voltage → output spike timing (Eqs. 3–4).
* :mod:`repro.core.mvm` — the composed single-spike MVM (Eqs. 5–6) in
  exact and idealised-linear modes.
* :mod:`repro.core.mac` — the two-input MAC demonstrator circuit of
  Fig. 2, netlisted on the transient engine (regenerates Fig. 3).
* :mod:`repro.core.engine` — a full crossbar-scale ReSiPE engine.
* :mod:`repro.core.pipeline` — two-slice multi-layer pipelining.
* :mod:`repro.core.nonlinearity` — closed-form transfers and saturation
  compensation.
* :mod:`repro.core.power` — ReSiPE power/latency/area model.
"""

from .encoding import SingleSpikeCodec
from .global_decoder import GlobalDecoder
from .cog import ColumnOutputGenerator, COGResult
from .mvm import SingleSpikeMVM, MVMMode
from .mac import SingleSpikeMAC, MACWaveforms
from .engine import ReSiPEEngine
from .pipeline import PipelineSchedule, LayerTask, schedule_pipeline
from .nonlinearity import (
    linear_mac_output,
    exact_mac_output,
)
from .power import ReSiPEPowerModel
from .timing_noise import (
    TimingNoiseReport,
    analyse_timing_noise,
    effective_bits,
    total_timing_noise,
)

__all__ = [
    "SingleSpikeCodec",
    "GlobalDecoder",
    "ColumnOutputGenerator",
    "COGResult",
    "SingleSpikeMVM",
    "MVMMode",
    "SingleSpikeMAC",
    "MACWaveforms",
    "ReSiPEEngine",
    "PipelineSchedule",
    "LayerTask",
    "schedule_pipeline",
    "linear_mac_output",
    "exact_mac_output",
    "ReSiPEPowerModel",
    "TimingNoiseReport",
    "analyse_timing_noise",
    "effective_bits",
    "total_timing_noise",
]
