"""Unified fault injection, detection, and recovery.

One subsystem for every way ReSiPE silicon goes wrong, and for what a
deployed chip does about it:

* :mod:`repro.faults.injectors` — the :class:`FaultInjector` protocol
  unifying stuck-at defects, process variation and retention drift
  behind one composable ``apply(g, rng, spec)`` call
  (:class:`CompositeInjector` chains them).
* :mod:`repro.faults.probe` — :class:`HealthProbe`, the single-spike
  analog of memory BIST: fire known calibration vectors through each
  mapped layer and flag columns whose response deviates from the
  pristine golden response.
* :mod:`repro.faults.campaign` — :class:`FaultCampaign`, a seeded,
  resumable Monte-Carlo sweep over fault rate × sigma × age whose
  per-trial records persist through the
  :class:`~repro.store.ArtifactStore`.

Recovery itself lives with the mapping layer
(:func:`repro.mapping.remap.detect_and_remap`) so the mapping package
stays importable without this one.
"""

from .injectors import (
    CompositeInjector,
    DriftInjector,
    FaultInjector,
    StuckAtInjector,
    VariationInjector,
)
from .probe import HealthProbe, LayerProbeReport
from .campaign import (
    CampaignResult,
    CampaignSpec,
    FaultCampaign,
    render_campaign,
)

__all__ = [
    "FaultInjector",
    "StuckAtInjector",
    "VariationInjector",
    "DriftInjector",
    "CompositeInjector",
    "HealthProbe",
    "LayerProbeReport",
    "CampaignSpec",
    "CampaignResult",
    "FaultCampaign",
    "render_campaign",
]
