"""Parallel campaign runtime: seed partitioning + DAG scheduling.

The speed layer under the Monte-Carlo studies:

* :mod:`repro.runtime.seeding` — per-trial
  :class:`~numpy.random.SeedSequence` children keyed by trial identity,
  so streams are independent of worker count, batch grouping and
  execution order;
* :mod:`repro.runtime.scheduler` — :class:`CampaignScheduler`, a
  dependency-aware DAG of :class:`CampaignCell` nodes (shared
  model-build cells feeding per-sigma trial-group cells) executed in
  waves, in-process or on a crash-tolerant process pool whose results
  are byte-identical to serial execution for seeding-disciplined
  workers, with a ``completed`` probe for cell-granularity resume.

Consumers: :class:`repro.faults.FaultCampaign` (``run(workers=...,
trial_batch=...)``) and :func:`repro.experiments.fig7_accuracy.run_fig7`
— both surfaced through the ``repro faults`` / ``repro fig7`` CLI via
``--workers`` / ``--trial-batch``.
"""

from .scheduler import CampaignCell, CampaignScheduler
from .seeding import trial_rng, trial_seed_sequence

__all__ = [
    "CampaignCell",
    "CampaignScheduler",
    "trial_rng",
    "trial_seed_sequence",
]
