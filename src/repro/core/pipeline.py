"""Two-slice multi-layer pipelining (paper Fig. 1 and conclusion).

The single-spiking format makes the output slice of layer *n* literally
the input slice of layer *n+1*: "the output of layer n will be generated
in the second slice (S2), which can be directly used as the input of its
subsequent layer".  With one ReSiPE engine per layer this yields a
pipeline with an initiation interval of **two slices** per sample and a
fill latency of ``L + 1`` slices for ``L`` layers (S2ₙ ≡ S1ₙ₊₁ overlap),
versus ``2L`` slices per sample without pipelining.

:func:`schedule_pipeline` produces the explicit slice-level schedule and
verifies that no engine is double-booked — the scheduler is what the
conclusion's "post-spike latency could be potentially reduced by
multi-layer pipelining" claim rests on, so we make it concrete and
testable.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Dict, List, Tuple

from ..errors import ConfigurationError

__all__ = ["LayerTask", "PipelineSchedule", "schedule_pipeline"]


@dataclasses.dataclass(frozen=True)
class LayerTask:
    """One slice of work on one engine.

    Attributes
    ----------
    layer:
        Layer index (0-based).
    sample:
        Sample index (0-based).
    stage:
        ``"S1"`` (input decode) or ``"S2"`` (output generation).  The
        computation stage rides the tail of S1.
    slot:
        Global slice index occupied.
    """

    layer: int
    sample: int
    stage: str
    slot: int


@dataclasses.dataclass(frozen=True)
class PipelineSchedule:
    """A validated slice-level schedule for a layered network.

    Attributes
    ----------
    tasks:
        All tasks ordered by slot.
    num_layers, num_samples:
        Workload dimensions.
    slice_length:
        Duration of one slice (seconds).
    pipelined:
        Whether cross-layer overlap was applied.
    """

    tasks: Tuple[LayerTask, ...]
    num_layers: int
    num_samples: int
    slice_length: float
    pipelined: bool

    @property
    def total_slices(self) -> int:
        """Number of slices from first S1 to last S2 (makespan)."""
        return max(t.slot for t in self.tasks) + 1

    @property
    def makespan(self) -> float:
        """Wall-clock duration of the whole batch (seconds)."""
        return self.total_slices * self.slice_length

    @property
    def sample_latency_slices(self) -> int:
        """Slices from a sample's first S1 to its last S2 (inclusive)."""
        first = min(t.slot for t in self.tasks if t.sample == 0)
        last = max(t.slot for t in self.tasks if t.sample == 0)
        return last - first + 1

    @property
    def sample_latency(self) -> float:
        """Per-sample latency (seconds)."""
        return self.sample_latency_slices * self.slice_length

    @property
    def initiation_interval_slices(self) -> int:
        """Slices between consecutive sample launches."""
        if self.num_samples < 2:
            return self.sample_latency_slices
        starts = sorted(
            min(t.slot for t in self.tasks if t.sample == s)
            for s in range(self.num_samples)
        )
        return starts[1] - starts[0]

    @property
    def throughput(self) -> float:
        """Steady-state samples per second."""
        return 1.0 / (self.initiation_interval_slices * self.slice_length)

    def engine_occupancy(self) -> Dict[int, float]:
        """Fraction of the makespan each layer's engine is busy."""
        busy: Dict[int, int] = {}
        for t in self.tasks:
            busy[t.layer] = busy.get(t.layer, 0) + 1
        return {layer: count / self.total_slices for layer, count in busy.items()}


def schedule_pipeline(
    num_layers: int,
    num_samples: int,
    slice_length: float,
    pipelined: bool = True,
) -> PipelineSchedule:
    """Build and validate the slice schedule.

    Pipelined placement: sample ``k``, layer ``n`` (0-based) runs S1 in
    slot ``2k + n`` and S2 in slot ``2k + n + 1``; layer ``n``'s S2 slot
    coincides with layer ``n+1``'s S1 slot (shared slice, different
    engines).  Non-pipelined placement serialises everything.

    Raises
    ------
    ConfigurationError
        On non-int or non-positive dimensions, a non-finite or
        non-positive slice length, or if validation detects an engine
        booked for two different samples in one slot (cannot happen with the
        built-in placements; guards future schedulers).
    """
    if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
               and n >= 1 for n in (num_layers, num_samples)):
        raise ConfigurationError(
            f"need int >= 1 layers and samples, got {num_layers!r} layers, "
            f"{num_samples!r} samples"
        )
    if not (slice_length > 0 and math.isfinite(slice_length)):
        raise ConfigurationError(f"slice length must be finite and > 0, got {slice_length!r}")

    tasks: List[LayerTask] = []
    for k in range(num_samples):
        for n in range(num_layers):
            if pipelined:
                s1 = 2 * k + n
            else:
                s1 = k * (2 * num_layers) + 2 * n
            tasks.append(LayerTask(layer=n, sample=k, stage="S1", slot=s1))
            tasks.append(LayerTask(layer=n, sample=k, stage="S2", slot=s1 + 1))

    # An engine may host S2 of sample k and S1 of sample k' in the same
    # slot only if they are the same physical activity; with the ReSiPE
    # two-slice protocol each engine does one thing per slot.
    seen: Dict[Tuple[int, int], Tuple[int, str]] = {}
    for t in tasks:
        key = (t.layer, t.slot)
        if key in seen and seen[key] != (t.sample, t.stage):
            raise ConfigurationError(
                f"engine {t.layer} double-booked in slot {t.slot}: "
                f"{seen[key]} vs {(t.sample, t.stage)}"
            )
        seen[key] = (t.sample, t.stage)

    tasks.sort(key=lambda t: (t.slot, t.layer, t.stage))
    return PipelineSchedule(
        tasks=tuple(tasks),
        num_layers=num_layers,
        num_samples=num_samples,
        slice_length=slice_length,
        pipelined=pipelined,
    )
