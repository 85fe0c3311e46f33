"""Spike signal types.

The single-spiking data format (paper Section III-A) represents a datum as
the arrival time of exactly one spike inside a fixed-length time slice.
:class:`SingleSpike` is that signal.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..errors import EncodingError
from ..units import NANO

__all__ = ["SingleSpike", "NO_SPIKE"]


@dataclasses.dataclass(frozen=True)
class SingleSpike:
    """One spike inside a time slice.

    Attributes
    ----------
    time:
        Rising-edge arrival time measured from the beginning of the slice
        (seconds).  ``None`` denotes "no spike in this slice", which the
        single-spiking format uses for a zero / fully-suppressed datum.
    width:
        Pulse width (seconds).  The encoded value is independent of the
        width (paper Section III-A: "independent of spike width and
        shape"); the width only matters for driver energy.
    """

    time: Optional[float]
    width: float = 1 * NANO

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise EncodingError(f"spike width must be positive, got {self.width!r}")
        if self.time is not None and self.time < 0:
            raise EncodingError(f"spike time must be >= 0, got {self.time!r}")

    @property
    def fired(self) -> bool:
        """Whether a spike is present in the slice."""
        return self.time is not None

    def within(self, slice_length: float) -> bool:
        """Whether the rising edge falls inside a slice of this length."""
        return self.time is not None and 0 <= self.time <= slice_length

    def delayed(self, delay: float) -> "SingleSpike":
        """A copy shifted later in time by ``delay`` seconds."""
        if self.time is None:
            return self
        return SingleSpike(time=self.time + delay, width=self.width)

    def waveform_points(
        self, slice_length: float, high: float = 1.0
    ) -> List[Tuple[float, float]]:
        """Piecewise-constant (time, level) points for plotting the pulse."""
        if self.time is None:
            return [(0.0, 0.0), (slice_length, 0.0)]
        t0 = self.time
        t1 = min(self.time + self.width, slice_length)
        return [(0.0, 0.0), (t0, high), (t1, 0.0), (slice_length, 0.0)]


#: Convenience instance representing the absence of a spike.
NO_SPIKE = SingleSpike(time=None)
