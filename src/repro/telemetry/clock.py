"""The one place the library reads wall/CPU clocks.

Every span timing, latency sample and manifest timestamp comes
from these four functions, so timings are comparable across subsystems
and the ``TEL001`` lint rule can enforce that no instrumentation grows
outside the telemetry layer (scattered ``time.perf_counter()`` calls
are exactly how ad-hoc, inconsistent metrics creep back in).

``benchmarks/`` is exempt: harness scripts time their *own* measurement
loops, and routing those through the subsystem under test would let the
instrumentation distort what it measures.
"""

from __future__ import annotations

import time

__all__ = ["wall", "monotonic", "perf", "cpu"]


def wall() -> float:
    """Epoch seconds (``time.time``) — manifest timestamps only."""
    return time.time()


def monotonic() -> float:
    """Monotonic seconds (``time.monotonic``) — deadlines, timeouts."""
    return time.monotonic()


def perf() -> float:
    """High-resolution monotonic seconds (``time.perf_counter``) —
    span durations and latency histograms."""
    return time.perf_counter()


def cpu() -> float:
    """Process CPU seconds (``time.process_time``) — span CPU cost."""
    return time.process_time()
