"""Unified telemetry: metrics registry, span tracer, run manifests.

The instrumentation substrate for the whole library — every subsystem
that wants to report an MVM count, a cell latency or a remap event
goes through this package instead of rolling its own counters or
calling :mod:`time` directly (enforced by lint rule ``TEL001``).

Design invariants:

* **Zero dependency** — stdlib + numpy only.
* **Zero overhead when disabled** — the module-level helpers reduce to
  one global load and a ``None`` check; ``span()`` returns a shared
  stateless null context manager.
* **Execution knob, not spec** — enabling telemetry never changes
  experiment bytes, fingerprints or RNG streams (histogram reservoirs
  use their own seeded generators).

``repro.telemetry.report`` (the ``repro report`` renderer) is *not*
re-exported here so importing the instrumentation layer stays light.
"""

from .clock import cpu, monotonic, perf, wall
from .context import (
    TraceContext,
    TraceIdAllocator,
    current_trace_id,
    trace_scope,
)
from .logging import StructuredLogger, get_logger
from .manifest import MANIFEST_VERSION, RunManifest
from .metrics import Counter, Gauge, MetricsRegistry, StreamingHistogram
from .session import (
    TelemetrySession,
    active,
    capture,
    count,
    disable,
    enable,
    observe,
    set_gauge,
    span,
)
from .tracer import Span, Tracer

__all__ = [
    "wall", "monotonic", "perf", "cpu",
    "Counter", "Gauge", "StreamingHistogram", "MetricsRegistry",
    "Span", "Tracer",
    "TraceContext", "TraceIdAllocator", "current_trace_id", "trace_scope",
    "StructuredLogger", "get_logger",
    "RunManifest", "MANIFEST_VERSION",
    "TelemetrySession", "enable", "disable", "active", "capture",
    "count", "observe", "set_gauge", "span",
]
