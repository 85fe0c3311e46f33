"""Named counters, gauges and streaming histograms.

A :class:`MetricsRegistry` is a flat namespace of metrics keyed by
dotted lowercase names (``mvm.count``, ``serve.latency_seconds``).
Instruments are created on first use and are plain mutable objects —
no locks, no background threads, no third-party client.

Histograms keep a fixed-size reservoir (algorithm R) so quantile
estimates stay O(1) memory for arbitrarily long runs.  The reservoir's
replacement draws come from a :class:`numpy.random.Generator` seeded
from the registry seed and the metric name, so a telemetry snapshot is
a deterministic function of the observation sequence — and, crucially,
the draws never touch any experiment RNG stream: enabling telemetry
cannot change what an experiment computes.
"""

from __future__ import annotations

import bisect
import collections
import math
import zlib
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import clock

__all__ = [
    "Counter", "Gauge", "StreamingHistogram", "MetricsRegistry",
    "DEFAULT_BUCKET_BOUNDS",
]

# Log-spaced default histogram buckets (1-2.5-5 per decade), wide
# enough to cover microsecond span costs and multi-second campaigns.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)


class Counter:
    """A monotonic-by-convention accumulator (negative deltas allowed
    for explicit retractions, e.g. the store un-counting a hit whose
    payload failed to decode)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: float = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A last-value-wins instrument (e.g. worker utilisation).

    Every ``set`` also lands in a fixed-size ring of
    ``(wall_seconds, value)`` samples, so scrapes can report the recent
    trend of fast-moving gauges (queue depth, utilisation) without
    unbounded memory.
    """

    RING_SIZE = 64

    __slots__ = ("name", "value", "_ring")

    def __init__(self, name: str, ring_size: int = RING_SIZE) -> None:
        self.name = name
        self.value: Optional[float] = None
        self._ring: Deque[Tuple[float, float]] = collections.deque(
            maxlen=ring_size
        )

    def set(self, value: float) -> None:
        self.value = float(value)
        self._ring.append((clock.wall(), self.value))

    def samples(self) -> List[Tuple[float, float]]:
        """The retained ``(wall, value)`` ring, oldest first."""
        return list(self._ring)

    def trend(self) -> dict:
        """Min/mean/max summary over the retained ring."""
        if not self._ring:
            return {"count": 0, "min": None, "mean": None, "max": None,
                    "window_s": 0.0}
        values = [value for _, value in self._ring]
        return {
            "count": len(values),
            "min": min(values),
            "mean": sum(values) / len(values),
            "max": max(values),
            "window_s": self._ring[-1][0] - self._ring[0][0],
        }

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class StreamingHistogram:
    """Streaming distribution summary over a fixed seeded reservoir.

    Exact while the observation count stays within ``reservoir_size``
    (every sample is retained, so quantiles match a numpy reference on
    the full sequence); beyond that it degrades gracefully to a uniform
    random sample maintained by algorithm R.
    """

    __slots__ = ("name", "reservoir_size", "count", "total",
                 "min", "max", "bounds", "_bucket_counts",
                 "_buffer", "_rng")

    def __init__(self, name: str, reservoir_size: int = 1024,
                 seed: int = 0,
                 bounds: Optional[Sequence[float]] = None) -> None:
        from ..errors import ConfigurationError

        if reservoir_size < 1:
            raise ConfigurationError(
                f"reservoir_size must be >= 1, got {reservoir_size!r}"
            )
        self.name = name
        self.reservoir_size = reservoir_size
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        # Fixed le-bucket bounds (exact counts, unlike the sampled
        # reservoir) for OpenMetrics exposition; last slot is +Inf.
        self.bounds: Tuple[float, ...] = tuple(
            sorted(bounds) if bounds is not None else DEFAULT_BUCKET_BOUNDS
        )
        self._bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self._buffer: List[float] = []
        self._rng = np.random.default_rng(seed)

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        self._bucket_counts[bisect.bisect_left(self.bounds, v)] += 1
        if len(self._buffer) < self.reservoir_size:
            self._buffer.append(v)
        else:
            slot = int(self._rng.integers(0, self.count))
            if slot < self.reservoir_size:
                self._buffer[slot] = v

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le_bound, cumulative_count)`` pairs ending at ``+Inf``.

        Counts are exact (every observation increments exactly one
        underlying bucket) and non-decreasing in ``le`` order, matching
        the Prometheus/OpenMetrics histogram contract.
        """
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self._bucket_counts):
            running += n
            pairs.append((bound, running))
        pairs.append((math.inf, running + self._bucket_counts[-1]))
        return pairs

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (exact below the reservoir size)."""
        if not self._buffer:
            return math.nan
        return float(np.percentile(self._buffer, 100.0 * q))

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean if self.count else None,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.quantile(0.50) if self.count else None,
            "p95": self.quantile(0.95) if self.count else None,
            "p99": self.quantile(0.99) if self.count else None,
        }

    def __repr__(self) -> str:
        return (f"StreamingHistogram({self.name!r}, count={self.count}, "
                f"mean={self.mean if self.count else None})")


class MetricsRegistry:
    """Get-or-create namespace of counters, gauges and histograms.

    Parameters
    ----------
    seed:
        Base seed for histogram reservoirs; each histogram derives its
        own stream from ``seed + crc32(name)`` (the same discipline as
        :mod:`repro.runtime.seeding`), so snapshots are deterministic
        and independent of creation order.
    reservoir_size:
        Per-histogram sample capacity.
    """

    def __init__(self, seed: int = 0, reservoir_size: int = 1024) -> None:
        self.seed = seed
        self.reservoir_size = reservoir_size
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, StreamingHistogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> StreamingHistogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = StreamingHistogram(
                name,
                reservoir_size=self.reservoir_size,
                seed=self.seed + zlib.crc32(name.encode()),
            )
        return metric

    # convenience write paths ------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # read paths (name-sorted, for exposition renderers) ---------------
    def counters(self) -> List[Counter]:
        return [self._counters[name] for name in sorted(self._counters)]

    def gauges(self) -> List[Gauge]:
        return [self._gauges[name] for name in sorted(self._gauges)]

    def histograms(self) -> List[StreamingHistogram]:
        return [self._histograms[name] for name in sorted(self._histograms)]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view of every metric (sorted, stable)."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].snapshot()
                           for name in sorted(self._histograms)},
        }

    def __repr__(self) -> str:
        return (f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})")
