"""Resilience primitives shared by the serving stack.

Five small, independently-testable pieces:

:class:`ServingMetrics`
    The always-on event counters of one batcher (or of the daemon).
    Every write is also mirrored to the active telemetry session, so a
    serving event is counted once and seen by both ``/metrics`` and the
    run manifest.

:class:`ServiceTimeEstimator`
    An EWMA of recent batch service times.  The batcher feeds it every
    flush and reads it back at enqueue to decide whether a request with
    a ``deadline_ms`` can plausibly be answered in time (deadline-aware
    admission control), and again at dequeue to drop requests that can
    no longer make it.

:class:`CircuitBreaker`
    The classic three-state breaker around one model's forward path:
    *closed* (normal), *open* after ``threshold`` consecutive compute
    failures (submits fail fast with
    :class:`~repro.errors.CircuitOpenError` for ``cooldown_s``), then
    *half-open* — one probe batch is allowed through; success closes
    the breaker, failure re-opens it for another cooldown.

:class:`ComputePool`
    A rebuildable wrapper around the serving daemon's one-thread
    :class:`~concurrent.futures.ThreadPoolExecutor`.  When a forward
    pass exceeds the compute timeout the pool is *rebuilt*: the old
    executor (with its possibly-hung thread) is abandoned with
    ``shutdown(wait=False)`` and a fresh one takes over, so one stuck
    batch cannot wedge the daemon.

:class:`RetryPolicy`
    Client-side seeded-jitter capped exponential backoff.  Honors
    server ``Retry-After`` hints, retries only transient outcomes
    (429/503 and transport failures — predict is idempotent, a pure
    function of its inputs), and is bounded by both an attempt count
    and a total wall-clock budget.

Everything here reads clocks through :mod:`repro.telemetry.clock` so
timings stay comparable with the rest of the instrumentation (and the
``TEL001`` lint rule holds).
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional

import numpy as np

from ..errors import ConfigurationError
from ..telemetry import session as _telemetry
from ..telemetry.clock import monotonic as _monotonic
from ..telemetry.logging import get_logger
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.openmetrics import sanitize_metric_name

_logger = get_logger("repro.serving.resilience")

__all__ = [
    "ServingMetrics",
    "ServiceTimeEstimator",
    "CircuitBreaker",
    "ComputePool",
    "RetryPolicy",
]


class ServingMetrics(MetricsRegistry):
    """A serving registry whose every write is mirrored to the active
    telemetry session.

    One naming rule covers the three views of a metric ``N``: the
    session mirror is ``serve.N``, the ``/metrics`` JSON key is
    ``sanitize_metric_name(N)``, and the OpenMetrics family is
    ``repro_serve_`` plus that key (``shed.deadline`` →
    ``serve.shed.deadline``, ``shed_deadline``,
    ``repro_serve_shed_deadline_total``).  Both ``/metrics`` forms read
    this registry, never the session, so they are identical whether
    telemetry is on or off.

    ``counters`` are registered at zero, so every one of them is listed
    from the first scrape.
    """

    def __init__(self, *counters: str) -> None:
        super().__init__()
        for name in counters:
            self.counter(name)

    def count(self, name: str, n: float = 1) -> None:
        super().count(name, n)
        _telemetry.count("serve." + name, n)

    def set_gauge(self, name: str, value: float) -> None:
        super().set_gauge(name, value)
        _telemetry.set_gauge("serve." + name, value)

    def counter_values(self) -> Dict[str, float]:
        """Counter values by their ``/metrics`` JSON key, in
        registration order."""
        return {sanitize_metric_name(name): counter.value
                for name, counter in self._counters.items()}


class ServiceTimeEstimator:
    """EWMA of batch service seconds; ``None`` until the first sample.

    ``value = alpha * sample + (1 - alpha) * value`` — a small ``alpha``
    smooths over noisy batches, a large one tracks load shifts faster.
    Alongside the mean it tracks an EWMA of the absolute deviation
    (``dev``) and a decayed recent ``peak``, and admission decisions
    use the *pessimistic* :meth:`budget` — the larger of mean + ``k``
    deviations and the peak — so that a request is admitted only if it
    would make its deadline even when its batch lands in the
    service-time tail, not just on an average day.

    Admission control deliberately starts *optimistic*: with no sample
    yet every deadline is admitted, and the first flush calibrates it.
    """

    def __init__(self, alpha: float = 0.25) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(
                f"EWMA alpha must be in (0, 1], got {alpha!r}"
            )
        self.alpha = alpha
        self.value: Optional[float] = None
        self.dev = 0.0
        self.peak = 0.0
        self.samples = 0

    def observe(self, service_s: float) -> float:
        """Fold one batch service time in; returns the new estimate."""
        sample = float(service_s)
        if self.value is None:
            self.value = sample
            self.peak = sample
        else:
            self.dev += self.alpha * (abs(sample - self.value) - self.dev)
            self.value += self.alpha * (sample - self.value)
            # Decayed peak: jumps to any new maximum instantly, then
            # relaxes toward the mean at the EWMA rate.  Service-time
            # stalls are heavy-tailed (scheduler/GC pauses, cache-cold
            # batches), and mean + k*MAD alone badly under-covers them.
            self.peak = max(
                sample, self.peak + self.alpha * (self.value - self.peak)
            )
        self.samples += 1
        return self.value

    def budget(self, k: float = 2.0) -> Optional[float]:
        """Tail-aware service estimate (``None`` until the first
        sample): the larger of mean + ``k`` mean absolute deviations
        and the decayed recent peak."""
        if self.value is None:
            return None
        return max(self.value + k * self.dev, self.peak)


class CircuitBreaker:
    """Closed → open after ``threshold`` consecutive failures →
    half-open probe after ``cooldown_s`` → closed on probe success.

    The clock is injectable (monotonic seconds) so state transitions
    are testable without sleeping.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        threshold: int = 5,
        cooldown_s: float = 1.0,
        clock: Callable[[], float] = _monotonic,
        name: str = "",
    ) -> None:
        if threshold < 1:
            raise ConfigurationError(
                f"breaker threshold must be >= 1, got {threshold!r}"
            )
        if cooldown_s < 0:
            raise ConfigurationError(
                f"breaker cooldown must be >= 0, got {cooldown_s!r}"
            )
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.name = name
        self._clock = clock
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: lifetime transition counters (metrics snapshot)
        self.opens_total = 0
        self.probes_total = 0

    @property
    def state(self) -> str:
        """Current state, promoting open → half-open once cooled down."""
        if (
            self._state == self.OPEN
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = self.HALF_OPEN
            self.probes_total += 1
        return self._state

    def retry_after(self) -> float:
        """Seconds until an open breaker half-opens (0 when not open)."""
        if self._state != self.OPEN:
            return 0.0
        return max(0.0, self.cooldown_s - (self._clock() - self._opened_at))

    def admit(self) -> bool:
        """May a new request enter the queue right now?

        Closed and half-open admit (half-open requests become the probe
        batch); open rejects until the cooldown elapses.
        """
        return self.state != self.OPEN

    def record_failure(self) -> None:
        """One compute failure (a failed or timed-out batch)."""
        state = self.state
        self._consecutive_failures += 1
        if state == self.HALF_OPEN or (
            state == self.CLOSED
            and self._consecutive_failures >= self.threshold
        ):
            self._state = self.OPEN
            self._opened_at = self._clock()
            self.opens_total += 1
            _logger.warning(
                "circuit breaker opened",
                breaker=self.name,
                consecutive_failures=self._consecutive_failures,
                cooldown_s=self.cooldown_s,
            )

    def record_success(self) -> None:
        """One successful batch: closes from any state."""
        self._consecutive_failures = 0
        if self._state != self.CLOSED:
            _logger.warning(
                "circuit breaker closed", breaker=self.name,
                probes_total=self.probes_total,
            )
        self._state = self.CLOSED


class ComputePool:
    """A rebuildable one-thread pool shared by a daemon's batchers.

    One thread serialises compute, which keeps the executor's
    MVM-launch counters exact for per-request energy accounting.
    ``rebuild()`` abandons the current executor without waiting — a
    hung forward pass keeps its thread, but the daemon gets a fresh
    pool and keeps serving — and counts ``compute.rebuilds`` in
    ``metrics`` (the daemon passes its own registry).  Call it only
    from the event-loop thread (the batchers' coalescers), which
    serialises rebuilds.
    """

    def __init__(self, metrics: Optional[ServingMetrics] = None) -> None:
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self._executor = self._make()

    @staticmethod
    def _make() -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )

    @property
    def executor(self) -> ThreadPoolExecutor:
        return self._executor

    def rebuild(self) -> None:
        """Abandon the current executor (hung threads and all)."""
        old, self._executor = self._executor, self._make()
        self.metrics.count("compute.rebuilds")
        old.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Seeded-jitter capped exponential backoff for idempotent predicts.

    Attributes
    ----------
    max_attempts:
        Total tries including the first (1 disables retrying).
    base_backoff_s / max_backoff_s:
        Attempt ``k`` (0-based retry index) backs off
        ``base * 2**k``, capped at ``max_backoff_s``, then jittered.
    jitter:
        Uniform multiplicative jitter in ``[1, 1 + jitter]`` drawn from
        a Generator seeded with ``seed`` — two clients with different
        seeds desynchronise, one client replays its exact schedule.
    total_budget_s:
        Hard wall-clock bound on cumulative backoff *sleep*: retrying
        stops once the next sleep would exceed it.
    seed:
        Jitter stream seed.
    retry_statuses:
        HTTP statuses worth retrying — transient server-side refusals
        (429 backpressure, 503 shed/breaker/drain).  4xx client errors
        and 500 model bugs are never retried.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    jitter: float = 0.5
    total_budget_s: float = 10.0
    seed: int = 0
    retry_statuses: frozenset = frozenset({429, 503})

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.base_backoff_s < 0 or self.max_backoff_s < self.base_backoff_s:
            raise ConfigurationError(
                "need 0 <= base_backoff_s <= max_backoff_s, got "
                f"{self.base_backoff_s!r}/{self.max_backoff_s!r}"
            )
        if self.jitter < 0:
            raise ConfigurationError(
                f"jitter must be >= 0, got {self.jitter!r}"
            )
        if self.total_budget_s < 0:
            raise ConfigurationError(
                f"total_budget_s must be >= 0, got {self.total_budget_s!r}"
            )
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be >= 0, got {self.seed!r}"
            )

    def rng(self) -> np.random.Generator:
        """A fresh jitter stream (one per logical request)."""
        return np.random.default_rng(self.seed)

    def should_retry_status(self, status: int) -> bool:
        return status in self.retry_statuses

    def backoff_s(
        self,
        attempt: int,
        rng: np.random.Generator,
        retry_after_s: Optional[float] = None,
    ) -> float:
        """Sleep before retry ``attempt`` (0-based), honoring a server
        ``Retry-After`` hint when it asks for *more* patience than the
        schedule would have used."""
        delay = min(
            self.base_backoff_s * (2.0 ** attempt), self.max_backoff_s
        )
        delay *= 1.0 + self.jitter * float(rng.random())
        if retry_after_s is not None:
            delay = max(delay, float(retry_after_s))
        return delay
