"""Cross-request micro-batching with bounded queues, backpressure,
deadline-aware admission control and a per-model circuit breaker.

One :class:`MicroBatcher` serves one model.  Concurrent predict
requests land in a bounded deque; a coalescer task flushes as soon as
a request is pending, merging up to ``max_batch`` queued requests into
a single ``(rows, ...)`` forward pass on the compute pool — under an
ensemble, a single stacked trial-tensor pass — and scatters the label
slices back to each caller's future.  There is no coalescing timer:
the coalescer runs one flush at a time, so a batch is whatever queued
behind the previous flush (opportunistic batching), and a lone request
on an idle model flushes at once.  Batch membership is an execution
detail: a request's labels are identical whether it rode with 31
companions or alone.

Backpressure: once ``queue_depth`` requests are pending, further
submits raise :class:`~repro.errors.BackpressureError` immediately
(the HTTP layer answers 429) instead of queueing unbounded work in
front of a saturated chip.

Deadline-aware admission: a request may carry a ``deadline_s`` budget.
At enqueue, an EWMA of recent batch service times
(:class:`~repro.serving.resilience.ServiceTimeEstimator`) predicts how
long the queue ahead plus the request's own batch will take; if the
prediction already misses the deadline the request is *shed* with
:class:`~repro.errors.DeadlineExceededError` (HTTP 503 + a computed
``Retry-After`` — deliberately distinct from the queue-depth 429,
which says "the queue is full", not "you are too late").  Expiry is
re-checked at dequeue so a request that aged out while waiting never
wastes a forward pass.

Compute supervision: every flush runs under ``compute_timeout_s``; a
batch that exceeds it is failed with
:class:`~repro.errors.ExecutionError` — no waiter is ever abandoned —
and the shared :class:`~repro.serving.resilience.ComputePool` is
rebuilt so the hung thread cannot wedge the daemon.  Batch outcomes
feed a per-model :class:`~repro.serving.resilience.CircuitBreaker`:
after ``threshold`` consecutive failures the model fails fast with
:class:`~repro.errors.CircuitOpenError` for a cooldown, then one
half-open probe batch decides whether to close again.

Drain: :meth:`drain` stops intake, lets the coalescer flush every
pending request, then waits for one no-op on the compute pool as an
end-of-stream barrier; the barrier is not a batch, so it records no
breaker or batch outcome.  :meth:`abort` is the impatient
sibling used when the drain grace period expires: it *fails* every
unresolved waiter instead of hanging them.

Energy accounting rides on the executor's existing MVM-launch
counters: the compute thread snapshots ``total_mvm_launches`` around
each flush and each request is billed its row-proportional share — no
second instrumentation path (the pool's single thread never interleaves
two flushes, so the shares are exact).

Metrics: every serving event is one write to the batcher's always-on
:class:`~repro.serving.resilience.ServingMetrics`, which mirrors it to
the active telemetry session; the daemon renders both ``/metrics``
forms from these registries.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..errors import (
    BackpressureError,
    CircuitOpenError,
    DeadlineExceededError,
    ExecutionError,
)
from ..telemetry import session as _telemetry
from ..telemetry.clock import perf
from ..telemetry.tracer import Span
from .registry import ModelEntry
from .resilience import (
    CircuitBreaker,
    ComputePool,
    ServiceTimeEstimator,
    ServingMetrics,
)

__all__ = ["MicroBatcher", "PredictResult"]


@dataclasses.dataclass
class PredictResult:
    """What one coalesced request gets back.

    Attributes
    ----------
    predictions:
        Labels for this request's rows only.
    batch_requests / batch_rows:
        Size of the batch this request rode in.
    queue_seconds:
        Enqueue-to-flush wait.
    mvm_launches:
        Row-proportional share of the batch's tile-MVM launches (the
        unit :meth:`~repro.mapping.executor.PIMExecutor.energy_estimate`
        prices).
    ensemble_trials:
        Realizations voted over (0 = plain single-network predict).
    """

    predictions: np.ndarray
    batch_requests: int
    batch_rows: int
    queue_seconds: float
    mvm_launches: float
    ensemble_trials: int


@dataclasses.dataclass
class _Pending:
    x: np.ndarray
    future: "asyncio.Future[PredictResult]"
    enqueued: float
    #: absolute perf() deadline, or None for "no deadline"
    deadline: Optional[float] = None
    #: the request's ``serve.request`` root span (trace identity rides
    #: on it), or None when telemetry is disabled
    span: Optional[Span] = None


class MicroBatcher:
    """Coalesces predict requests for one :class:`ModelEntry`."""

    def __init__(
        self,
        entry: ModelEntry,
        compute: ComputePool,
        max_batch: int = 32,
        queue_depth: int = 128,
        compute_timeout_s: float = 0.0,
        breaker: Optional[CircuitBreaker] = None,
        chaos=None,
    ) -> None:
        self.entry = entry
        self._compute = compute
        self.max_batch = max_batch
        self.queue_depth = queue_depth
        self.compute_timeout_s = compute_timeout_s
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.estimator = ServiceTimeEstimator()
        self._chaos = chaos
        self._pending: Deque[_Pending] = collections.deque()
        self._inflight: List[_Pending] = []
        #: end of the previous flush while the queue stayed busy, or
        #: None after idle/failure — lets the estimator sample the full
        #: batch *cycle* (compute + event-loop gap), which is what
        #: queue-wait prediction needs (see _flush).
        self._cycle_anchor: Optional[float] = None
        self._arrival = asyncio.Event()
        self._draining = False
        self._task: Optional["asyncio.Task[None]"] = None
        #: lifetime event counters and the ``queue_depth`` gauge (set at
        #: every depth change; its ring is the /metrics depth trend)
        self.metrics = ServingMetrics(
            "requests", "rejected", "batches", "coalesced",
            "shed.deadline", "shed.expired", "breaker.rejected",
            "compute.failures", "compute.timeouts",
        )
        self._depth_changed()
        #: largest admitted relative deadline (the SLO budget clients
        #: actually asked for); 0.0 until a deadline request is admitted
        self.deadline_budget_max_s = 0.0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the coalescer task on the running loop."""
        self._task = asyncio.get_running_loop().create_task(self._run())

    @property
    def depth(self) -> int:
        """Requests currently queued (the backpressure measure)."""
        return len(self._pending)

    def _depth_changed(self) -> None:
        self.metrics.set_gauge("queue_depth", len(self._pending))

    def _estimated_wait(self) -> Optional[float]:
        """Predicted seconds until a request enqueued *now* is answered
        (``None`` until the EWMA has its first sample).

        With requests queued ahead, the prediction uses the tail-aware
        service budget (mean + 2 deviations), so admission holds the
        deadline even when a batch lands in the service-time tail.  With
        an *empty* queue it deliberately falls back to the mean: there
        is no congestion to protect against, and an admitted request is
        also the probe that keeps the estimator fresh — a pessimistic
        deviation spike must not be able to shed every future request
        and freeze the estimate forever."""
        value = self.estimator.value
        if value is None:
            return None
        batches_ahead = len(self._pending) // self.max_batch + 1
        if self._inflight:
            # A batch on the compute pool right now must finish before
            # anything queued behind it is flushed.
            batches_ahead += 1
        busy = self._pending or self._inflight
        service = self.estimator.budget() if busy else value
        return batches_ahead * service

    async def submit(
        self, x: np.ndarray, deadline_s: Optional[float] = None,
        span: Optional[Span] = None,
    ) -> PredictResult:
        """Queue one request's rows; resolves when its batch flushed.

        ``deadline_s`` is the caller's relative latency budget: the
        request is shed (:class:`~repro.errors.DeadlineExceededError`)
        if the service-time EWMA predicts it cannot be answered in
        time, or if it expires while queued.
        """
        if self._draining:
            self.metrics.count("rejected")
            raise BackpressureError(
                f"model {self.entry.name!r} is draining for shutdown"
            )
        if not self.breaker.admit():
            self.metrics.count("breaker.rejected")
            retry_after = self.breaker.retry_after()
            raise CircuitOpenError(
                f"model {self.entry.name!r} circuit breaker is open after "
                "repeated compute failures; retry after cooldown",
                retry_after_s=retry_after,
            )
        if len(self._pending) >= self.queue_depth:
            self.metrics.count("rejected")
            raise BackpressureError(
                f"model {self.entry.name!r} queue is full "
                f"({self.queue_depth} pending requests); retry later"
            )
        if deadline_s is not None:
            wait = self._estimated_wait()
            if wait is not None and wait > deadline_s:
                self.metrics.count("shed.deadline")
                retry_after = max(
                    wait - deadline_s, self.estimator.value or 0.0
                )
                raise DeadlineExceededError(
                    f"model {self.entry.name!r} queue wait is predicted at "
                    f"{wait * 1e3:.1f} ms, beyond the "
                    f"{deadline_s * 1e3:.1f} ms deadline; shed at admission",
                    retry_after_s=retry_after,
                )
        self.metrics.count("requests")
        if deadline_s is not None and deadline_s > self.deadline_budget_max_s:
            self.deadline_budget_max_s = deadline_s
        now = perf()
        item = _Pending(
            x=x,
            future=asyncio.get_running_loop().create_future(),
            enqueued=now,
            deadline=None if deadline_s is None else now + deadline_s,
            span=span,
        )
        self._pending.append(item)
        self._depth_changed()
        self._arrival.set()
        return await item.future

    async def drain(self) -> None:
        """Stop intake, flush everything pending, stop the coalescer."""
        self._draining = True
        self._arrival.set()
        if self._task is not None:
            await self._task
            self._task = None

    def abort(self, exc: Exception) -> int:
        """Fail every unresolved waiter (queued *and* in-flight) with
        ``exc`` and cancel the coalescer; returns how many were failed.

        Used by the daemon when the drain grace period expires: clients
        get an immediate 503 instead of hanging until their socket
        timeout.  Await :meth:`reap` afterwards to collect the
        cancelled task.
        """
        failed = 0
        for item in list(self._inflight) + list(self._pending):
            if not item.future.done():
                item.future.set_exception(exc)
                failed += 1
        self._pending.clear()
        self._depth_changed()
        if self._task is not None:
            self._task.cancel()
        return failed

    async def reap(self) -> None:
        """Await an aborted coalescer task (idempotent)."""
        if self._task is not None:
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    # ------------------------------------------------------------------
    def _shed_expired(self, item: _Pending, now: float) -> None:
        self.metrics.count("shed.expired")
        if item.span is not None:
            item.span.attrs.setdefault("outcome", "shed-expired")
        if not item.future.done():
            item.future.set_exception(DeadlineExceededError(
                f"model {self.entry.name!r} request expired after "
                f"{(now - item.enqueued) * 1e3:.1f} ms in queue; shed at "
                "dequeue",
                retry_after_s=self.estimator.value or 0.0,
            ))

    def _take_batch(self) -> List[_Pending]:
        """Pop up to ``max_batch`` still-viable requests, shedding the
        expired (or predicted-to-miss) ones on the way.

        A request that *aged* in the queue (waited longer than one mean
        service cycle) is held to the tail budget — it must still make
        its deadline even if its batch lands in the service-time tail.
        A request flushing straight from an empty queue is only held to
        the mean: it must survive a transient deviation spike, or a
        pessimistic estimate could shed every future request and never
        be refreshed (see :meth:`_estimated_wait`)."""
        batch: List[_Pending] = []
        now = perf()
        value = self.estimator.value or 0.0
        budget = self.estimator.budget() or 0.0
        while self._pending and len(batch) < self.max_batch:
            item = self._pending.popleft()
            if item.deadline is not None:
                aged = now - item.enqueued > value
                service = budget if aged else value
                if now + service > item.deadline:
                    self._shed_expired(item, now)
                    continue
            batch.append(item)
        return batch

    def _fail_pending(self, exc: Exception) -> None:
        while self._pending:
            item = self._pending.popleft()
            if not item.future.done():
                item.future.set_exception(exc)
        self._depth_changed()

    async def _run(self) -> None:
        while True:
            if not self._pending:
                self._cycle_anchor = None
                if self._draining:
                    # End-of-stream barrier: a no-op on the compute
                    # pool, so drain returns only after the pool has
                    # executed everything queued before it.  It is not
                    # a batch: no breaker or batch outcome is recorded
                    # (the daemon's drain grace period bounds it).
                    await asyncio.get_running_loop().run_in_executor(
                        self._compute.executor, int
                    )
                    return
                await self._arrival.wait()
                self._arrival.clear()
                continue
            batch = self._take_batch()
            self._depth_changed()
            if not batch:
                continue
            await self._flush(batch)
            if self._pending and not self.breaker.admit():
                # The flush tripped the breaker: answer everything
                # already queued behind the broken model now instead of
                # burning more forward passes on it.
                self._fail_pending(CircuitOpenError(
                    f"model {self.entry.name!r} circuit breaker opened "
                    "while this request was queued",
                    retry_after_s=self.breaker.retry_after(),
                ))

    def _predict_counted(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, int, float, float]:
        """Runs on the compute pool: forward + MVM-launch delta, plus
        the perf() bounds of the forward pass itself (so the flush can
        record a ``serve.compute`` span distinct from pool queueing)."""
        if self._chaos is not None and int(x.shape[0]) > 0:
            self._chaos.before_compute(self.entry.name)
        before = self.entry.executor.total_mvm_launches()
        compute_start = perf()
        labels = self.entry.predict(x)
        compute_end = perf()
        launches = self.entry.executor.total_mvm_launches() - before
        return labels, launches, compute_start, compute_end

    def _fail_batch(self, batch: List[_Pending], exc: Exception,
                    outcome: str = "compute-failed") -> None:
        for item in batch:
            if item.span is not None:
                item.span.attrs.setdefault("outcome", outcome)
            if not item.future.done():
                item.future.set_exception(exc)

    async def _flush(self, batch: List[_Pending]) -> None:
        rows = [int(np.asarray(item.x).shape[0]) for item in batch]
        total_rows = sum(rows)
        x = np.concatenate([item.x for item in batch], axis=0)
        self._inflight = batch
        start = perf()
        timeout = self.compute_timeout_s if self.compute_timeout_s > 0 else None
        try:
            future = asyncio.get_running_loop().run_in_executor(
                self._compute.executor, self._predict_counted, x
            )
            labels, launches, compute_start, compute_end = (
                await asyncio.wait_for(future, timeout)
            )
        except asyncio.TimeoutError:
            # The thread may be hung: abandon the whole executor so the
            # next batch gets a healthy pool, and answer every waiter.
            self.breaker.record_failure()
            self.metrics.count("compute.timeouts")
            self._compute.rebuild()
            self._fail_batch(batch, ExecutionError(
                f"model {self.entry.name!r} forward pass exceeded the "
                f"{self.compute_timeout_s:g} s compute timeout; the "
                "compute executor was rebuilt — retry"
            ), outcome="compute-timeout")
            self._inflight = []
            self._cycle_anchor = None
            return
        except Exception as exc:  # deterministic model failure, not ours
            self.breaker.record_failure()
            self.metrics.count("compute.failures")
            self._fail_batch(batch, exc)
            self._inflight = []
            self._cycle_anchor = None
            return
        end = perf()
        self.breaker.record_success()
        self.metrics.count("batches")
        if total_rows:
            # Back-to-back batches sample the full departure interval
            # (previous flush end → this flush end): under load the
            # event-loop gap between flushes — response writes, new
            # arrivals — is part of every queued request's wait, and an
            # estimator blind to it under-predicts queue time.
            anchor = start if self._cycle_anchor is None else \
                self._cycle_anchor
            self.estimator.observe(end - anchor)
        self._cycle_anchor = end
        if len(batch) > 1:
            self.metrics.count("coalesced", len(batch))
        session = _telemetry.active()
        if session is not None:
            session.observe("serve.batch_size", len(batch))
            # One batch span linking the member requests' traces; its
            # own trace identity is the first member's (a batch exists
            # because that request arrived).
            member_traces = [
                item.span.trace_id for item in batch
                if item.span is not None and item.span.trace_id is not None
            ]
            batch_span = session.tracer.record_span(
                "serve.batch", start, end,
                trace_id=member_traces[0] if member_traces else None,
                model=self.entry.name, requests=len(batch), rows=total_rows,
                traces=member_traces,
            )
            session.tracer.record_span(
                "serve.compute", compute_start, compute_end,
                parent=batch_span, trace_id=batch_span.trace_id,
                rows=total_rows,
            )
            for item in batch:
                if item.span is not None:
                    session.tracer.record_span(
                        "serve.queue", item.enqueued, start,
                        parent=item.span, trace_id=item.span.trace_id,
                        batch_span=batch_span.span_id,
                    )
        offset = 0
        for item, n in zip(batch, rows):
            share = launches * (n / total_rows) if total_rows else 0.0
            result = PredictResult(
                predictions=labels[offset : offset + n],
                batch_requests=len(batch),
                batch_rows=total_rows,
                queue_seconds=start - item.enqueued,
                mvm_launches=share,
                ensemble_trials=self.entry.ensemble_trials,
            )
            offset += n
            if not item.future.done():
                item.future.set_result(result)
            if session is not None:
                session.observe("serve.queue_wait_seconds",
                                start - item.enqueued)
                session.observe("serve.latency_seconds", end - item.enqueued)
        self._inflight = []
