"""The long-lived serving process: registry + batchers + HTTP front.

Lifecycle::

    daemon = ServingDaemon(registry, config)
    await daemon.start()        # binds the socket, launches coalescers
    ...                         # serve
    await daemon.shutdown()     # stop intake, drain in-flight, close

``run_forever`` wraps that in ``asyncio.run`` with SIGINT/SIGTERM
handlers for the CLI; :class:`BackgroundServer` runs the same lifecycle
on a dedicated thread for tests and the load-generator benchmark.

Graceful drain: shutdown first stops accepting connections, then drains
every model's batcher — queued requests are flushed and answered, new
submits are refused — and only then tears the compute pool down.  If
the drain grace period (``drain_timeout_s``) expires with stragglers
still unanswered, they are *failed* with
:class:`~repro.errors.ExecutionError` (HTTP 503) and counted as
``serve.drain.abandoned`` — an in-flight request is answered or failed
by a clean shutdown, never left hanging until its socket timeout.

Metrics: each batcher counts its own events; daemon-wide events
(compute-pool rebuilds, drain-abandoned requests, chaos connection
drops) go into the daemon's own
:class:`~repro.serving.resilience.ServingMetrics`.  Both
``/metrics`` forms are rendered from these registries alone.

Resilience wiring: the daemon owns one rebuildable
:class:`~repro.serving.resilience.ComputePool` shared by all batchers,
gives each model its own
:class:`~repro.serving.resilience.CircuitBreaker`, and threads an
optional chaos plan (see :mod:`repro.chaos`) into the compute and
connection paths so infrastructure faults are injectable under test.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from typing import Any, Dict, List, Optional

from ..errors import ExecutionError
from ..telemetry import session as _telemetry
from .batcher import MicroBatcher
from .config import ServingConfig
from .registry import ModelRegistry
from .resilience import CircuitBreaker, ComputePool, ServingMetrics
from .server import HTTPFrontend

__all__ = ["ServingDaemon", "BackgroundServer"]

# Bound on the listener's wait_closed at shutdown (after the drain).
_WAIT_CLOSED_TIMEOUT_S = 5.0


class ServingDaemon:
    """Owns the sockets, batchers and compute pool of one server."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServingConfig,
        chaos=None,
    ) -> None:
        self.registry = registry
        self.config = config
        self.chaos = chaos
        self.draining = False
        self.port: Optional[int] = None
        self.metrics = ServingMetrics("compute.rebuilds", "drain.abandoned")
        self._batchers: Dict[str, MicroBatcher] = {}
        self._compute: Optional[ComputePool] = None
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    def batcher_for(self, name: str) -> MicroBatcher:
        """The model's coalescer (:class:`~repro.errors.
        ConfigurationError` for unknown names,
        :class:`~repro.errors.ModelUnavailableError` for load-failed
        ones, via the registry)."""
        entry = self.registry.get(name)
        return self._batchers[entry.name]

    def describe_models(self) -> List[Dict[str, Any]]:
        out = []
        for name in self.registry.names():
            entry = self.registry.get(name)
            batcher = self._batchers[name]
            out.append({
                "name": name,
                "input_shape": list(entry.input_shape),
                "ensemble_trials": entry.ensemble_trials,
                "queue_depth": batcher.depth,
                "breaker_state": batcher.breaker.state,
                "total_mvm_launches": entry.executor.total_mvm_launches(),
            })
        return out

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Lifetime serve.* counters per model and summed over models,
        plus the daemon-wide counters."""
        totals: Dict[str, float] = {}
        per_model = {}
        for name, batcher in self._batchers.items():
            counters = batcher.metrics.counter_values()
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
            per_model[name] = {
                **counters,
                "breaker_state": batcher.breaker.state,
                "breaker_opens": batcher.breaker.opens_total,
                "queue_depth": batcher.depth,
                # Admission-control view: the service-time EWMA and the
                # tail budget enqueue decisions are made against (0
                # until the first batch calibrates them).
                "service_ewma_ms": (batcher.estimator.value or 0.0) * 1e3,
                "service_budget_ms": (batcher.estimator.budget() or 0.0)
                * 1e3,
            }
        return {
            "totals": totals,
            "models": per_model,
            **self.metrics.counter_values(),
            "failed_models": dict(self.registry.failed),
        }

    def metrics_openmetrics(self) -> str:
        """OpenMetrics text rendering of the same registries the JSON
        snapshot reads, the batchers' labelled per model, plus gauges
        derived at scrape time.

        Never reads the telemetry session registry, so the exposition,
        like the JSON form, is byte-identical whether telemetry is on
        or off.
        """
        from ..telemetry.openmetrics import OpenMetricsBuilder, render_registry

        builder = OpenMetricsBuilder()
        for name in sorted(self._batchers):
            batcher = self._batchers[name]
            labels = {"model": name}
            render_registry(batcher.metrics, "repro_serve_", labels=labels,
                            builder=builder)
            builder.counter("repro_serve_breaker_opens",
                            batcher.breaker.opens_total, labels=labels)
            builder.gauge(
                "repro_serve_breaker_open",
                1.0 if batcher.breaker.state == "open" else 0.0,
                labels=labels,
            )
            builder.gauge(
                "repro_serve_service_ewma_seconds",
                batcher.estimator.value or 0.0, labels=labels,
            )
            builder.gauge(
                "repro_serve_service_budget_seconds",
                batcher.estimator.budget() or 0.0, labels=labels,
            )
        for name, reason in sorted(self.registry.failed.items()):
            builder.gauge(
                "repro_serve_model_failed", 1.0,
                labels={"model": name, "reason": str(reason)},
            )
        return render_registry(self.metrics, "repro_serve_", builder=builder)

    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise ExecutionError("daemon already started")
        config = self.config
        self._compute = ComputePool(self.metrics)
        for name in self.registry.names():
            batcher = MicroBatcher(
                self.registry.get(name),
                self._compute,
                max_batch=config.max_batch,
                queue_depth=config.queue_depth,
                compute_timeout_s=config.compute_timeout_s,
                breaker=CircuitBreaker(
                    threshold=config.breaker_threshold,
                    cooldown_s=config.breaker_cooldown_s,
                    name=name,
                ),
                chaos=self.chaos,
            )
            batcher.start()
            self._batchers[name] = batcher
        frontend = HTTPFrontend(self)
        self._server = await asyncio.start_server(
            frontend.handle, host=config.host, port=config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Stop intake, drain every batcher, release the pool."""
        if self._server is None:
            return
        self.draining = True
        self._server.close()
        forced = False
        try:
            await asyncio.wait_for(
                asyncio.gather(*(b.drain() for b in self._batchers.values())),
                timeout=self.config.drain_timeout_s,
            )
        except asyncio.TimeoutError:
            # The grace period is over: answer every straggler with a
            # 503 instead of leaving its client to hang until the
            # socket timeout, and abandon the (possibly hung) pool.
            forced = True
            error = ExecutionError(
                "serving daemon drain timed out after "
                f"{self.config.drain_timeout_s:g} s; request abandoned at "
                "shutdown — retry against the next instance"
            )
            abandoned = sum(
                batcher.abort(error) for batcher in self._batchers.values()
            )
            await asyncio.gather(
                *(b.reap() for b in self._batchers.values()),
                return_exceptions=True,
            )
            if abandoned:
                self.metrics.count("drain.abandoned", abandoned)
        # Only now wait for the listener: every batcher future is
        # resolved or failed, so connection handlers can flush their
        # responses and detach.  (On 3.12+ wait_closed blocks until all
        # handlers finish — calling it before the drain/abort above
        # would deadlock on a hung compute thread.)  Bounded anyway so
        # one wedged socket cannot stall shutdown.
        try:
            await asyncio.wait_for(
                self._server.wait_closed(), timeout=_WAIT_CLOSED_TIMEOUT_S
            )
        except asyncio.TimeoutError:  # pragma: no cover - wedged socket
            pass
        self._server = None
        if self._compute is not None:
            self._compute.shutdown(wait=not forced)
            self._compute = None
        session = _telemetry.active()
        if session is not None:
            session.manifest.slo = self._slo_summary(session)

    def _slo_summary(self, session) -> Dict[str, Any]:
        """Admitted-latency p99 vs the largest client deadline budget,
        recorded into the run manifest at drain for ``repro report
        --format trace``."""
        from ..units import MILLI

        hist = session.registry.histogram("serve.latency_seconds")
        budget_s = max(
            (b.deadline_budget_max_s for b in self._batchers.values()),
            default=0.0,
        )
        admitted = hist.count
        p99_ms = hist.quantile(0.99) / MILLI if admitted else None
        budget_ms = budget_s / MILLI if budget_s > 0 else None
        return {
            "admitted": admitted,
            "admitted_p99_ms": p99_ms,
            "deadline_budget_ms": budget_ms,
            "within_budget": (
                None if p99_ms is None or budget_ms is None
                else bool(p99_ms <= budget_ms)
            ),
        }

    # ------------------------------------------------------------------
    async def _main(self, stop: asyncio.Event) -> None:
        await self.start()
        try:
            await stop.wait()
        finally:
            await self.shutdown()

    def run_forever(self, announce=None) -> None:
        """Blocking entry point for the CLI (SIGINT/SIGTERM drain)."""

        async def body() -> None:
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except NotImplementedError:  # pragma: no cover - non-POSIX
                    pass
            started = asyncio.get_running_loop().create_task(
                self._main(stop)
            )
            while self.port is None and not started.done():
                await asyncio.sleep(0.01)
            if announce is not None and self.port is not None:
                announce(self)
            await started

        asyncio.run(body())


class BackgroundServer:
    """A :class:`ServingDaemon` on its own event-loop thread.

    Context-manager used by tests and ``benchmarks/bench_serving.py``::

        with BackgroundServer(registry, config) as server:
            client.predict(server.host, server.port, "mlp-1", rows)
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServingConfig,
        chaos=None,
    ) -> None:
        self.daemon = ServingDaemon(registry, config, chaos=chaos)
        self.host = config.host
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve-loop", daemon=True
        )

    @property
    def port(self) -> int:
        port = self.daemon.port
        if port is None:
            raise ExecutionError("server is not running")
        return port

    def _thread_main(self) -> None:
        async def body() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await self.daemon.start()
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                try:
                    await self.daemon.shutdown()
                finally:
                    # A shutdown that died before releasing the listener
                    # would leave its port bound for the daemon's life.
                    if self.daemon._server is not None:
                        self.daemon._server.close()

        try:
            asyncio.run(body())
        except BaseException as exc:  # surfaced by start() or stop()
            self._error = exc
        finally:
            self._ready.set()

    def start(self) -> "BackgroundServer":
        self._thread.start()
        self._ready.wait(timeout=60.0)
        if self._error is not None:
            raise ExecutionError(
                f"serving daemon failed to start: {self._error}"
            ) from self._error
        if self.daemon.port is None:
            raise ExecutionError("serving daemon did not bind a port")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already dead; the join + error check below
        # A clean shutdown ends within its own bounds (the drain grace
        # period, then the listener close), plus a second for the loop
        # teardown; a thread alive past that is wedged.
        bound_s = (
            self.daemon.config.drain_timeout_s + _WAIT_CLOSED_TIMEOUT_S + 1.0
        )
        self._thread.join(timeout=bound_s)
        if self._thread.is_alive():
            raise ExecutionError(
                f"serving daemon loop still running {bound_s:g} s after "
                "stop; shutdown is wedged"
            )
        if self._error is not None:
            # The loop died mid-run (not at startup — start() would
            # have raised): a crashed daemon must not look like a
            # clean stop.
            raise ExecutionError(
                f"serving daemon died while running: {self._error}"
            ) from self._error

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
