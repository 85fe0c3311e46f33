"""Minimal asyncio HTTP/1.1 front end for the serving daemon.

Hand-rolled on :func:`asyncio.start_server` — the stdlib's
``http.server`` is synchronous and this repo ships zero third-party
dependencies.  One connection carries one request (``Connection:
close``), which keeps the parser ~40 lines and is plenty for a
benchmark fleet; the expensive work is coalesced behind the batcher
anyway.

Routes
------
``GET /healthz``
    Liveness + models (including load-failed ones) + drain state.
``GET /models``
    Per-model metadata (input shape, ensemble size, queue depth).
``GET /metrics``
    Counter snapshot (requests, batches, coalesced, rejected, shed,
    breaker state, compute rebuilds).  JSON by default; clients whose
    ``Accept`` header asks for ``application/openmetrics-text`` get
    the Prometheus-scrapeable exposition instead (see
    :mod:`repro.telemetry.openmetrics`).
``POST /predict``
    ``{"model": "mlp-1", "inputs": [[...], ...],
    "deadline_ms": 50}`` → ``{"predictions": [...],
    "batch_requests": N, ...}``.

Error taxonomy (the contract the chaos suite pins down):

========  ==========================================================
status    meaning
========  ==========================================================
400       malformed body / wrong input shape
404       model name never configured
405       wrong method
413       oversized body
429       queue full (:class:`~repro.errors.BackpressureError`) —
          the queue-depth bound, *not* a deadline decision
500       the model's own forward pass raised (a model bug)
503       transient server-side refusal, with ``Retry-After`` where
          one can be computed: deadline shed
          (:class:`~repro.errors.DeadlineExceededError`), breaker
          open (:class:`~repro.errors.CircuitOpenError`), compute
          timeout / drain abandon (:class:`~repro.errors.
          ExecutionError`), model failed to load
          (:class:`~repro.errors.ModelUnavailableError`), draining
========  ==========================================================
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .. import __version__
from ..errors import (
    BackpressureError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ExecutionError,
    ModelUnavailableError,
    ShapeError,
)
from ..telemetry import session as _telemetry
from ..telemetry.clock import perf
from ..units import MILLI

__all__ = ["HTTPFrontend"]

_MAX_BODY = 32 * 1024 * 1024
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: route result: status, JSON payload, optional extra headers
_Reply = Tuple[int, Dict[str, Any], Dict[str, str]]


def _unavailable(message: str, retry_after_s: Optional[float]) -> _Reply:
    """A 503 with a ``Retry-After`` header (integer seconds, rounded
    up per RFC 9110) plus the precise float in the JSON body."""
    payload: Dict[str, Any] = {"error": message}
    headers: Dict[str, str] = {}
    if retry_after_s is not None:
        payload["retry_after_s"] = float(retry_after_s)
        headers["Retry-After"] = str(max(0, math.ceil(retry_after_s)))
    return 503, payload, headers


class HTTPFrontend:
    """Parses requests and routes them onto a ``ServingDaemon``."""

    def __init__(self, daemon) -> None:
        self.daemon = daemon
        self._connections = 0

    # ------------------------------------------------------------------
    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        chaos = getattr(self.daemon, "chaos", None)
        if chaos is not None:
            self._connections += 1
            if chaos.drop_connection(self._connections - 1):
                # Simulated network fault: kill the socket before any
                # response bytes, so clients see a dropped connection
                # (BadStatusLine / ConnectionReset), never a hang.
                self.daemon.metrics.count("chaos.dropped_connections")
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                return
        status, payload, extra = 500, {"error": "internal error"}, {}
        try:
            request = await self._parse(reader)
            if request is None:
                return  # client closed before sending a request line
            method, path, headers, body = request
            status, payload, extra = await self._route(
                method, path, headers, body
            )
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        except _BadRequest as exc:
            status, payload, extra = exc.status, {"error": str(exc)}, {}
        # lint: exempt EXC002 one request must not kill the server:
        except Exception as exc:  # failure becomes this client's HTTP 500
            status, payload, extra = (
                500, {"error": f"{type(exc).__name__}: {exc}"}, {}
            )
        finally:
            try:
                # Text payloads (the OpenMetrics exposition) ship verbatim
                # with the content type the route put in ``extra``.
                if isinstance(payload, str):
                    data = payload.encode()
                    content_type = extra.pop(
                        "Content-Type", "text/plain; charset=utf-8"
                    )
                else:
                    data = json.dumps(payload).encode()
                    content_type = "application/json"
                lines = [
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                    f"Content-Type: {content_type}",
                    f"Content-Length: {len(data)}",
                    f"Server: repro-serve/{__version__}",
                ]
                lines += [f"{key}: {value}" for key, value in extra.items()]
                lines.append("Connection: close")
                head = ("\r\n".join(lines) + "\r\n\r\n").encode()
                writer.write(head + data)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def _parse(self, reader: asyncio.StreamReader):
        line = await reader.readline()
        if not line.strip():
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY:
            raise _BadRequest("request body too large", status=413)
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes) -> _Reply:
        if path == "/predict":
            if method != "POST":
                return 405, {"error": "POST /predict"}, {}
            return await self._predict(body)
        if method != "GET":
            return 405, {"error": f"GET {path}"}, {}
        if path == "/healthz":
            return 200, {
                "status": "draining" if self.daemon.draining else "ok",
                "models": self.daemon.registry.names(),
                "failed_models": dict(self.daemon.registry.failed),
                "version": __version__,
            }, {}
        if path == "/models":
            return 200, {"models": self.daemon.describe_models()}, {}
        if path == "/metrics":
            # Content negotiation: OpenMetrics text on request, the
            # legacy JSON snapshot (byte-identical to before) otherwise.
            accept = headers.get("accept", "")
            if "application/openmetrics-text" in accept:
                from ..telemetry.openmetrics import CONTENT_TYPE

                return (200, self.daemon.metrics_openmetrics(),
                        {"Content-Type": CONTENT_TYPE})
            return 200, self.daemon.metrics_snapshot(), {}
        return 404, {"error": f"no route {path!r}"}, {}

    async def _predict(self, body: bytes) -> _Reply:
        """Trace-aware wrapper: mints the request's trace id at ingress,
        opens the ``serve.request`` root span, and stamps the id into
        the response body (success and error alike) so clients can
        report which server-side trace a failure belongs to."""
        start = perf()
        session = _telemetry.active()
        root = None
        if session is not None:
            root = session.tracer.start_span(
                "serve.request", trace_id=session.new_trace_id()
            )
        status = 500
        try:
            try:
                status, payload, extra = await self._predict_inner(
                    body, start, session, root
                )
            # lint: exempt EXC002 model bug becomes this request's HTTP 500
            except Exception as exc:  # traced like any other outcome
                status, payload, extra = (
                    500, {"error": f"{type(exc).__name__}: {exc}"}, {}
                )
                if root is not None:
                    root.attrs.setdefault("outcome", "internal-error")
        finally:
            if root is not None:
                session.tracer.end_span(
                    root, status="ok" if status == 200 else "error"
                )
                root.attrs["status"] = status
        if root is not None and isinstance(payload, dict):
            payload["trace_id"] = root.trace_id
        return status, payload, extra

    async def _predict_inner(self, body: bytes, start: float,
                             session, root) -> _Reply:
        try:
            doc = json.loads(body.decode())
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "body must be a JSON object"}, {}
        if not isinstance(doc, dict) or "inputs" not in doc:
            return (400,
                    {"error": 'expected {"model": ..., "inputs": [...]}'},
                    {})
        name = doc.get("model", self.daemon.registry.names()[0])
        deadline_ms = doc.get("deadline_ms")
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
                return (400,
                        {"error": "deadline_ms must be a positive number"},
                        {})
        try:
            batcher = self.daemon.batcher_for(name)
            x = batcher.entry.validate_batch(np.asarray(doc["inputs"]))
        except ModelUnavailableError as exc:
            return _unavailable(str(exc), None)
        except ConfigurationError as exc:
            return 404, {"error": str(exc)}, {}
        except (ShapeError, ValueError) as exc:
            return 400, {"error": str(exc)}, {}
        if root is not None:
            root.attrs["model"] = name
            root.attrs["rows"] = int(x.shape[0])
            session.tracer.record_span(
                "serve.parse", start, perf(),
                parent=root, trace_id=root.trace_id,
            )
        # Charge the time already spent parsing/validating against the
        # budget, so the enforced window matches what the client (and
        # the reported latency_ms) actually measures end to end.
        if deadline_ms is None:
            deadline_s = None
        else:
            deadline_s = max(deadline_ms * MILLI - (perf() - start), 1e-9)
        try:
            result = await batcher.submit(
                x, deadline_s=deadline_s, span=root
            )
        except DeadlineExceededError as exc:
            if root is not None:
                root.attrs.setdefault("outcome", "shed-deadline")
            return _unavailable(str(exc), exc.retry_after_s)
        except CircuitOpenError as exc:
            if root is not None:
                root.attrs.setdefault("outcome", "breaker-open")
            return _unavailable(str(exc), exc.retry_after_s)
        except BackpressureError as exc:
            if root is not None:
                root.attrs.setdefault(
                    "outcome",
                    "draining" if self.daemon.draining else "queue-full",
                )
            if self.daemon.draining:
                return _unavailable(str(exc), None)
            return 429, {"error": str(exc)}, {}
        except ExecutionError as exc:
            # Compute timeout or drain abandon: transient, retryable.
            if root is not None:
                root.attrs.setdefault("outcome", "compute-failed")
            return _unavailable(str(exc), None)
        end = perf()
        if root is not None:
            root.attrs["batch_requests"] = result.batch_requests
        return 200, {
            "model": name,
            "predictions": [int(p) for p in result.predictions],
            "batch_requests": result.batch_requests,
            "batch_rows": result.batch_rows,
            "queue_ms": result.queue_seconds * 1e3,
            "latency_ms": (end - start) * 1e3,
            "mvm_launches": result.mvm_launches,
            "ensemble_trials": result.ensemble_trials,
        }, {}


class _BadRequest(Exception):
    """Internal parse failure → 4xx (not part of the repro taxonomy:
    it never crosses the library boundary)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status
