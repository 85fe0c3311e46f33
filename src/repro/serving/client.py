"""Stdlib HTTP client + closed-loop load generator.

The client half is what tests and CI use to talk to a daemon; the load
generator is the measurement engine behind
``benchmarks/bench_serving.py`` — ``concurrency`` threads each fire
sequential predict requests (closed loop: a worker's next request
starts only after its previous answer), which is the standard way to
sweep offered concurrency without modelling arrival processes.

Retrying: :func:`predict` accepts a
:class:`~repro.serving.resilience.RetryPolicy`.  Predict is idempotent
(a pure function of its inputs), so transient refusals — 429
backpressure, 503 shed/breaker/drain answers, dropped connections —
are retried with seeded-jitter capped exponential backoff, honoring
the server's ``Retry-After`` hint and bounded by both an attempt count
and a total backoff budget.  Non-idempotent requests must not reuse
this machinery.

This module is **sync-only**: it defines no ``async def``, so the
blocking ``time.sleep`` retry backoff in :func:`predict` is outside
ASYNC001's scope.  This client runs in plain threads (tests, CI, the
load generator), never on an asyncio event loop.  Do not call it from
``async def`` code; use the daemon's in-process API instead.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..telemetry.clock import perf
from ..units import KILO
from .resilience import RetryPolicy

__all__ = ["request", "predict", "LoadReport", "run_load", "RetryPolicy"]

#: transport failures one HTTP exchange can raise: a refused/reset
#: socket (OSError) or a connection dropped mid-response
#: (http.client.HTTPException, e.g. BadStatusLine from an empty reply).
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[dict] = None,
    timeout: float = 30.0,
) -> Tuple[int, Dict[str, Any]]:
    """One HTTP exchange; returns ``(status, parsed JSON body)``.

    A ``Retry-After`` response header is surfaced as a
    ``retry_after_hint_s`` key on the body (the serving daemon also
    puts the precise float in the JSON itself as ``retry_after_s``).
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        try:
            doc = json.loads(raw.decode()) if raw else {}
        except ValueError:
            doc = {"error": raw.decode(errors="replace")}
        retry_after = response.getheader("Retry-After")
        if retry_after is not None and isinstance(doc, dict):
            try:
                doc.setdefault("retry_after_hint_s", float(retry_after))
            except ValueError:
                pass
        return response.status, doc
    finally:
        conn.close()


def _retry_after_from(doc: Dict[str, Any]) -> Optional[float]:
    value = doc.get("retry_after_s", doc.get("retry_after_hint_s"))
    return float(value) if isinstance(value, (int, float)) else None


def predict(
    host: str,
    port: int,
    model: str,
    inputs: np.ndarray,
    timeout: float = 30.0,
    deadline_ms: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
) -> Tuple[int, Dict[str, Any]]:
    """POST one predict request (``inputs`` is ``(rows, ...)``).

    With ``retry``, transient outcomes (429/503 and transport
    failures) are retried under the policy; the returned pair is the
    final attempt's.  The response carries ``attempts`` (total tries)
    when a policy was supplied, plus ``retried_trace_ids`` — the
    server-assigned trace ids of the *earlier*, retried attempts — so
    a shed-then-served request stays attributable to every server-side
    trace it produced.
    """
    payload = {"model": model, "inputs": np.asarray(inputs).tolist()}
    if deadline_ms is not None:
        payload["deadline_ms"] = deadline_ms
    if retry is None:
        return request(host, port, "POST", "/predict",
                       payload=payload, timeout=timeout)
    rng = retry.rng()
    slept = 0.0
    attempt = 0
    retried_trace_ids: List[str] = []

    def _finish(doc: Dict[str, Any]) -> Dict[str, Any]:
        if isinstance(doc, dict):
            doc.setdefault("attempts", attempt + 1)
            if retried_trace_ids:
                doc.setdefault("retried_trace_ids", retried_trace_ids)
        return doc

    while True:
        try:
            status, doc = request(host, port, "POST", "/predict",
                                  payload=payload, timeout=timeout)
        except TRANSPORT_ERRORS:
            if attempt + 1 >= retry.max_attempts:
                raise
            delay = retry.backoff_s(attempt, rng)
            if slept + delay > retry.total_budget_s:
                raise
            time.sleep(delay)
            slept += delay
            attempt += 1
            continue
        if (not retry.should_retry_status(status)
                or attempt + 1 >= retry.max_attempts):
            return status, _finish(doc)
        delay = retry.backoff_s(attempt, rng,
                                retry_after_s=_retry_after_from(doc))
        if slept + delay > retry.total_budget_s:
            return status, _finish(doc)
        # This attempt's answer is about to be discarded for a retry:
        # keep its server-side trace id before it goes.
        if isinstance(doc, dict) and isinstance(doc.get("trace_id"), str):
            retried_trace_ids.append(doc["trace_id"])
        time.sleep(delay)
        slept += delay
        attempt += 1


# ----------------------------------------------------------------------
@dataclasses.dataclass
class LoadReport:
    """One load-generation run.

    Attributes
    ----------
    concurrency / requests:
        Worker threads and completed-OK request count.
    errors:
        Non-200 final responses (429s land here) and transport
        failures.
    shed:
        Of those errors, final 503 answers that carried a
        ``Retry-After`` — deadline sheds, breaker opens and other
        deliberate load-control refusals.
    retries:
        Extra attempts spent by the retry policy across all requests
        (0 without a policy).
    elapsed_s / throughput_rps:
        Wall time of the whole run and *goodput*: OK requests per
        second over it.
    latency_p50_ms / latency_p99_ms / latency_mean_ms:
        Client-observed per-request latency percentiles over admitted
        (OK) requests.
    server_latency_p99_ms:
        p99 of the *server-reported* ``latency_ms`` over OK requests —
        parse-to-answer time, the window deadline admission control
        actually governs (client numbers additionally carry connection
        setup and response transfer).
    mean_batch_requests:
        Server-reported mean coalesced batch size over OK responses —
        ~1 means batching never kicked in.
    failed_trace_ids / retried_trace_ids:
        Server-assigned trace ids of final non-200 answers and of
        attempts a retry policy discarded, capped at
        ``TRACE_ID_CAP`` each — with a telemetry-enabled daemon this is
        what makes a chaos-run failure attributable to its exact
        server-side trace.  Empty when the daemon ran without
        telemetry.
    """

    TRACE_ID_CAP = 64

    concurrency: int
    requests: int
    errors: int
    elapsed_s: float
    throughput_rps: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    mean_batch_requests: float
    shed: int = 0
    retries: int = 0
    server_latency_p99_ms: float = 0.0
    failed_trace_ids: List[str] = dataclasses.field(default_factory=list)
    retried_trace_ids: List[str] = dataclasses.field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def run_load(
    host: str,
    port: int,
    model: str,
    inputs: Sequence[np.ndarray],
    concurrency: int,
    requests_per_worker: int,
    timeout: float = 30.0,
    deadline_ms: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
) -> LoadReport:
    """Closed-loop load: ``concurrency`` workers, each firing
    ``requests_per_worker`` sequential single-sample requests drawn
    round-robin from ``inputs``.

    With ``deadline_ms`` every request carries that latency budget (so
    the daemon's admission control may shed it with 503 +
    ``Retry-After``); with ``retry`` each worker retries transient
    refusals under a per-worker-seeded copy of the policy, which is
    how the benchmark measures *goodput* under shedding.
    """
    if not inputs:
        raise ExecutionError("load generator needs at least one input row")
    latencies: List[List[float]] = [[] for _ in range(concurrency)]
    server_ms: List[List[float]] = [[] for _ in range(concurrency)]
    batch_sizes: List[List[int]] = [[] for _ in range(concurrency)]
    errors = [0] * concurrency
    sheds = [0] * concurrency
    retries = [0] * concurrency
    failed_ids: List[List[str]] = [[] for _ in range(concurrency)]
    retried_ids: List[List[str]] = [[] for _ in range(concurrency)]
    barrier = threading.Barrier(concurrency + 1)

    def worker(wid: int) -> None:
        policy = (None if retry is None
                  else dataclasses.replace(retry, seed=retry.seed + wid))
        barrier.wait()
        for i in range(requests_per_worker):
            x = inputs[(wid + i * concurrency) % len(inputs)]
            start = perf()
            try:
                status, doc = predict(
                    host, port, model, x, timeout=timeout,
                    deadline_ms=deadline_ms, retry=policy,
                )
            except TRANSPORT_ERRORS:
                errors[wid] += 1
                continue
            retries[wid] += max(0, int(doc.get("attempts", 1)) - 1)
            for trace_id in doc.get("retried_trace_ids", ()):
                if isinstance(trace_id, str):
                    retried_ids[wid].append(trace_id)
            if status != 200:
                errors[wid] += 1
                if status == 503 and _retry_after_from(doc) is not None:
                    sheds[wid] += 1
                if isinstance(doc.get("trace_id"), str):
                    failed_ids[wid].append(doc["trace_id"])
                continue
            latencies[wid].append(perf() - start)
            server_ms[wid].append(float(doc.get("latency_ms", 0.0)))
            batch_sizes[wid].append(int(doc.get("batch_requests", 1)))

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True)
        for w in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = perf()
    for thread in threads:
        thread.join()
    elapsed = perf() - start

    flat = sorted(sample for per in latencies for sample in per)
    flat_server = sorted(sample for per in server_ms for sample in per)
    merged_batches = [b for per in batch_sizes for b in per]
    ok = len(flat)
    if not flat:
        raise ExecutionError(
            f"load run completed 0 requests ({sum(errors)} errors) — "
            "is the daemon up?"
        )
    return LoadReport(
        concurrency=concurrency,
        requests=ok,
        errors=sum(errors),
        elapsed_s=elapsed,
        throughput_rps=ok / elapsed if elapsed > 0 else 0.0,
        latency_p50_ms=1 * KILO * flat[ok // 2],
        latency_p99_ms=1 * KILO * flat[min(ok - 1, (ok * 99) // 100)],
        latency_mean_ms=1 * KILO * float(np.mean(flat)),
        mean_batch_requests=float(np.mean(merged_batches)),
        shed=sum(sheds),
        retries=sum(retries),
        server_latency_p99_ms=flat_server[min(ok - 1, (ok * 99) // 100)],
        failed_trace_ids=[
            t for per in failed_ids for t in per
        ][: LoadReport.TRACE_ID_CAP],
        retried_trace_ids=[
            t for per in retried_ids for t in per
        ][: LoadReport.TRACE_ID_CAP],
    )
