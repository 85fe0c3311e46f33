"""Observability end-to-end: /metrics content negotiation, stitched
request traces, and trace-id propagation into load reports."""

import asyncio
import http.client

import pytest

from repro.errors import BackpressureError
from repro.serving import (
    BackgroundServer,
    ModelRegistry,
    RetryPolicy,
    ServingConfig,
    ServingDaemon,
)
from repro.serving import client
from repro.telemetry import session as telemetry
from repro.telemetry.openmetrics import CONTENT_TYPE, parse_openmetrics


def _config(**kwargs):
    defaults = dict(port=0, models=("toy",))
    defaults.update(kwargs)
    return ServingConfig(**defaults)


#: per-model JSON keys that are scrape-time gauges, not counters
JSON_GAUGES = {"breaker_state", "queue_depth", "service_ewma_ms",
               "service_budget_ms"}


def fetch_metrics_text(host, port):
    """GET /metrics asking for the OpenMetrics exposition."""
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(
            "GET", "/metrics",
            headers={"Accept": "application/openmetrics-text"},
        )
        response = conn.getresponse()
        return (response.status, response.getheader("Content-Type"),
                response.read().decode())
    finally:
        conn.close()


class TestMetricsNegotiation:
    def test_openmetrics_exposition_is_valid(self, registry, rows):
        with BackgroundServer(registry, _config()) as server:
            status, _ = client.predict(
                server.host, server.port, "toy", rows[0]
            )
            assert status == 200
            status, content_type, text = fetch_metrics_text(
                server.host, server.port
            )
        assert status == 200
        assert content_type == CONTENT_TYPE
        parsed = parse_openmetrics(text)
        assert parsed["families"]["repro_serve_requests"] == "counter"
        by_sample = {
            (name, labels.get("model")): value
            for name, labels, value in parsed["samples"]
        }
        assert by_sample[("repro_serve_requests_total", "toy")] == 1

    def test_default_json_form_unchanged(self, registry, rows):
        with BackgroundServer(registry, _config()) as server:
            client.predict(server.host, server.port, "toy", rows[0])
            status, doc = client.request(
                server.host, server.port, "GET", "/metrics"
            )
        assert status == 200
        assert doc["totals"]["requests"] == 1
        assert doc["models"]["toy"]["batches"] == 1

    def test_text_and_json_counters_agree(self, registry, rows):
        """Two renderings of the same counters: every per-model counter
        in the JSON snapshot appears as ``repro_serve_<key>_total``
        with the same value in the text, and the text has no per-model
        counter the JSON lacks."""
        with BackgroundServer(registry, _config()) as server:
            for row in rows[:3]:
                client.predict(server.host, server.port, "toy", row)
            _, doc = client.request(
                server.host, server.port, "GET", "/metrics"
            )
            _, _, text = fetch_metrics_text(server.host, server.port)
        by_sample = {
            (name, labels.get("model")): value
            for name, labels, value in parse_openmetrics(text)["samples"]
        }
        toy = {key: value for key, value in doc["models"]["toy"].items()
               if key not in JSON_GAUGES}
        assert toy["requests"] == 3
        for key, value in toy.items():
            assert by_sample[(f"repro_serve_{key}_total", "toy")] == value
        text_counters = {name for name, model in by_sample
                         if model == "toy" and name.endswith("_total")}
        assert text_counters == {f"repro_serve_{key}_total" for key in toy}

    def test_exposition_identical_with_telemetry_on(self, registry, rows):
        """Enabling a telemetry session changes neither /metrics form:
        the daemon's exposition is built from its own unconditional
        counters, never the session registry."""
        with BackgroundServer(registry, _config()) as server:
            client.predict(server.host, server.port, "toy", rows[0])
            _, _, text_off = fetch_metrics_text(server.host, server.port)
            _, json_off = client.request(
                server.host, server.port, "GET", "/metrics"
            )
            with telemetry.capture():
                _, _, text_on = fetch_metrics_text(server.host, server.port)
                _, json_on = client.request(
                    server.host, server.port, "GET", "/metrics"
                )
        assert text_on == text_off
        assert json_on == json_off

    def test_drain_refusal_counted_in_json_and_session(self, registry, rows):
        """A submit refused while draining is one event, seen by both
        the JSON ``rejected`` count and the session's ``serve.rejected``
        counter."""

        async def body():
            daemon = ServingDaemon(registry, _config())
            await daemon.start()
            try:
                await daemon.batcher_for("toy").drain()
                with pytest.raises(BackpressureError, match="draining"):
                    await daemon.batcher_for("toy").submit(rows[0])
                return daemon.metrics_snapshot()
            finally:
                await daemon.shutdown()

        with telemetry.capture() as session:
            doc = asyncio.run(asyncio.wait_for(body(), 30.0))
        assert doc["models"]["toy"]["rejected"] == 1
        assert doc["totals"]["rejected"] == 1
        assert session.registry.counter("serve.rejected").value == 1


class TestStitchedTrace:
    def test_single_request_produces_one_stitched_trace(self, registry,
                                                        rows):
        """One predict → one trace id shared by the whole span path:
        HTTP parse → queue → batch → compute."""
        with telemetry.capture() as session:
            with BackgroundServer(registry, _config()) as server:
                status, doc = client.predict(
                    server.host, server.port, "toy", rows[0]
                )
        assert status == 200
        trace_id = doc["trace_id"]
        members = [s for s in session.tracer.spans
                   if s.trace_id == trace_id]
        names = {s.name for s in members}
        assert names >= {"serve.request", "serve.parse", "serve.queue",
                         "serve.batch", "serve.compute"}
        (root,) = [s for s in members if s.name == "serve.request"]
        assert root.attrs["status"] == 200
        assert root.attrs["model"] == "toy"
        assert root.duration_s is not None
        (queue,) = [s for s in members if s.name == "serve.queue"]
        assert queue.parent_id == root.span_id
        (batch,) = [s for s in members if s.name == "serve.batch"]
        (compute,) = [s for s in members if s.name == "serve.compute"]
        assert compute.parent_id == batch.span_id
        assert queue.attrs["batch_span"] == batch.span_id

    def test_concurrent_requests_get_distinct_traces(self, registry, rows):
        with telemetry.capture() as session:
            with BackgroundServer(registry, _config()) as server:
                docs = [
                    client.predict(server.host, server.port, "toy", row)[1]
                    for row in rows[:3]
                ]
        ids = [doc["trace_id"] for doc in docs]
        assert len(set(ids)) == 3
        roots = [s for s in session.tracer.spans
                 if s.name == "serve.request"]
        assert sorted(s.trace_id for s in roots) == sorted(ids)

    def test_error_response_carries_trace_id(self, scripted_entry, rows):
        registry = ModelRegistry([scripted_entry(["fail"])])
        config = _config(max_batch=1)
        with telemetry.capture() as session:
            with BackgroundServer(registry, config) as server:
                status, doc = client.predict(
                    server.host, server.port, "toy", rows[0]
                )
        assert status == 500
        (root,) = [s for s in session.tracer.spans
                   if s.name == "serve.request"]
        assert doc["trace_id"] == root.trace_id
        assert root.status == "error"
        assert root.attrs["status"] == 500

    def test_no_trace_ids_without_telemetry(self, registry, rows):
        assert telemetry.active() is None
        with BackgroundServer(registry, _config()) as server:
            status, doc = client.predict(
                server.host, server.port, "toy", rows[0]
            )
        assert status == 200
        assert "trace_id" not in doc


class TestLoadReportTraceIds:
    def test_failed_trace_ids_reported(self, scripted_entry, rows):
        """The first (scripted-to-fail) request's server trace id lands
        in LoadReport.failed_trace_ids; later requests succeed."""
        registry = ModelRegistry([scripted_entry(["fail"])])
        config = _config(max_batch=1)
        with telemetry.capture():
            with BackgroundServer(registry, config) as server:
                report = client.run_load(
                    server.host, server.port, "toy", rows[:4],
                    concurrency=1, requests_per_worker=4,
                )
        assert report.errors == 1
        assert report.requests == 3
        assert len(report.failed_trace_ids) == 1
        assert report.retried_trace_ids == []

    def test_failed_trace_ids_empty_without_telemetry(self, scripted_entry,
                                                      rows):
        registry = ModelRegistry([scripted_entry(["fail"])])
        config = _config(max_batch=1)
        with BackgroundServer(registry, config) as server:
            report = client.run_load(
                server.host, server.port, "toy", rows[:4],
                concurrency=1, requests_per_worker=4,
            )
        assert report.errors == 1
        assert report.failed_trace_ids == []

    def test_predict_collects_retried_trace_ids(self, monkeypatch):
        """A retried 503's server trace id survives onto the final
        answer as retried_trace_ids."""
        answers = [
            (503, {"error": "shed", "retry_after_s": 0.0,
                   "trace_id": "t-1"}),
            (200, {"predictions": [1], "trace_id": "t-2"}),
        ]

        def scripted(host, port, method, path, payload=None, timeout=30.0):
            return answers.pop(0)

        monkeypatch.setattr(client, "request", scripted)
        policy = RetryPolicy(
            max_attempts=3, base_backoff_s=0.0, max_backoff_s=0.0,
            jitter=0.0, total_budget_s=1.0,
        )
        status, doc = client.predict(
            "localhost", 1, "toy", [[0.0] * 12], retry=policy
        )
        assert status == 200
        assert doc["trace_id"] == "t-2"
        assert doc["retried_trace_ids"] == ["t-1"]
        assert doc["attempts"] == 2

    def test_run_load_merges_retried_trace_ids(self, monkeypatch):
        answers = [
            (503, {"error": "shed", "retry_after_s": 0.0,
                   "trace_id": "t-1"}),
            (200, {"predictions": [1], "latency_ms": 1.0,
                   "batch_requests": 1, "trace_id": "t-2"}),
        ]

        def scripted(host, port, method, path, payload=None, timeout=30.0):
            return answers.pop(0)

        monkeypatch.setattr(client, "request", scripted)
        policy = RetryPolicy(
            max_attempts=3, base_backoff_s=0.0, max_backoff_s=0.0,
            jitter=0.0, total_budget_s=1.0,
        )
        report = client.run_load(
            "localhost", 1, "toy", [[0.0] * 12],
            concurrency=1, requests_per_worker=1, retry=policy,
        )
        assert report.retries == 1
        assert report.retried_trace_ids == ["t-1"]
        assert report.failed_trace_ids == []
