"""End-to-end daemon tests over real sockets (ephemeral ports)."""

import threading
import time

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.serving import (
    BackgroundServer,
    ModelRegistry,
    RetryPolicy,
    ServingConfig,
)
from repro.serving import client
from repro.telemetry import session as telemetry

from .conftest import serial_labels


def _config(**kwargs):
    defaults = dict(port=0, models=("toy",), batch_window_s=0.005)
    defaults.update(kwargs)
    return ServingConfig(**defaults)


class TestServedIdentity:
    def test_concurrent_requests_match_serial_predict(self, registry, entry,
                                                      rows):
        """N clients hammering /predict concurrently get exactly the
        labels one serial executor pass produces."""
        results = [None] * len(rows)
        with BackgroundServer(registry, _config()) as server:
            barrier = threading.Barrier(len(rows))

            def worker(i):
                barrier.wait()
                status, doc = client.predict(
                    server.host, server.port, "toy", rows[i]
                )
                results[i] = (status, doc)

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(len(rows))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert all(status == 200 for status, _ in results)
        served = [doc["predictions"][0] for _, doc in results]
        assert served == serial_labels(entry, rows)
        # With 24 simultaneous clients and a 5 ms window, at least one
        # response must have shared its forward pass.
        assert max(doc["batch_requests"] for _, doc in results) > 1

    def test_single_request_reports_accounting_fields(self, registry, rows):
        with BackgroundServer(registry, _config()) as server:
            status, doc = client.predict(
                server.host, server.port, "toy", rows[0]
            )
        assert status == 200
        for field in ("queue_ms", "latency_ms", "mvm_launches",
                      "batch_rows", "ensemble_trials"):
            assert field in doc
        assert doc["mvm_launches"] > 0
        assert doc["ensemble_trials"] == 0


class TestBackpressureHTTP:
    def test_queue_bound_answers_429(self, slow_entry, rows):
        registry = ModelRegistry([slow_entry])
        config = _config(max_batch=1, batch_window_s=0.0, queue_depth=2)
        statuses = []
        lock = threading.Lock()
        with BackgroundServer(registry, config) as server:
            barrier = threading.Barrier(12)

            def worker(i):
                barrier.wait()
                status, _ = client.predict(
                    server.host, server.port, "toy", rows[i]
                )
                with lock:
                    statuses.append(status)

            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(12)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        assert 429 in statuses, "queue bound never produced a 429"
        assert 200 in statuses, "every request was shed"
        assert set(statuses) <= {200, 429}


class TestRouting:
    def test_unknown_model_is_404(self, registry, rows):
        with BackgroundServer(registry, _config()) as server:
            status, doc = client.predict(
                server.host, server.port, "nope", rows[0]
            )
        assert status == 404
        assert "nope" in doc["error"]

    def test_bad_shape_is_400(self, registry):
        with BackgroundServer(registry, _config()) as server:
            status, doc = client.predict(
                server.host, server.port, "toy", np.zeros((2, 5))
            )
        assert status == 400

    def test_malformed_body_is_400(self, registry):
        with BackgroundServer(registry, _config()) as server:
            status, _ = client.request(
                server.host, server.port, "POST", "/predict",
                payload={"model": "toy"},  # no inputs
            )
            assert status == 400

    def test_wrong_method_is_405(self, registry):
        with BackgroundServer(registry, _config()) as server:
            status, _ = client.request(
                server.host, server.port, "GET", "/predict"
            )
            assert status == 405

    def test_unknown_route_is_404(self, registry):
        with BackgroundServer(registry, _config()) as server:
            status, _ = client.request(
                server.host, server.port, "GET", "/nope"
            )
            assert status == 404

    def test_healthz_models_metrics(self, registry, rows):
        with BackgroundServer(registry, _config()) as server:
            status, health = client.request(
                server.host, server.port, "GET", "/healthz"
            )
            assert (status, health["status"]) == (200, "ok")
            assert health["models"] == ["toy"]

            status, models = client.request(
                server.host, server.port, "GET", "/models"
            )
            assert status == 200
            (toy,) = models["models"]
            assert toy["input_shape"] == [12]

            client.predict(server.host, server.port, "toy", rows[0])
            status, metrics = client.request(
                server.host, server.port, "GET", "/metrics"
            )
            assert status == 200
            assert metrics["totals"]["requests"] == 1
            assert metrics["models"]["toy"]["batches"] == 1


class TestTelemetry:
    def test_serve_metrics_and_spans_recorded(self, registry, rows):
        with telemetry.capture() as session:
            with BackgroundServer(registry, _config()) as server:
                status, _ = client.predict(
                    server.host, server.port, "toy", rows[0]
                )
                assert status == 200
        snap = session.registry.snapshot()
        assert snap["counters"]["serve.requests"] == 1
        # One request batch + the end-of-stream drain barrier.
        assert snap["histograms"]["serve.batch_size"]["count"] >= 1
        assert snap["histograms"]["serve.latency_seconds"]["count"] >= 1
        names = [s.name for s in session.tracer.spans]
        assert "serve.request" in names
        assert "serve.batch" in names

    def test_rejections_counted(self, slow_entry, rows):
        registry = ModelRegistry([slow_entry])
        config = _config(max_batch=1, batch_window_s=0.0, queue_depth=1)
        with telemetry.capture() as session:
            with BackgroundServer(registry, config) as server:
                barrier = threading.Barrier(8)

                def worker(i):
                    barrier.wait()
                    client.predict(server.host, server.port, "toy", rows[i])

                threads = [
                    threading.Thread(target=worker, args=(i,), daemon=True)
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        snap = session.registry.snapshot()
        if snap["counters"].get("serve.rejected", 0) == 0:
            pytest.skip("scheduler drained the queue too fast to reject")
        assert snap["counters"]["serve.rejected"] >= 1


class TestDeadlineHTTP:
    def test_shed_is_503_with_retry_after_not_429(self, slow_entry, rows):
        """Once the EWMA is calibrated, an impossible deadline is shed
        with 503 + Retry-After — a different answer than queue-full."""
        registry = ModelRegistry([slow_entry])
        config = _config(max_batch=1, batch_window_s=0.0)
        with BackgroundServer(registry, config) as server:
            status, _ = client.predict(  # calibrates the EWMA (~50 ms)
                server.host, server.port, "toy", rows[0]
            )
            assert status == 200
            status, doc = client.predict(
                server.host, server.port, "toy", rows[1], deadline_ms=1.0
            )
            assert status == 503
            assert "shed at admission" in doc["error"]
            assert doc["retry_after_s"] > 0
            # The Retry-After *header* round-trips too (integer seconds,
            # rounded up per RFC 9110).
            assert doc["retry_after_hint_s"] >= 1.0
            _, metrics = client.request(
                server.host, server.port, "GET", "/metrics"
            )
        assert metrics["totals"]["shed_deadline"] == 1
        assert metrics["totals"]["rejected"] == 0, (
            "a deadline shed must not be counted as a 429 rejection"
        )

    def test_generous_deadline_is_served(self, registry, rows):
        with BackgroundServer(registry, _config()) as server:
            status, doc = client.predict(
                server.host, server.port, "toy", rows[0], deadline_ms=10_000
            )
        assert status == 200
        assert "predictions" in doc

    def test_invalid_deadline_is_400(self, registry, rows):
        with BackgroundServer(registry, _config()) as server:
            status, doc = client.predict(
                server.host, server.port, "toy", rows[0], deadline_ms=-5
            )
            assert status == 400
            assert "deadline_ms" in doc["error"]
            status, _ = client.request(
                server.host, server.port, "POST", "/predict",
                payload={"model": "toy",
                         "inputs": rows[0].tolist(),
                         "deadline_ms": "soon"},
            )
            assert status == 400

    def test_retrying_client_reports_attempts(self, slow_entry, rows):
        """An always-shed deadline is retried under the policy and the
        final answer carries the attempt count."""
        registry = ModelRegistry([slow_entry])
        config = _config(max_batch=1, batch_window_s=0.0)
        policy = RetryPolicy(max_attempts=3, base_backoff_s=0.001,
                             max_backoff_s=0.002, jitter=0.0,
                             total_budget_s=30.0, seed=7)
        with BackgroundServer(registry, config) as server:
            client.predict(server.host, server.port, "toy", rows[0])
            status, doc = client.predict(
                server.host, server.port, "toy", rows[1],
                deadline_ms=1.0, retry=policy,
            )
        assert status == 503
        assert doc["attempts"] == 3


class TestFailedModelHTTP:
    def test_failed_model_is_503_while_others_serve(self, entry, rows):
        """A model whose load failed answers 503 per-request; the rest
        of the registry keeps serving and /healthz reports it."""
        registry = ModelRegistry(
            [entry], failed={"broken": "ArtifactError: checksum mismatch"}
        )
        with BackgroundServer(registry, _config()) as server:
            status, doc = client.predict(
                server.host, server.port, "broken", rows[0]
            )
            assert status == 503
            assert "failed to load" in doc["error"]
            status, _ = client.predict(
                server.host, server.port, "toy", rows[0]
            )
            assert status == 200
            _, health = client.request(
                server.host, server.port, "GET", "/healthz"
            )
            assert "broken" in health["failed_models"]
            _, metrics = client.request(
                server.host, server.port, "GET", "/metrics"
            )
            assert "broken" in metrics["failed_models"]

    def test_unknown_model_is_still_404(self, entry, rows):
        registry = ModelRegistry([entry], failed={"broken": "boom"})
        with BackgroundServer(registry, _config()) as server:
            status, _ = client.predict(
                server.host, server.port, "never-configured", rows[0]
            )
        assert status == 404


class TestDrainAbandon:
    def test_drain_timeout_answers_stragglers_with_503(
        self, scripted_entry, rows
    ):
        """When the drain grace period expires, queued and in-flight
        requests get an immediate 503 — no client is left hanging."""
        stalling = scripted_entry([0.25] * 8)
        registry = ModelRegistry([stalling])
        config = _config(max_batch=1, batch_window_s=0.0,
                         drain_timeout_s=0.05)
        results = []
        lock = threading.Lock()

        def worker(server, i):
            status, doc = client.predict(
                server.host, server.port, "toy", rows[i], timeout=10.0
            )
            with lock:
                results.append((status, doc))

        with telemetry.capture() as session:
            server = BackgroundServer(registry, config).start()
            threads = [
                threading.Thread(target=worker, args=(server, i),
                                 daemon=True)
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.1)  # first request in-flight, rest queued
            server.stop()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive(), "a request hung at shutdown"

        assert len(results) == 4, "every request must be answered"
        abandoned = [doc for status, doc in results if status == 503]
        assert abandoned, "drain timeout never abandoned a request"
        assert any("abandoned at shutdown" in doc["error"]
                   for doc in abandoned)
        assert server.daemon.drain_abandoned_total >= 1
        snap = session.registry.snapshot()
        assert snap["counters"]["serve.drain.abandoned"] >= 1

    def test_graceful_drain_still_answers_everything(self, registry, rows):
        """With a sane grace period the drain path is unchanged: every
        accepted request completes with 200."""
        results = []
        lock = threading.Lock()

        def worker(server, i):
            status, _ = client.predict(
                server.host, server.port, "toy", rows[i], timeout=10.0
            )
            with lock:
                results.append(status)

        server = BackgroundServer(registry, _config()).start()
        threads = [
            threading.Thread(target=worker, args=(server, i), daemon=True)
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        server.stop()
        assert results == [200] * 4
        assert server.daemon.drain_abandoned_total == 0


class TestBackgroundServerErrors:
    def test_stop_surfaces_loop_death(self, registry):
        """A daemon that crashed mid-run must not look like a clean
        stop (the stop() re-check of self._error)."""
        server = BackgroundServer(registry, _config()).start()

        async def boom():
            raise RuntimeError("loop exploded")

        server.daemon.shutdown = boom
        with pytest.raises(ExecutionError, match="died while running"):
            server.stop()

    def test_stop_raises_when_the_loop_outlives_its_bound(
        self, registry, monkeypatch
    ):
        """A loop thread still alive after the shutdown's own bounds
        (drain grace period + listener close) is reported, not
        mistaken for a clean stop."""
        from repro.serving import daemon as daemon_mod

        monkeypatch.setattr(daemon_mod, "_WAIT_CLOSED_TIMEOUT_S", 0.0)
        server = BackgroundServer(
            registry, _config(drain_timeout_s=0.1)
        ).start()
        release = threading.Event()
        shutdown = server.daemon.shutdown

        async def wedged():
            release.wait(10.0)  # blocks the loop thread itself
            await shutdown()

        server.daemon.shutdown = wedged
        try:
            with pytest.raises(ExecutionError, match="wedged"):
                server.stop()
        finally:
            release.set()
        server.stop()  # the released loop now ends cleanly


class TestLoadGenerator:
    def test_run_load_reports(self, registry, rows):
        with BackgroundServer(registry, _config()) as server:
            report = client.run_load(
                server.host, server.port, "toy", rows,
                concurrency=4, requests_per_worker=3,
            )
        assert report.requests == 12
        assert report.errors == 0
        assert report.throughput_rps > 0
        assert report.latency_p50_ms <= report.latency_p99_ms
        doc = report.to_dict()
        assert doc["concurrency"] == 4
