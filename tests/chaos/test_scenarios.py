"""End-to-end chaos scenarios: the daemon must survive every injected
infrastructure fault with zero hung requests, the documented error
taxonomy, and byte-identical post-recovery predictions.

Each scenario drives a real :class:`BackgroundServer` over sockets with
a seeded :class:`~repro.chaos.ChaosPlan` and closes with the same two
checks: ``/healthz`` still answers, and serving the full row set again
reproduces one serial ``PIMExecutor`` pass exactly.
"""

import time

import pytest

from repro.chaos import parse_chaos_spec
from repro.errors import ConfigurationError
from repro.serving import ModelRegistry, RetryPolicy, client

from tests.serving.conftest import serial_labels

from .conftest import chaos_config


def _assert_recovered(server, entry, rows):
    """Post-recovery predictions are byte-identical to a serial pass
    and the daemon still reports healthy."""
    served = []
    for row in rows:
        status, doc = client.predict(
            server.host, server.port, "toy", row, timeout=10.0
        )
        assert status == 200
        served.append(doc["predictions"][0])
    assert served == serial_labels(entry, rows)
    status, health = client.request(
        server.host, server.port, "GET", "/healthz"
    )
    assert (status, health["status"]) == (200, "ok")


class TestComputeExceptionScenario:
    def test_500s_then_breaker_then_recovery(self, chaos_server, entry,
                                             rows):
        """Two injected forward-pass faults: each answers 500 (a model
        bug, not a serving bug), the breaker trips, fails fast with
        503 + Retry-After, then one probe batch re-closes it."""
        server, plan = chaos_server(
            "compute-exception:after=0,count=2",
            config=chaos_config(breaker_threshold=2,
                                breaker_cooldown_s=0.2),
        )
        for _ in range(2):
            status, doc = client.predict(
                server.host, server.port, "toy", rows[0], timeout=10.0
            )
            assert status == 500
            assert "ChaosFault" in doc["error"]
        status, doc = client.predict(
            server.host, server.port, "toy", rows[0], timeout=10.0
        )
        assert status == 503, "an open breaker must fail fast"
        assert "circuit breaker is open" in doc["error"]
        assert doc["retry_after_s"] > 0
        time.sleep(0.25)  # cooldown elapses -> half-open probe
        _assert_recovered(server, entry, rows)
        _, metrics = client.request(
            server.host, server.port, "GET", "/metrics"
        )
        assert metrics["totals"]["compute_failures"] == 2
        assert metrics["totals"]["breaker_rejected"] >= 1
        assert metrics["models"]["toy"]["breaker_opens"] == 1
        assert plan.fired_total() == 2
        server.stop()
        assert server.daemon.metrics.counter("drain.abandoned").value == 0, (
            "no request may be left unresolved"
        )


class TestLatencySpikeScenario:
    def test_timeout_rebuild_then_recovery(self, chaos_server, entry,
                                           rows):
        """One forward pass stalls past the compute timeout: its batch
        is answered 503, the pool is rebuilt, and the next batch runs
        on the fresh executor while the hung thread finishes offstage."""
        server, plan = chaos_server(
            "latency-spike:ms=400,after=0,count=1",
            config=chaos_config(compute_timeout_s=0.05),
        )
        status, doc = client.predict(
            server.host, server.port, "toy", rows[0], timeout=10.0
        )
        assert status == 503
        assert "compute timeout" in doc["error"]
        _assert_recovered(server, entry, rows)
        _, metrics = client.request(
            server.host, server.port, "GET", "/metrics"
        )
        assert metrics["totals"]["compute_timeouts"] == 1
        assert metrics["compute_rebuilds"] == 1
        assert plan.fired_total() == 1
        server.stop()
        assert server.daemon.metrics.counter("drain.abandoned").value == 0


class TestRegistryCorruptionScenario:
    def test_failed_load_is_isolated_per_model(self, chaos_server, entry,
                                               rows):
        """An artifact that fails at load marks only that model: the
        daemon starts, answers 503 for it and keeps serving the rest."""
        load_plan = parse_chaos_spec(
            "registry-corruption:model=broken,mode=fail"
        )
        plan_registry = ModelRegistry.build(
            ["toy", "broken"],
            loader=lambda key: entry,
            load_hook=load_plan.on_model_load,
        )
        assert "broken" in plan_registry.failed
        server, _ = chaos_server(
            "conn-drop:after=0,count=0",  # inert plan; fault is at load
            registry_=plan_registry,
        )
        status, doc = client.predict(
            server.host, server.port, "broken", rows[0], timeout=10.0
        )
        assert status == 503
        assert "failed to load" in doc["error"]
        _assert_recovered(server, entry, rows)

    def test_all_models_failing_is_startup_error(self):
        plan = parse_chaos_spec("registry-corruption:mode=fail")
        with pytest.raises(ConfigurationError, match="every configured"):
            ModelRegistry.build(
                ["a", "b"],
                loader=lambda key: pytest.fail("loader must not run"),
                load_hook=plan.on_model_load,
            )


class TestConnectionDropScenario:
    def test_dropped_connections_are_retried_to_success(
        self, chaos_server, entry, rows
    ):
        """The first two connections die before any response bytes; a
        retrying client absorbs them and every request completes."""
        server, plan = chaos_server("conn-drop:after=0,count=2")
        policy = RetryPolicy(max_attempts=4, base_backoff_s=0.005,
                             max_backoff_s=0.01, jitter=0.0,
                             total_budget_s=30.0, seed=11)
        status, doc = client.predict(
            server.host, server.port, "toy", rows[0],
            timeout=5.0, retry=policy,
        )
        assert status == 200
        assert doc["attempts"] == 3, "both drops retried, third landed"
        assert plan.fired_total() == 2
        _assert_recovered(server, entry, rows)
        _, metrics = client.request(
            server.host, server.port, "GET", "/metrics"
        )
        assert metrics["chaos_dropped_connections"] == 2
        server.stop()
        assert server.daemon.metrics.counter("drain.abandoned").value == 0
