"""Unit tests for the resilience primitives (no sockets, no sleeps)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving import (
    CircuitBreaker,
    ComputePool,
    RetryPolicy,
    ServiceTimeEstimator,
)
from repro.serving.resilience import ServingMetrics
from repro.telemetry import session as telemetry


class FakeClock:
    """Manually-advanced monotonic clock for breaker transitions."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestServiceTimeEstimator:
    def test_starts_unknown_then_tracks(self):
        est = ServiceTimeEstimator(alpha=0.5)
        assert est.value is None
        assert est.observe(0.1) == pytest.approx(0.1)
        # EWMA: 0.1 + 0.5 * (0.3 - 0.1) = 0.2
        assert est.observe(0.3) == pytest.approx(0.2)
        assert est.samples == 2

    def test_alpha_one_tracks_last_sample(self):
        est = ServiceTimeEstimator(alpha=1.0)
        est.observe(0.5)
        est.observe(0.01)
        assert est.value == pytest.approx(0.01)

    def test_alpha_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceTimeEstimator(alpha=0.0)
        with pytest.raises(ConfigurationError):
            ServiceTimeEstimator(alpha=1.5)

    def test_budget_none_until_first_sample(self):
        est = ServiceTimeEstimator()
        assert est.budget() is None
        est.observe(0.1)
        assert est.budget() == pytest.approx(0.1)  # dev and peak at mean

    def test_budget_covers_deviation_tail(self):
        est = ServiceTimeEstimator(alpha=0.5)
        for sample in (0.1, 0.2, 0.1, 0.2, 0.1):
            est.observe(sample)
        assert est.dev > 0.0
        assert est.budget(k=2.0) >= est.value + 2.0 * est.dev - 1e-12

    def test_budget_covers_recent_peak_then_decays(self):
        est = ServiceTimeEstimator(alpha=0.25)
        for _ in range(8):
            est.observe(0.01)
        est.observe(0.2)  # one stall: the peak must cover it at once
        assert est.peak == pytest.approx(0.2)
        assert est.budget() >= 0.2 - 1e-12
        assert est.value < 0.1  # the mean barely moved
        for _ in range(50):
            est.observe(0.01)
        # with the stall long gone the peak relaxes back toward the mean
        assert est.peak < 0.05


class TestCircuitBreaker:
    def test_full_transition_sequence(self):
        """closed → open after N failures → half-open probe → closed."""
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_s=5.0, clock=clock)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.admit()
        breaker.record_failure()  # third consecutive: trips
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.admit()
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(2.0)
        assert breaker.retry_after() == pytest.approx(3.0)
        assert not breaker.admit()
        clock.advance(3.0)  # cooldown elapsed
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.admit()  # the probe
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.opens_total == 1
        assert breaker.probes_total == 1

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=1.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(1.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()  # probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens_total == 2
        clock.advance(1.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=1.0,
                                 clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED, (
            "non-consecutive failures must not trip the breaker"
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown_s=-1.0)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_backoff_s=0.1, max_backoff_s=0.4,
                             jitter=0.0)
        rng = policy.rng()
        delays = [policy.backoff_s(k, rng) for k in range(4)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.4])

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_backoff_s=0.1, max_backoff_s=0.1,
                             jitter=0.5, seed=42)
        first = [policy.backoff_s(0, policy.rng()) for _ in range(3)]
        assert len(set(first)) == 1, "same seed must replay the schedule"
        assert 0.1 <= first[0] <= 0.15 + 1e-12
        other = policy.backoff_s(0, RetryPolicy(
            base_backoff_s=0.1, max_backoff_s=0.1, jitter=0.5, seed=43
        ).rng())
        assert other != pytest.approx(first[0]), (
            "different seeds must desynchronise"
        )

    def test_retry_after_hint_wins_when_larger(self):
        policy = RetryPolicy(base_backoff_s=0.01, max_backoff_s=0.01,
                             jitter=0.0)
        rng = policy.rng()
        assert policy.backoff_s(0, rng, retry_after_s=0.5) == \
            pytest.approx(0.5)
        assert policy.backoff_s(0, rng, retry_after_s=0.001) == \
            pytest.approx(0.01), "a smaller hint never shortens the backoff"

    def test_statuses(self):
        policy = RetryPolicy()
        assert policy.should_retry_status(429)
        assert policy.should_retry_status(503)
        assert not policy.should_retry_status(400)
        assert not policy.should_retry_status(500)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_backoff_s=0.5, max_backoff_s=0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(seed=-1)


class TestServingMetrics:
    def test_declared_counters_start_at_zero(self):
        metrics = ServingMetrics("requests", "shed.deadline")
        assert metrics.counter_values() == {"requests": 0,
                                            "shed_deadline": 0}

    def test_each_write_is_mirrored_to_the_session(self):
        metrics = ServingMetrics()
        with telemetry.capture() as session:
            metrics.count("shed.deadline", 2)
            metrics.set_gauge("queue_depth", 3)
        metrics.count("shed.deadline")  # no session: registry only
        assert metrics.counter_values() == {"shed_deadline": 3}
        snap = session.registry.snapshot()
        assert snap["counters"] == {"serve.shed.deadline": 2}
        assert snap["gauges"] == {"serve.queue_depth": 3.0}


class TestComputePool:
    def test_rebuild_replaces_executor(self):
        pool = ComputePool()
        first = pool.executor
        assert first.submit(lambda: 7).result() == 7
        pool.rebuild()
        assert pool.executor is not first
        assert pool.metrics.counter("compute.rebuilds").value == 1
        assert pool.executor.submit(lambda: 8).result() == 8
        pool.shutdown()

    def test_rng_helper_is_seeded(self):
        policy = RetryPolicy(seed=5)
        a, b = policy.rng(), policy.rng()
        assert a.random() == b.random()
        assert isinstance(a, np.random.Generator)
