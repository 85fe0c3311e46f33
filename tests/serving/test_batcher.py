"""MicroBatcher: coalescing identity, backpressure, drain semantics."""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import (
    BackpressureError,
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    ExecutionError,
)
from repro.faults import VariationInjector
from repro.serving import CircuitBreaker, MicroBatcher, ServingConfig

from .conftest import serial_labels
from .test_resilience import FakeClock


#: Every await on a waiter is bounded.  A waiter the batcher forgets to
#: resolve then fails its test within seconds instead of hanging the
#: suite; these tests are the waiter contract's guard.
WAIT_S = 5.0


def _run(coro):
    return asyncio.run(coro)


def _bounded(awaitable, timeout=WAIT_S):
    return asyncio.wait_for(awaitable, timeout)


def _batcher(entry, **kwargs):
    compute = ThreadPoolExecutor(max_workers=1)
    defaults = dict(max_batch=8, window_s=0.0, queue_depth=32)
    defaults.update(kwargs)
    return MicroBatcher(entry, compute, **defaults), compute


class TestCoalescingIdentity:
    def test_concurrent_submits_equal_serial_predict(self, entry, rows):
        """N coalesced requests answer byte-identically to one serial
        executor pass over the same rows."""

        async def body():
            batcher, compute = _batcher(entry, window_s=0.005)
            batcher.start()
            try:
                tasks = [
                    asyncio.ensure_future(batcher.submit(row))
                    for row in rows
                ]
                return await _bounded(asyncio.gather(*tasks))
            finally:
                await _bounded(batcher.drain())
                compute.shutdown()

        results = _run(body())
        served = [int(r.predictions[0]) for r in results]
        assert served == serial_labels(entry, rows)
        assert any(r.batch_requests > 1 for r in results), (
            "no request was ever coalesced — the window never batched"
        )

    def test_multi_row_requests_scatter_correctly(self, entry, rng):
        chunks = [rng.random((n, 12)) for n in (3, 1, 4)]

        async def body():
            batcher, compute = _batcher(entry, window_s=0.005)
            batcher.start()
            try:
                return await _bounded(asyncio.gather(
                    *[asyncio.ensure_future(batcher.submit(c))
                      for c in chunks]
                ))
            finally:
                await _bounded(batcher.drain())
                compute.shutdown()

        results = _run(body())
        reference = entry.executor.predict(np.concatenate(chunks, axis=0))
        scattered = np.concatenate([r.predictions for r in results])
        assert np.array_equal(scattered, reference)
        assert [len(r.predictions) for r in results] == [3, 1, 4]

    def test_launch_shares_sum_to_batch_total(self, entry, rng):
        chunks = [rng.random((n, 12)) for n in (2, 6)]

        async def body():
            batcher, compute = _batcher(entry, window_s=0.005)
            batcher.start()
            try:
                return await _bounded(asyncio.gather(
                    *[asyncio.ensure_future(batcher.submit(c))
                      for c in chunks]
                ))
            finally:
                await _bounded(batcher.drain())
                compute.shutdown()

        results = _run(body())
        total = sum(r.mvm_launches for r in results)
        assert total > 0
        # Shares are row-proportional: 2 rows vs 6 rows -> 1:3.
        assert results[1].mvm_launches == pytest.approx(
            3 * results[0].mvm_launches
        )


class TestBackpressure:
    def test_queue_bound_rejects(self, slow_entry, rows):
        async def body():
            batcher, compute = _batcher(
                slow_entry, max_batch=1, queue_depth=2
            )
            batcher.start()
            try:
                tasks = [
                    asyncio.ensure_future(batcher.submit(row))
                    for row in rows[:8]
                ]
                settled = await _bounded(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            finally:
                await _bounded(batcher.drain())
                compute.shutdown()
            return settled, batcher

        settled, batcher = _run(body())
        rejected = [s for s in settled if isinstance(s, BackpressureError)]
        served = [s for s in settled if not isinstance(s, Exception)]
        assert rejected, "queue bound never pushed back"
        assert served, "backpressure rejected everything"
        assert batcher.rejected_total == len(rejected)
        assert all("queue is full" in str(r) for r in rejected)

    def test_draining_rejects_new_submits(self, entry, rows):
        async def body():
            batcher, compute = _batcher(entry)
            batcher.start()
            await _bounded(batcher.drain())
            try:
                with pytest.raises(BackpressureError, match="draining"):
                    await _bounded(batcher.submit(rows[0]))
            finally:
                compute.shutdown()

        _run(body())


class TestDrain:
    def test_drain_completes_inflight_requests(self, slow_entry, rows):
        """Every request queued before drain is answered, none dropped."""

        async def body():
            batcher, compute = _batcher(slow_entry, max_batch=4)
            batcher.start()
            tasks = [
                asyncio.ensure_future(batcher.submit(row))
                for row in rows[:6]
            ]
            await asyncio.sleep(0)  # let submits enqueue
            await _bounded(batcher.drain())
            results = await _bounded(asyncio.gather(*tasks))
            compute.shutdown()
            return results

        results = _run(body())
        assert len(results) == 6
        served = [int(r.predictions[0]) for r in results]
        assert served == serial_labels(slow_entry, rows[:6])

    def test_idle_drain_runs_the_empty_flush_barrier(self, entry):
        """Draining an idle batcher pushes one zero-row batch through
        the full compute path — the crash the executor empty-batch fix
        removed."""

        async def body():
            batcher, compute = _batcher(entry)
            batcher.start()
            await _bounded(batcher.drain())
            compute.shutdown()
            return batcher

        batcher = _run(body())
        assert batcher.batches_total == 1  # the end-of-stream barrier
        assert batcher.requests_total == 0


class TestDeadlineAdmission:
    def test_first_request_admitted_without_estimate(self, entry, rows):
        """No EWMA sample yet -> admission is optimistic, even for a
        deadline the service time would later predict as missed."""

        async def body():
            batcher, compute = _batcher(entry)
            batcher.start()
            try:
                return await _bounded(batcher.submit(rows[0], deadline_s=10.0)), batcher
            finally:
                await _bounded(batcher.drain())
                compute.shutdown()

        result, batcher = _run(body())
        assert int(result.predictions[0]) == serial_labels(entry, rows[:1])[0]
        assert batcher.shed_deadline_total == 0
        assert batcher.estimator.samples == 1

    def test_enqueue_shed_when_ewma_predicts_miss(self, entry, rows):
        """Predicted wait beyond the deadline -> shed at admission with
        a computed Retry-After, not a queue-full 429."""

        async def body():
            batcher, compute = _batcher(entry)
            batcher.start()
            batcher.estimator.observe(0.25)  # pretend batches take 250 ms
            try:
                with pytest.raises(DeadlineExceededError) as err:
                    await _bounded(batcher.submit(rows[0], deadline_s=0.01))
            finally:
                await _bounded(batcher.drain())
                compute.shutdown()
            return batcher, err.value

        batcher, exc = _run(body())
        assert not isinstance(exc, BackpressureError), (
            "deadline shed must be a distinct taxonomy from queue-full"
        )
        assert "shed at admission" in str(exc)
        assert exc.retry_after_s == pytest.approx(0.25)
        assert batcher.shed_deadline_total == 1
        assert batcher.rejected_total == 0
        assert batcher.requests_total == 0, "shed requests never enqueue"

    def test_expiry_shed_at_dequeue(self, slow_entry, rows):
        """A request that ages out while queued behind a slow batch is
        shed at dequeue instead of wasting a forward pass."""

        async def body():
            batcher, compute = _batcher(slow_entry, max_batch=1)
            batcher.start()
            first = asyncio.ensure_future(batcher.submit(rows[0]))
            await asyncio.sleep(0.01)  # first batch is now in-flight
            late = asyncio.ensure_future(
                batcher.submit(rows[1], deadline_s=0.005)
            )
            settled = await _bounded(asyncio.gather(
                first, late, return_exceptions=True
            ))
            await _bounded(batcher.drain())
            compute.shutdown()
            return settled, batcher

        (first, late), batcher = _run(body())
        assert int(first.predictions[0]) == \
            serial_labels(slow_entry, rows[:1])[0]
        assert isinstance(late, DeadlineExceededError)
        assert "shed at dequeue" in str(late)
        assert late.retry_after_s > 0
        assert batcher.shed_expired_total == 1


class TestComputeSupervision:
    def test_timeout_fails_batch_and_rebuilds_pool(
        self, scripted_entry, entry, rows
    ):
        """A hung forward pass answers its waiters with 503-material
        ExecutionError, the pool is rebuilt, and the next batch runs."""

        async def body():
            stalling = scripted_entry([0.3])  # first call stalls 300 ms
            batcher, compute = _batcher(stalling, compute_timeout_s=0.05)
            batcher.start()
            try:
                with pytest.raises(ExecutionError, match="compute timeout"):
                    await _bounded(batcher.submit(rows[0]))
                result = await _bounded(batcher.submit(rows[1]))
            finally:
                await _bounded(batcher.drain())
                batcher._compute.shutdown()
                compute.shutdown()
            return batcher, result

        batcher, result = _run(body())
        assert batcher.compute_timeouts_total == 1
        assert batcher._compute.rebuilds == 1
        assert int(result.predictions[0]) == serial_labels(entry, rows[1:2])[0]

    def test_breaker_opens_then_probe_recloses(
        self, scripted_entry, entry, rows
    ):
        """Consecutive compute failures trip the per-model breaker;
        after the cooldown one probe batch closes it again.

        This is also the guard of the waiter contract's exception path:
        if ``_flush`` stops failing the batch when compute raises, the
        first submit never resolves, and its bounded await fails this
        test in seconds (see ``test_dropped_waiter_fails_fast``)."""
        clock = FakeClock()

        async def body():
            flaky = scripted_entry(["fail", "fail"])
            breaker = CircuitBreaker(threshold=2, cooldown_s=60.0,
                                     clock=clock)
            batcher, compute = _batcher(flaky, breaker=breaker)
            batcher.start()
            try:
                for k in range(2):
                    with pytest.raises(RuntimeError, match="scripted"):
                        await _bounded(batcher.submit(rows[k]))
                with pytest.raises(CircuitOpenError) as err:
                    await _bounded(batcher.submit(rows[2]))
                assert 0 < err.value.retry_after_s <= 60.0
                clock.advance(61.0)  # cooldown elapses -> half-open
                result = await _bounded(batcher.submit(rows[3]))
            finally:
                await _bounded(batcher.drain())
                compute.shutdown()
            return batcher, breaker, result

        batcher, breaker, result = _run(body())
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.opens_total == 1
        assert breaker.probes_total == 1
        assert batcher.compute_failures_total == 2
        assert batcher.breaker_rejected_total == 1
        assert int(result.predictions[0]) == serial_labels(entry, rows[3:4])[0]

    def test_dropped_waiter_fails_fast(
        self, scripted_entry, rows, monkeypatch
    ):
        """With the batch-failing step disabled, a compute failure
        leaves the waiter unresolved: the bounded await turns that hang
        into a prompt TimeoutError."""
        monkeypatch.setattr(MicroBatcher, "_fail_batch",
                            lambda self, batch, exc, outcome="": None)

        async def body():
            batcher, compute = _batcher(scripted_entry(["fail"]))
            batcher.start()
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await _bounded(batcher.submit(rows[0]), timeout=0.5)
            finally:
                await _bounded(batcher.drain())
                compute.shutdown()

        _run(body())

    def test_breaker_trip_fails_queued_requests(self, scripted_entry, rows):
        """When a flush trips the breaker, requests already queued are
        answered with CircuitOpenError — never silently abandoned."""

        async def body():
            flaky = scripted_entry(["fail"])
            breaker = CircuitBreaker(threshold=1, cooldown_s=60.0,
                                     clock=FakeClock())
            batcher, compute = _batcher(flaky, max_batch=1, breaker=breaker)
            batcher.start()
            first = asyncio.ensure_future(batcher.submit(rows[0]))
            queued = asyncio.ensure_future(batcher.submit(rows[1]))
            settled = await _bounded(asyncio.gather(
                first, queued, return_exceptions=True
            ))
            opened = breaker.opens_total
            await _bounded(batcher.drain())
            compute.shutdown()
            return settled, opened

        (first, queued), opened = _run(body())
        assert isinstance(first, RuntimeError)
        assert isinstance(queued, CircuitOpenError)
        assert "while this request was queued" in str(queued)
        assert opened == 1


class TestEnsemble:
    def test_majority_vote_matches_predict_trials(self, entry, rng):
        from repro.runtime import trial_rng
        from repro.serving import ModelEntry

        clones = [
            entry.executor.faulted(
                VariationInjector(0.15), trial_rng(0, f"serve|{t}")
            ).network
            for t in range(5)
        ]
        voted = ModelEntry(
            name="toy", executor=entry.executor,
            input_shape=(12,), ensemble=clones,
        )
        x = rng.random((7, 12))
        trials = entry.executor.predict_trials(x, clones)
        expected = []
        for j in range(x.shape[0]):
            values, counts = np.unique(trials[:, j], return_counts=True)
            expected.append(int(values[np.argmax(counts)]))
        assert voted.predict(x).tolist() == expected
        assert voted.ensemble_trials == 5

    def test_ensemble_empty_batch(self, entry):
        from repro.runtime import trial_rng
        from repro.serving import ModelEntry

        clones = [
            entry.executor.faulted(
                VariationInjector(0.15), trial_rng(0, f"serve|{t}")
            ).network
            for t in range(3)
        ]
        voted = ModelEntry(
            name="toy", executor=entry.executor,
            input_shape=(12,), ensemble=clones,
        )
        assert voted.predict(np.zeros((0, 12))).shape == (0,)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServingConfig(max_batch=0)
        with pytest.raises(ConfigurationError):
            ServingConfig(queue_depth=0)
        with pytest.raises(ConfigurationError):
            ServingConfig(batch_window_s=-0.1)
        with pytest.raises(ConfigurationError):
            ServingConfig(models=())
        with pytest.raises(ConfigurationError, match="together"):
            ServingConfig(ensemble_trials=4)  # sigma missing
