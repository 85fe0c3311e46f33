"""Configuration of the ``repro serve`` daemon.

All knobs are *execution* knobs: they shape latency, throughput and
memory, never the predictions themselves — a request's labels are
byte-identical whether it was coalesced into a 32-row batch or served
alone (the contract ``tests/serving/`` pins down).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from ..errors import ConfigurationError

__all__ = ["ServingConfig"]


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Knobs of one serving daemon.

    Attributes
    ----------
    host / port:
        Bind address; port 0 picks an ephemeral port (the bound port is
        exposed on :attr:`~repro.serving.daemon.ServingDaemon.port`).
    models:
        Benchmark network keys the registry loads (artifact-store
        cached; a cold start trains them first).
    max_batch:
        Coalescing bound — at most this many queued requests merge into
        one forward pass.  ``1`` disables cross-request batching.  There
        is no coalescing timer: a flush starts as soon as a request is
        pending, and a batch is whatever queued behind the previous
        flush.
    queue_depth:
        Backpressure bound — pending requests beyond this are rejected
        with :class:`~repro.errors.BackpressureError` (HTTP 429)
        instead of growing the queue without limit.
    drain_timeout_s:
        Grace period for in-flight requests on shutdown.  Requests
        still unanswered when it expires are *failed* (503 /
        :class:`~repro.errors.ExecutionError`, counted as
        ``serve.drain.abandoned``) rather than left hanging.
    compute_timeout_s:
        Per-batch forward-pass timeout.  A batch that exceeds it is
        failed with :class:`~repro.errors.ExecutionError` (HTTP 503)
        and the compute pool is rebuilt so the hung thread cannot
        wedge the daemon.  ``0`` disables the timeout.
    breaker_threshold / breaker_cooldown_s:
        Per-model circuit breaker: after ``breaker_threshold``
        consecutive batch failures the model answers
        :class:`~repro.errors.CircuitOpenError` (503 + ``Retry-After``)
        for ``breaker_cooldown_s``, then lets one probe batch through.
    n_samples / seed:
        Training-set size and master seed used to key the model cache
        (must match a previous run to reuse its artifacts).
    ensemble_sigma / ensemble_trials:
        When both are non-zero, each model also carries an ensemble of
        ``ensemble_trials`` variation-perturbed network clones; predict
        requests then run one trial-stacked forward pass
        (:func:`~repro.mapping.stacked.stack_networks`) and answer with
        the majority vote across realizations.
    """

    host: str = "127.0.0.1"
    port: int = 0
    models: Tuple[str, ...] = ("mlp-1",)
    max_batch: int = 32
    queue_depth: int = 128
    drain_timeout_s: float = 10.0
    compute_timeout_s: float = 30.0
    breaker_threshold: int = 5
    breaker_cooldown_s: float = 1.0
    n_samples: int = 600
    seed: int = 0
    ensemble_sigma: float = 0.0
    ensemble_trials: int = 0

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigurationError("need at least one model to serve")
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch!r}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth!r}"
            )
        if self.compute_timeout_s < 0:
            raise ConfigurationError(
                f"compute_timeout_s must be >= 0 (0 disables), got "
                f"{self.compute_timeout_s!r}"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got "
                f"{self.breaker_threshold!r}"
            )
        if self.breaker_cooldown_s < 0:
            raise ConfigurationError(
                f"breaker_cooldown_s must be >= 0, got "
                f"{self.breaker_cooldown_s!r}"
            )
        if self.seed < 0:
            raise ConfigurationError(
                f"seed must be >= 0, got {self.seed!r}: model-cache keys "
                "and ensemble trial streams derive from it"
            )
        if self.ensemble_trials < 0 or self.ensemble_sigma < 0:
            raise ConfigurationError("ensemble knobs must be >= 0")
        if bool(self.ensemble_trials) != bool(self.ensemble_sigma > 0):
            raise ConfigurationError(
                "ensemble_sigma and ensemble_trials must be set together"
            )
