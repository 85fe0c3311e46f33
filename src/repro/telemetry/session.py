"""Session lifecycle: the one mutable switch the instrumentation reads.

A :class:`TelemetrySession` bundles a :class:`~repro.telemetry.metrics.
MetricsRegistry`, a :class:`~repro.telemetry.tracer.Tracer` and a
:class:`~repro.telemetry.manifest.RunManifest` for a single run.  The
module keeps at most one active session in ``_ACTIVE``; instrumented
code asks :func:`active` (returns the session or ``None``) and guards
with a single ``is not None`` check, or calls the module-level
:func:`count` / :func:`observe` / :func:`set_gauge` / :func:`span`
helpers, which are no-ops when disabled.

The disabled path is deliberately trivial — one global load and one
``None`` comparison — so leaving instrumentation in hot loops costs
nothing measurable (see ``tests/telemetry/test_session.py`` for the
benchmark).  Telemetry is an *execution knob*: enabling it must never
change experiment bytes, fingerprints or RNG streams.

Telemetry is parent-process-only: forked pool workers inherit the
active session but their copies die with the worker, so metrics
recorded inside a worker never reach the parent.  Worker-side costs are
observed from the parent (the per-cell turnaround spans of
:class:`repro.runtime.CampaignScheduler`, with the worker's own spans
shipped back and grafted beneath them).
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Iterator, Optional, Sequence

from .context import TraceIdAllocator, derive_trace_seed
from .manifest import RunManifest
from .metrics import MetricsRegistry
from .tracer import Tracer

__all__ = [
    "TelemetrySession", "enable", "disable", "active",
    "count", "observe", "set_gauge", "span", "capture",
]


class TelemetrySession:
    """Registry + tracer + manifest for one instrumented run."""

    def __init__(
        self,
        command: str = "adhoc",
        argv: Sequence[str] = (),
        config: Optional[dict] = None,
        seed: Optional[int] = None,
        reservoir_size: int = 1024,
    ) -> None:
        self.registry = MetricsRegistry(
            seed=seed or 0, reservoir_size=reservoir_size
        )
        self.tracer = Tracer()
        self.manifest = RunManifest.begin(
            command, argv=argv, config=config, seed=seed
        )
        self.trace_ids = TraceIdAllocator(
            seed=derive_trace_seed(command, seed)
        )
        self._finalized = False

    # write paths ------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        self.registry.count(name, n)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        self.registry.set_gauge(name, value)

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def new_trace_id(self) -> str:
        """Mint the next deterministic trace id (counter, never RNG)."""
        return self.trace_ids.new_trace_id()

    # lifecycle --------------------------------------------------------
    def finalize(self) -> RunManifest:
        """Close the manifest with the final metrics snapshot (idempotent)."""
        if not self._finalized:
            self.manifest.finish(metrics=self.registry.snapshot())
            self._finalized = True
        return self.manifest

    def save(self, directory: str) -> dict:
        """Persist ``manifest.json`` + ``spans.jsonl`` under ``directory``.

        Both files go through the artifact store's atomic-write path so
        an interrupted save never leaves torn telemetry.  Returns the
        paths written.
        """
        from ..store.atomic import atomic_write_bytes, atomic_write_json

        self.finalize()
        os.makedirs(directory, exist_ok=True)
        manifest_path = os.path.join(directory, "manifest.json")
        spans_path = os.path.join(directory, "spans.jsonl")
        atomic_write_json(manifest_path, self.manifest.to_dict())
        atomic_write_bytes(spans_path, self.tracer.to_jsonl())
        return {"manifest": manifest_path, "spans": spans_path}


# ----------------------------------------------------------------------
# module-level switch

_ACTIVE: Optional[TelemetrySession] = None


class _NullSpan:
    """Stateless context manager returned by :func:`span` when disabled."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def enable(session: Optional[TelemetrySession] = None,
           **kwargs: Any) -> TelemetrySession:
    """Install ``session`` (or a fresh one built from ``kwargs``) as the
    active session and return it."""
    global _ACTIVE
    if session is None:
        session = TelemetrySession(**kwargs)
    _ACTIVE = session
    return session


def disable() -> Optional[TelemetrySession]:
    """Deactivate and return the previously active session, if any."""
    global _ACTIVE
    session, _ACTIVE = _ACTIVE, None
    return session


def active() -> Optional[TelemetrySession]:
    """The active session, or ``None`` — the hot-path guard."""
    return _ACTIVE


# no-op-when-disabled conveniences -------------------------------------

def count(name: str, n: float = 1) -> None:
    if _ACTIVE is not None:
        _ACTIVE.count(name, n)


def observe(name: str, value: float) -> None:
    if _ACTIVE is not None:
        _ACTIVE.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    if _ACTIVE is not None:
        _ACTIVE.set_gauge(name, value)


def span(name: str, **attrs: Any):
    if _ACTIVE is not None:
        return _ACTIVE.span(name, **attrs)
    return _NULL_SPAN


@contextlib.contextmanager
def capture(**kwargs: Any) -> Iterator[TelemetrySession]:
    """Enable a fresh session for the block, restoring the previous
    active session afterwards.  Test-suite convenience."""
    global _ACTIVE
    previous = _ACTIVE
    session = TelemetrySession(**kwargs)
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous
