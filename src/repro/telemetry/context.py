"""Deterministic trace identity and ambient propagation.

A *trace* groups every span produced on behalf of one logical unit of
work — one HTTP request travelling through parse, queue, batch and
compute, or one fault campaign spanning scheduler cells and pool
workers.  Trace ids are minted by :class:`TraceIdAllocator`: a
monotonic counter combined with a seed derived from the session's
command and seed via CRC-32.  They are **never** drawn from an
experiment RNG stream (the same discipline as
:mod:`repro.telemetry.metrics` reservoirs), so tracing cannot perturb
seeded computation, and two runs of the same command mint the same id
sequence.

Propagation uses a :class:`contextvars.ContextVar`, so the ambient
trace follows asyncio tasks and threads started with a copied context.
Code that crosses an explicit boundary (the micro-batcher queue, a
process pool) carries the ``trace_id`` by value instead — see
``serving/batcher.py`` and ``runtime/scheduler.py``.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import zlib
from typing import Iterator, Optional

__all__ = [
    "TraceContext", "TraceIdAllocator", "derive_trace_seed",
    "current", "current_trace_id", "attach", "detach", "trace_scope",
]


@dataclasses.dataclass(frozen=True)
class TraceContext:
    """The ambient trace identity for the current task/thread."""

    trace_id: str

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id}

    @classmethod
    def from_dict(cls, doc: dict) -> "TraceContext":
        return cls(trace_id=str(doc["trace_id"]))


def derive_trace_seed(command: str, seed: Optional[int]) -> int:
    """Stable 32-bit namespace for a session's trace ids."""
    return zlib.crc32(f"{command}|{seed}".encode())


class TraceIdAllocator:
    """Monotonic, seeded trace-id mint: ``"<seed:08x>-<counter:06x>"``.

    Deliberately not an RNG: ids must be unique and reproducible, not
    unpredictable, and drawing them from any random stream would risk
    entangling telemetry with experiment determinism.
    """

    __slots__ = ("seed", "_counter")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed & 0xFFFFFFFF
        self._counter = 0

    def new_trace_id(self) -> str:
        self._counter += 1
        return f"{self.seed:08x}-{self._counter:06x}"

    @property
    def issued(self) -> int:
        return self._counter


# ----------------------------------------------------------------------
# ambient propagation

_CURRENT: contextvars.ContextVar[Optional[TraceContext]] = (
    contextvars.ContextVar("repro_trace_context", default=None)
)


def current() -> Optional[TraceContext]:
    """The ambient trace context, or ``None``."""
    return _CURRENT.get()


def current_trace_id() -> Optional[str]:
    ctx = _CURRENT.get()
    return ctx.trace_id if ctx is not None else None


def attach(ctx: TraceContext) -> contextvars.Token:
    """Install ``ctx`` as the ambient trace; pass the token to
    :func:`detach` to restore the previous one."""
    return _CURRENT.set(ctx)


def detach(token: contextvars.Token) -> None:
    _CURRENT.reset(token)


@contextlib.contextmanager
def trace_scope(trace_id: Optional[str] = None
                ) -> Iterator[Optional[TraceContext]]:
    """Adopt ``trace_id`` (or mint one from the active session) for the
    block.  Yields ``None`` without touching the context when telemetry
    is disabled and no explicit id was given, so the disabled path
    stays a single ``active()`` check.
    """
    if trace_id is None:
        from . import session as _session

        active = _session.active()
        if active is None:
            yield None
            return
        trace_id = active.new_trace_id()
    ctx = TraceContext(trace_id=trace_id)
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)
