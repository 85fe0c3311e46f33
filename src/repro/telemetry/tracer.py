"""Nested spans with monotonic wall/CPU timings, serialised as JSONL.

A :class:`Tracer` hands out spans two ways:

* :meth:`Tracer.span` — a context manager for code the caller wraps
  inline (``with tracer.span("fig7.sigma_column", sigma=0.1): ...``);
  nesting follows the ``with`` structure.
* :meth:`Tracer.record_span` — for intervals timed elsewhere (e.g. the
  parent-side turnaround of a pooled campaign cell, whose start/end
  the scheduler observed around a future).  The recorded span is
  parented to whatever inline span is open at record time.

Spans appear in ``spans`` in creation order, children strictly after
their parent, so a single forward pass over the list renders the tree.
Durations come from :func:`repro.telemetry.clock.perf` and CPU cost
from :func:`repro.telemetry.clock.cpu`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from typing import Any, Dict, Iterator, List, Optional

from ..units import MILLI
from . import clock, context

__all__ = ["Span", "Tracer"]


@dataclasses.dataclass
class Span:
    """One timed interval in the span tree.

    Attributes
    ----------
    span_id / parent_id / depth:
        Tree structure; ``parent_id`` is ``None`` for roots.
    name:
        Dotted lowercase identifier (``campaign.trial_group``).
    attrs:
        JSON-serialisable labels (sigma, cell key, ...).
    start_wall:
        Epoch seconds at start (cross-run correlation only; durations
        never use it).
    duration_s / cpu_s:
        Filled when the span closes; ``cpu_s`` is ``None`` for
        externally timed spans (the CPU burn happened in a worker).
    status:
        ``"ok"``, or ``"error"`` when the wrapped block raised.
    trace_id:
        Identity of the logical trace this span belongs to (see
        :mod:`repro.telemetry.context`); ``None`` for spans recorded
        outside any trace scope.
    """

    span_id: int
    parent_id: Optional[int]
    depth: int
    name: str
    attrs: Dict[str, Any]
    start_wall: float
    duration_s: Optional[float] = None
    cpu_s: Optional[float] = None
    status: str = "ok"
    trace_id: Optional[str] = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class Tracer:
    """Collects a span tree for one run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        # start timings of spans opened via start_span, keyed by span_id
        self._explicit: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def _open(self, name: str, attrs: Dict[str, Any],
              parent: Optional[Span] = None,
              trace_id: Optional[str] = None) -> Span:
        if parent is None and self._stack:
            parent = self._stack[-1]
        if trace_id is None:
            trace_id = context.current_trace_id()
        span = Span(
            span_id=len(self.spans),
            parent_id=parent.span_id if parent is not None else None,
            depth=parent.depth + 1 if parent is not None else 0,
            name=name,
            attrs=attrs,
            start_wall=clock.wall(),
            trace_id=trace_id,
        )
        self.spans.append(span)
        return span

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open inline span, if any."""
        return self._stack[-1] if self._stack else None

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Time a block as a child of the innermost open span."""
        span = self._open(name, attrs)
        self._stack.append(span)
        start_perf = clock.perf()
        start_cpu = clock.cpu()
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            span.duration_s = clock.perf() - start_perf
            span.cpu_s = clock.cpu() - start_cpu
            self._stack.pop()

    def record_span(self, name: str, start_perf: float, end_perf: float,
                    *, parent: Optional[Span] = None,
                    trace_id: Optional[str] = None,
                    status: str = "ok", **attrs: Any) -> Span:
        """Record an interval timed by the caller (both endpoints from
        :func:`clock.perf`), parented to the innermost open span unless
        an explicit ``parent`` span is given."""
        span = self._open(name, attrs, parent=parent, trace_id=trace_id)
        # Back-date the wall timestamp from the perf interval.
        span.start_wall = clock.wall() - (clock.perf() - start_perf)
        span.duration_s = end_perf - start_perf
        span.status = status
        return span

    def start_span(self, name: str, *, parent: Optional[Span] = None,
                   trace_id: Optional[str] = None, **attrs: Any) -> Span:
        """Open a span without pushing it on the inline stack.

        For intervals whose begin and end live in different callbacks
        (an HTTP request awaiting the batcher, say) where a ``with``
        block cannot bracket the work.  Close with :meth:`end_span`;
        ``cpu_s`` stays ``None`` — between the endpoints the process
        ran unrelated work, so a CPU delta would lie.
        """
        span = self._open(name, attrs, parent=parent, trace_id=trace_id)
        self._explicit[span.span_id] = clock.perf()
        return span

    def end_span(self, span: Span, status: str = "ok") -> Span:
        """Close a span opened with :meth:`start_span` (idempotent)."""
        start_perf = self._explicit.pop(span.span_id, None)
        if start_perf is not None:
            span.duration_s = clock.perf() - start_perf
            span.status = status
        return span

    def graft_records(self, records: List[dict],
                      parent: Span) -> List[Span]:
        """Stitch serialized spans from another process under ``parent``.

        ``records`` is a list of :meth:`Span.to_dict` documents in
        creation order (parents before children), as shipped back from
        a pool worker.  Ids are re-issued from this tracer's sequence,
        intra-batch parent links are remapped, roots of the shipped
        forest become children of ``parent``, and spans missing a
        trace id inherit the parent's — yielding one contiguous
        cross-process trace.
        """
        grafted: List[Span] = []
        id_map: Dict[int, Span] = {}
        for record in records:
            old_parent = record.get("parent_id")
            anchor = id_map.get(old_parent, parent)
            span = Span(
                span_id=len(self.spans),
                parent_id=anchor.span_id,
                depth=anchor.depth + 1,
                name=record["name"],
                attrs=dict(record.get("attrs") or {}),
                start_wall=record.get("start_wall", 0.0),
                duration_s=record.get("duration_s"),
                cpu_s=record.get("cpu_s"),
                status=record.get("status", "ok"),
                trace_id=record.get("trace_id") or parent.trace_id,
            )
            self.spans.append(span)
            id_map[record["span_id"]] = span
            grafted.append(span)
        return grafted

    # ------------------------------------------------------------------
    def to_records(self) -> List[dict]:
        return [span.to_dict() for span in self.spans]

    def to_jsonl(self) -> bytes:
        """One JSON document per span, creation order."""
        lines = [json.dumps(record, sort_keys=True)
                 for record in self.to_records()]
        return ("\n".join(lines) + "\n").encode() if lines else b""

    def render_tree(self) -> str:
        """Indented text rendering of the span tree."""
        if not self.spans:
            return "(no spans recorded)"
        lines = []
        for span in self.spans:
            duration = ("...open" if span.duration_s is None
                        else f"{span.duration_s / MILLI:.1f} ms")
            cpu = (f" cpu {span.cpu_s / MILLI:.1f} ms"
                   if span.cpu_s is not None else "")
            attrs = "".join(
                f" {key}={value}" for key, value in sorted(span.attrs.items())
            )
            flag = "" if span.status == "ok" else f" [{span.status}]"
            lines.append(
                f"{'  ' * span.depth}{span.name}  {duration}{cpu}{attrs}{flag}"
            )
        return "\n".join(lines)
