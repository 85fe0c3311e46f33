"""Cross-process trace stitching: worker span trees graft under the
parent's chunk/cell spans into one trace."""

import multiprocessing

import pytest

from repro.runtime import CampaignCell, CampaignScheduler, ParallelRunner
from repro.telemetry import context
from repro.telemetry import session as telemetry

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="cross-process stitching needs fork-inherited sessions",
)


def _traced_double(payload, *_deps):
    with telemetry.span("work.step", payload=payload):
        return payload * 2


class TestRunnerGraft:
    @needs_fork
    def test_pooled_worker_spans_graft_under_chunk_spans(self):
        with telemetry.capture() as session:
            with context.trace_scope("job-1"):
                out = ParallelRunner(_traced_double, workers=2).map(
                    [1, 2, 3]
                )
        assert out == [2, 4, 6]
        chunks = [s for s in session.tracer.spans
                  if s.name == "runner.chunk"]
        steps = [s for s in session.tracer.spans if s.name == "work.step"]
        assert len(chunks) == 3
        assert len(steps) == 3
        chunk_ids = {s.span_id: s for s in chunks}
        for step in steps:
            parent = chunk_ids[step.parent_id]
            assert step.depth == parent.depth + 1
            assert step.trace_id == "job-1"
        # Grafted spans keep their payloads attributable to the chunk
        # that computed them.
        by_chunk = {chunk_ids[s.parent_id].attrs["index"]:
                    s.attrs["payload"] for s in steps}
        assert by_chunk == {0: 1, 1: 2, 2: 3}

    def test_serial_worker_spans_share_the_trace(self):
        with telemetry.capture() as session:
            with context.trace_scope("job-2"):
                ParallelRunner(_traced_double, workers=1).map([1, 2])
        assert all(s.trace_id == "job-2" for s in session.tracer.spans)
        names = [s.name for s in session.tracer.spans]
        assert names.count("work.step") == 2
        assert names.count("runner.chunk") == 2


class TestSchedulerCells:
    @needs_fork
    def test_worker_spans_stitch_under_cell_spans(self):
        cells = [
            CampaignCell(key="prep", payload=0, local=True),
            CampaignCell(key="a", payload=1, deps=("prep",)),
            CampaignCell(key="b", payload=2, deps=("prep",)),
        ]
        with telemetry.capture() as session:
            with context.trace_scope("camp-1"):
                results = CampaignScheduler(_traced_double, workers=2).run(
                    cells
                )
        assert results == {"prep": 0, "a": 2, "b": 4}
        cell_spans = {s.attrs.get("cell"): s for s in session.tracer.spans
                      if s.name == "scheduler.cell"}
        assert set(cell_spans) == {"prep", "a", "b"}
        assert cell_spans["prep"].attrs["local"] is True
        steps = [s for s in session.tracer.spans if s.name == "work.step"]
        # prep runs in-parent (one step), a and b in workers (grafted).
        assert len(steps) == 3
        for step in steps:
            assert step.trace_id == "camp-1"
        pooled_steps = [s for s in steps if s.attrs["payload"] in (1, 2)]
        for step in pooled_steps:
            parent = next(s for s in session.tracer.spans
                          if s.span_id == step.parent_id)
            assert parent.name == "scheduler.cell"
            assert step.depth == parent.depth + 1

    def test_serial_cells_labelled_without_pool(self):
        cells = [CampaignCell(key="only", payload=3)]
        with telemetry.capture() as session:
            CampaignScheduler(_traced_double, workers=1).run(cells)
        (cell_span,) = [s for s in session.tracer.spans
                        if s.name == "scheduler.cell"]
        assert cell_span.attrs["cell"] == "only"
        assert cell_span.attrs["tasks"] == 1
