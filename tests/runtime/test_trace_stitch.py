"""Cross-process trace stitching: worker span trees graft under the
parent's ``scheduler.cell`` spans into one trace."""

import multiprocessing

import pytest

from repro.runtime import CampaignCell, CampaignScheduler
from repro.telemetry import context
from repro.telemetry import session as telemetry

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="cross-process stitching needs fork-inherited sessions",
)


def _traced_double(payload, *_deps):
    with telemetry.span("work.step", payload=payload):
        return payload * 2


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
        assert cell_span.attrs == {"cell": "only", "local": False}

    @needs_fork
    def test_pooled_worker_spans_graft_under_their_cells(self):
        cells = [CampaignCell(f"c{i}", payload=i) for i in (1, 2, 3)]
        with telemetry.capture() as session:
            with context.trace_scope("job-1"):
                out = CampaignScheduler(_traced_double, workers=2).run(cells)
        assert out == {"c1": 2, "c2": 4, "c3": 6}
        cell_spans = {s.span_id: s for s in session.tracer.spans
                      if s.name == "scheduler.cell"}
        steps = [s for s in session.tracer.spans if s.name == "work.step"]
        assert len(cell_spans) == 3
        assert len(steps) == 3
        for step in steps:
            parent = cell_spans[step.parent_id]
            assert step.depth == parent.depth + 1
            assert step.trace_id == "job-1"
        # Grafted spans keep their payloads attributable to the cell
        # that computed them.
        by_cell = {cell_spans[s.parent_id].attrs["cell"]: s.attrs["payload"]
                   for s in steps}
        assert by_cell == {"c1": 1, "c2": 2, "c3": 3}

    def test_in_process_worker_spans_share_the_trace(self):
        cells = [CampaignCell("a", payload=1), CampaignCell("b", payload=2)]
        with telemetry.capture() as session:
            with context.trace_scope("job-2"):
                CampaignScheduler(_traced_double, workers=1).run(cells)
        assert all(s.trace_id == "job-2" for s in session.tracer.spans)
        names = [s.name for s in session.tracer.spans]
        assert names.count("work.step") == 2
        assert names.count("scheduler.cell") == 2
