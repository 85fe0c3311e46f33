"""Dependency-aware campaign-grid scheduling on the process pool.

:class:`ParallelRunner` maps one flat task list; a campaign grid has
more structure — shared model-build/program work feeding many
independent trial-group cells.  :class:`CampaignScheduler` expresses
that structure as a DAG of :class:`CampaignCell` nodes and executes it
in dependency waves on the existing crash-tolerant pool:

* **local cells** run in the parent process (model training, chip
  preparation, store warm-up — anything that must respect the
  single-writer invariant of the artifact store);
* **pooled cells** fan out through a :class:`ParallelRunner` per wave,
  inheriting its chunking, crash retry and order preservation.  A
  pooled cell's worker function receives its payload plus the results
  of its dependency cells (see :meth:`CampaignScheduler.run` for how
  those reach a worker process);
* **resume**: an optional ``completed`` probe short-circuits cells
  whose results already exist (e.g. in the artifact store), so an
  interrupted grid re-invocation recomputes nothing finished —
  cell-granularity resume;
* **determinism**: the scheduler feeds no scheduling information to the
  cells; seeding-disciplined workers therefore produce byte-identical
  results at any worker count (the :mod:`repro.runtime.seeding`
  contract, unchanged).

Results merge parent-side through ``on_result`` as each cell lands —
the hook campaign callers use to persist finished cells immediately.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ExecutionError
from ..telemetry import session as _telemetry
from .runner import ParallelRunner

__all__ = ["CampaignCell", "CampaignScheduler"]


@dataclasses.dataclass(frozen=True)
class CampaignCell:
    """One schedulable unit of a campaign grid.

    Attributes
    ----------
    key:
        Unique cell identifier (also the resume key).
    payload:
        The task handed to the worker function (must be picklable for
        pooled cells at ``workers > 1``).
    deps:
        Keys of cells that must complete before this one starts.
    local:
        Run in the parent process (via ``local_fn``) instead of the
        pool — for shared-prepare cells and store writers.
    """

    key: str
    payload: Any = None
    deps: Tuple[str, ...] = ()
    local: bool = False


# The results of the scheduler whose run() is executing a pooled wave,
# set only for the duration of that wave.  In-process cells and workers
# forked meanwhile read their dependency results from it by identity; a
# spawned worker starts without it and _adopt installs a _Rebuilt.
_RUNNING: Optional[Mapping[str, Any]] = None


class _Rebuilt(dict):
    """Dependency results of a worker that inherited none (spawn start
    method): each one is recomputed once per process, on first read, as
    the parent computed it — a local cell through ``local_fn``."""

    def __init__(self, scheduler: CampaignScheduler,
                 cells: Dict[str, CampaignCell]) -> None:
        super().__init__()
        self.scheduler = scheduler
        self.cells = cells

    def __missing__(self, key: str) -> Any:
        value = self[key] = self.scheduler._call(self.cells[key], self)
        return value


def _adopt(scheduler: CampaignScheduler,
           cells: Dict[str, CampaignCell]) -> None:
    """Pool initializer: a worker that did not inherit the running
    scheduler's results (spawn) rebuilds the ones it reads."""
    global _RUNNING
    if _RUNNING is None:
        _RUNNING = _Rebuilt(scheduler, cells)


def _run_keyed(fn: Callable[..., Any],
               task: Tuple[str, Any, Tuple[str, ...]]) -> Any:
    """Pooled cell trampoline: call ``fn(payload, *dependency results)``.

    Module-level (fork/spawn-picklable); the key rides along so the
    parent can attribute completion-order results to cells without
    relying on payload uniqueness.
    """
    _key, payload, deps = task
    results = _RUNNING
    assert results is not None, "pooled cell ran outside a scheduler run"
    return fn(payload, *(results[dep] for dep in deps))


def _cell_span_attrs(chunk: Sequence[Tuple[Any, ...]]) -> Dict[str, Any]:
    """Label a pooled chunk's span with the cell key(s) it carries.

    Runs parent-side (the runner's ``span_attrs`` hook); campaign grids
    use ``chunk_size=1`` so the common shape is one ``cell`` attribute,
    but larger chunks stay attributable too.
    """
    if len(chunk) == 1:
        return {"cell": chunk[0][0]}
    return {"cells": [task[0] for task in chunk]}


class CampaignScheduler:
    """Executes a DAG of :class:`CampaignCell` nodes.

    Parameters
    ----------
    worker_fn:
        Module-level (picklable) callable; a pooled cell computes
        ``worker_fn(cell.payload, *results of cell.deps)``.
    workers / chunk_size / max_retries:
        Forwarded to the per-wave :class:`ParallelRunner` (see there);
        ``workers <= 1`` runs every cell in-process.
    local_fn:
        Parent-side callable for ``local=True`` cells, receiving the
        :class:`CampaignCell`; defaults to the worker-function call of
        a pooled cell.  Must be picklable if a pooled cell depends on a
        local one and the pool spawns rather than forks its workers.
    """

    def __init__(
        self,
        worker_fn: Callable[..., Any],
        workers: int = 1,
        chunk_size: int = 1,
        max_retries: int = 2,
        local_fn: Optional[Callable[[CampaignCell], Any]] = None,
    ) -> None:
        self.worker_fn = worker_fn
        self.workers = workers
        self.chunk_size = chunk_size
        self.max_retries = max_retries
        self.local_fn = local_fn
        #: pool rebuilds performed across all waves of the last :meth:`run`
        self.pool_rebuilds = 0

    # ------------------------------------------------------------------
    def _validate(self, cells: Sequence[CampaignCell]) -> None:
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            dupes = sorted({k for k in keys if keys.count(k) > 1})
            raise ConfigurationError(f"duplicate cell keys: {dupes}")
        known = set(keys)
        for cell in cells:
            missing = [d for d in cell.deps if d not in known]
            if missing:
                raise ConfigurationError(
                    f"cell {cell.key!r} depends on unknown cell(s) "
                    f"{missing}"
                )

    def _call(self, cell: CampaignCell, results: Mapping[str, Any]) -> Any:
        """Compute one cell in this process from its dependency results."""
        if cell.local and self.local_fn is not None:
            return self.local_fn(cell)
        return self.worker_fn(
            cell.payload, *(results[dep] for dep in cell.deps)
        )

    # ------------------------------------------------------------------
    def run(
        self,
        cells: Sequence[CampaignCell],
        on_result: Optional[Callable[[CampaignCell, Any], None]] = None,
        completed: Optional[Callable[[CampaignCell], Any]] = None,
    ) -> Dict[str, Any]:
        """Execute every cell respecting dependencies; returns
        ``{cell.key: result}``.

        ``on_result(cell, result)`` fires in the parent as each *newly
        computed* cell lands (completion order within a wave) — the
        store-merge hook.  ``completed(cell)`` is the resume probe: a
        non-``None`` return is taken as the cell's already-persisted
        result and the cell is skipped (``on_result`` does not fire for
        it).  Unsatisfiable dependencies (a cycle) raise
        :class:`~repro.errors.ExecutionError`.

        Dependency results reach pooled cells through a module slot
        that holds this run's result map only while a pooled wave
        executes.  In-process and in workers forked from it they are
        the parent's own objects, passed by identity and never pickled;
        a spawned worker rebuilds each one it reads once per process
        (``local_fn`` for a local cell).
        """
        cells = list(cells)
        self._validate(cells)
        self.pool_rebuilds = 0
        results: Dict[str, Any] = {}
        session = _telemetry.active()
        remaining: List[CampaignCell] = []
        resumed = 0
        for cell in cells:
            cached = completed(cell) if completed is not None else None
            if cached is not None:
                results[cell.key] = cached
                resumed += 1
            else:
                remaining.append(cell)
        if session is not None and resumed:
            session.count("scheduler.cells.resumed", resumed)

        waves = 0
        while remaining:
            ready = [
                cell for cell in remaining
                if all(dep in results for dep in cell.deps)
            ]
            if not ready:
                cycle = sorted(cell.key for cell in remaining)
                raise ExecutionError(
                    f"campaign cells form a dependency cycle (or depend "
                    f"on failed cells): {cycle}"
                )
            waves += 1
            local = [cell for cell in ready if cell.local]
            pooled = [cell for cell in ready if not cell.local]
            for cell in local:
                with _telemetry.span(
                    "scheduler.cell", cell=cell.key, local=True
                ):
                    result = self._call(cell, results)
                results[cell.key] = result
                if on_result is not None:
                    on_result(cell, result)
            if pooled:
                self._run_pooled_wave(pooled, cells, results, on_result)
            if session is not None:
                session.count("scheduler.cells.completed", len(ready))
            done = {cell.key for cell in ready}
            remaining = [c for c in remaining if c.key not in done]
        if session is not None:
            session.set_gauge("scheduler.waves", waves)
        return results

    def _run_pooled_wave(
        self,
        pooled: List[CampaignCell],
        cells: List[CampaignCell],
        results: Dict[str, Any],
        on_result: Optional[Callable[[CampaignCell, Any], None]],
    ) -> None:
        """Fan one wave's independent cells out through the pool, with
        ``results`` in the module slot for exactly as long."""
        global _RUNNING
        by_key = {cell.key: cell for cell in pooled}

        def merge(task: Tuple[str, Any], result: Any) -> None:
            cell = by_key[task[0]]
            results[cell.key] = result
            if on_result is not None:
                on_result(cell, result)

        runner = ParallelRunner(
            functools.partial(_run_keyed, self.worker_fn),
            workers=self.workers,
            chunk_size=self.chunk_size,
            max_retries=self.max_retries,
            initializer=_adopt,
            initargs=(self, {cell.key: cell for cell in cells}),
            span_name="scheduler.cell",
            span_attrs=_cell_span_attrs,
        )
        previous, _RUNNING = _RUNNING, results
        try:
            runner.map(
                [(cell.key, cell.payload, cell.deps) for cell in pooled],
                on_result=merge,
            )
        finally:
            _RUNNING = previous
        self.pool_rebuilds += runner.pool_rebuilds
