"""Dependency-aware campaign-grid scheduling on a crash-tolerant pool.

A campaign grid is shared model-build/program work feeding many
independent trial-group cells.  :class:`CampaignScheduler` expresses
that structure as a DAG of :class:`CampaignCell` nodes and executes it
in dependency waves:

* **local cells** run in the parent process (model training, chip
  preparation, store warm-up — anything that must respect the
  single-writer invariant of the artifact store), and so does every
  cell at ``workers <= 1``;
* **pooled cells** fan out at ``workers > 1`` as one future per cell on
  a process pool (``fork`` preferred, so workers inherit the parent's
  prepared state).  A pooled cell's worker function receives its
  payload plus the results of its dependency cells (see
  :meth:`CampaignScheduler.run` for how those reach a worker process);
* **crash retry**: a worker process dying (OOM kill, segfault,
  ``os._exit``) breaks the whole pool; the scheduler rebuilds it and
  resubmits only the cells that have no result yet, up to
  :data:`POOL_RETRIES` times, then raises
  :class:`~repro.errors.ExecutionError`.  An exception raised *by the
  worker function* is a deterministic cell failure: it propagates
  unretried and cancels the wave's queued cells;
* **resume**: an optional ``completed`` probe short-circuits cells
  whose results already exist (e.g. in the artifact store), so an
  interrupted grid re-invocation recomputes nothing finished —
  cell-granularity resume;
* **determinism**: the scheduler feeds no scheduling information to the
  cells; seeding-disciplined workers therefore produce byte-identical
  results at any worker count (the :mod:`repro.runtime.seeding`
  contract).

Results merge parent-side through ``on_result`` as each cell lands —
the hook campaign callers use to persist finished cells immediately.

Observability: with a telemetry session active every computed cell is
a ``scheduler.cell`` span (attributes ``cell`` and ``local``) at any
worker count; a pooled cell's span is its parent-side turnaround,
submit → result, with the spans its fork-started worker recorded
grafted beneath it.  Pool rebuilds increment ``runner.pool_rebuilds``
(also on :attr:`CampaignScheduler.pool_rebuilds`), and after a run the
``runner.worker_utilisation`` gauge holds the non-local cells' busy
time over ``workers ×`` the wall time spent running them, capped at 1.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ExecutionError
from ..telemetry import session as _telemetry
from ..telemetry.clock import perf

__all__ = ["CampaignCell", "CampaignScheduler"]

#: Pool rebuilds tolerated per pooled wave after worker crashes.
POOL_RETRIES = 2


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
# set only for the duration of that wave.  Workers forked meanwhile
# read their dependency results from it by identity; a spawned worker
# starts without it and _adopt installs a _Rebuilt.
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


def _run_cell(fn: Callable[..., Any], payload: Any,
              deps: Tuple[str, ...]) -> Tuple[Any, List[dict]]:
    """Pooled cell body: ``fn(payload, *dependency results)``.

    Returns the result with the spans the call recorded, as plain
    dicts for the parent to graft under the cell's span.  Only a worker
    forked from a parent with an active telemetry session has a session
    of its own; any other worker ships an empty list.
    """
    results = _RUNNING
    assert results is not None, "pooled cell ran outside a scheduler run"
    session = _telemetry.active()
    base = len(session.tracer.spans) if session is not None else 0
    result = fn(payload, *(results[dep] for dep in deps))
    if session is None:
        return result, []
    return result, [span.to_dict() for span in session.tracer.spans[base:]]


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (workers inherit the parent's prepared state and
    warm caches for free); fall back to the platform default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class CampaignScheduler:
    """Executes a DAG of :class:`CampaignCell` nodes.

    Parameters
    ----------
    worker_fn:
        Module-level (picklable) callable; a pooled cell computes
        ``worker_fn(cell.payload, *results of cell.deps)``.
    workers:
        Pool process count; ``<= 1`` runs every cell in-process.
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
        local_fn: Optional[Callable[[CampaignCell], Any]] = None,
    ) -> None:
        self.worker_fn = worker_fn
        self.workers = workers
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

        In-process cells read their dependency results from the result
        map directly.  Pooled cells read them through a module slot
        that holds this run's result map only while a pooled wave
        executes: in workers forked from it they are the parent's own
        objects, passed by identity and never pickled; a spawned worker
        rebuilds each one it reads once per process (``local_fn`` for a
        local cell).
        """
        cells = list(cells)
        self._validate(cells)
        self.pool_rebuilds = 0
        results: Dict[str, Any] = {}
        session = _telemetry.active()

        def merge(cell: CampaignCell, result: Any) -> None:
            results[cell.key] = result
            if on_result is not None:
                on_result(cell, result)

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
        busy = elapsed = 0.0
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
            pooled = []
            for cell in ready:
                if not cell.local and self.workers > 1:
                    pooled.append(cell)
                    continue
                start = perf()
                with _telemetry.span(
                    "scheduler.cell", cell=cell.key, local=cell.local
                ):
                    result = self._call(cell, results)
                if not cell.local:
                    # workers <= 1: the parent is the one, always busy,
                    # worker.
                    duration = perf() - start
                    busy += duration
                    elapsed += duration
                merge(cell, result)
            if pooled:
                start = perf()
                busy += self._run_pooled(pooled, cells, results, merge)
                elapsed += perf() - start
            if session is not None:
                session.count("scheduler.cells.completed", len(ready))
            done = {cell.key for cell in ready}
            remaining = [c for c in remaining if c.key not in done]
        if session is not None:
            session.set_gauge("scheduler.waves", waves)
            if elapsed > 0:
                session.set_gauge(
                    "runner.worker_utilisation",
                    min(1.0, busy / (max(1, self.workers) * elapsed)),
                )
        return results

    def _run_pooled(
        self,
        pooled: List[CampaignCell],
        cells: List[CampaignCell],
        results: Dict[str, Any],
        merge: Callable[[CampaignCell, Any], None],
    ) -> float:
        """Fan one wave's independent cells out through the pool, with
        ``results`` in the module slot for exactly as long, rebuilding
        the pool after a worker crash.  Returns the summed turnaround
        of the cells (the utilisation numerator)."""
        global _RUNNING
        pending = {cell.key: cell for cell in pooled}
        initargs = (self, {cell.key: cell for cell in cells})
        busy = 0.0
        previous, _RUNNING = _RUNNING, results
        try:
            for attempt in range(POOL_RETRIES + 1):
                if attempt:
                    self.pool_rebuilds += 1
                    _telemetry.count("runner.pool_rebuilds")
                crashed, round_busy = self._pool_round(
                    pending, initargs, merge
                )
                busy += round_busy
                if not crashed:
                    return busy
        finally:
            _RUNNING = previous
        raise ExecutionError(
            f"worker processes kept crashing; {len(pending)} cell(s) "
            f"unfinished after {POOL_RETRIES + 1} round(s)"
        )

    def _pool_round(
        self,
        pending: Dict[str, CampaignCell],
        initargs: Tuple[Any, ...],
        merge: Callable[[CampaignCell, Any], None],
    ) -> Tuple[bool, float]:
        """One pool lifetime; returns whether a worker crash was seen,
        and the summed turnaround of the cells that completed.

        A crash poisons every in-flight future of the pool, so the
        round ends with the unfinished cells still in ``pending`` for
        the next round's fresh pool.  Any other exception cancels the
        cells still queued before it propagates.
        """
        session = _telemetry.active()
        crashed = False
        busy = 0.0
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending)),
            mp_context=_pool_context(),
            initializer=_adopt,
            initargs=initargs,
        )
        try:
            futures = {
                pool.submit(_run_cell, self.worker_fn, cell.payload,
                            cell.deps): (cell, perf())
                for cell in pending.values()
            }
            for future in concurrent.futures.as_completed(futures):
                cell, submitted = futures[future]
                try:
                    result, records = future.result()
                except BrokenProcessPool:
                    crashed = True
                    continue
                except OSError:
                    # An OSError is a crash symptom only when the pool
                    # itself broke (torn result pipe); one raised *by the
                    # worker function* (missing dataset file, permission
                    # denied) is a deterministic cell failure — retrying
                    # it would loop and then misreport the bug as
                    # "worker processes kept crashing".
                    if getattr(pool, "_broken", False):
                        crashed = True
                        continue
                    raise
                end = perf()
                busy += end - submitted
                if session is not None:
                    span = session.tracer.record_span(
                        "scheduler.cell", submitted, end,
                        cell=cell.key, local=False,
                    )
                    session.tracer.graft_records(records, span)
                del pending[cell.key]
                merge(cell, result)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return crashed, busy
