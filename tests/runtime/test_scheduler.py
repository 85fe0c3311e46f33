"""CampaignScheduler: DAG validation, wave ordering, resume, determinism,
and the crash-tolerant process pool.

The scheduler turns a campaign grid into a DAG of cells (shared
prepare work feeding independent trial groups).  These tests pin the
contracts the campaign layer builds on: dependency waves, parent-side
local cells, the ``completed`` resume probe (cell-granularity resume,
no recomputation), byte-identical results at any worker count, how
a pooled cell receives the results of the cells it depends on, and how
the pool treats worker crashes versus cell failures.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ExecutionError
from repro.runtime import CampaignCell, CampaignScheduler, trial_rng
from repro.runtime import scheduler as scheduler_mod

_ORDER = []

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="inheriting the parent's state needs the fork start method",
)


def _double(payload, *_deps):
    return payload * 2


def _record(payload, *_deps):
    _ORDER.append(payload)
    return payload


def _plus_deps(payload, *deps):
    return payload + sum(deps)


def _echo_dep(_payload, dep):
    return dep


def _fail(_payload, *_deps):
    raise ValueError("cell failed")


def _combine(payload, *deps):
    """Pure function of the payload and the dependency results."""
    return (payload, deps)


def _crash_once(payload, *_deps):
    """Die hard (no exception, no cleanup) the first time the marker is
    seen — exactly what an OOM kill looks like to the pool."""
    marker, value = payload
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("crashed")
        os._exit(1)
    return value * 10


def _always_crash(_payload, *_deps):
    os._exit(1)


def _raise_os_error(payload, *_deps):
    raise OSError(f"dataset file for cell {payload!r} is missing")


def _fail_first_mark_rest(payload, *_deps):
    """Cell 0 fails at once; every other cell leaves a marker file when
    it starts and then works for a while."""
    directory, index = payload
    if index == 0:
        raise ValueError("cell failed")
    open(os.path.join(directory, f"started-{index}"), "w").close()
    time.sleep(0.2)
    return index


def _build_state(cell):
    """A local cell's state, logging which process built it."""
    with open(cell.payload, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return {"built_in": os.getpid()}


def _inspect_state(_payload, state):
    return os.getpid(), state["built_in"], id(state)


def _builders(log):
    with open(log) as fh:
        return [int(line) for line in fh]


def _seeded_draw(payload):
    """Pure function of the payload (the seeding discipline): byte-
    identical regardless of which worker runs it."""
    seed, token = payload
    return trial_rng(seed, token).random(4).tobytes()


@pytest.fixture(autouse=True)
def _clean_order():
    _ORDER.clear()
    yield
    _ORDER.clear()


class TestValidation:
    def test_duplicate_keys_rejected(self):
        scheduler = CampaignScheduler(_double)
        with pytest.raises(ConfigurationError, match="duplicate"):
            scheduler.run([CampaignCell("a"), CampaignCell("a")])

    def test_unknown_dependency_rejected(self):
        scheduler = CampaignScheduler(_double)
        with pytest.raises(ConfigurationError, match="unknown"):
            scheduler.run([CampaignCell("a", deps=("ghost",))])

    def test_cycle_raises_execution_error(self):
        scheduler = CampaignScheduler(_double)
        cells = [
            CampaignCell("a", deps=("b",)),
            CampaignCell("b", deps=("a",)),
        ]
        with pytest.raises(ExecutionError, match="cycle"):
            scheduler.run(cells)


class TestExecution:
    def test_returns_results_by_key(self):
        scheduler = CampaignScheduler(_double)
        results = scheduler.run([
            CampaignCell("a", payload=1),
            CampaignCell("b", payload=2),
        ])
        assert results == {"a": 2, "b": 4}

    def test_empty_grid(self):
        assert CampaignScheduler(_double, workers=2).run([]) == {}

    def test_diamond_dependency_order(self):
        """a -> (b, c) -> d executes in dependency order."""
        scheduler = CampaignScheduler(_record)
        cells = [
            CampaignCell("d", payload="d", deps=("b", "c")),
            CampaignCell("b", payload="b", deps=("a",)),
            CampaignCell("c", payload="c", deps=("a",)),
            CampaignCell("a", payload="a"),
        ]
        results = scheduler.run(cells)
        assert set(results) == {"a", "b", "c", "d"}
        assert _ORDER.index("a") < _ORDER.index("b")
        assert _ORDER.index("a") < _ORDER.index("c")
        assert _ORDER.index("d") > _ORDER.index("b")
        assert _ORDER.index("d") > _ORDER.index("c")

    def test_local_cells_run_in_parent(self):
        """At workers > 1 a local cell's side effects land in the
        parent process (a pooled cell's would stay in the child)."""
        scheduler = CampaignScheduler(
            _double, workers=2,
            local_fn=lambda cell: _ORDER.append(cell.key) or cell.key,
        )
        cells = [
            CampaignCell("prepare", local=True),
            CampaignCell("g0", payload=3, deps=("prepare",)),
            CampaignCell("g1", payload=4, deps=("prepare",)),
        ]
        results = scheduler.run(cells)
        assert _ORDER == ["prepare"]
        assert results["g0"] == 6 and results["g1"] == 8

    def test_local_default_uses_worker_fn_with_dependencies(self):
        scheduler = CampaignScheduler(_plus_deps)
        results = scheduler.run([
            CampaignCell("a", payload=1, local=True),
            CampaignCell("b", payload=2, deps=("a",), local=True),
            CampaignCell("c", payload=100, deps=("a", "b")),
        ])
        assert results == {"a": 1, "b": 3, "c": 104}

    def test_on_result_fires_for_computed_cells(self):
        seen = []
        scheduler = CampaignScheduler(_double)
        scheduler.run(
            [CampaignCell("a", payload=1), CampaignCell("b", payload=2)],
            on_result=lambda cell, result: seen.append((cell.key, result)),
        )
        assert sorted(seen) == [("a", 2), ("b", 4)]

    def test_in_process_cells_run_in_grid_order(self):
        """At workers=1 a wave's independent cells run in the order the
        grid lists them, and the result map keeps that order."""
        scheduler = CampaignScheduler(_record)
        results = scheduler.run([
            CampaignCell("c", payload=3),
            CampaignCell("a", payload=1),
            CampaignCell("d", payload=4),
            CampaignCell("b", payload=2),
        ])
        assert _ORDER == [3, 1, 4, 2]
        assert list(results.items()) == [("c", 3), ("a", 1), ("d", 4), ("b", 2)]

    def test_on_result_fires_per_in_process_cell_in_grid_order(self):
        seen = []
        scheduler = CampaignScheduler(_double)
        scheduler.run(
            [CampaignCell("b", payload=3), CampaignCell("a", payload=2)],
            on_result=lambda cell, result: seen.append((cell.key, result)),
        )
        assert seen == [("b", 6), ("a", 4)]

    def test_duplicate_payloads_map_to_right_cells(self):
        """Cells are attributed by key, not payload identity."""
        scheduler = CampaignScheduler(_double, workers=2)
        results = scheduler.run([
            CampaignCell("a", payload=5),
            CampaignCell("b", payload=5),
        ])
        assert results == {"a": 10, "b": 10}


class TestResume:
    def test_completed_probe_skips_cells(self):
        cached = {"a": "stored-a"}
        seen = []
        scheduler = CampaignScheduler(_record)
        results = scheduler.run(
            [CampaignCell("a", payload="a"), CampaignCell("b", payload="b")],
            on_result=lambda cell, result: seen.append(cell.key),
            completed=lambda cell: cached.get(cell.key),
        )
        # Resumed cell: cached result used, not recomputed, no merge hook.
        assert results["a"] == "stored-a"
        assert _ORDER == ["b"]
        assert seen == ["b"]

    def test_resumed_cells_satisfy_dependencies(self):
        cached = {"prepare": True}
        scheduler = CampaignScheduler(_double)
        results = scheduler.run(
            [
                CampaignCell("prepare", local=True),
                CampaignCell("g0", payload=1, deps=("prepare",)),
            ],
            completed=lambda cell: cached.get(cell.key),
        )
        assert results == {"prepare": True, "g0": 2}

    def test_fully_cached_grid_computes_nothing(self):
        scheduler = CampaignScheduler(_record)
        results = scheduler.run(
            [CampaignCell("a", payload="a")],
            completed=lambda cell: "cached",
        )
        assert results == {"a": "cached"}
        assert _ORDER == []


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_byte_identical_across_worker_counts(self, workers):
        cells = [
            CampaignCell(f"cell/{i}", payload=(7, f"tok-{i}"))
            for i in range(6)
        ]
        scheduler = CampaignScheduler(_seeded_draw, workers=workers)
        results = scheduler.run(cells)
        reference = {
            cell.key: trial_rng(7, f"tok-{i}").random(4).tobytes()
            for i, cell in enumerate(cells)
        }
        assert results == reference

    def test_results_are_numpy_equal_across_worker_counts(self):
        cells = [CampaignCell(f"c{i}", payload=(3, str(i)))
                 for i in range(5)]
        serial = CampaignScheduler(_seeded_draw, workers=1).run(cells)
        pooled = CampaignScheduler(_seeded_draw, workers=2).run(cells)
        for key in serial:
            assert np.array_equal(
                np.frombuffer(serial[key]), np.frombuffer(pooled[key])
            )


@st.composite
def _dags(draw):
    """Up to 6 cells, each depending on a subset of the cells before it
    (so acyclic), with random ``local`` flags, in random listing order."""
    size = draw(st.integers(1, 6))
    cells = [
        CampaignCell(
            f"n{i}", payload=i,
            deps=tuple(f"n{j}" for j in sorted(draw(
                st.sets(st.integers(0, i - 1)) if i else st.just(set())
            ))),
            local=draw(st.booleans()),
        )
        for i in range(size)
    ]
    return draw(st.permutations(cells))


class TestDifferential:
    @settings(max_examples=20, deadline=None)
    @given(cells=_dags())
    def test_pooled_run_matches_in_process_run(self, cells):
        """Same result map at workers=1 and workers=2; ``on_result`` fires
        once per computed cell, and never before its dependencies."""
        runs = []
        for workers in (1, 2):
            landed = []
            results = CampaignScheduler(_combine, workers=workers).run(
                cells, on_result=lambda cell, _r: landed.append(cell.key),
            )
            assert sorted(landed) == sorted(cell.key for cell in cells)
            for cell in cells:
                for dep in cell.deps:
                    assert landed.index(dep) < landed.index(cell.key)
            runs.append(results)
        assert runs[0] == runs[1]


class TestTelemetry:
    def test_counts_completed_resumed_and_waves(self):
        from repro import telemetry

        cached = {"a": "stored"}
        cells = [
            CampaignCell("a", payload="a"),
            CampaignCell("b", payload="b"),
            CampaignCell("c", payload="c", deps=("b",)),
        ]
        with telemetry.capture() as session:
            scheduler = CampaignScheduler(_record)
            scheduler.run(cells,
                          completed=lambda cell: cached.get(cell.key))
        assert session.registry.counter(
            "scheduler.cells.resumed").value == 1
        assert session.registry.counter(
            "scheduler.cells.completed").value == 2
        assert session.registry.gauge("scheduler.waves").value == 2

    def test_pool_rebuilds_aggregated(self):
        scheduler = CampaignScheduler(_double, workers=2)
        scheduler.run([CampaignCell("a", payload=1)])
        assert scheduler.pool_rebuilds == 0

    def test_pool_rebuilds_counted_and_exposed(self, tmp_path):
        from repro import telemetry

        marker = str(tmp_path / "crash-once")
        scheduler = CampaignScheduler(_crash_once, workers=2)
        with telemetry.capture() as session:
            results = scheduler.run([
                CampaignCell(f"c{v}", payload=(marker, v)) for v in range(4)
            ])
        assert results == {f"c{v}": v * 10 for v in range(4)}
        assert scheduler.pool_rebuilds >= 1
        counted = session.registry.counter("runner.pool_rebuilds").value
        assert counted == scheduler.pool_rebuilds

    def test_pool_rebuilds_reset_per_run(self):
        scheduler = CampaignScheduler(_double, workers=2)
        scheduler.pool_rebuilds = 5
        scheduler.run([CampaignCell("a", payload=1)])
        assert scheduler.pool_rebuilds == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_utilisation_gauge_set(self, workers):
        """Dashboards see ``runner.worker_utilisation`` at any worker
        count, in-process runs included."""
        from repro import telemetry

        cells = [CampaignCell(f"c{i}", payload=i) for i in range(5)]
        with telemetry.capture() as session:
            CampaignScheduler(_double, workers=workers).run(cells)
        util = session.registry.gauge("runner.worker_utilisation").value
        assert util is not None and 0.0 < util <= 1.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cell_spans_match_computed_cells(self, workers):
        from repro import telemetry

        cells = [CampaignCell("prep", payload=0, local=True)] + [
            CampaignCell(f"c{i}", payload=i, deps=("prep",))
            for i in range(5)
        ]
        with telemetry.capture() as session:
            CampaignScheduler(_double, workers=workers).run(
                cells, completed=lambda cell: "cached" if cell.local else None
            )
        attrs = sorted(
            (s.attrs["cell"], s.attrs["local"]) for s in session.tracer.spans
            if s.name == "scheduler.cell"
        )
        assert attrs == [(f"c{i}", False) for i in range(5)]

    def test_disabled_session_records_nothing(self):
        from repro import telemetry

        assert telemetry.active() is None
        cells = [CampaignCell(f"c{i}", payload=i) for i in range(3)]
        results = CampaignScheduler(_double, workers=2).run(cells)
        assert results == {"c0": 0, "c1": 2, "c2": 4}
        assert telemetry.active() is None


class TestPool:
    """Worker crashes are retried on a fresh pool; a cell's own
    exception is a deterministic failure and is not."""

    def test_pooled_results_come_back_by_key(self):
        cells = [CampaignCell(f"c{i}", payload=i) for i in range(7)]
        results = CampaignScheduler(_double, workers=2).run(cells)
        assert results == {f"c{i}": 2 * i for i in range(7)}

    def test_on_result_fires_once_per_pooled_cell(self):
        seen = []
        cells = [CampaignCell(f"c{i}", payload=i) for i in range(5)]
        CampaignScheduler(_double, workers=2).run(
            cells, on_result=lambda cell, result: seen.append(
                (cell.key, result)
            ),
        )
        assert sorted(seen) == [(f"c{i}", 2 * i) for i in range(5)]

    def test_worker_crash_is_retried(self, tmp_path):
        """A worker dying breaks the pool; the scheduler rebuilds it and
        resubmits only the cells without a result, so every cell merges
        exactly once."""
        marker = str(tmp_path / "crash-once")
        merged = []
        scheduler = CampaignScheduler(_crash_once, workers=2)
        results = scheduler.run(
            [CampaignCell(f"c{v}", payload=(marker, v)) for v in range(4)],
            on_result=lambda cell, result: merged.append(cell.key),
        )
        assert results == {f"c{v}": v * 10 for v in range(4)}
        assert sorted(merged) == [f"c{v}" for v in range(4)]
        assert os.path.exists(marker)
        assert scheduler.pool_rebuilds >= 1

    def test_exhausted_retries_raise(self):
        scheduler = CampaignScheduler(_always_crash, workers=2)
        with pytest.raises(ExecutionError, match="crashing"):
            scheduler.run([CampaignCell("a", 1), CampaignCell("b", 2)])
        assert scheduler.pool_rebuilds == scheduler_mod.POOL_RETRIES

    def test_worker_exception_propagates_unretried(self):
        scheduler = CampaignScheduler(_fail, workers=2)
        with pytest.raises(ValueError, match="cell failed"):
            scheduler.run([CampaignCell("a", 1), CampaignCell("b", 2)])
        assert scheduler.pool_rebuilds == 0

    def test_worker_os_error_is_not_a_crash(self):
        """A deterministic OSError raised *by the worker function* (e.g.
        a missing dataset file) must propagate unchanged — not be
        misclassified as a pool crash, silently retried, and finally
        misreported as 'workers kept crashing'."""
        scheduler = CampaignScheduler(_raise_os_error, workers=2)
        with pytest.raises(OSError, match="is missing"):
            scheduler.run([CampaignCell("a", 1), CampaignCell("b", 2)])
        assert scheduler.pool_rebuilds == 0

    def test_failing_cell_cancels_queued_siblings(self, tmp_path):
        """The failure surfaces without running the rest of the wave:
        cells still queued when cell 0 raises never start."""
        cells = [
            CampaignCell(f"c{i}", payload=(str(tmp_path), i))
            for i in range(20)
        ]
        scheduler = CampaignScheduler(_fail_first_mark_rest, workers=2)
        with pytest.raises(ValueError, match="cell failed"):
            scheduler.run(cells)
        started = len(list(tmp_path.glob("started-*")))
        assert started < 10, f"{started} of 19 sibling cells started"


class TestDependencyState:
    """A pooled cell receives its dependencies' results: the parent's
    own objects in-process and in forked workers, rebuilt through
    ``local_fn`` in a worker that inherited nothing."""

    def _cells(self, log, pooled=2):
        return [CampaignCell("prepare", payload=str(log), local=True)] + [
            CampaignCell(f"use/{i}", payload=i, deps=("prepare",))
            for i in range(pooled)
        ]

    def test_in_process_dependency_arrives_by_identity(self, tmp_path):
        scheduler = CampaignScheduler(
            _echo_dep, workers=1, local_fn=_build_state
        )
        results = scheduler.run(self._cells(tmp_path / "log"))
        assert results["use/0"] is results["prepare"]
        assert results["use/1"] is results["prepare"]
        assert _builders(tmp_path / "log") == [os.getpid()]

    @needs_fork
    def test_forked_worker_inherits_without_rebuilding(self, tmp_path):
        log = tmp_path / "log"
        # A closure: under fork the local_fn is never pickled.
        scheduler = CampaignScheduler(
            _inspect_state, workers=2,
            local_fn=lambda cell: _build_state(cell),
        )
        results = scheduler.run(self._cells(log, pooled=4))
        state = results["prepare"]
        for i in range(4):
            pid, built_in, address = results[f"use/{i}"]
            assert pid != os.getpid()
            assert built_in == os.getpid()
            # The same object at the same address: inherited, not a copy.
            assert address == id(state)
        assert _builders(log) == [os.getpid()]

    def test_spawned_worker_rebuilds_once_through_local_fn(
        self, tmp_path, monkeypatch
    ):
        log = tmp_path / "log"
        monkeypatch.setattr(
            scheduler_mod, "_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        scheduler = CampaignScheduler(
            _inspect_state, workers=2, local_fn=_build_state
        )
        results = scheduler.run(self._cells(log, pooled=4))
        worker_pids = set()
        for i in range(4):
            pid, built_in, _address = results[f"use/{i}"]
            assert pid != os.getpid()
            assert built_in == pid
            worker_pids.add(pid)
        builders = _builders(log)
        assert builders[0] == os.getpid()
        # One rebuild per worker process, not per cell.
        assert sorted(builders[1:]) == sorted(worker_pids)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_slot_is_empty_after_run(self, tmp_path, workers):
        scheduler = CampaignScheduler(
            _echo_dep, workers=workers, local_fn=_build_state
        )
        scheduler.run(self._cells(tmp_path / "log"))
        assert scheduler_mod._RUNNING is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_slot_is_empty_after_a_cell_raises(self, tmp_path, workers):
        scheduler = CampaignScheduler(
            _fail, workers=workers, local_fn=_build_state
        )
        with pytest.raises(ValueError, match="cell failed"):
            scheduler.run(self._cells(tmp_path / "log"))
        assert scheduler_mod._RUNNING is None

    def test_slot_is_empty_after_a_local_cell_raises(self):
        def explode(cell):
            raise ValueError("cell failed")

        scheduler = CampaignScheduler(_double, local_fn=explode)
        with pytest.raises(ValueError, match="cell failed"):
            scheduler.run([CampaignCell("prepare", local=True)])
        assert scheduler_mod._RUNNING is None
