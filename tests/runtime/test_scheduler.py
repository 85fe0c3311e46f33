"""CampaignScheduler: DAG validation, wave ordering, resume, determinism.

The scheduler turns a campaign grid into a DAG of cells (shared
prepare work feeding independent trial groups).  These tests pin the
contracts the campaign layer builds on: dependency waves, parent-side
local cells, the ``completed`` resume probe (cell-granularity resume,
no recomputation), byte-identical results at any worker count, and how
a pooled cell receives the results of the cells it depends on.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.runtime import CampaignCell, CampaignScheduler, trial_rng
from repro.runtime import runner as runner_mod
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
        pooled = CampaignScheduler(_seeded_draw, workers=2,
                                   chunk_size=2).run(cells)
        for key in serial:
            assert np.array_equal(
                np.frombuffer(serial[key]), np.frombuffer(pooled[key])
            )


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
            runner_mod, "_pool_context",
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
