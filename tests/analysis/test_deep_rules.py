"""Fixtures for the two rules that follow control flow inside a module.

ASYNC001 follows calls from coroutines to same-module helpers; EXC002
inspects what a broad handler does with the exception.  Besides the
synthetic fixtures, each rule is pinned on the shipped sources: bugs
seeded into ``serving/``, ``reram/`` and ``store/`` must fire, and the
sanctioned code next to them must stay silent.
"""

import os
import textwrap

from repro.analysis.lint import check_source

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
)


def run(code, rule_id, **kwargs):
    return check_source(textwrap.dedent(code), rule_id, **kwargs)


def seeded(rel_path, rule_id, *edits):
    """Findings of ``rule_id`` on a shipped module after the
    ``(marker, replacement)`` edits; each marker must occur once."""
    with open(os.path.join(REPO_ROOT, rel_path), encoding="utf-8") as fh:
        source = fh.read()
    for marker, replacement in edits:
        assert source.count(marker) == 1, (
            f"{rel_path} changed shape; re-seat the seeded bug"
        )
        source = source.replace(marker, replacement)
    return check_source(source, rule_id, path=rel_path)


#: the seeded sleeps need ``time`` imported
IMPORT_TIME = ("\nimport asyncio\n", "\nimport asyncio\nimport time\n")


class TestAsync001:
    def test_flags_blocking_call_in_async_def(self):
        findings = run(
            """
            import time

            async def handler():
                time.sleep(0.5)
            """,
            "ASYNC001",
        )
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message

    def test_flags_blocking_call_transitively_reachable(self):
        findings = run(
            """
            import time

            async def handler():
                do_work()

            def do_work():
                time.sleep(0.1)
            """,
            "ASYNC001",
        )
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message
        assert "handler" in findings[0].message  # provenance

    def test_flags_subprocess_in_async(self):
        findings = run(
            """
            import subprocess

            async def run_tool():
                subprocess.run(["ls"])
            """,
            "ASYNC001",
        )
        assert len(findings) == 1
        assert "subprocess.run" in findings[0].message

    def test_flags_sync_with_on_lock_attribute(self):
        findings = run(
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()

                async def get(self, key):
                    with self._lock:
                        return key
            """,
            "ASYNC001",
        )
        assert len(findings) == 1
        assert "threading.Lock" in findings[0].message

    def test_allows_executor_offload(self):
        # run_in_executor args are deliberately not traversed: the
        # callable runs on a worker thread, not the loop.
        findings = run(
            """
            import asyncio
            import time

            async def handler():
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, do_work)

            def do_work():
                time.sleep(0.1)
            """,
            "ASYNC001",
        )
        assert findings == []

    def test_allows_blocking_in_pure_sync_code(self):
        findings = run(
            """
            import time

            def main():
                time.sleep(1.0)
            """,
            "ASYNC001",
        )
        assert findings == []

    def test_flags_local_lock_acquire(self):
        findings = run(
            """
            import threading

            async def handler():
                lock = threading.Lock()
                lock.acquire()
            """,
            "ASYNC001",
        )
        assert len(findings) == 1
        assert "threading.Lock.acquire" in findings[0].message

    def test_sync_client_retry_sleep_is_silent(self):
        # The client's retry backoff sleeps, but nothing in client.py is
        # a coroutine, so no event loop is in reach.
        rel = "src/repro/serving/client.py"
        with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as fh:
            source = fh.read()
        assert "time.sleep(delay)" in source
        assert check_source(source, "ASYNC001", path=rel) == []


class TestAsync001SeededBugs:
    """Sleeps seeded into the serving layer, one per reach path."""

    def test_async_method(self):
        findings = seeded(
            "src/repro/serving/batcher.py", "ASYNC001", IMPORT_TIME,
            ("            batch = self._take_batch()\n",
             "            time.sleep(0.01)\n"
             "            batch = self._take_batch()\n"),
        )
        assert [f.message for f in findings] == [
            "blocking call time.sleep blocks the event loop in "
            "MicroBatcher._run"
        ]

    def test_same_module_sync_helper(self):
        # _run -> self._take_batch() -> self._shed_expired(...)
        findings = seeded(
            "src/repro/serving/batcher.py", "ASYNC001", IMPORT_TIME,
            ('        self.metrics.count("shed.expired")\n',
             '        time.sleep(0.01)\n'
             '        self.metrics.count("shed.expired")\n'),
        )
        assert len(findings) == 1
        assert "MicroBatcher._shed_expired" in findings[0].message
        assert "reachable from async MicroBatcher._run" in (
            findings[0].message
        )

    def test_nested_async_def(self):
        findings = seeded(
            "src/repro/serving/daemon.py", "ASYNC001", IMPORT_TIME,
            ("                await asyncio.sleep(0.01)\n",
             "                time.sleep(0.01)\n"),
        )
        assert len(findings) == 1
        assert "ServingDaemon.run_forever.body" in findings[0].message


class TestExc002:
    def test_flags_silent_pass(self):
        findings = run(
            """
            def f():
                try:
                    work()
                except Exception:
                    pass
            """,
            "EXC002",
        )
        assert len(findings) == 1

    def test_flags_stringify_and_move_on(self):
        findings = run(
            """
            def f():
                try:
                    work()
                except Exception as exc:
                    print(exc)
            """,
            "EXC002",
        )
        assert len(findings) == 1

    def test_allows_wrap_into_taxonomy(self):
        findings = run(
            """
            from repro.errors import ExecutionError

            def f():
                try:
                    work()
                except Exception as exc:
                    raise ExecutionError("work failed") from exc
            """,
            "EXC002",
        )
        assert findings == []

    def test_allows_failing_a_waiter_with_the_exception(self):
        findings = run(
            """
            def f(future):
                try:
                    work()
                except Exception as exc:
                    future.set_exception(exc)
            """,
            "EXC002",
        )
        assert findings == []

    def test_allows_storing_the_exception_object(self):
        findings = run(
            """
            def f():
                err = None
                try:
                    work()
                except Exception as exc:
                    err = exc
                return err
            """,
            "EXC002",
        )
        assert findings == []

    def test_narrow_handlers_are_fine(self):
        findings = run(
            """
            def f():
                try:
                    work()
                except ValueError:
                    pass
            """,
            "EXC002",
        )
        assert findings == []

    def test_exemption_comment_suppresses(self):
        findings = run(
            """
            def f():
                try:
                    work()
                # lint: exempt EXC002 demo conversion boundary
                except Exception:
                    pass
            """,
            "EXC002",
        )
        assert findings == []


class TestExc002SeededBugs:
    """Swallows seeded into handlers that today wrap or re-raise."""

    def test_ir_drop_factorization(self):
        findings = seeded(
            "src/repro/reram/nonideal.py", "EXC002",
            ('            raise CircuitError(f"MNA factorization failed: '
             '{exc}") from exc\n',
             "            return None\n"),
        )
        assert len(findings) == 1
        assert "IRDropSolver._factorization" in findings[0].message

    def test_atomic_write_cleanup(self):
        findings = seeded(
            "src/repro/store/atomic.py", "EXC002",
            ("            pass\n        raise\n",
             "            pass\n        return None\n"),
        )
        assert len(findings) == 1
        assert "atomic_write_bytes" in findings[0].message
