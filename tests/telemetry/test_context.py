"""Trace identity: deterministic ids, ambient propagation, RNG safety."""

import numpy as np

from repro.telemetry import context
from repro.telemetry import session as telemetry
from repro.telemetry.context import (
    TraceContext,
    TraceIdAllocator,
    derive_trace_seed,
)


class TestAllocator:
    def test_id_format_and_monotonicity(self):
        alloc = TraceIdAllocator(seed=0xDEADBEEF)
        first, second = alloc.new_trace_id(), alloc.new_trace_id()
        assert first == "deadbeef-000001"
        assert second == "deadbeef-000002"
        assert alloc.issued == 2

    def test_same_seed_same_sequence(self):
        a = TraceIdAllocator(seed=42)
        b = TraceIdAllocator(seed=42)
        assert [a.new_trace_id() for _ in range(5)] == [
            b.new_trace_id() for _ in range(5)
        ]

    def test_seed_masked_to_32_bits(self):
        alloc = TraceIdAllocator(seed=(1 << 40) | 7)
        assert alloc.new_trace_id().startswith("00000007-")

    def test_derive_trace_seed_is_stable_and_command_scoped(self):
        assert derive_trace_seed("fig7", 0) == derive_trace_seed("fig7", 0)
        assert derive_trace_seed("fig7", 0) != derive_trace_seed("serve", 0)
        assert derive_trace_seed("fig7", 0) != derive_trace_seed("fig7", 1)

    def test_session_mints_reproducible_ids(self):
        with telemetry.capture(command="serve", seed=3) as a:
            ids_a = [a.new_trace_id() for _ in range(3)]
        with telemetry.capture(command="serve", seed=3) as b:
            ids_b = [b.new_trace_id() for _ in range(3)]
        assert ids_a == ids_b


class TestAmbientContext:
    def test_default_is_none(self):
        assert context.current() is None
        assert context.current_trace_id() is None

    def test_trace_scope_with_explicit_id(self):
        with context.trace_scope("cafe-2") as ctx:
            assert ctx.trace_id == "cafe-2"
            assert context.current_trace_id() == "cafe-2"
        assert context.current_trace_id() is None

    def test_trace_scope_disabled_yields_none(self):
        assert telemetry.active() is None
        with context.trace_scope() as ctx:
            assert ctx is None
            assert context.current_trace_id() is None

    def test_trace_scope_mints_from_active_session(self):
        with telemetry.capture(command="serve", seed=0):
            with context.trace_scope() as ctx:
                assert ctx is not None
                assert ctx.trace_id.endswith("-000001")

    def test_nested_scopes_restore_outer(self):
        with context.trace_scope("outer-1"):
            with context.trace_scope("inner-2"):
                assert context.current_trace_id() == "inner-2"
            assert context.current_trace_id() == "outer-1"

    def test_round_trip_dict(self):
        ctx = TraceContext(trace_id="abc-1")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx


class TestRngIsolation:
    def test_minting_ids_never_perturbs_seeded_streams(self):
        """Trace ids come from a counter, not any RNG: a seeded stream
        drawn while ids are being minted matches one drawn without."""
        baseline = np.random.default_rng(123).random(8)
        with telemetry.capture(command="serve", seed=123) as session:
            rng = np.random.default_rng(123)
            drawn = []
            for _ in range(8):
                session.new_trace_id()
                with context.trace_scope():
                    drawn.append(rng.random())
        np.testing.assert_array_equal(baseline, np.array(drawn))
