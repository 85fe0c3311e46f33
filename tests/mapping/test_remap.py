"""Detect-and-remap graceful degradation."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CircuitParameters
from repro.core.mvm import MVMMode
from repro.errors import MappingError
from repro.faults import (
    CompositeInjector,
    HealthProbe,
    StuckAtInjector,
    VariationInjector,
)
from repro.faults.injectors import FaultInjector
from repro.mapping import (
    IdealBackend,
    PIMExecutor,
    ReSiPEBackend,
    compile_network,
    detect_and_remap,
    spare_columns_for,
)
from repro.mapping.bit_slicing import BitSlicingBackend
from repro.mapping.remap import (
    PatchedLayer,
    _augment,
    _pristine_strip,
    _strip_output,
)
from repro.mapping.tiling import tile_matrix
from repro.nn import Dense, ReLU, Sequential


class KillColumns(FaultInjector):
    """Test fault: zeroes the given tile columns."""

    def __init__(self, cols) -> None:
        self.cols = tuple(cols)

    def apply(self, conductances, rng, spec=None):
        g = np.array(conductances, dtype=float)
        for col in self.cols:
            if col < g.shape[1]:
                g[:, col] = 0.0 if spec is None else spec.g_min
        return g

    def describe(self):
        return {"type": "kill-columns", "cols": list(self.cols)}


@pytest.fixture
def model(rng):
    return Sequential(
        [Dense(6, 5, rng=rng), ReLU(), Dense(5, 4, rng=rng)], name="toy"
    )


@pytest.fixture
def network(model):
    return compile_network(model, IdealBackend(), clip_percentile=100)


@pytest.fixture
def probe():
    return HealthProbe(threshold=0.02)


class TestSpareBudget:
    def test_budget_is_ceil_fraction(self):
        assert spare_columns_for(10, 0.25) == 3
        assert spare_columns_for(10, 0.0) == 0
        assert spare_columns_for(1, 0.01) == 1  # always at least one

    def test_validation(self):
        with pytest.raises(MappingError):
            spare_columns_for(0, 0.1)
        with pytest.raises(MappingError):
            spare_columns_for(10, 1.5)


class TestDetectAndRemap:
    def test_spare_recovers_exact_output(self, network, probe, rng):
        faulted = network.faulted(KillColumns([1]), rng)
        result = detect_and_remap(
            network, faulted, IdealBackend(), probe, spare_fraction=0.5
        )
        assert result.spare_cols >= 1
        # Clean spares re-programmed from the stored weights restore
        # the pristine response exactly on the ideal backend.
        for pristine, repaired in zip(network.stages, result.network.stages):
            if pristine is None:
                continue
            width = pristine.diff.rows - 1
            xs = probe.stimulus(width)
            assert np.allclose(
                repaired.matmul(xs), pristine.matmul(xs), atol=1e-9
            )

    def test_budget_exhaustion_falls_back_to_software(self, network, probe, rng):
        faulted = network.faulted(KillColumns([0, 2]), rng)
        result = detect_and_remap(
            network, faulted, IdealBackend(), probe, spare_fraction=0.0
        )
        assert result.spare_cols == 0
        assert result.software_cols >= 2
        # Software fallback is exact digital math — outputs match pristine.
        for pristine, repaired in zip(network.stages, result.network.stages):
            if pristine is None:
                continue
            xs = probe.stimulus(pristine.diff.rows - 1)
            assert np.allclose(
                repaired.matmul(xs), pristine.matmul(xs), atol=1e-9
            )

    def test_healthy_network_passes_through(self, network, probe):
        result = detect_and_remap(network, network, IdealBackend(), probe)
        assert result.flagged_cols == 0
        assert result.network.stages[0] is network.stages[0]

    def test_records_and_events(self, network, probe, rng):
        faulted = network.faulted(KillColumns([1, 3]), rng)
        result = detect_and_remap(
            network, faulted, IdealBackend(), probe, spare_fraction=0.5
        )
        events = result.events()
        assert len(events) == result.flagged_cols
        devs = [e["deviation"] for e in events]
        assert devs == sorted(devs, reverse=True)
        assert all(e["action"] in ("spare", "software") for e in events)

    def test_faulty_spares_retry_then_degrade(self, network, probe):
        # Injector that kills every column: spares can never verify.
        rng = np.random.default_rng(0)
        killer = KillColumns(range(10))
        faulted = network.faulted(killer, rng)
        result = detect_and_remap(
            network, faulted, IdealBackend(), probe,
            injector=killer, rng=rng, spare_fraction=1.0, max_retries=1,
        )
        assert result.spare_cols == 0
        assert result.software_cols == result.flagged_cols > 0
        spare_attempts = [
            r.attempts for r in result.records if r.attempts > 0
        ]
        assert spare_attempts and all(a == 2 for a in spare_attempts)

    def test_rng_required_with_injector(self, network, probe, rng):
        faulted = network.faulted(KillColumns([1]), rng)
        with pytest.raises(MappingError):
            detect_and_remap(
                network, faulted, IdealBackend(), probe,
                injector=KillColumns([1]),
            )

    def test_remapped_layers_are_terminal(self, network, probe, rng):
        faulted = network.faulted(KillColumns([1]), rng)
        result = detect_and_remap(
            network, faulted, IdealBackend(), probe, spare_fraction=0.5
        )
        with pytest.raises(MappingError, match="remapped"):
            result.network.faulted(VariationInjector(0.1), rng)
        with pytest.raises(MappingError, match="remapped"):
            result.network.faulted(KillColumns([1]), rng)

    def test_remaps_an_already_remapped_network(self, network, probe, rng):
        # A repaired chip (column 1 on a spare) whose column 3 fails
        # later: re-probing it must remap again, not trip over the
        # PatchedLayer it is handed.
        repaired = detect_and_remap(
            network, network.faulted(KillColumns([1]), rng),
            IdealBackend(), probe, spare_fraction=0.5,
        ).network
        later = network.faulted(KillColumns([1, 3]), rng)
        candidate = dataclasses.replace(repaired, stages=[
            None if stage is None else PatchedLayer(
                fresh, getattr(stage, "strips", ()),
                getattr(stage, "software_cols", ()),
            )
            for stage, fresh in zip(repaired.stages, later.stages)
        ])
        result = detect_and_remap(
            network, candidate, IdealBackend(), probe, spare_fraction=0.5
        )
        assert result.spare_cols >= 1
        for pristine, fixed in zip(network.stages, result.network.stages):
            if pristine is None:
                continue
            xs = probe.stimulus(pristine.diff.rows - 1)
            assert np.allclose(fixed.matmul(xs), pristine.matmul(xs),
                               atol=1e-9)

    def test_remapped_reference_rejected(self, network, probe, rng):
        # Spares are sliced from the reference's programming, so the
        # reference must be the pristine compiled network.
        faulted = network.faulted(KillColumns([1]), rng)
        repaired = detect_and_remap(
            network, faulted, IdealBackend(), probe, spare_fraction=0.5
        ).network
        with pytest.raises(MappingError, match="pristine"):
            detect_and_remap(repaired, faulted, IdealBackend(), probe)


class TestExecutorIntegration:
    def test_remapped_executor_matches_pristine(self, model, network, rng):
        x = rng.random((32, 6))
        executor = PIMExecutor(network, x[:8])
        pristine_out = executor.forward(x)

        faulted = executor.faulted(KillColumns([1]), rng)
        assert not np.allclose(faulted.forward(x), pristine_out)

        probe = HealthProbe(threshold=0.02)
        result = detect_and_remap(
            network, faulted.network, IdealBackend(), probe,
            spare_fraction=0.5,
        )
        repaired = executor._clone_with_network(result.network)
        assert np.allclose(repaired.forward(x), pristine_out, atol=1e-9)

    def test_patched_layer_counts_spare_tiles(self, network, probe, rng):
        faulted = network.faulted(KillColumns([1]), rng)
        result = detect_and_remap(
            network, faulted, IdealBackend(), probe, spare_fraction=0.5
        )
        patched = result.network.stages[0]
        if result.spare_cols:
            assert patched.num_tiles > network.stages[0].num_tiles


# ----------------------------------------------------------------------
# Stacked spare strips against the per-column, per-tile loop they
# replaced: each strip programmed afresh as width-1 tiles, faulted tile
# by tile, and evaluated one tile call per row band and polarity.
def _oracle_strip(diff, column, backend, injector, rng):
    strip = []
    for matrix in (diff.positive, diff.negative):
        grid = tile_matrix(matrix[:, [column]], *backend.max_tile_shape)
        tiles = [[backend.program(t) for t in row] for row in grid.tiles]
        if injector is not None:
            tiles = [[t.faulted(injector, rng) for t in row] for row in tiles]
        strip.append((grid, tiles))
    return strip


def _oracle_output(strip, x_aug, factor):
    (pos_grid, pos_tiles), (neg_grid, neg_tiles) = strip
    pos = pos_grid.matmul_through(
        x_aug, lambda xb, i, j: pos_tiles[i][j].matmul(xb)
    )
    neg = neg_grid.matmul_through(
        x_aug, lambda xb, i, j: neg_tiles[i][j].matmul(xb)
    )
    return factor * (pos - neg)[..., 0]


@functools.lru_cache(maxsize=None)
def _layer(kind, redundancy, fan_in, fan_out):
    """One calibrated-looking Dense layer on 8 x 8 crossbars: ``fan_in +
    1`` rows leave a ragged last band unless they are a multiple of 8,
    and more than 8 columns span two column bands.  Bit-sliced tiles
    cannot lend a column slice, so their strips are programmed afresh."""
    if kind == "ideal":
        backend = IdealBackend(max_rows=8, max_cols=8)
    else:
        params = dataclasses.replace(
            CircuitParameters.calibrated(), rows=8, cols=8
        )
        backend = ReSiPEBackend(
            params=params, redundancy=redundancy,
            mode=MVMMode.LINEAR if kind == "linear" else MVMMode.EXACT,
        )
        if kind == "bit-sliced":
            backend = BitSlicingBackend(total_bits=4, bits_per_slice=2,
                                        inner=backend)
    rng = np.random.default_rng(fan_in * 100 + fan_out)
    model = Sequential([Dense(fan_in, fan_out, rng=rng)], name="strip")
    layer = compile_network(model, backend).stages[0]
    return dataclasses.replace(layer, gain=1.25), backend


_INJECTOR = CompositeInjector(
    VariationInjector(sigma=0.1), StuckAtInjector(0.05, 0.05)
)

_cases = dict(
    kind=st.sampled_from(["ideal", "exact", "linear", "bit-sliced"]),
    redundancy=st.integers(1, 2),
    fan_in=st.integers(1, 30),
    fan_out=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(strips=st.sampled_from([0, 1, 5]), software=st.integers(0, 2),
       batch=st.integers(1, 4), **_cases)
def test_stacked_strips_match_per_tile_loop(
    strips, software, batch, kind, redundancy, fan_in, fan_out, seed
):
    """A PatchedLayer serves its spare columns byte for byte as the
    per-column loop did, draws the same faults in the same order, and
    counts the same tiles."""
    layer, backend = _layer(kind, redundancy, fan_in, fan_out)
    rng = np.random.default_rng(seed)
    columns = [int(c) for c in rng.permutation(fan_out)]
    spare = columns[:strips]
    soft = columns[len(spare):len(spare) + software]
    base = layer._with_tiles(lambda t: t.faulted(_INJECTOR, rng))

    new_rng = np.random.default_rng(seed + 1)
    old_rng = np.random.default_rng(seed + 1)
    patched = PatchedLayer(base, [
        strip._replace(tiles=tuple(
            t.faulted(_INJECTOR, new_rng) for t in strip.tiles
        ))
        for strip in (_pristine_strip(layer, c, backend) for c in spare)
    ], soft)
    oracle = [(c, _oracle_strip(layer.diff, c, backend, _INJECTOR, old_rng))
              for c in spare]

    x = rng.random((batch, fan_in))
    out = patched.matmul_with_bias_level(x, 0.75)

    expected = np.asarray(base.matmul_with_bias_level(x, 0.75), dtype=float)
    x_aug = _augment(x, 0.75, True)
    for column, strip in oracle:
        expected[..., column] = _oracle_output(
            strip, x_aug, layer.gain * layer.diff.scale
        )
    if soft:
        diff = layer.diff
        w_soft = (diff.scale * (diff.positive - diff.negative))[:, soft]
        expected[..., soft] = layer.gain * (x_aug @ w_soft)
    assert out.tobytes() == expected.tobytes()
    assert patched.num_tiles == layer.num_tiles + sum(
        grid.num_tiles for _, strip in oracle for grid, _ in strip
    )


@settings(max_examples=40, deadline=None)
@given(attempts=st.integers(1, 3), **_cases)
def test_spare_verification_matches_per_tile_loop(
    attempts, kind, redundancy, fan_in, fan_out, seed
):
    """Verifying a spare attempt (equal-height bands stacked, each tile
    on its own band input) gives the per-tile loop's deviation byte for
    byte, attempt after attempt on one fault stream."""
    layer, backend = _layer(kind, redundancy, fan_in, fan_out)
    probe = HealthProbe()
    x = probe.stimulus(fan_in)
    x_aug = _augment(x, 1.0, True)
    golden = np.asarray(layer.matmul(x), dtype=float)
    scale = max(float(np.abs(golden).max()), 1e-12)
    factor = layer.gain * layer.diff.scale

    new_rng = np.random.default_rng(seed)
    old_rng = np.random.default_rng(seed)
    for column in range(fan_out):
        pristine = _pristine_strip(layer, column, backend)
        for _ in range(attempts):
            strip = pristine._replace(tiles=tuple(
                t.faulted(_INJECTOR, new_rng) for t in pristine.tiles
            ))
            new = _strip_output(strip, x_aug, factor)
            old = _oracle_output(
                _oracle_strip(layer.diff, column, backend, _INJECTOR,
                              old_rng),
                x_aug, factor,
            )
            assert new.tobytes() == old.tobytes()
            deviations = [
                np.abs(observed - golden[:, column]).max() / scale
                for observed in (new, old)
            ]
            assert deviations[0].tobytes() == deviations[1].tobytes()
