"""Draw-order contract of the one clone routine.

:meth:`MappedNetwork.faulted` draws every tile through
:func:`~repro.mapping.backends.faulted_tiles`.  Whatever path it takes
— one bulk ``apply`` over the conductance pool for an elementwise
injector, one ``apply`` per tile and redundancy slot into one buffer
for any other — it must consume exactly the stream of the per-tile
oracle below (every tile, then every redundancy slot, applying the
injector for itself) and produce the same bytes.  A null injector
draws nothing and shares the pristine tiles; networks whose tiles
carry no conductance pool take the per-tile route.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CircuitParameters
from repro.core.mvm import MVMMode
from repro.errors import DeviceError, ShapeError
from repro.faults import (
    CompositeInjector,
    DriftInjector,
    StuckAtInjector,
    VariationInjector,
)
from repro.faults.injectors import FaultInjector
from repro.mapping import (
    IdealBackend,
    PIMExecutor,
    ReSiPEBackend,
    compile_network,
)
from repro.mapping.backends import _IdealTile, _ReSiPETile
from repro.mapping.bit_slicing import BitSlicingBackend, _BitSlicedTile
from repro.mapping.compiler import MappedNetwork
from repro.mapping.stacked import stack_networks
from repro.nn import Dense, ReLU, Sequential


class DeadColumn(FaultInjector):
    """A 2-D test fault: one random column per crossbar reads g_min."""

    def apply(self, conductances, rng, spec=None):
        g = np.array(conductances, dtype=float)
        g[:, rng.integers(g.shape[1])] = 0.0 if spec is None else spec.g_min
        return g

    def describe(self):
        return {"type": "dead-column"}


class Reshape(FaultInjector):
    """A broken fault: flattens the array it is given."""

    def apply(self, conductances, rng, spec=None):
        return np.ravel(conductances)

    def describe(self):
        return {"type": "reshape"}


#: Elementwise injectors take the bulk path, the rest go per slot.
INJECTORS = {
    "variation": lambda s: VariationInjector(s),
    "lognormal": lambda s: VariationInjector(s, distribution="lognormal"),
    "stuck-at": lambda s: StuckAtInjector(s / 2, s / 3),
    "drift": lambda s: DriftInjector(10 ** (8 * s), nu=0.05, nu_sigma=s),
    "composite": lambda s: CompositeInjector(
        DriftInjector(1e6, nu=0.05), VariationInjector(s), StuckAtInjector(s / 4)
    ),
    "dead-column": lambda s: DeadColumn(),
}


def _network(backend, widths=(40, 36, 5), seed=0):
    rng = np.random.default_rng(seed)
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        layers += [Dense(n_in, n_out, rng=rng), ReLU()]
    return compile_network(Sequential(layers[:-1]), backend)


def _resipe(redundancy=1, mode=MVMMode.EXACT):
    return ReSiPEBackend(
        params=CircuitParameters.calibrated(), mode=mode,
        redundancy=redundancy,
    )


def _oracle_tile(tile, injector, rng):
    """``tile`` drawn slot by slot: one explicit ``injector.apply`` per
    redundancy slot (per slice of a bit-sliced tile, MSB first)."""
    if isinstance(tile, _ReSiPETile):
        return _ReSiPETile([
            e.with_array(e.array.with_conductances(np.asarray(
                injector.apply(e.array.conductances, rng, e.array.spec),
                dtype=float,
            )))
            for e in tile._engines
        ])
    if isinstance(tile, _BitSlicedTile):
        return _BitSlicedTile(
            [_oracle_tile(t, injector, rng) for t in tile._tiles],
            list(tile._scales),
        )
    assert isinstance(tile, _IdealTile), type(tile)
    return _IdealTile(injector.apply(tile._w, rng, None))


def per_tile_chain(network, injector, rng):
    """Every tile, then every redundancy slot, draws for itself."""
    drawn = iter([_oracle_tile(t, injector, rng) for t in network.tiles()])
    return MappedNetwork(
        model=network.model,
        stages=[
            s._with_tiles(lambda _: next(drawn)) if s is not None else None
            for s in network.stages
        ],
    )


def _tile_state(tile):
    if hasattr(tile, "_engines"):
        return [e.array.conductances.tobytes() for e in tile._engines]
    if hasattr(tile, "_tiles"):  # bit-sliced
        return [b for inner in tile._tiles for b in _tile_state(inner)]
    return [tile._w.tobytes()]  # ideal


def _state(network):
    return [b for tile in network.tiles() for b in _tile_state(tile)]


def _rng_state(rng):
    return rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(1, 70), min_size=2, max_size=3),
    redundancy=st.integers(1, 2),
    kind=st.sampled_from(sorted(INJECTORS)),
    sigma=st.floats(0.01, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_bulk_draw_equals_per_tile_chain(widths, redundancy, kind, sigma,
                                         seed):
    network = _network(_resipe(redundancy), widths)
    injector = INJECTORS[kind](sigma)
    rng_bulk = np.random.default_rng(seed)
    rng_chain = np.random.default_rng(seed)
    bulk = network.faulted(injector, rng_bulk)
    chain = per_tile_chain(network, injector, rng_chain)
    assert bulk.drawn is not None
    assert _state(bulk) == _state(chain)
    assert _rng_state(rng_bulk) == _rng_state(rng_chain)


def test_elementwise_is_declared_by_the_built_in_mechanisms():
    kinds = {k: INJECTORS[k](0.1).elementwise for k in INJECTORS}
    assert kinds == {
        "variation": True, "lognormal": True, "stuck-at": True,
        "drift": True, "composite": False,
        "dead-column": False,
    }


def test_explicit_draw_oracle():
    network = _network(_resipe(redundancy=2))
    spec = network.tiles()[0]._engines[0].array.spec
    rng = np.random.default_rng(11)
    clone = network.faulted(VariationInjector(0.1),
                            np.random.default_rng(11))
    shapes = {e.array.shape for t in network.tiles() for e in t._engines}
    assert len(shapes) > 1  # mixed tile shapes
    for pristine, drawn in zip(network.tiles(), clone.tiles()):
        for e0, e1 in zip(pristine._engines, drawn._engines):
            g = e0.array.conductances
            expected = np.clip(
                g * rng.normal(1.0, 0.1, size=g.shape), spec.g_min, spec.g_max
            )
            assert e1.array.conductances.tobytes() == expected.tobytes()


def test_clone_arrays_are_views_of_one_read_only_buffer():
    network = _network(_resipe(redundancy=2))
    for kind in ("variation", "composite", "dead-column"):
        clone = network.faulted(INJECTORS[kind](0.1),
                                np.random.default_rng(1))
        pool, cells = clone.drawn
        assert cells.shape == pool.cells.shape
        assert not cells.flags.writeable
        for tile in clone.tiles():
            for engine in tile._engines:
                assert np.shares_memory(engine.array.conductances, cells)


def test_clone_engines_share_the_pristine_stages():
    network = _network(_resipe())
    clone = network.faulted(VariationInjector(0.1), np.random.default_rng(1))
    for pristine, drawn in zip(network.tiles(), clone.tiles()):
        e0, e1 = pristine._engines[0], drawn._engines[0]
        assert e1.codec is e0.codec
        assert e1.mvm.decoder is e0.mvm.decoder
        assert e1.mvm.cog is e0.mvm.cog
        assert e1.array is not e0.array


BACKENDS = {
    "resipe": lambda: _resipe(redundancy=2),
    "ideal": lambda: IdealBackend(),
    "bit-sliced": lambda: BitSlicingBackend(total_bits=4, bits_per_slice=2),
}


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_sigma_zero_draws_nothing_and_shares_tiles(kind):
    network = _network(BACKENDS[kind](), widths=(20, 9, 3))
    for injector in (VariationInjector(0.0), DriftInjector(0.0),
                     CompositeInjector(StuckAtInjector(), DriftInjector(0))):
        rng = np.random.default_rng(5)
        before = _rng_state(rng)
        clone = network.faulted(injector, rng)
        assert _rng_state(rng) == before
        assert all(a is b for a, b in zip(clone.tiles(), network.tiles()))
        assert clone.drawn is None


@pytest.mark.parametrize("kind", ["ideal", "bit-sliced"])
def test_fallback_tiles_keep_their_own_draw(kind):
    network = _network(BACKENDS[kind](), widths=(20, 9, 3))
    for injector in (VariationInjector(0.15), INJECTORS["composite"](0.15)):
        rng_net = np.random.default_rng(8)
        rng_chain = np.random.default_rng(8)
        clone = network.faulted(injector, rng_net)
        chain = per_tile_chain(network, injector, rng_chain)
        assert clone.drawn is None
        assert _state(clone) == _state(chain)
        assert _rng_state(rng_net) == _rng_state(rng_chain)


def test_second_generation_draws_from_the_clone():
    network = _network(_resipe())
    clone = network.faulted(VariationInjector(0.1), np.random.default_rng(2))
    drift = DriftInjector(1e6, nu=0.05)
    again = clone.faulted(drift, np.random.default_rng(3))
    chain = per_tile_chain(clone, drift, np.random.default_rng(3))
    assert _state(again) == _state(chain)
    assert again.drawn[0] is not clone.drawn[0]


def test_negative_sigma_rejected_like_the_chain():
    network = _network(_resipe())
    with pytest.raises(DeviceError):
        network.faulted(VariationInjector(-0.1), np.random.default_rng(0))


def test_shape_changing_injector_rejected():
    network = _network(_resipe())
    with pytest.raises(ShapeError):
        network.faulted(Reshape(), np.random.default_rng(0))


def test_replace_drops_the_draw():
    network = _network(_resipe())
    clone = network.faulted(VariationInjector(0.1), np.random.default_rng(2))
    assert dataclasses.replace(clone).drawn is None


@pytest.mark.parametrize("redundancy", [1, 2])
@pytest.mark.parametrize("mode", [MVMMode.EXACT, MVMMode.LINEAR])
def test_one_copy_stack_equals_per_tile_stack(mode, redundancy):
    """Stacking pool-drawn clones (one ``(T, N)`` copy) equals stacking
    the per-tile chain's clones, tensor by tensor and output by output,
    for variation and for a composite drawn slot by slot; a mix of both
    kinds takes the per-tile route and agrees too."""
    rng = np.random.default_rng(4)
    network = _network(_resipe(redundancy, mode))
    executor = PIMExecutor(network, rng.random((16, 40)))
    x = rng.random((5, 40))
    for kind in ("variation", "composite"):
        injector = INJECTORS[kind](0.1)
        bulk = [network.faulted(injector, np.random.default_rng([9, t]))
                for t in range(3)]
        chain = [
            per_tile_chain(network, injector, np.random.default_rng([9, t]))
            for t in range(3)
        ]
        assert all(net.drawn is not None for net in bulk)
        fast, slow = stack_networks(bulk), stack_networks(chain)
        for tile_fast, tile_slow in zip(fast.tiles(), slow.tiles()):
            for e_a, e_b in zip(tile_fast._engines, tile_slow._engines):
                s_a, s_b = e_a.array, e_b.array
                assert np.array_equal(s_a.conductances, s_b.conductances)
                assert np.array_equal(
                    s_a.column_total_conductance(),
                    s_b.column_total_conductance(),
                )
        out = executor.forward_trials(x, bulk)
        assert out.tobytes() == executor.forward_trials(x, chain).tobytes()
        mixed = executor.forward_trials(x, [bulk[0], chain[1], bulk[2]])
        assert mixed.tobytes() == out.tobytes()
