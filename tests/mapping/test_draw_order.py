"""Draw-order contract of the network-level Monte-Carlo clone.

:meth:`MappedNetwork.perturbed` draws one trial's variation with a
single ``rng.normal(1, σ, N)`` over every programmed cell.  It must
consume exactly the stream of the per-tile chain (every tile, then
every redundancy slot, drawing for itself) and produce the same bytes;
at σ = 0 it must draw nothing and share the pristine tiles; networks
whose tiles carry no conductance matrix keep the per-tile chain.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import LevelBasedPIM
from repro.config import CircuitParameters
from repro.core.mvm import MVMMode
from repro.errors import DeviceError
from repro.mapping import (
    DesignBackend,
    IdealBackend,
    PIMExecutor,
    ReSiPEBackend,
    compile_network,
)
from repro.mapping.bit_slicing import BitSlicingBackend
from repro.mapping.stacked import stack_networks
from repro.nn import Dense, ReLU, Sequential


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


def per_tile_chain(network, rng, sigma):
    """Every tile, then every redundancy slot, draws for itself."""
    return network._with_stages(lambda s: s.perturbed(rng, sigma))


def _tile_state(tile):
    if hasattr(tile, "_engines"):
        return [e.array.conductances.tobytes() for e in tile._engines]
    if hasattr(tile, "_tiles"):  # bit-sliced
        return [b for inner in tile._tiles for b in _tile_state(inner)]
    if hasattr(tile, "_w"):  # ideal
        return [tile._w.tobytes()]
    return [id(tile)]  # design tiles carry no drawn state


def _state(network):
    return [b for tile in network.tiles() for b in _tile_state(tile)]


def _rng_state(rng):
    return rng.bit_generator.state


@settings(max_examples=25, deadline=None)
@given(
    widths=st.lists(st.integers(1, 70), min_size=2, max_size=3),
    redundancy=st.integers(1, 2),
    sigma=st.floats(0.01, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_bulk_draw_equals_per_tile_chain(widths, redundancy, sigma, seed):
    network = _network(_resipe(redundancy), widths)
    rng_bulk = np.random.default_rng(seed)
    rng_chain = np.random.default_rng(seed)
    bulk = network.perturbed(rng_bulk, sigma)
    chain = per_tile_chain(network, rng_chain, sigma)
    assert bulk.drawn is not None
    assert _state(bulk) == _state(chain)
    assert _rng_state(rng_bulk) == _rng_state(rng_chain)


def test_explicit_draw_oracle():
    network = _network(_resipe(redundancy=2))
    spec = network.tiles()[0]._engines[0].array.spec
    rng = np.random.default_rng(11)
    clone = network.perturbed(np.random.default_rng(11), 0.1)
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
    clone = network.perturbed(np.random.default_rng(1), 0.1)
    pool, cells = clone.drawn
    assert cells.shape == pool.cells.shape
    assert not cells.flags.writeable
    for tile in clone.tiles():
        for engine in tile._engines:
            assert np.shares_memory(engine.array.conductances, cells)


def test_clone_engines_share_the_pristine_stages():
    network = _network(_resipe())
    clone = network.perturbed(np.random.default_rng(1), 0.1)
    for pristine, drawn in zip(network.tiles(), clone.tiles()):
        e0, e1 = pristine._engines[0], drawn._engines[0]
        assert e1.codec is e0.codec
        assert e1.mvm.decoder is e0.mvm.decoder
        assert e1.mvm.cog is e0.mvm.cog
        assert e1.array is not e0.array


BACKENDS = {
    "resipe": lambda: _resipe(redundancy=2),
    "ideal": lambda: IdealBackend(),
    "design": lambda: DesignBackend(lambda r, c: LevelBasedPIM(r, c)),
    "bit-sliced": lambda: BitSlicingBackend(total_bits=4, bits_per_slice=2),
}


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_sigma_zero_draws_nothing_and_shares_tiles(kind):
    network = _network(BACKENDS[kind](), widths=(20, 9, 3))
    rng = np.random.default_rng(5)
    before = _rng_state(rng)
    clone = network.perturbed(rng, 0.0)
    assert _rng_state(rng) == before
    assert all(a is b for a, b in zip(clone.tiles(), network.tiles()))
    assert clone.drawn is None


@pytest.mark.parametrize("kind", ["ideal", "design", "bit-sliced"])
def test_fallback_tiles_keep_their_own_draw(kind):
    network = _network(BACKENDS[kind](), widths=(20, 9, 3))
    rng_net = np.random.default_rng(8)
    rng_chain = np.random.default_rng(8)
    clone = network.perturbed(rng_net, 0.15)
    chain = per_tile_chain(network, rng_chain, 0.15)
    assert clone.drawn is None
    assert _state(clone) == _state(chain)
    assert _rng_state(rng_net) == _rng_state(rng_chain)


def test_second_generation_draws_from_the_clone():
    network = _network(_resipe())
    clone = network.perturbed(np.random.default_rng(2), 0.1)
    again = clone.perturbed(np.random.default_rng(3), 0.05)
    chain = per_tile_chain(clone, np.random.default_rng(3), 0.05)
    assert _state(again) == _state(chain)
    assert again.drawn[0] is not clone.drawn[0]


def test_negative_sigma_rejected_like_the_chain():
    network = _network(_resipe())
    with pytest.raises(DeviceError):
        per_tile_chain(network, np.random.default_rng(0), -0.1)
    with pytest.raises(DeviceError):
        network.perturbed(np.random.default_rng(0), -0.1)


def test_replace_drops_the_draw():
    network = _network(_resipe())
    clone = network.perturbed(np.random.default_rng(2), 0.1)
    assert dataclasses.replace(clone).drawn is None


@pytest.mark.parametrize("redundancy", [1, 2])
@pytest.mark.parametrize("mode", [MVMMode.EXACT, MVMMode.LINEAR])
def test_one_copy_stack_equals_per_tile_stack(mode, redundancy):
    """Stacking bulk clones (one ``(T, N)`` copy) equals stacking the
    per-tile chain's clones, tensor by tensor and output by output; a
    mix of both kinds takes the per-tile route and agrees too."""
    rng = np.random.default_rng(4)
    network = _network(_resipe(redundancy, mode))
    executor = PIMExecutor(network, rng.random((16, 40)))
    bulk = [network.perturbed(np.random.default_rng([9, t]), 0.1)
            for t in range(3)]
    chain = [per_tile_chain(network, np.random.default_rng([9, t]), 0.1)
             for t in range(3)]
    fast, slow = stack_networks(bulk), stack_networks(chain)
    for layer_fast, layer_slow in zip(fast.mapped_layers(),
                                      slow.mapped_layers()):
        for attr in ("pos_tiles", "neg_tiles"):
            for row_fast, row_slow in zip(getattr(layer_fast, attr),
                                          getattr(layer_slow, attr)):
                for a, b in zip(row_fast, row_slow):
                    for e_a, e_b in zip(a._engines, b._engines):
                        s_a, s_b = e_a.array, e_b.array
                        assert np.array_equal(s_a.conductances,
                                              s_b.conductances)
                        assert np.array_equal(
                            s_a.column_total_conductance(),
                            s_b.column_total_conductance(),
                        )
    x = rng.random((5, 40))
    out = executor.forward_trials(x, bulk)
    assert out.tobytes() == executor.forward_trials(x, chain).tobytes()
    mixed = executor.forward_trials(x, [bulk[0], chain[1], bulk[2]])
    assert mixed.tobytes() == out.tobytes()
