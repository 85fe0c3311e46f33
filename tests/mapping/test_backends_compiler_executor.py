"""Backends, compiler and executor — the Fig. 7 machinery."""

import numpy as np
import pytest

from repro.config import CircuitParameters
from repro.core.mvm import MVMMode
from repro.errors import MappingError
from repro.faults import VariationInjector
from repro.mapping import (
    IdealBackend,
    PIMExecutor,
    ReSiPEBackend,
    compile_network,
)
from repro.nn import Dense, Flatten, Conv2D, MaxPool2D, ReLU, Sequential


@pytest.fixture
def mlp(rng):
    model = Sequential([Dense(12, 8, rng=rng), ReLU(), Dense(8, 3, rng=rng)],
                       name="toy")
    return model


@pytest.fixture
def x_batch(rng):
    return rng.random((16, 12))


class TestBackends:
    def test_ideal_tile_is_matmul(self, rng):
        backend = IdealBackend()
        w = rng.random((8, 4))
        tile = backend.program(w)
        x = rng.random((3, 8))
        assert np.allclose(tile.matmul(x), x @ w)

    def test_ideal_perturbed(self, rng):
        tile = IdealBackend().program(rng.random((4, 4)))
        noisy = tile.faulted(VariationInjector(0.2), rng)
        x = rng.random(4)
        assert not np.allclose(tile.matmul(x), noisy.matmul(x))

    def test_resipe_linear_tile_is_matmul(self, rng):
        backend = ReSiPEBackend(mode=MVMMode.LINEAR)
        w = rng.random((16, 8))
        tile = backend.program(w)
        x = rng.random((3, 16))
        assert np.allclose(tile.matmul(x), x @ w, atol=1e-9)

    def test_resipe_exact_tile_close(self, rng):
        backend = ReSiPEBackend(mode=MVMMode.EXACT)
        w = rng.random((16, 8))
        tile = backend.program(w)
        x = rng.random((3, 16))
        ref = x @ w
        assert np.abs(tile.matmul(x) - ref).max() / ref.max() < 0.15

    def test_resipe_tile_size_enforced(self, rng):
        backend = ReSiPEBackend()
        with pytest.raises(MappingError):
            backend.program(rng.random((64, 8)))


class TestCompiler:
    def test_stage_alignment(self, mlp):
        net = compile_network(mlp, IdealBackend())
        assert len(net.stages) == len(mlp.layers)
        assert net.stages[0] is not None
        assert net.stages[1] is None  # ReLU
        assert net.stages[2] is not None

    def test_tile_counts(self, mlp):
        net = compile_network(mlp, IdealBackend(max_rows=4, max_cols=4))
        # Layer 1 diff matrix is 13x8 (bias row): ceil(13/4)*ceil(8/4)=8 per polarity.
        assert net.stages[0].num_tiles == 16

    def test_rejects_unweighted_model(self):
        model = Sequential([ReLU()])
        with pytest.raises(MappingError):
            compile_network(model, IdealBackend())

    def test_mapped_matmul_matches_layer(self, mlp, rng):
        net = compile_network(
            mlp, IdealBackend(max_rows=5, max_cols=3), clip_percentile=100
        )
        stage = net.stages[0]
        x = rng.random((4, 12))
        expected = mlp.layers[0].forward(x)
        assert np.allclose(stage.matmul_with_bias_level(x, 1.0), expected, atol=1e-9)

    def test_perturbed_network_isolated(self, mlp, rng):
        net = compile_network(mlp, IdealBackend())
        clone = net.faulted(VariationInjector(0.3), rng)
        x = rng.random((2, 12))
        a = net.stages[0].matmul_with_bias_level(x, 1.0)
        b = clone.stages[0].matmul_with_bias_level(x, 1.0)
        assert not np.allclose(a, b)


class TestExecutor:
    def test_ideal_backend_matches_software(self, mlp, x_batch):
        net = compile_network(mlp, IdealBackend(), clip_percentile=100)
        executor = PIMExecutor(net, x_batch[:8])
        hw = executor.forward(x_batch)
        sw = mlp(x_batch)
        assert np.allclose(hw, sw, atol=1e-6)

    def test_resipe_linear_matches_software(self, mlp, x_batch):
        # clip_percentile=100 disables tail clipping -> exact identity.
        net = compile_network(
            mlp, ReSiPEBackend(mode=MVMMode.LINEAR), clip_percentile=100
        )
        executor = PIMExecutor(net, x_batch[:8])
        assert np.allclose(executor.forward(x_batch), mlp(x_batch), atol=1e-6)

    def test_default_clipping_close_but_inexact(self, mlp, x_batch):
        net = compile_network(mlp, ReSiPEBackend(mode=MVMMode.LINEAR))
        executor = PIMExecutor(net, x_batch[:8])
        hw = executor.forward(x_batch)
        sw = mlp(x_batch)
        assert np.abs(hw - sw).max() / np.abs(sw).max() < 0.05

    def test_resipe_exact_close_after_calibration(self, mlp, x_batch):
        net = compile_network(mlp, ReSiPEBackend(mode=MVMMode.EXACT))
        executor = PIMExecutor(net, x_batch[:8])
        hw = executor.forward(x_batch)
        sw = mlp(x_batch)
        scale = np.abs(sw).max()
        assert np.abs(hw - sw).max() / scale < 0.1

    def test_gain_calibration_helps(self, mlp, x_batch):
        net_cal = compile_network(mlp, ReSiPEBackend(mode=MVMMode.EXACT))
        net_raw = compile_network(mlp, ReSiPEBackend(mode=MVMMode.EXACT))
        sw = mlp(x_batch)
        cal = PIMExecutor(net_cal, x_batch[:8], calibrate_gain=True)
        raw = PIMExecutor(net_raw, x_batch[:8], calibrate_gain=False)
        err_cal = np.abs(cal.forward(x_batch) - sw).mean()
        err_raw = np.abs(raw.forward(x_batch) - sw).mean()
        assert err_cal < err_raw

    def test_conv_network(self, rng):
        model = Sequential(
            [
                Conv2D(1, 4, kernel=3, pad=1, rng=rng), ReLU(), MaxPool2D(2),
                Flatten(), Dense(4 * 4 * 4, 3, rng=rng),
            ],
            name="cnn",
        )
        x = rng.random((6, 1, 8, 8))
        net = compile_network(
            model, ReSiPEBackend(mode=MVMMode.LINEAR), clip_percentile=100
        )
        executor = PIMExecutor(net, x[:4])
        assert np.allclose(executor.forward(x), model(x), atol=1e-6)

    def test_accuracy_and_predict(self, mlp, x_batch):
        net = compile_network(mlp, IdealBackend())
        executor = PIMExecutor(net, x_batch[:8])
        labels = mlp.predict(x_batch)
        assert executor.accuracy(x_batch, labels) == pytest.approx(1.0)

    def test_perturbed_executor_degrades(self, mlp, x_batch, rng):
        net = compile_network(mlp, ReSiPEBackend(mode=MVMMode.LINEAR))
        executor = PIMExecutor(net, x_batch[:8])
        base = executor.forward(x_batch)
        noisy = executor.faulted(VariationInjector(0.3), rng).forward(x_batch)
        assert not np.allclose(base, noisy)

    def test_empty_calibration_rejected(self, mlp):
        net = compile_network(mlp, IdealBackend())
        with pytest.raises(MappingError):
            PIMExecutor(net, np.zeros((0, 12)))
