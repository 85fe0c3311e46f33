"""Cross-module integration tests."""

import numpy as np
import pytest

from repro.baselines import all_designs
from repro.config import CircuitParameters
from repro.core.mac import SingleSpikeMAC
from repro.core.mvm import MVMMode, SingleSpikeMVM
from repro.core.pipeline import schedule_pipeline
from repro.datasets import make_mnist_like, train_test_split
from repro.faults import VariationInjector
from repro.mapping import PIMExecutor, ReSiPEBackend, compile_network
from repro.nn import Adam, Dense, ReLU, Sequential, Trainer
from repro.reram.crossbar import CrossbarArray


class TestCircuitVsVectorModel:
    """The transient circuit, the vectorised MVM and the closed form all
    agree — the chain of trust behind every higher-level result."""

    def test_mac_column_consistency(self, paper_params, rng):
        conductances = rng.uniform(1e-6, 2e-5, 4)
        times = rng.uniform(10e-9, 80e-9, 4)
        # Transient circuit.
        mac = SingleSpikeMAC(paper_params, conductances)
        circuit = mac.run(list(times)).t_out
        # Vectorised engine on a 4x1 crossbar with the same column.
        xb = CrossbarArray(4, 1)
        xb._g = conductances.reshape(4, 1).copy()  # bypass quantise for identity
        mvm = SingleSpikeMVM(xb, paper_params, MVMMode.EXACT)
        vector = float(mvm.output_times(times)[0])
        assert circuit == pytest.approx(vector, abs=10e-12)

    def test_pipeline_latency_matches_engine(self, paper_params):
        sched = schedule_pipeline(1, 1, paper_params.slice_length)
        assert sched.sample_latency == pytest.approx(paper_params.mvm_latency)


class TestTrainMapEvaluate:
    """Train a model, map it, check the hardware path preserves accuracy
    and the fidelity ladder is ordered."""

    @pytest.fixture(scope="class")
    def setup(self):
        data = make_mnist_like(800, seed=1)
        train, test = train_test_split(data.flattened())
        model = Sequential([Dense(784, 24), ReLU(), Dense(24, 10)], name="itest")
        trainer = Trainer(model, Adam(model.parameters(), lr=2e-3), batch_size=64)
        trainer.fit(train.images, train.labels, epochs=6)
        return model, train, test

    def test_hardware_accuracy_close_to_software(self, setup):
        model, train, test = setup
        net = compile_network(model, ReSiPEBackend(mode=MVMMode.EXACT))
        executor = PIMExecutor(net, train.images[:64])
        sw = float(np.mean(model.predict(test.images) == test.labels))
        hw = executor.accuracy(test.images, test.labels)
        assert sw - hw < 0.03  # the paper's <2.5% non-linearity drop band

    def test_fidelity_ladder(self, setup):
        """LINEAR >= EXACT >= EXACT+20% variation, in accuracy."""
        model, train, test = setup
        accs = {}
        for name, mode in (("linear", MVMMode.LINEAR), ("exact", MVMMode.EXACT)):
            net = compile_network(model, ReSiPEBackend(mode=mode))
            ex = PIMExecutor(net, train.images[:64])
            accs[name] = ex.accuracy(test.images, test.labels)
        net = compile_network(model, ReSiPEBackend(mode=MVMMode.EXACT))
        ex = PIMExecutor(net, train.images[:64])
        noisy = [
            ex.faulted(
                VariationInjector(0.20), np.random.default_rng(s)
            ).accuracy(
                test.images, test.labels
            )
            for s in range(3)
        ]
        accs["noisy"] = float(np.mean(noisy))
        assert accs["linear"] >= accs["exact"] - 0.02
        assert accs["exact"] >= accs["noisy"] - 0.02


class TestDesignsOnRealWorkload:
    def test_all_designs_classify(self, rng):
        """Every Table II design can run the same trained layer with only
        modest functional error."""
        designs = all_designs(rows=16, cols=8)
        x = rng.random((8, 16))
        w = rng.random((16, 8))
        ref = x @ w
        for name, design in designs.items():
            y = np.asarray(design.mvm_values(x, w))
            assert np.abs(y - ref).max() / ref.max() < 0.05, name


class TestOperatingPointContrast:
    def test_calibrated_more_linear_than_paper(self, rng):
        """The calibrated point exists precisely because it reduces the
        end-to-end MVM error (DESIGN.md §1)."""
        w = rng.random((32, 8))
        x = rng.random((16, 32))
        errors = {}
        for label, params in (
            ("paper", CircuitParameters.paper()),
            ("calibrated", CircuitParameters.calibrated()),
        ):
            from repro.core.engine import ReSiPEEngine

            engine = ReSiPEEngine.from_normalised_weights(w, params)
            ref = x @ engine.normalised_weights
            y = engine.mvm_values(x)
            errors[label] = float(np.abs(y - ref).mean() / ref.mean())
        assert errors["calibrated"] < errors["paper"]
