"""Benchmark networks and the Fig. 7 accuracy study (reduced scale)."""

import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.fig7_accuracy import Fig7Config, render_fig7, run_fig7
from repro.experiments.networks import (
    NETWORK_SPECS,
    get_benchmark_networks,
)


class TestNetworkSpecs:
    def test_six_networks_paper_order(self):
        assert list(NETWORK_SPECS) == [
            "mlp-1", "mlp-2", "cnn-1", "cnn-2", "cnn-3", "cnn-4"
        ]

    def test_depth_ordering_preserved(self):
        """The Fig. 7 substitution requirement: weighted-layer depth
        strictly increases MLP-1 -> CNN-4 (DESIGN.md §2)."""
        from repro.nn.conv import Conv2D
        from repro.nn.layers import Dense

        depths = []
        for spec in NETWORK_SPECS.values():
            model = spec.build()
            depths.append(
                sum(isinstance(l, (Dense, Conv2D)) for l in model.layers)
            )
        assert depths == sorted(depths)
        assert depths[0] == 1  # MLP-1 is a single perceptron layer
        assert depths[2] == 4  # CNN-1 is the 4-layer LeNet

    def test_parameter_count_ordering(self):
        mlp1 = NETWORK_SPECS["mlp-1"].build().parameter_count()
        cnn4 = NETWORK_SPECS["cnn-4"].build().parameter_count()
        assert cnn4 > mlp1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            get_benchmark_networks(keys=["resnet-50"])


class TestTraining:
    @pytest.fixture(scope="class")
    def trained(self):
        return get_benchmark_networks(
            keys=["mlp-1", "mlp-2"], n_samples=600, cache=False
        )

    def test_learns(self, trained):
        for net in trained:
            assert net.software_accuracy > 0.8, net.spec.display

    def test_mlp2_beats_mlp1(self, trained):
        assert trained[1].software_accuracy >= trained[0].software_accuracy - 0.02

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        first = get_benchmark_networks(keys=["mlp-1"], n_samples=300)[0]
        second = get_benchmark_networks(keys=["mlp-1"], n_samples=300)[0]
        assert second.software_accuracy == first.software_accuracy
        a = first.model.layers[0].weight.value
        b = second.model.layers[0].weight.value
        assert np.allclose(a, b)


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        config = Fig7Config(
            sigmas=(0.0, 0.2),
            trials=2,
            networks=("mlp-1", "mlp-2"),
            n_samples=600,
            eval_samples=100,
        )
        return run_fig7(config)

    def test_rows_match_networks(self, result):
        assert [r.display.split(" ")[0] for r in result.rows] == ["MLP-1", "MLP-2"]

    def test_sigma0_drop_small(self, result):
        """Paper: the non-linearity alone costs < 2.5 % accuracy."""
        for row in result.rows:
            assert row.drop(0.0) < 0.05

    def test_variation_degrades(self, result):
        for row in result.rows:
            assert row.by_sigma[0.2][0] <= row.by_sigma[0.0][0] + 0.02

    def test_row_lookup(self, result):
        assert result.row("MLP-1").display.startswith("MLP-1")
        with pytest.raises(ConfigurationError):
            result.row("VGG-99")

    def test_render(self, result):
        text = render_fig7(result)
        assert "Fig. 7" in text
        assert "MLP-2" in text

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Fig7Config(sigmas=())
        with pytest.raises(ConfigurationError):
            Fig7Config(trials=0)
        with pytest.raises(ConfigurationError):
            Fig7Config(eval_samples=5)


class TestFig7Pool:
    """Fig. 7 gives the same rows at any worker count, and only the
    parent loads networks: forked workers use its prepared chips."""

    def test_rows_identical_at_workers_1_and_2(self, tmp_path, monkeypatch):
        from repro.experiments import networks

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "models"))
        log = tmp_path / "loads"
        original = networks.get_benchmark_networks

        def logged(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(networks, "get_benchmark_networks", logged)
        config = Fig7Config(
            sigmas=(0.0, 0.1, 0.2), trials=2, networks=("mlp-1",),
            n_samples=300, eval_samples=50,
        )
        serial = run_fig7(config, workers=1)
        pooled = run_fig7(config, workers=2)
        assert pooled.rows == serial.rows
        with open(log) as fh:
            assert [int(pid) for pid in fh] == [os.getpid()] * 2


def _column_oracle(config):
    """Fig. 7 rows by the plain σ-column loop: one network at a time,
    ``VariationInjector(σ)`` per trial under Fig. 7's RNG token, each
    clone evaluated alone, and one evaluation for σ = 0."""
    from repro.config import CircuitParameters
    from repro.faults import VariationInjector
    from repro.mapping import PIMExecutor, ReSiPEBackend, compile_network
    from repro.runtime import trial_rng

    rows = []
    for key in config.networks:
        (net,) = get_benchmark_networks(
            keys=[key], n_samples=config.n_samples, seed=config.seed
        )
        backend = ReSiPEBackend(params=CircuitParameters.calibrated(),
                                mode=config.mode)
        executor = PIMExecutor(compile_network(net.model, backend),
                               net.train.images[:64])
        x = net.test.images[: config.eval_samples]
        y = net.test.labels[: config.eval_samples]
        by_sigma = {}
        for sigma in config.sigmas:
            accs = [executor.accuracy(x, y)] if sigma == 0 else [
                executor.faulted(
                    VariationInjector(sigma),
                    trial_rng(config.seed, f"{key}|{sigma:.4f}|{trial}"),
                ).accuracy(x, y)
                for trial in range(config.trials)
            ]
            by_sigma[sigma] = (float(np.mean(accs)), float(np.min(accs)))
        software = float(np.mean(net.model.predict(x, batch_size=128) == y))
        rows.append((net.spec.display, software, by_sigma))
    return rows


class TestFig7ColumnOracle:
    """The campaign-grid Fig. 7 equals the σ-column loop it replaced,
    at every worker count and trial batch."""

    # Five trials leave a partial group at trial_batch 3.  At this seed
    # the mean of five copies of MLP-2's sigma = 0 accuracy (0.84) is
    # not 0.84, so a sigma = 0 column of five realizations would show.
    CONFIG = Fig7Config(
        sigmas=(0.0, 0.1, 0.2), trials=5, networks=("mlp-1", "mlp-2"),
        n_samples=300, eval_samples=50, seed=5,
    )

    @pytest.fixture(scope="class")
    def oracle(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("fig7-oracle"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_CACHE", root)
            yield _column_oracle(self.CONFIG)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("trial_batch", [1, 3])
    def test_rows_equal_the_oracle(self, oracle, workers, trial_batch):
        result = run_fig7(self.CONFIG, workers=workers,
                          trial_batch=trial_batch)
        rows = [(r.display, r.software_accuracy, r.by_sigma)
                for r in result.rows]
        assert rows == oracle
