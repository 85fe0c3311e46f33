"""Chip-level deployment planner."""

import numpy as np
import pytest

from repro.config import CircuitParameters
from repro.core.mvm import MVMMode
from repro.core.pipeline import schedule_pipeline
from repro.errors import MappingError
from repro.mapping import ReSiPEBackend, compile_network, plan_deployment
from repro.nn import AvgPool2D, Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential

SLICE = CircuitParameters.paper().slice_length


def _reference_schedule(occupancies, samples):
    """Slot recurrence of a pipeline whose layers take whole samples.

    Layer ``i`` starts sample ``k`` once its engines are free and one
    slice before layer ``i - 1`` finishes ``k`` (S2 of layer n is S1 of
    layer n+1); it is then busy ``occupancies[i]`` slices.  Returns
    ``(starts, finishes)`` as ``[layer][sample]`` slots from slot 0.
    """
    starts = [[0] * samples for _ in occupancies]
    finishes = [[0] * samples for _ in occupancies]
    for k in range(samples):
        for i, occupancy in enumerate(occupancies):
            ready = finishes[i - 1][k] - 1 if i else 0
            free = finishes[i][k - 1] if k else 0
            starts[i][k] = max(ready, free)
            finishes[i][k] = starts[i][k] + occupancy
    return starts, finishes


def _occupancies(report):
    return [layer.occupancy_slices for layer in report.layers]


def _compiled(layers, name):
    model = Sequential(layers, name=name)
    return compile_network(model, ReSiPEBackend(mode=MVMMode.LINEAR))


@pytest.fixture
def mlp_network(rng):
    model = Sequential([Dense(40, 16, rng=rng), ReLU(), Dense(16, 4, rng=rng)],
                       name="mlp")
    return compile_network(model, ReSiPEBackend(mode=MVMMode.LINEAR))


@pytest.fixture
def two_conv_network(rng):
    return _compiled(
        [Conv2D(1, 4, kernel=3, pad=1, rng=rng), ReLU(), MaxPool2D(2),
         Conv2D(4, 4, kernel=3, pad=1, rng=rng), ReLU(),
         Flatten(), Dense(4 * 4 * 4, 4, rng=rng)],
        "cnn2",
    )


@pytest.fixture
def conv_network(rng):
    model = Sequential(
        [
            Conv2D(1, 4, kernel=3, pad=1, rng=rng), ReLU(), MaxPool2D(2),
            Flatten(), Dense(4 * 4 * 4, 4, rng=rng),
        ],
        name="cnn",
    )
    return compile_network(model, ReSiPEBackend(mode=MVMMode.LINEAR))


class TestMLPDeployment:
    def test_tile_accounting(self, mlp_network):
        report = plan_deployment(mlp_network)
        assert report.total_tiles == mlp_network.total_tiles()
        assert len(report.layers) == 2

    def test_dense_is_one_mvm(self, mlp_network):
        report = plan_deployment(mlp_network)
        assert all(l.mvms_per_input == 1 for l in report.layers)

    def test_energy_consistent_with_engine(self, mlp_network):
        from repro.core.power import ReSiPEPowerModel

        params = CircuitParameters.paper()
        engine = ReSiPEPowerModel(params)
        report = plan_deployment(mlp_network, params=params)
        expected = (
            report.total_tiles * engine.power() * engine.latency
        )
        assert report.energy_per_inference == pytest.approx(expected)

    def test_throughput_set_by_bottleneck(self, mlp_network):
        params = CircuitParameters.paper()
        report = plan_deployment(mlp_network, params=params)
        # Dense-only network: bottleneck is one MVM = 2 slices.
        assert report.throughput == pytest.approx(
            1.0 / (2 * params.slice_length)
        )

    def test_power_is_energy_times_rate(self, mlp_network):
        report = plan_deployment(mlp_network)
        assert report.average_power == pytest.approx(
            report.energy_per_inference * report.throughput
        )


class TestConvDeployment:
    def test_conv_mvm_count_is_output_positions(self, conv_network):
        report = plan_deployment(conv_network, input_hw=(8, 8))
        conv_layer = report.layers[0]
        assert conv_layer.mvms_per_input == 64  # 8x8 with pad=1, stride=1

    def test_pooling_traced(self, conv_network):
        report = plan_deployment(conv_network, input_hw=(8, 8))
        # Dense after 2x pooling: spatial reduced to 4x4 before flatten.
        assert report.layers[1].mvms_per_input == 1

    def test_conv_requires_input_hw(self, conv_network):
        with pytest.raises(MappingError):
            plan_deployment(conv_network)

    def test_conv_slower_than_mlp(self, conv_network, mlp_network):
        conv = plan_deployment(conv_network, input_hw=(8, 8))
        mlp = plan_deployment(mlp_network)
        assert conv.latency_per_inference > mlp.latency_per_inference
        assert conv.throughput < mlp.throughput

    def test_render(self, conv_network):
        text = plan_deployment(conv_network, input_hw=(8, 8)).render()
        assert "Deployment" in text
        assert "inferences/s" in text


class TestInputValidation:
    @pytest.fixture
    def unpadded_network(self, rng):
        return _compiled(
            [Conv2D(1, 2, kernel=5, pad=0, rng=rng), ReLU(), AvgPool2D(2),
             Flatten(), Dense(2 * 4 * 4, 4, rng=rng)],
            "unpadded",
        )

    def test_runnable_size_is_planned(self, unpadded_network):
        report = plan_deployment(unpadded_network, input_hw=(12, 12))
        assert [l.mvms_per_input for l in report.layers] == [64, 1]

    @pytest.mark.parametrize("input_hw", [
        (2, 2), (0, 0), (-5, -5),  # conv leaves no output position
        (7, 7),  # 3x3 conv output is not divisible by the 2x2 pool
        (16, 16),  # Flatten gives 2 x 6 x 6 = 72 features, Dense takes 32
        (12, 12.0), (True, 12), (12,), 12,  # not two positive ints
    ], ids=["2x2", "0x0", "negative", "7x7", "flatten-width", "float", "bool",
            "one-side", "scalar"])
    def test_rejects_sizes_the_model_cannot_run(self, unpadded_network, input_hw):
        with pytest.raises(MappingError):
            plan_deployment(unpadded_network, input_hw=input_hw)

    def test_flatten_width_error_names_the_dense_layer(self, unpadded_network):
        with pytest.raises(MappingError, match="dense32x4: expects 32 features, "
                           "but Flatten gives 72"):
            plan_deployment(unpadded_network, input_hw=(16, 16))


class TestAgainstReference:
    """The closed forms checked against ``_reference_schedule``."""

    @pytest.mark.parametrize("layers,samples", [(1, 4), (3, 6), (5, 10)])
    def test_matches_schedule_pipeline(self, layers, samples):
        starts, finishes = _reference_schedule([2] * layers, samples)
        analytic = schedule_pipeline(layers, samples, SLICE)
        assert finishes[-1][0] == analytic.sample_latency_slices
        assert starts[0][1] - starts[0][0] == analytic.initiation_interval_slices
        assert finishes[-1][-1] == analytic.total_slices

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_dense_latency_and_throughput(self, rng, depth):
        widths = [20, 16, 12, 8, 4][: depth + 1]
        layers = [Dense(a, b, rng=rng) for a, b in zip(widths, widths[1:])]
        report = plan_deployment(_compiled(layers, "mlp"))
        _, finishes = _reference_schedule(_occupancies(report), 6)
        assert report.latency_per_inference == pytest.approx(finishes[-1][0] * SLICE)
        interval = finishes[-1][-1] - finishes[-1][-2]
        assert report.throughput == pytest.approx(1.0 / (interval * SLICE))

    def test_conv_throughput(self, two_conv_network):
        report = plan_deployment(two_conv_network, input_hw=(8, 8))
        _, finishes = _reference_schedule(_occupancies(report), 6)
        interval = finishes[-1][-1] - finishes[-1][-2]
        assert interval == max(_occupancies(report))
        assert report.throughput == pytest.approx(1.0 / (interval * SLICE))

    @pytest.mark.parametrize("net", ["conv_network", "two_conv_network"])
    def test_conv_latency_is_streaming_lower_bound(self, net, request):
        report = plan_deployment(request.getfixturevalue(net), input_hw=(8, 8))
        occupancies = _occupancies(report)
        streaming = len(occupancies) - 1 + max(occupancies)
        assert report.latency_per_inference == pytest.approx(streaming * SLICE)
        # Whole-sample layers give sum - (L - 1), equal to the planner
        # exactly when at most one layer is busy for more than 2 slices.
        _, finishes = _reference_schedule(occupancies, 1)
        whole_sample = finishes[-1][0]
        assert whole_sample == sum(occupancies) - (len(occupancies) - 1)
        assert streaming <= whole_sample
        busy = sum(occupancy > 2 for occupancy in occupancies)
        assert (streaming == whole_sample) == (busy <= 1)


class TestSpareBudget:
    def test_default_reserves_nothing(self, mlp_network):
        report = plan_deployment(mlp_network)
        assert report.spare_tiles == 0
        assert report.spare_fraction == pytest.approx(0.0)

    def test_spares_add_tiles_and_area(self, mlp_network):
        base = plan_deployment(mlp_network)
        spared = plan_deployment(mlp_network, spare_fraction=0.2)
        assert spared.spare_tiles > 0
        assert spared.area > base.area
        # Spares are reserve capacity: throughput/energy are untouched.
        assert spared.energy_per_inference == base.energy_per_inference
        assert spared.throughput == base.throughput

    def test_render_mentions_reserve(self, mlp_network):
        text = plan_deployment(mlp_network, spare_fraction=0.2).render()
        assert "spare tiles" in text

    def test_remap_log_attaches_and_renders(self, mlp_network):
        report = plan_deployment(mlp_network, spare_fraction=0.2)
        events = [
            {"layer": "dense-0", "column": 3, "action": "spare",
             "attempts": 1, "deviation": 0.2},
            {"layer": "dense-0", "column": 7, "action": "software",
             "attempts": 0, "deviation": 0.1},
        ]
        logged = report.with_remap_log(events)
        assert logged.remap_events == events
        assert report.remap_events == []  # original untouched
        text = logged.render()
        assert "remap log" in text

    def test_round_trip_preserves_spare_fields(self, mlp_network, tmp_path):
        from repro.mapping.deployment import DeploymentReport

        report = plan_deployment(mlp_network, spare_fraction=0.25)
        report = report.with_remap_log(
            [{"layer": "dense-0", "column": 1, "action": "spare",
              "attempts": 1, "deviation": 0.3}]
        )
        path = str(tmp_path / "spared.json")
        report.save(path)
        back = DeploymentReport.load(path)
        assert back == report


class TestReportPersistence:
    def test_save_load_round_trip(self, mlp_network, tmp_path):
        from repro.mapping.deployment import DeploymentReport

        report = plan_deployment(mlp_network)
        path = str(tmp_path / "report.json")
        report.save(path)
        back = DeploymentReport.load(path)
        assert back == report  # frozen dataclasses compare by value

    def test_load_corrupt_raises_artifact_error(self, tmp_path):
        from repro.errors import ArtifactError
        from repro.mapping.deployment import DeploymentReport

        path = str(tmp_path / "report.json")
        with open(path, "w") as fh:
            fh.write('{"network_name": "m", "layers": [')
        with pytest.raises(ArtifactError):
            DeploymentReport.load(path)

    def test_load_malformed_payload_raises_artifact_error(self, tmp_path):
        from repro.errors import ArtifactError
        from repro.mapping.deployment import DeploymentReport

        path = str(tmp_path / "report.json")
        with open(path, "w") as fh:
            fh.write('{"unexpected": true}')
        with pytest.raises(ArtifactError):
            DeploymentReport.load(path)
