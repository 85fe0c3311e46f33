"""Unified fault-injector protocol."""

import json

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.faults import (
    CompositeInjector,
    DriftInjector,
    StuckAtInjector,
    VariationInjector,
)
from repro.reram.device import DeviceSpec


@pytest.fixture
def spec():
    return DeviceSpec.paper_linear_range()


@pytest.fixture
def weights(rng):
    return rng.random((16, 12))


class TestStuckAt:
    def test_unit_window_pins_to_zero_and_one(self, weights, rng):
        all_on = StuckAtInjector(stuck_on_rate=1.0).apply(weights, rng)
        assert np.allclose(all_on, 1.0)
        all_off = StuckAtInjector(stuck_off_rate=1.0).apply(weights, rng)
        assert np.allclose(all_off, 0.0, atol=1e-9)

    def test_device_window_pins_to_extremes(self, weights, rng, spec):
        g = spec.g_min + weights * (spec.g_max - spec.g_min)
        hit = StuckAtInjector(stuck_on_rate=1.0).apply(g, rng, spec=spec)
        assert np.allclose(hit, spec.g_max)

    def test_input_never_modified(self, weights, rng):
        before = weights.copy()
        StuckAtInjector(stuck_on_rate=0.5).apply(weights, rng)
        assert np.array_equal(weights, before)

    def test_is_null(self):
        assert StuckAtInjector().is_null
        assert not StuckAtInjector(stuck_on_rate=0.01).is_null

    def test_seeded_reproducibility(self, weights):
        injector = StuckAtInjector(stuck_on_rate=0.2, stuck_off_rate=0.1)
        a = injector.apply(weights, np.random.default_rng(7))
        b = injector.apply(weights, np.random.default_rng(7))
        c = injector.apply(weights, np.random.default_rng(8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(DeviceError):
            StuckAtInjector(stuck_on_rate=-0.1)
        with pytest.raises(DeviceError):
            StuckAtInjector(stuck_on_rate=0.7, stuck_off_rate=0.7)


class TestVariation:
    def test_perturbs_values(self, weights, rng):
        out = VariationInjector(sigma=0.2).apply(weights, rng)
        assert not np.allclose(out, weights)

    def test_sigma_zero_is_null_identity(self, weights, rng):
        injector = VariationInjector(sigma=0.0)
        assert injector.is_null
        assert np.allclose(injector.apply(weights, rng), weights)

    def test_validation(self):
        with pytest.raises(DeviceError):
            VariationInjector(sigma=-0.1)


class TestDrift:
    def test_zero_elapsed_is_identity(self, weights, rng):
        injector = DriftInjector(elapsed=0.0)
        assert injector.is_null
        assert np.allclose(injector.apply(weights, rng), weights)

    def test_drift_only_decays(self, weights, rng):
        out = DriftInjector(elapsed=1e6).apply(weights, rng)
        assert np.all(out <= weights + 1e-12)
        assert np.all(out >= 0)

    def test_device_window_clip(self, weights, rng, spec):
        g = spec.g_min + weights * (spec.g_max - spec.g_min)
        out = DriftInjector(elapsed=1e9, nu=0.2).apply(g, rng, spec=spec)
        assert np.all(out >= spec.g_min - 1e-18)

    def test_validation(self):
        with pytest.raises(DeviceError):
            DriftInjector(elapsed=-1.0)


class TestComposite:
    def test_stages_apply_in_order(self, weights, rng):
        # Stuck-on-everything last wins regardless of earlier stages.
        injector = CompositeInjector(
            VariationInjector(sigma=0.3), StuckAtInjector(stuck_on_rate=1.0)
        )
        assert np.allclose(injector.apply(weights, rng), 1.0)

    def test_nested_composites_flatten(self):
        inner = CompositeInjector(VariationInjector(sigma=0.1))
        outer = CompositeInjector(inner, StuckAtInjector(stuck_on_rate=0.01))
        assert len(outer.stages) == 2

    def test_is_null_when_all_stages_null(self):
        assert CompositeInjector(
            VariationInjector(sigma=0.0), DriftInjector(elapsed=0.0)
        ).is_null
        assert not CompositeInjector(
            VariationInjector(sigma=0.0), StuckAtInjector(stuck_on_rate=0.1)
        ).is_null

    def test_rejects_non_injector(self):
        with pytest.raises(DeviceError):
            CompositeInjector(VariationInjector(sigma=0.1), object())

    def test_seeded_reproducibility(self, weights):
        injector = CompositeInjector(
            DriftInjector(elapsed=1e4),
            VariationInjector(sigma=0.1),
            StuckAtInjector(stuck_on_rate=0.05),
        )
        a = injector.apply(weights, np.random.default_rng(3))
        b = injector.apply(weights, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestDescribe:
    def test_all_descriptions_json_serialisable(self):
        injectors = [
            StuckAtInjector(stuck_on_rate=0.01),
            VariationInjector(sigma=0.1, distribution="lognormal"),
            DriftInjector(elapsed=3600.0),
            CompositeInjector(
                VariationInjector(sigma=0.1), StuckAtInjector()
            ),
        ]
        for injector in injectors:
            payload = json.dumps(injector.describe())
            assert injector.describe()["type"] in payload


NULL_INJECTORS = {
    "stuck_at": StuckAtInjector(),
    "variation": VariationInjector(sigma=0.0),
    "variation-lognormal": VariationInjector(0.0, distribution="lognormal"),
    "drift-elapsed": DriftInjector(elapsed=0.0),
    "drift-nu": DriftInjector(elapsed=1e6, nu=0.0),
    "composite": CompositeInjector(
        VariationInjector(0.0), DriftInjector(0.0), StuckAtInjector()
    ),
    "composite-empty": CompositeInjector(),
}


@pytest.mark.parametrize("name", sorted(NULL_INJECTORS))
@pytest.mark.parametrize("window", ["unit", "device"])
def test_null_injector_draws_nothing_and_changes_nothing(
    name, window, weights, spec
):
    """The ``is_null`` contract every caller may rely on to skip an
    injector: no random draw, and the input comes back unchanged."""
    injector = NULL_INJECTORS[name]
    assert injector.is_null
    if window == "unit":
        g, window_spec = weights, None
    else:
        g, window_spec = spec.g_min + weights * (spec.g_max - spec.g_min), spec
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    out = injector.apply(g, rng, spec=window_spec)
    assert rng.bit_generator.state == before
    assert np.array_equal(out, g)
