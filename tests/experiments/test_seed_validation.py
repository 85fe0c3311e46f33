"""Negative master seeds are rejected at the config boundary.

``SeedSequence(seed + crc32(token))`` raises an opaque numpy
``ValueError`` deep inside a campaign when the sum goes negative — and
only for tokens whose crc32 is small enough, so the crash would be
intermittent.  The specs reject it up front instead.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.fig7_accuracy import Fig7Config
from repro.faults import CampaignSpec
from repro.serving import ServingConfig


@pytest.mark.parametrize("make", [
    lambda: Fig7Config(seed=-1),
    lambda: CampaignSpec(seed=-7),
    lambda: ServingConfig(seed=-3),
])
def test_negative_seed_rejected(make):
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        make()


def test_zero_and_positive_seeds_accepted():
    assert Fig7Config(seed=0).seed == 0
    assert CampaignSpec(seed=123).seed == 123
    assert ServingConfig(seed=5).seed == 5


@pytest.mark.parametrize("config, match", [
    (dict(sigmas=(0.1, 0.1)), "duplicate sigmas"),
    (dict(networks=("mlp-1", "mlp-1")), "duplicate networks"),
    (dict(networks=("mlp-1", "vgg-99")), "unknown networks"),
])
def test_fig7_config_rejects_grid_collisions(config, match):
    """Regression: these used to run at workers=1 and fail with
    'duplicate cell keys' (or deep in the sweep) at workers=2."""
    with pytest.raises(ConfigurationError, match=match):
        Fig7Config(**config)
