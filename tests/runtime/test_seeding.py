"""Seed partitioning: a trial's stream is a pure function of the master
seed and its identity token."""

import numpy as np

from repro.runtime import trial_rng, trial_seed_sequence


class TestSeeding:
    def test_same_token_same_stream(self):
        a = trial_rng(7, "mlp-1|0.05|3").random(8)
        b = trial_rng(7, "mlp-1|0.05|3").random(8)
        assert np.array_equal(a, b)

    def test_distinct_tokens_distinct_streams(self):
        a = trial_rng(7, "mlp-1|0.05|3").random(8)
        b = trial_rng(7, "mlp-1|0.05|4").random(8)
        assert not np.array_equal(a, b)

    def test_master_seed_matters(self):
        a = trial_rng(7, "tok").random(8)
        b = trial_rng(8, "tok").random(8)
        assert not np.array_equal(a, b)

    def test_seed_sequence_is_pure(self):
        one = trial_seed_sequence(3, "x").generate_state(4)
        two = trial_seed_sequence(3, "x").generate_state(4)
        assert np.array_equal(one, two)
