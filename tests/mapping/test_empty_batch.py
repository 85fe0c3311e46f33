"""Zero-row batches through the executor (the serving flush path).

The ``repro serve`` coalescer drains with a deliberate empty flush, so
``predict``/``predict_trials`` must be total on zero-row input instead
of crashing in ``np.concatenate``; ``accuracy`` variants reject the
undefined statistic with a clear :class:`ConfigurationError`.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import VariationInjector
from repro.mapping import IdealBackend, PIMExecutor, compile_network
from repro.nn import Dense, ReLU, Sequential
from repro.runtime import trial_rng


@pytest.fixture
def executor(rng):
    model = Sequential(
        [Dense(12, 8, rng=rng), ReLU(), Dense(8, 4, rng=rng)], name="toy"
    )
    mapped = compile_network(model, IdealBackend())
    return PIMExecutor(mapped, rng.random((16, 12)))


class TestSerialPath:
    def test_predict_empty_returns_empty_labels(self, executor):
        out = executor.predict(np.zeros((0, 12)))
        assert out.shape == (0,)
        assert np.issubdtype(out.dtype, np.integer)

    def test_predict_empty_counts_no_launches(self, executor):
        executor.reset_stats()
        executor.predict(np.zeros((0, 12)))
        assert executor.total_mvm_launches() == 0

    def test_accuracy_empty_raises(self, executor):
        with pytest.raises(ConfigurationError, match="empty"):
            executor.accuracy(np.zeros((0, 12)), np.zeros(0))


class TestStackedPath:
    @pytest.fixture
    def clones(self, executor):
        return [
            executor.faulted(
                VariationInjector(0.1), trial_rng(0, f"empty|{t}")
            ).network
            for t in range(3)
        ]

    def test_predict_trials_empty_is_t_by_zero(self, executor, clones):
        out = executor.predict_trials(np.zeros((0, 12)), clones)
        assert out.shape == (3, 0)
        assert np.issubdtype(out.dtype, np.integer)

    def test_predict_trials_empty_no_networks(self, executor):
        out = executor.predict_trials(np.zeros((0, 12)), [])
        assert out.shape == (0, 0)

    def test_accuracy_trials_empty_raises(self, executor, clones):
        with pytest.raises(ConfigurationError, match="empty"):
            executor.accuracy_trials(np.zeros((0, 12)), np.zeros(0), clones)

    def test_nonempty_still_matches_serial(self, executor, clones, rng):
        """The early return must not perturb the populated path."""
        x = rng.random((5, 12))
        stacked = executor.predict_trials(x, clones)
        for t, network in enumerate(clones):
            serial = executor._clone_with_network(network).predict(x)
            assert np.array_equal(stacked[t], serial)
