"""Serving fixtures: a fast toy registry (no training, ideal backend)."""

import threading
import time

import numpy as np
import pytest

from repro.mapping import IdealBackend, PIMExecutor, compile_network
from repro.nn import Dense, ReLU, Sequential
from repro.serving import ModelEntry, ModelRegistry


@pytest.fixture
def entry(rng):
    model = Sequential(
        [Dense(12, 8, rng=rng), ReLU(), Dense(8, 4, rng=rng)], name="toy"
    )
    mapped = compile_network(model, IdealBackend())
    executor = PIMExecutor(mapped, rng.random((16, 12)))
    return ModelEntry(name="toy", executor=executor, input_shape=(12,))


class SlowEntry(ModelEntry):
    """Holds the compute thread long enough to fill queues in tests."""

    delay_s = 0.05

    def predict(self, x):
        time.sleep(self.delay_s)
        return super().predict(x)


@pytest.fixture
def slow_entry(entry):
    return SlowEntry(
        name=entry.name,
        executor=entry.executor,
        input_shape=entry.input_shape,
    )


class ScriptedEntry(ModelEntry):
    """Predict outcomes scripted per call: "ok", "fail", or a float —
    seconds to stall before answering (drives breaker/timeout tests)."""

    def __init__(self, *args, script=(), **kwargs):
        super().__init__(*args, **kwargs)
        self.script = list(script)
        self.calls = 0

    def predict(self, x):
        action = self.script[self.calls] if self.calls < len(self.script) \
            else "ok"
        self.calls += 1
        if action == "fail":
            raise RuntimeError("scripted compute failure")
        if isinstance(action, (int, float)):
            time.sleep(float(action))
        return super().predict(x)


@pytest.fixture
def scripted_entry(entry):
    def make(script):
        return ScriptedEntry(
            name=entry.name,
            executor=entry.executor,
            input_shape=entry.input_shape,
            script=script,
        )

    return make


class GatedEntry(ModelEntry):
    """Each forward pass signals ``entered`` and then blocks until the
    test sets ``release``, so a test decides what queues behind a
    running flush without any wall-clock sleep."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = threading.Event()
        self.release = threading.Event()

    def predict(self, x):
        self.entered.set()
        if not self.release.wait(timeout=10.0):
            raise RuntimeError("gated compute was never released")
        return super().predict(x)


@pytest.fixture
def gated_entry(entry):
    return GatedEntry(
        name=entry.name,
        executor=entry.executor,
        input_shape=entry.input_shape,
    )


@pytest.fixture
def registry(entry):
    return ModelRegistry([entry])


@pytest.fixture
def rows(rng):
    return [rng.random((1, 12)) for _ in range(24)]


def serial_labels(entry, rows):
    """Reference predictions: one serial executor pass over the rows."""
    return entry.executor.predict(np.concatenate(rows, axis=0)).tolist()
