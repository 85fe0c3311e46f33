"""Ablation — classification accuracy over retention time.

Extends Fig. 7's frozen-in-time variation study along the time axis:
programmed conductances relax log-linearly toward HRS, and accuracy
decays accordingly.  Sweeps retention from minutes to ~3 years on a
mapped LeNet.
"""

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.core.mvm import MVMMode
from repro.experiments.networks import get_benchmark_networks
from repro.faults import DriftInjector
from repro.mapping import PIMExecutor, ReSiPEBackend, compile_network

_TIMES = (60.0, 3600.0, 86_400.0, 2.6e6, 3.2e7, 1e8)
_LABELS = ("1 minute", "1 hour", "1 day", "1 month", "1 year", "~3 years")


def _measure():
    net = get_benchmark_networks(keys=["cnn-1"], n_samples=800)[0]
    mapped = compile_network(net.model, ReSiPEBackend(mode=MVMMode.EXACT))
    executor = PIMExecutor(mapped, net.train.images[:48])
    x, y = net.test.images[:100], net.test.labels[:100]

    fresh = executor.accuracy(x, y)
    rows = [["fresh", fresh]]
    for label, elapsed in zip(_LABELS, _TIMES):
        drift = DriftInjector(elapsed, nu=0.02, nu_sigma=0.3)
        aged = executor.faulted(drift, np.random.default_rng(0))
        rows.append([label, aged.accuracy(x, y)])
    return rows


@pytest.mark.benchmark(group="ablation", min_rounds=1, max_time=1)
def bench_ablation_retention(benchmark, save_result):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    save_result(
        "ablation_retention",
        render_table(
            ["shelf time", "accuracy"],
            rows,
            title="Ablation — accuracy over retention time (CNN-1, nu=2%/decade)",
        ),
    )
    accuracies = [r[1] for r in rows]
    # Drift only ever degrades, and short shelf times are harmless.
    assert accuracies[1] >= accuracies[0] - 0.02
    assert min(accuracies) == pytest.approx(accuracies[-1], abs=0.05)
