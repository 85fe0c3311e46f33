"""Ablation — mapping redundancy vs process-variation robustness.

The paper's conclusion points at "elaborated circuit designs ... to
achieve better ... robustness".  One mapping-level answer is
redundancy: program each tile R times and average the outputs, buying a
√R reduction in variation error for R× area/energy.  This bench sweeps
R for a LeNet under σ = 20 % variation.
"""

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.core.mvm import MVMMode
from repro.experiments.networks import get_benchmark_networks
from repro.faults import VariationInjector
from repro.mapping import PIMExecutor, ReSiPEBackend, compile_network


def _measure(redundancies, sigma=0.20, trials=2):
    net = get_benchmark_networks(keys=["cnn-1"], n_samples=800)[0]
    x = net.test.images[:100]
    y = net.test.labels[:100]
    rows = []
    for r in redundancies:
        backend = ReSiPEBackend(mode=MVMMode.EXACT, redundancy=r)
        mapped = compile_network(net.model, backend)
        executor = PIMExecutor(mapped, net.train.images[:48])
        clean = executor.accuracy(x, y)
        noisy = float(np.mean([
            executor.faulted(
                VariationInjector(sigma), np.random.default_rng(seed)
            ).accuracy(x, y)
            for seed in range(trials)
        ]))
        rows.append([f"R={r}", clean, noisy, clean - noisy])
    return rows


@pytest.mark.benchmark(group="ablation", min_rounds=1, max_time=1)
def bench_ablation_redundancy(benchmark, save_result):
    rows = benchmark.pedantic(_measure, args=((1, 2, 4),), rounds=1, iterations=1)
    save_result(
        "ablation_redundancy",
        render_table(
            ["redundancy", "acc (clean)", f"acc (σ=20%)", "drop"],
            rows,
            title="Ablation — tile redundancy vs variation robustness (CNN-1)",
        ),
    )
    drops = [row[3] for row in rows]
    # Averaging R copies must not hurt; it should help at the high end.
    assert drops[-1] <= drops[0] + 0.02
