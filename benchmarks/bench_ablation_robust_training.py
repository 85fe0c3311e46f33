"""Ablation — variation-aware training vs plain training.

EXPERIMENTS.md documents that the channel-reduced CNN substitutes lose
more accuracy at σ = 20 % than the paper's full-width nets.  This bench
shows the standard recovery: train with injected multiplicative weight
noise (DL-RSIM-style) and re-measure the Fig. 7 degradation on the
mapped hardware.
"""

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.core.mvm import MVMMode
from repro.datasets import make_cifar_like, train_test_split
from repro.experiments.networks import NETWORK_SPECS
from repro.faults import VariationInjector
from repro.mapping import PIMExecutor, ReSiPEBackend, compile_network
from repro.nn import Adam, Trainer
from repro.nn.robust import VariationAwareTrainer


def _hardware_accuracy(model, train_images, x, y, sigma, trials=3):
    mapped = compile_network(model, ReSiPEBackend(mode=MVMMode.EXACT))
    executor = PIMExecutor(mapped, train_images[:48])
    if sigma == 0:
        return executor.accuracy(x, y)
    return float(np.mean([
        executor.faulted(
            VariationInjector(sigma), np.random.default_rng(seed)
        ).accuracy(x, y)
        for seed in range(trials)
    ]))


def _measure():
    data = make_cifar_like(1000, seed=0)
    train, test = train_test_split(data, rng=np.random.default_rng(1))
    x, y = test.images[:120], test.labels[:120]
    spec = NETWORK_SPECS["cnn-2"]

    rows = []
    for label, trainer_cls, kwargs in (
        ("plain training", Trainer, {}),
        ("variation-aware (σ_train=15%)", VariationAwareTrainer,
         {"weight_noise_sigma": 0.15}),
    ):
        model = spec.build()
        trainer = trainer_cls(
            model, Adam(model.parameters(), lr=spec.lr),
            batch_size=spec.batch_size, rng=np.random.default_rng(2), **kwargs
        )
        trainer.fit(train.images, train.labels, epochs=spec.epochs)
        clean = _hardware_accuracy(model, train.images, x, y, 0.0)
        noisy = _hardware_accuracy(model, train.images, x, y, 0.20)
        rows.append([label, clean, noisy, clean - noisy])
    return rows


@pytest.mark.benchmark(group="ablation", min_rounds=1, max_time=1)
def bench_ablation_robust_training(benchmark, save_result):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    save_result(
        "ablation_robust_training",
        render_table(
            ["training", "acc (σ=0)", "acc (σ=20%)", "drop"],
            rows,
            title="Ablation — variation-aware training (CNN-2 on ReSiPE)",
        ),
    )
    plain_drop = rows[0][3]
    robust_drop = rows[1][3]
    assert robust_drop <= plain_drop + 0.02
