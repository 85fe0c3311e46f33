"""Train a classifier in software, deploy it on ReSiPE hardware.

The paper's Section IV-C workflow on the synthetic-MNIST substitute:

1. train a 2-layer perceptron (the paper's MLP-2) in pure numpy;
2. compile it onto 32x32 ReSiPE crossbars (differential weights, bias
   folding, tiling) with the exact circuit equations;
3. measure the hardware accuracy and the degradation under device
   variation sigma = 5/10/20 % — a miniature Fig. 7.

Run:  python examples/mnist_pim_inference.py
"""

import numpy as np

from repro.core.mvm import MVMMode
from repro.datasets import make_mnist_like, train_test_split
from repro.faults import VariationInjector
from repro.mapping import PIMExecutor, ReSiPEBackend, compile_network
from repro.nn import Adam, Dense, ReLU, Sequential, Trainer, evaluate_accuracy


def main() -> None:
    # ------------------------------------------------------------------
    # Software training.
    # ------------------------------------------------------------------
    print("generating synthetic MNIST and training MLP-2 ...")
    data = make_mnist_like(2000, seed=0)
    train, test = train_test_split(data.flattened())
    model = Sequential([Dense(784, 128), ReLU(), Dense(128, 10)], name="MLP-2")
    trainer = Trainer(model, Adam(model.parameters(), lr=2e-3), batch_size=64)
    trainer.fit(train.images, train.labels, epochs=10,
                x_val=test.images, labels_val=test.labels, verbose=True)
    software = evaluate_accuracy(model, test.images, test.labels)

    # ------------------------------------------------------------------
    # Hardware deployment.
    # ------------------------------------------------------------------
    print("\ncompiling onto ReSiPE crossbars ...")
    backend = ReSiPEBackend(mode=MVMMode.EXACT)
    mapped = compile_network(model, backend)
    print(f"crossbar tiles used: {mapped.total_tiles()} "
          f"(32x32 each, differential pairs)")
    executor = PIMExecutor(mapped, train.images[:64])
    hardware = executor.accuracy(test.images, test.labels)

    print(f"\nsoftware accuracy          : {software:.3f}")
    print(f"ReSiPE accuracy (sigma=0)  : {hardware:.3f}   "
          f"(non-linearity drop {software - hardware:+.3f})")

    # ------------------------------------------------------------------
    # Device variation (mini Fig. 7).
    # ------------------------------------------------------------------
    print("\ndevice variation sweep (3 Monte-Carlo trials each):")
    for sigma in (0.05, 0.10, 0.20):
        accs = [
            executor.faulted(
                VariationInjector(sigma), np.random.default_rng(seed)
            ).accuracy(test.images, test.labels)
            for seed in range(3)
        ]
        print(f"  sigma = {sigma:4.0%}: accuracy {np.mean(accs):.3f} "
              f"(min {min(accs):.3f}, drop {software - np.mean(accs):+.3f})")


if __name__ == "__main__":
    main()
