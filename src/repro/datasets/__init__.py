"""Deterministic synthetic datasets.

Real MNIST / CIFAR-10 are not available offline, and the paper's Fig. 7
is a *relative* measurement (accuracy degradation of fixed pretrained
nets under circuit non-idealities), so any learnable classification
task of comparable difficulty exercises the identical code path — see
DESIGN.md §2.

* :mod:`repro.datasets.synthetic_mnist` — 28×28 grayscale digit glyphs
  (seven-segment-style strokes with affine jitter, blur and noise).
* :mod:`repro.datasets.synthetic_cifar` — multi-channel textured-class
  images (oriented sinusoid mixtures with class-specific colour).
* :mod:`repro.datasets.loaders` — splits and batch iteration.
"""

from .synthetic_mnist import SyntheticMNIST, make_mnist_like
from .synthetic_cifar import SyntheticCIFAR, make_cifar_like
from .loaders import (
    Dataset,
    train_test_split,
    batches,
)

__all__ = [
    "SyntheticMNIST",
    "make_mnist_like",
    "SyntheticCIFAR",
    "make_cifar_like",
    "Dataset",
    "train_test_split",
    "batches",
]
