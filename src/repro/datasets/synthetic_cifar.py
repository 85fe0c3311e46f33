"""Synthetic CIFAR-like textured-class dataset.

Each of the 10 classes is defined by a seeded mixture of oriented
sinusoidal gratings (a Gabor-texture prototype) with a class-specific
colour transform; samples draw random phases, a random mixture
perturbation and additive noise.  Classes are therefore separable by
texture + colour statistics but not linearly trivial — the same regime
that makes CIFAR-10 demand convolutional depth.

Images are ``(N, 3, size, size)`` in ``[0, 1]``; the default size is 16
so the channel-reduced AlexNet/VGG-style networks (see
:mod:`repro.experiments.networks`) train in pure numpy within benchmark
time budgets.  The generator itself supports the full 32.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import ConfigurationError
from .loaders import Dataset, _require_int

__all__ = ["SyntheticCIFAR", "make_cifar_like"]


class SyntheticCIFAR:
    """Generator for the CIFAR-like dataset.

    Parameters
    ----------
    size:
        Image side (default 16; CIFAR native is 32).
    num_classes:
        Number of texture classes (default 10).
    gratings:
        Sinusoid components mixed per class prototype.
    noise:
        Pixel noise standard deviation.
    seed:
        Generation seed (also fixes the class prototypes).
    """

    def __init__(
        self,
        size: int = 16,
        num_classes: int = 10,
        gratings: int = 3,
        noise: float = 0.06,
        seed: int = 0,
    ) -> None:
        size = _require_int("size", size, 8)
        seed = _require_int("seed", seed, 0)
        if num_classes < 2:
            raise ConfigurationError("need at least two classes")
        if gratings < 1:
            raise ConfigurationError("need at least one grating per class")
        if not noise >= 0:  # also rejects NaN
            raise ConfigurationError("noise must be >= 0")
        self.size = size
        self.num_classes = num_classes
        self.gratings = gratings
        self.noise = noise
        self.seed = seed
        self._prototypes = self._build_prototypes()

    def _build_prototypes(self) -> List[dict]:
        """Per-class grating parameters and colour mixing matrices."""
        rng = np.random.default_rng(self.seed + 7_777)
        prototypes = []
        for _ in range(self.num_classes):
            prototypes.append(
                {
                    "freq": rng.uniform(1.0, 4.0, self.gratings),
                    "angle": rng.uniform(0, np.pi, self.gratings),
                    "weight": rng.dirichlet(np.ones(self.gratings)),
                    # Colour transform: 3 channels from the texture plus a base tint.
                    "tint": rng.uniform(0.2, 0.8, 3),
                    "gain": rng.uniform(0.25, 0.6, 3),
                }
            )
        return prototypes

    def sample(self, label: int, rng: np.random.Generator) -> np.ndarray:
        """One ``(3, size, size)`` image of class ``label``."""
        if not 0 <= label < self.num_classes:
            raise ConfigurationError(
                f"label must be in [0, {self.num_classes}), got {label!r}"
            )
        proto = self._prototypes[label]
        ys, xs = np.mgrid[0 : self.size, 0 : self.size] / self.size
        texture = np.zeros((self.size, self.size), dtype=float)
        for k in range(self.gratings):
            angle = proto["angle"][k] + rng.normal(0, 0.08)
            freq = proto["freq"][k] * (1 + rng.normal(0, 0.05))
            phase = rng.uniform(0, 2 * np.pi)
            direction = xs * np.cos(angle) + ys * np.sin(angle)
            texture += proto["weight"][k] * np.sin(
                2 * np.pi * freq * direction + phase
            )
        texture = 0.5 + 0.5 * texture / max(1e-9, np.abs(texture).max())
        channels = [
            proto["tint"][c] + proto["gain"][c] * (texture - 0.5) for c in range(3)
        ]
        image = np.stack(channels)
        if self.noise:
            image = image + rng.normal(0.0, self.noise, image.shape)
        return np.clip(image, 0.0, 1.0)

    def generate(self, n: int) -> Dataset:
        """A balanced dataset of ``n`` images."""
        n = _require_int("n", n, self.num_classes)
        rng = np.random.default_rng(self.seed)
        labels = np.arange(n) % self.num_classes
        rng.shuffle(labels)
        images = np.stack([self.sample(int(lbl), rng) for lbl in labels])
        return Dataset(
            images=images.astype(float),
            labels=labels.astype(int),
            num_classes=self.num_classes,
            name=f"synthetic-cifar-{self.size}",
        )


def make_cifar_like(n: int = 2000, seed: int = 0, size: int = 16) -> Dataset:
    """One-call generation of the standard configuration."""
    return SyntheticCIFAR(size=size, seed=seed).generate(n)
