"""Weight initialisers."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["he_normal", "zeros"]


def he_normal(shape: Tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) normal initialisation — the right scale for ReLU nets."""
    if fan_in <= 0:
        raise ConfigurationError(f"fan_in must be positive, got {fan_in!r}")
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialisation (biases)."""
    return np.zeros(shape, dtype=float)
