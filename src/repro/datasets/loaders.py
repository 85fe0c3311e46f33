"""Dataset container, splitting and batching."""

from __future__ import annotations

import dataclasses
import numbers
from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import ConfigurationError, ShapeError

__all__ = [
    "Dataset",
    "train_test_split",
    "batches",
]


@dataclasses.dataclass(frozen=True)
class Dataset:
    """A labelled dataset: ``images`` of shape ``(N, ...)`` in ``[0, 1]``
    and integer ``labels`` of shape ``(N,)``."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        if self.images.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"{self.images.shape[0]} images vs {self.labels.shape[0]} labels"
            )
        if self.labels.ndim != 1:
            raise ShapeError("labels must be one-dimensional")
        if self.num_classes < 2:
            raise ShapeError("need at least two classes")

    def __len__(self) -> int:
        return int(self.images.shape[0])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """A new dataset restricted to ``indices``."""
        return Dataset(
            images=self.images[indices],
            labels=self.labels[indices],
            num_classes=self.num_classes,
            name=self.name,
        )

    def flattened(self) -> "Dataset":
        """Images reshaped to ``(N, D)`` (for MLPs)."""
        return Dataset(
            images=self.images.reshape(len(self), -1),
            labels=self.labels,
            num_classes=self.num_classes,
            name=self.name,
        )


def train_test_split(
    data: Dataset,
    test_fraction: float = 0.2,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Dataset, Dataset]:
    """Shuffle and split into train/test datasets."""
    if not 0 < test_fraction < 1:
        raise ShapeError(f"test fraction must be in (0, 1), got {test_fraction!r}")
    rng = rng if rng is not None else np.random.default_rng(0)
    order = rng.permutation(len(data))
    n_test = max(1, int(round(len(data) * test_fraction)))
    return data.subset(order[n_test:]), data.subset(order[:n_test])


def batches(
    data: Dataset,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield shuffled ``(images, labels)`` mini-batches."""
    if batch_size < 1:
        raise ShapeError(f"batch size must be >= 1, got {batch_size!r}")
    rng = rng if rng is not None else np.random.default_rng(0)
    order = rng.permutation(len(data))
    for start in range(0, len(data), batch_size):
        idx = order[start : start + batch_size]
        yield data.images[idx], data.labels[idx]


def _require_int(name: str, value: object, minimum: int) -> int:
    """``value`` as an ``int`` if it is an integer ``>= minimum``, else
    :class:`~repro.errors.ConfigurationError` (``bool`` and integral
    floats such as ``28.0`` are rejected too)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ConfigurationError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return int(value)
