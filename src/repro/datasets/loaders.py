"""Dataset container, splitting, batching and (atomic) persistence."""

from __future__ import annotations

import dataclasses
import numbers
import zipfile
from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import ArtifactError, ConfigurationError, ShapeError
from ..store.atomic import atomic_write_npz

__all__ = [
    "Dataset",
    "train_test_split",
    "batches",
    "one_hot",
    "save_dataset",
    "load_dataset",
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


def save_dataset(data: Dataset, path: str) -> None:
    """Persist a dataset as an ``.npz`` archive, atomically.

    Goes through the artifact-store writer (temp file +
    ``os.replace``), so an interrupted export never leaves a truncated
    archive behind.
    """
    atomic_write_npz(path, {
        "images": data.images,
        "labels": data.labels,
        "num_classes": np.asarray(data.num_classes),
        "name": np.asarray(data.name),
    })


def load_dataset(path: str) -> Dataset:
    """Load a dataset saved by :func:`save_dataset`.

    Raises :class:`~repro.errors.ArtifactError` when the archive is
    missing, truncated, or lacks the expected fields.
    """
    try:
        with np.load(path, allow_pickle=False) as npz:
            images = np.asarray(npz["images"])
            labels = np.asarray(npz["labels"])
            num_classes = int(npz["num_classes"])
            name = str(npz["name"])
    except (OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile) as exc:
        raise ArtifactError(f"cannot read dataset from {path!r}: {exc}") from exc
    return Dataset(images=images, labels=labels, num_classes=num_classes,
                   name=name)


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


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ShapeError(
            f"labels out of range [0, {num_classes}): "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=float)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
