"""Loss functions (value + gradient in one call)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ShapeError, TrainingError

__all__ = ["CrossEntropyLoss", "softmax"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise softmax."""
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class CrossEntropyLoss:
    """Softmax + cross-entropy with integer class labels."""

    def __call__(
        self, logits: np.ndarray, labels: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Return ``(mean_loss, dL/dlogits)``."""
        logits = np.asarray(logits, dtype=float)
        labels = np.asarray(labels)
        if logits.ndim != 2:
            raise ShapeError(f"logits must be (N, C), got {logits.shape}")
        n, c = logits.shape
        if labels.shape != (n,):
            raise ShapeError(f"labels must be ({n},), got {labels.shape}")
        if labels.min() < 0 or labels.max() >= c:
            raise TrainingError(
                f"labels out of range [0, {c}): [{labels.min()}, {labels.max()}]"
            )
        probs = softmax(logits)
        picked = probs[np.arange(n), labels]
        loss = float(-np.log(np.maximum(picked, 1e-12)).mean())
        grad = probs
        grad[np.arange(n), labels] -= 1.0
        return loss, grad / n
