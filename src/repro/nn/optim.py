"""The Adam optimiser."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..errors import TrainingError
from .layers import Parameter

__all__ = ["Adam"]


class Adam:
    """Adam optimiser (Kingma & Ba)."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise TrainingError(f"learning rate must be positive, got {lr!r}")
        b1, b2 = betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise TrainingError(f"betas must be in [0, 1), got {betas!r}")
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def zero_grad(self) -> None:
        """Reset all parameter gradients."""
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """Apply one Adam update from accumulated gradients."""
        self._t += 1
        for p in self.params:
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.value
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            if m is None:
                m = np.zeros_like(p.value)
                v = np.zeros_like(p.value)
            m = self.b1 * m + (1 - self.b1) * g
            v = self.b2 * v + (1 - self.b2) * g**2
            self._m[id(p)] = m
            self._v[id(p)] = v
            m_hat = m / (1 - self.b1**self._t)
            v_hat = v / (1 - self.b2**self._t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
