"""Conductance retention drift.

Programmed ReRAM conductances drift over time toward the high-resistance
state; the standard empirical model is log-time relaxation

    G(t) = G₀ · (1 - ν · log10(1 + t / t₀))

with per-device variability on the drift coefficient ν.  The paper's
Fig. 7 freezes time (variation only); this module extends the device
substrate so accuracy-over-retention-time studies are possible (the
"robustness" axis of the paper's future-work remark).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..errors import DeviceError

__all__ = ["RetentionModel"]


@dataclasses.dataclass(frozen=True)
class RetentionModel:
    """Log-time conductance relaxation.

    Attributes
    ----------
    nu:
        Mean drift coefficient per decade of time (e.g. 0.01 = 1 %
        conductance loss per decade).
    nu_sigma:
        Device-to-device relative spread of the coefficient.
    t0:
        Drift onset time constant (seconds).
    """

    nu: float = 0.01
    nu_sigma: float = 0.2
    t0: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.nu < 1:
            raise DeviceError(f"nu must be in [0, 1), got {self.nu!r}")
        if self.nu_sigma < 0:
            raise DeviceError(f"nu_sigma must be >= 0, got {self.nu_sigma!r}")
        if self.t0 <= 0:
            raise DeviceError(f"t0 must be positive, got {self.t0!r}")

    def decay_factor(
        self,
        elapsed: float,
        shape=None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Multiplicative conductance factor after ``elapsed`` seconds.

        With ``rng`` and ``shape`` the drift coefficient is drawn per
        device; otherwise the mean coefficient applies uniformly.
        """
        if elapsed < 0:
            raise DeviceError(f"elapsed time must be >= 0, got {elapsed!r}")
        decades = np.log10(1.0 + elapsed / self.t0)
        if rng is not None and shape is not None:
            nu = self.nu * np.maximum(
                rng.normal(1.0, self.nu_sigma, size=shape), 0.0
            )
        else:
            nu = np.asarray(self.nu)
        return np.clip(1.0 - nu * decades, 0.0, 1.0)

    def time_to_drift(self, fraction: float) -> float:
        """Seconds until the *mean* device has lost ``fraction`` of its
        conductance (inverse of the decay law)."""
        if not 0 < fraction < 1:
            raise DeviceError(f"fraction must be in (0, 1), got {fraction!r}")
        if self.nu == 0:
            return float("inf")
        decades = fraction / self.nu
        return self.t0 * (10.0**decades - 1.0)
