"""ReRAM device model.

A device is characterised by its conductance window ``[g_min, g_max]``
(equivalently a resistance window ``[r_lrs, r_hrs]`` with
``g_max = 1/r_lrs``).  The paper uses a 65 nm 1T1R cell with
LRS = 10 kΩ / HRS = 1 MΩ, then restricts the usable range to
50 kΩ–1 MΩ so that a 32-cell column stays within the Σ G ≤ 1.6 mS
linear-operation bound (Section III-D).

Weights are stored as *analog* conductances inside the window; an
optional level count models multi-level-cell quantisation.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

import numpy as np

from ..errors import DeviceError
from ..units import KILO, MEGA

ArrayLike = Union[float, np.ndarray]

__all__ = ["DeviceSpec"]


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """Static parameters of a ReRAM device.

    Attributes
    ----------
    r_lrs:
        Low-resistance state (ohms) — the maximum usable conductance.
    r_hrs:
        High-resistance state (ohms) — the minimum usable conductance.
    levels:
        Number of programmable conductance levels (``None`` = continuous
        analog programming).  Levels are spaced uniformly in conductance.
    write_voltage:
        SET/RESET pulse amplitude (volts), used by energy models.
    write_pulse:
        Programming pulse duration (seconds), used by energy models.
    """

    r_lrs: float = 50 * KILO
    r_hrs: float = 1 * MEGA
    levels: Optional[int] = None
    write_voltage: float = 2.0
    write_pulse: float = 10e-9

    def __post_init__(self) -> None:
        if self.r_lrs <= 0 or self.r_hrs <= 0:
            raise DeviceError("resistance states must be positive")
        if self.r_lrs >= self.r_hrs:
            raise DeviceError(
                f"LRS ({self.r_lrs}) must be below HRS ({self.r_hrs})"
            )
        if self.levels is not None and self.levels < 2:
            raise DeviceError(f"need at least 2 levels, got {self.levels}")
        if self.write_voltage <= 0 or self.write_pulse <= 0:
            raise DeviceError("write voltage and pulse must be positive")

    @classmethod
    def paper_full_range(cls) -> "DeviceSpec":
        """The raw device window used in Section III-D (10 kΩ–1 MΩ)."""
        return cls(r_lrs=10 * KILO, r_hrs=1 * MEGA)

    @classmethod
    def paper_linear_range(cls) -> "DeviceSpec":
        """The restricted window (50 kΩ–1 MΩ) that keeps a 32-cell column
        within the Σ G ≤ 1.6 mS linear bound."""
        return cls(r_lrs=50 * KILO, r_hrs=1 * MEGA)

    @property
    def g_min(self) -> float:
        """Minimum conductance (HRS), siemens."""
        return 1.0 / self.r_hrs

    @property
    def g_max(self) -> float:
        """Maximum conductance (LRS), siemens."""
        return 1.0 / self.r_lrs

    @property
    def g_range(self) -> float:
        """Usable conductance span ``g_max - g_min``."""
        return self.g_max - self.g_min

    @property
    def dynamic_range(self) -> float:
        """``g_max / g_min`` (the paper's windows give 20x and 100x)."""
        return self.g_max / self.g_min

    def clip(self, g: ArrayLike) -> ArrayLike:
        """Clip conductances into the device window."""
        out = np.clip(np.asarray(g, dtype=float), self.g_min, self.g_max)
        return out if np.ndim(out) else float(out)

    def contains(self, g: ArrayLike) -> Union[bool, np.ndarray]:
        """Whether conductance(s) lie inside the window (inclusive, with
        a small relative tolerance for float round-off)."""
        g = np.asarray(g, dtype=float)
        tol = 1e-12
        ok = (g >= self.g_min * (1 - tol)) & (g <= self.g_max * (1 + tol))
        return ok if ok.ndim else bool(ok)

    def quantise(self, g: ArrayLike) -> ArrayLike:
        """Snap conductances to the nearest programmable level.

        With ``levels=None`` this is just a clip.
        """
        g = self.clip(g)
        if self.levels is None:
            return g
        step = self.g_range / (self.levels - 1)
        idx = np.round((np.asarray(g, dtype=float) - self.g_min) / step)
        out = self.g_min + idx * step
        return out if np.ndim(out) else float(out)

    def normalised_to_conductance(self, w: ArrayLike) -> ArrayLike:
        """Map normalised weights ``w ∈ [0, 1]`` linearly onto the window."""
        w = np.asarray(w, dtype=float)
        if np.any(w < -1e-12) or np.any(w > 1 + 1e-12):
            raise DeviceError("normalised weights must lie in [0, 1]")
        out = self.g_min + np.clip(w, 0.0, 1.0) * self.g_range
        return out if np.ndim(out) else float(out)

    def conductance_to_normalised(self, g: ArrayLike) -> ArrayLike:
        """Inverse of :meth:`normalised_to_conductance`."""
        g = np.asarray(g, dtype=float)
        if not np.all(self.contains(g)):
            raise DeviceError("conductance outside device window")
        out = (g - self.g_min) / self.g_range
        return out if np.ndim(out) else float(out)

