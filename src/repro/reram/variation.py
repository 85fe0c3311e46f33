"""Process-variation and fault models for ReRAM conductances.

The paper (Section IV-C) perturbs programmed conductances with
normally distributed device-to-device variation following refs
[21] (DL-RSIM, ICCAD'18) and [22] (DATE'19), sweeping relative standard
deviations σ ∈ {0, 5 %, 10 %, 15 %, 20 %}.  We implement:

* :class:`VariationModel` — multiplicative variation with selectable
  distribution (``"normal"`` as in the paper; ``"lognormal"`` as a
  physically-motivated alternative that cannot produce negative
  conductance).
* :class:`StuckAtFaultModel` — stuck-at-LRS / stuck-at-HRS defect
  injection (an extension beyond the paper used by the fault-injection
  tests and the robustness ablation).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..errors import DeviceError
from .device import DeviceSpec

__all__ = ["VariationModel", "StuckAtFaultModel"]

_DISTRIBUTIONS = ("normal", "lognormal")


@dataclasses.dataclass(frozen=True)
class VariationModel:
    """Multiplicative device-to-device conductance variation.

    ``G_actual = G_programmed · X`` where

    * ``distribution="normal"``:  ``X ~ N(1, σ)``  (paper's model), and
    * ``distribution="lognormal"``: ``X = exp(N(-σ_ln²/2, σ_ln))`` with
      ``σ_ln`` chosen so the multiplicative std matches ``σ`` and the
      mean stays 1.

    Attributes
    ----------
    sigma:
        Relative standard deviation (e.g. ``0.1`` for 10 %).
    distribution:
        ``"normal"`` or ``"lognormal"``.
    clip_to_window:
        When a :class:`DeviceSpec` is supplied to :meth:`perturb`, clip
        the perturbed conductance back into the physical window (always
        prevents negative conductance regardless of this flag).
    """

    sigma: float
    distribution: str = "normal"
    clip_to_window: bool = True

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise DeviceError(f"sigma must be >= 0, got {self.sigma!r}")
        if self.distribution not in _DISTRIBUTIONS:
            raise DeviceError(
                f"unknown distribution {self.distribution!r}; "
                f"choose from {_DISTRIBUTIONS}"
            )

    def multipliers(self, shape, rng: np.random.Generator) -> np.ndarray:
        """Draw variation multipliers of the given ``shape``."""
        if self.sigma == 0:
            return np.ones(shape, dtype=float)
        if self.distribution == "normal":
            return rng.normal(1.0, self.sigma, size=shape)
        # lognormal: match mean 1 and std sigma of the multiplier.
        sigma_ln = np.sqrt(np.log1p(self.sigma**2))
        mu_ln = -0.5 * sigma_ln**2
        return rng.lognormal(mu_ln, sigma_ln, size=shape)

    def perturb(
        self,
        conductances: np.ndarray,
        rng: np.random.Generator,
        spec: Optional[DeviceSpec] = None,
    ) -> np.ndarray:
        """Return perturbed conductances (input is never modified)."""
        g = np.asarray(conductances, dtype=float)
        out = self.multipliers(g.shape, rng)
        np.multiply(g, out, out=out)
        if spec is not None and self.clip_to_window:
            np.clip(out, spec.g_min, spec.g_max, out=out)
        else:
            # A negative conductance is unphysical under any model.
            np.maximum(out, 0.0, out=out)
        return out if out.ndim else out[()]


@dataclasses.dataclass(frozen=True)
class StuckAtFaultModel:
    """Random stuck-at faults: a fraction of cells is pinned to LRS
    (``g_max``, stuck-on) or HRS (``g_min``, stuck-off).

    Attributes
    ----------
    stuck_on_rate:
        Probability a cell is stuck at maximum conductance.
    stuck_off_rate:
        Probability a cell is stuck at minimum conductance.
    """

    stuck_on_rate: float = 0.0
    stuck_off_rate: float = 0.0

    def __post_init__(self) -> None:
        for name, rate in (("stuck_on_rate", self.stuck_on_rate),
                           ("stuck_off_rate", self.stuck_off_rate)):
            if not 0 <= rate <= 1:
                raise DeviceError(f"{name} must be in [0, 1], got {rate!r}")
        if self.stuck_on_rate + self.stuck_off_rate > 1:
            raise DeviceError("combined fault rates exceed 1")

    def inject(
        self, conductances: np.ndarray, rng: np.random.Generator, spec: DeviceSpec
    ) -> np.ndarray:
        """Return conductances with faults injected (input untouched)."""
        g = np.array(conductances, dtype=float, copy=True)
        if self.stuck_on_rate == 0 and self.stuck_off_rate == 0:
            return g
        u = rng.random(g.shape)
        stuck_on = u < self.stuck_on_rate
        stuck_off = (u >= self.stuck_on_rate) & (
            u < self.stuck_on_rate + self.stuck_off_rate
        )
        g[stuck_on] = spec.g_max
        g[stuck_off] = spec.g_min
        return g

    @property
    def total_rate(self) -> float:
        """Total defective-cell probability."""
        return self.stuck_on_rate + self.stuck_off_rate

