"""Composable fault injectors — one protocol over every non-ideality.

The device layer already models each defect mechanism in isolation
(:class:`~repro.reram.variation.StuckAtFaultModel`,
:class:`~repro.reram.variation.VariationModel`,
:class:`~repro.reram.retention.RetentionModel`), but they are islands:
each has its own entry point and only Gaussian variation is reachable
from the mapped-network pipeline.  This module unifies them behind one
:class:`FaultInjector` interface —

    g_faulty = injector.apply(g, rng, spec)

— so any mechanism (or any composition of mechanisms) can be driven
through :meth:`PIMExecutor.faulted`, :meth:`MappedNetwork.faulted` and
:meth:`ProgrammedTile.faulted` (all of which draw through
:func:`~repro.mapping.backends.faulted_tiles`), or
:meth:`ReSiPEEngine.faulted` and :meth:`CrossbarArray.injected` for a
single crossbar, and swept by the Fig. 7 study and the
:class:`~repro.faults.campaign.FaultCampaign` Monte-Carlo runner.
There is no other way to disturb a chip: process variation is
:class:`VariationInjector` and retention ageing :class:`DriftInjector`.

An *elementwise* injector (:attr:`FaultInjector.elementwise`) draws
one value per cell in row-major order, so one ``apply`` over the
concatenated cells of many tiles consumes the same stream, and gives
the same bytes, as one ``apply`` per tile; the mapped-network clone
relies on it to draw a whole chip in one call.

Every injector serialises itself via :meth:`FaultInjector.describe`;
the campaign hashes that description into its artifact keys so a trial
record is bound to the exact fault model that produced it.

When ``spec`` is ``None`` the conductances are interpreted as
*normalised weights* in ``[0, 1]`` (the :class:`IdealBackend` path):
stuck-on pins to 1, stuck-off to 0, and window-dependent mechanisms
use the unit window.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

import numpy as np

from ..errors import DeviceError
from ..reram.device import DeviceSpec
from ..units import TERA
from ..reram.retention import RetentionModel
from ..reram.variation import StuckAtFaultModel, VariationModel

__all__ = [
    "FaultInjector",
    "StuckAtInjector",
    "VariationInjector",
    "DriftInjector",
    "CompositeInjector",
]


class FaultInjector(abc.ABC):
    """One conductance-disturbing mechanism (or a composition)."""

    #: True when :meth:`apply` acts cell by cell and draws one value
    #: per cell in row-major order (or nothing), whatever the array's
    #: shape — a fact about the class, declared by the built-in
    #: mechanisms.  Compositions and injectors that look at rows or
    #: columns are not elementwise.
    elementwise: bool = False

    @abc.abstractmethod
    def apply(
        self,
        conductances: np.ndarray,
        rng: np.random.Generator,
        spec: Optional[DeviceSpec] = None,
    ) -> np.ndarray:
        """Return disturbed conductances; the input is never modified.

        ``spec`` carries the device window; ``None`` means the values
        are normalised weights on the unit window.
        """

    @abc.abstractmethod
    def describe(self) -> dict:
        """JSON-serialisable description (stable, for artifact keys)."""

    @property
    def is_null(self) -> bool:
        """True when this injector can never disturb anything.

        A null injector draws nothing from ``rng`` and returns its
        input unchanged (conductances inside the device window), so a
        caller may skip it without moving any random stream.
        """
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


class StuckAtInjector(FaultInjector):
    """Stuck-at-LRS / stuck-at-HRS cell defects.

    Wraps :class:`~repro.reram.variation.StuckAtFaultModel`; on the
    normalised unit window stuck-on pins to 1.0 and stuck-off to 0.0.
    """

    elementwise = True

    def __init__(self, stuck_on_rate: float = 0.0,
                 stuck_off_rate: float = 0.0) -> None:
        self.model = StuckAtFaultModel(
            stuck_on_rate=stuck_on_rate, stuck_off_rate=stuck_off_rate
        )

    def apply(self, conductances, rng, spec=None):
        g = np.asarray(conductances, dtype=float)
        if spec is None:
            return self.model.inject(g, rng, _UNIT_WINDOW)
        return self.model.inject(g, rng, spec)

    def describe(self) -> dict:
        return {
            "type": "stuck_at",
            "stuck_on_rate": self.model.stuck_on_rate,
            "stuck_off_rate": self.model.stuck_off_rate,
        }

    @property
    def is_null(self) -> bool:
        return self.model.total_rate == 0


class VariationInjector(FaultInjector):
    """Multiplicative device-to-device conductance variation (Fig. 7)."""

    elementwise = True

    def __init__(self, sigma: float, distribution: str = "normal") -> None:
        self.model = VariationModel(sigma=sigma, distribution=distribution)

    def apply(self, conductances, rng, spec=None):
        return self.model.perturb(
            np.asarray(conductances, dtype=float), rng, spec=spec
        )

    def describe(self) -> dict:
        return {
            "type": "variation",
            "sigma": self.model.sigma,
            "distribution": self.model.distribution,
        }

    @property
    def is_null(self) -> bool:
        return self.model.sigma == 0


class DriftInjector(FaultInjector):
    """Retention drift after ``elapsed`` seconds on the shelf."""

    elementwise = True

    def __init__(
        self,
        elapsed: float,
        nu: float = 0.01,
        nu_sigma: float = 0.2,
        t0: float = 1.0,
    ) -> None:
        if elapsed < 0:
            raise DeviceError(f"elapsed time must be >= 0, got {elapsed!r}")
        self.elapsed = float(elapsed)
        self.model = RetentionModel(nu=nu, nu_sigma=nu_sigma, t0=t0)

    def apply(self, conductances, rng, spec=None):
        g = np.asarray(conductances, dtype=float)
        # A null drift leaves the factor at 1 and must draw nothing.
        factor = self.model.decay_factor(
            self.elapsed, shape=g.shape, rng=None if self.is_null else rng
        )
        out = g * factor
        if spec is not None:
            return np.clip(out, spec.g_min, spec.g_max)
        return np.clip(out, 0.0, 1.0)

    def describe(self) -> dict:
        return {
            "type": "drift",
            "elapsed": self.elapsed,
            "nu": self.model.nu,
            "nu_sigma": self.model.nu_sigma,
            "t0": self.model.t0,
        }

    @property
    def is_null(self) -> bool:
        return self.elapsed == 0 or self.model.nu == 0


class CompositeInjector(FaultInjector):
    """Sequential composition: each stage disturbs the previous output.

    Order matters physically — e.g. drift relaxes the programmed
    conductances, then variation scatters them, then stuck-at defects
    pin cells.
    """

    def __init__(self, *stages: FaultInjector) -> None:
        flat: list = []
        for stage in stages:
            if isinstance(stage, CompositeInjector):
                flat.extend(stage.stages)
            else:
                flat.append(stage)
        for stage in flat:
            if not isinstance(stage, FaultInjector):
                raise DeviceError(
                    f"composite stages must be FaultInjectors, "
                    f"got {type(stage).__name__}"
                )
        self.stages: Sequence[FaultInjector] = tuple(flat)

    def apply(self, conductances, rng, spec=None):
        g = np.asarray(conductances, dtype=float)
        for stage in self.stages:
            g = stage.apply(g, rng, spec)
        return g

    def describe(self) -> dict:
        return {
            "type": "composite",
            "stages": [stage.describe() for stage in self.stages],
        }

    @property
    def is_null(self) -> bool:
        return all(stage.is_null for stage in self.stages)


# The normalised-weight window used when no DeviceSpec is supplied:
# resistances 1 Ohm / 1e12 Ohm give conductances ~[0, 1] so stuck-on
# pins to 1.0 and stuck-off to (numerically) 0.
_UNIT_WINDOW = DeviceSpec(r_lrs=1.0, r_hrs=1 * TERA)
