"""Global circuit parameter bundle for the ReSiPE engine.

The paper (Section III-D / IV-A) fixes one operating point:

========================  ==========================
slice length              100 ns (1 GHz calibration)
computation stage ``Δt``  1 ns
spike width               1 ns
``V_s``                   1 V
``R_gd``                  100 kΩ
``C_gd``                  100 fF
``C_cog``                 100 fF
crossbar                  32 × 32, 1T1R
LRS / HRS                 10 kΩ / 1 MΩ
linear-regime bound       Σ G ≤ 1.6 mS (R ∈ 50 kΩ–1 MΩ)
========================  ==========================

:class:`CircuitParameters` carries this operating point plus the derived
quantities used throughout the library.  Two constructors are provided:

* :meth:`CircuitParameters.paper` — the literal published values.
* :meth:`CircuitParameters.calibrated` — same values except ``C_cog`` is
  enlarged so that the *stated* linear regime (``Σ G ≤ 1.6 mS``) actually
  keeps the column charging linear (``Δt ≤ ratio · R_eq C_cog``).  See the
  parameter-consistency note in DESIGN.md: with the literal 100 fF the
  column is ~16 time constants deep into saturation at Σ G = 1.6 mS.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConfigurationError
from .units import FEMTO, KILO, MEGA, MILLI, NANO, si_format

__all__ = ["CircuitParameters"]


@dataclasses.dataclass(frozen=True)
class CircuitParameters:
    """Operating point of a ReSiPE engine.

    All values are in base SI units.  Instances are immutable; use
    :func:`dataclasses.replace` to derive variants.

    Attributes
    ----------
    v_s:
        Supply of the ramp generator (volts).
    r_gd:
        Charging resistance of the global-decoder ramp (ohms).
    c_gd:
        Ramp capacitor of the global decoder (farads).
    c_cog:
        Column output-generator capacitor, one per bitline (farads).
    slice_length:
        Duration of one time slice S1/S2 (seconds).
    dt:
        Duration of the computation stage at the end of S1 (seconds).
    spike_width:
        Width of a single spike pulse (seconds).  Only affects driver
        energy, never the encoded value.
    rows, cols:
        Crossbar dimensions (wordlines × bitlines).
    r_lrs, r_hrs:
        Low/high resistance states of a ReRAM cell (ohms).
    g_column_linear_limit:
        Maximum total column conductance for which the design treats the
        column charge-up as linear (siemens); the paper uses 1.6 mS.
    t_in_min, t_in_max:
        Usable input-spike timing window within a slice (seconds).  The
        paper characterises 10 ns–80 ns on a 100 ns slice.
    """

    v_s: float = 1.0
    r_gd: float = 100 * KILO
    c_gd: float = 100 * FEMTO
    c_cog: float = 100 * FEMTO
    slice_length: float = 100 * NANO
    dt: float = 1 * NANO
    spike_width: float = 1 * NANO
    rows: int = 32
    cols: int = 32
    r_lrs: float = 10 * KILO
    r_hrs: float = 1 * MEGA
    g_column_linear_limit: float = 1.6 * MILLI
    t_in_min: float = 10 * NANO
    t_in_max: float = 80 * NANO

    def __post_init__(self) -> None:
        positive = {
            "v_s": self.v_s,
            "r_gd": self.r_gd,
            "c_gd": self.c_gd,
            "c_cog": self.c_cog,
            "slice_length": self.slice_length,
            "dt": self.dt,
            "spike_width": self.spike_width,
            "r_lrs": self.r_lrs,
            "r_hrs": self.r_hrs,
            "g_column_linear_limit": self.g_column_linear_limit,
        }
        for name, value in positive.items():
            if not (isinstance(value, (int, float)) and value > 0):
                raise ConfigurationError(f"{name} must be positive, got {value!r}")
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError(
                f"crossbar dimensions must be >= 1, got {self.rows}x{self.cols}"
            )
        if self.r_lrs >= self.r_hrs:
            raise ConfigurationError(
                f"LRS resistance ({self.r_lrs}) must be below HRS ({self.r_hrs})"
            )
        if self.dt >= self.slice_length:
            raise ConfigurationError(
                "computation stage dt must be shorter than the slice"
            )
        if not 0 <= self.t_in_min < self.t_in_max <= self.slice_length:
            raise ConfigurationError(
                "require 0 <= t_in_min < t_in_max <= slice_length, got "
                f"[{self.t_in_min}, {self.t_in_max}] on {self.slice_length}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> "CircuitParameters":
        """The literal operating point published in the paper."""
        return cls()

    @classmethod
    def calibrated(
        cls,
        linearity_ratio: float = 0.5,
        ramp_ratio: float = 0.1,
        **overrides: float,
    ) -> "CircuitParameters":
        """Operating point re-sized so the stated linear regime is real.

        Two adjustments relative to the literal published values (see the
        parameter-consistency note in DESIGN.md):

        * ``C_cog`` is chosen so that at the stated linear-regime bound
          (``Σ G = g_column_linear_limit``) the computation stage spans at
          most ``linearity_ratio`` column time constants:

              Δt = linearity_ratio · R_eq · C_cog
              ⇒ C_cog = Δt · Σ G / linearity_ratio

          With the paper's Δt = 1 ns, Σ G = 1.6 mS and ratio 0.5 this
          yields C_cog = 3.2 pF (literal value: 100 fF, i.e. 16 time
          constants — full saturation).

        * ``R_gd`` is enlarged so the latest usable spike samples the
          ramp at only ``ramp_ratio`` time constants:

              t_in_max = ramp_ratio · R_gd · C_gd

          With t_in_max = 80 ns and ratio 0.1 this gives τ_gd = 800 ns
          (R_gd = 8 MΩ at C_gd = 100 fF; the literal 100 kΩ gives
          τ_gd = 10 ns, i.e. 8 τ of curvature — mostly but not fully
          cancelled by the shared-ramp decode).
        """
        if not 0 < linearity_ratio < 5:
            raise ConfigurationError(
                f"linearity_ratio must be in (0, 5), got {linearity_ratio!r}"
            )
        if not 0 < ramp_ratio < 5:
            raise ConfigurationError(
                f"ramp_ratio must be in (0, 5), got {ramp_ratio!r}"
            )
        base = cls(**overrides) if overrides else cls()
        c_cog = base.dt * base.g_column_linear_limit / linearity_ratio
        r_gd = base.t_in_max / (ramp_ratio * base.c_gd)
        return dataclasses.replace(base, c_cog=c_cog, r_gd=r_gd)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def tau_gd(self) -> float:
        """Time constant of the global-decoder ramp, ``R_gd · C_gd``."""
        return self.r_gd * self.c_gd

    @property
    def g_lrs(self) -> float:
        """Conductance of a cell in the low-resistance state."""
        return 1.0 / self.r_lrs

    @property
    def g_hrs(self) -> float:
        """Conductance of a cell in the high-resistance state."""
        return 1.0 / self.r_hrs

    @property
    def mac_gain(self) -> float:
        """Ideal linear MAC gain ``Δt / C_cog`` (ohms).

        In the linear regime ``t_out = mac_gain · Σ t_in,i G_i`` (Eq. 5).
        """
        return self.dt / self.c_cog

    @property
    def mvm_latency(self) -> float:
        """Latency of one complete single-spike MVM: two slices (S1+S2)."""
        return 2.0 * self.slice_length

    @property
    def max_column_conductance(self) -> float:
        """Largest possible total column conductance (all cells at LRS)."""
        return self.rows * self.g_lrs

    def column_time_constant(self, total_g: float) -> float:
        """Charging time constant of a column, ``C_cog / Σ G``."""
        if total_g <= 0:
            raise ConfigurationError(
                f"total column conductance must be positive, got {total_g!r}"
            )
        return self.c_cog / total_g

    def saturation_depth(self, total_g: float) -> float:
        """``Δt / (R_eq C_cog)`` — how many time constants the computation
        stage spans.  Values well below 1 mean linear charging; values
        above ~3 mean the column output has saturated to ``V_eq``."""
        return self.dt / self.column_time_constant(total_g)

    def is_linear_regime(self, total_g: float, threshold: float = 1.0) -> bool:
        """Whether a column with total conductance ``total_g`` charges
        approximately linearly during the computation stage."""
        return self.saturation_depth(total_g) <= threshold

    def ramp_voltage(self, t: float) -> float:
        """Global-decoder ramp voltage at time ``t`` into a slice (Eq. 1,
        exact exponential form)."""
        if t < 0:
            raise ConfigurationError(f"time into slice must be >= 0, got {t!r}")
        return self.v_s * (1.0 - math.exp(-t / self.tau_gd))

    def describe(self) -> str:
        """Human-readable multi-line summary of the operating point."""
        lines = [
            f"V_s           = {si_format(self.v_s, 'V')}",
            f"R_gd          = {si_format(self.r_gd, 'Ohm')}",
            f"C_gd          = {si_format(self.c_gd, 'F')}",
            f"C_cog         = {si_format(self.c_cog, 'F')}",
            f"slice         = {si_format(self.slice_length, 's')}",
            f"dt (compute)  = {si_format(self.dt, 's')}",
            f"crossbar      = {self.rows} x {self.cols} (1T1R)",
            f"LRS / HRS     = {si_format(self.r_lrs, 'Ohm')} / "
            f"{si_format(self.r_hrs, 'Ohm')}",
            f"MAC gain      = {si_format(self.mac_gain, 'Ohm')}",
            f"MVM latency   = {si_format(self.mvm_latency, 's')}",
        ]
        return "\n".join(lines)
