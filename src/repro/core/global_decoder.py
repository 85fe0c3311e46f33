"""Global decoder (GD): spike timing → wordline voltage.

One GD serves a crossbar (paper Section III-C).  During S1 it runs the
shared ramp ``V(C_gd)`` and, as each input spike arrives, a per-row
sample-and-hold captures the instantaneous ramp voltage (Eq. 1):

    V_in,i = V_s (1 - exp(-t_in,i / (R_gd C_gd)))
           ≈ V_s · t_in,i / (R_gd C_gd)          (linear approximation)

Inputs that never spike sample nothing and drive 0 V.  The class is
vectorised over rows and over batches.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..config import CircuitParameters
from ..errors import EncodingError
from ..circuits.sample_hold import SampleHoldModel

ArrayLike = Union[float, np.ndarray]

__all__ = ["GlobalDecoder"]


class GlobalDecoder:
    """Timing-to-voltage front end of a ReSiPE crossbar.

    Parameters
    ----------
    params:
        Circuit operating point (supplies ``V_s``, ``R_gd``, ``C_gd``,
        slice length).
    exact:
        ``True`` applies the exact exponential ramp (default); ``False``
        the linearised Eq. 1 approximation (used for idealised studies
        and for quantifying the ramp non-linearity).
    sample_hold:
        Optional static S/H error model applied to the captured voltage.
    """

    def __init__(
        self,
        params: CircuitParameters,
        exact: bool = True,
        sample_hold: "SampleHoldModel | None" = None,
    ) -> None:
        self.params = params
        self.exact = exact
        self.sample_hold = sample_hold

    def voltages_from_times(self, times: ArrayLike) -> ArrayLike:
        """Held wordline voltages for spike arrival times.

        ``nan`` entries mean "no spike" and produce 0 V.  Times must lie
        within ``[0, slice_length]``.
        """
        t = np.asarray(times, dtype=float)
        p = self.params
        # nan (no spike) compares False, so only real spikes are checked.
        if np.any(t < 0) or np.any(t > p.slice_length):
            raise EncodingError(
                "spike times must lie within the slice "
                f"[0, {p.slice_length}]"
            )
        absent = np.isnan(t)
        v = np.where(absent, 0.0, t)
        if self.exact:
            np.negative(v, out=v)
            np.divide(v, p.tau_gd, out=v)
            np.exp(v, out=v)
            np.subtract(1.0, v, out=v)
            np.multiply(p.v_s, v, out=v)
        else:
            np.multiply(p.v_s, v, out=v)
            np.divide(v, p.tau_gd, out=v)
        np.putmask(v, absent, 0.0)
        if self.sample_hold is not None:
            v = np.asarray(self.sample_hold.sample(v), dtype=float)
        return v if np.ndim(v) else float(v)

    def max_voltage(self, t_max: float) -> float:
        """Held voltage for the latest usable spike time (full scale)."""
        return float(self.voltages_from_times(t_max))

    def ramp_nonlinearity(self, t: ArrayLike) -> ArrayLike:
        """Relative deviation of the exact ramp from the linear ramp at
        time ``t``: ``(linear - exact) / linear``.  Grows with ``t``
        (paper Section III-D, "non-linearity of V(C_gd)")."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr <= 0):
            raise EncodingError("nonlinearity defined for t > 0")
        linear = self.params.v_s * t_arr / self.params.tau_gd
        exact = self.params.v_s * (1.0 - np.exp(-t_arr / self.params.tau_gd))
        out = (linear - exact) / linear
        return out if np.ndim(out) else float(out)
