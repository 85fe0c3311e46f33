"""Column output generator (COG): column charge-up → output spike time.

One COG per bitline (paper Section III-C).  During the computation
stage the column capacitor ``C_cog`` charges toward the column Thevenin
voltage (Eq. 3):

    V_out = V_eq (1 - exp(-Δt / (R_eq C_cog)))

During S2 the shared ramp runs again and a comparator fires when the
ramp crosses the held ``V_out`` (Eq. 4), i.e.

    t_out = -R_gd C_gd · ln(1 - V_out / V_s)

If ``t_out`` would land beyond the slice the comparator never fires and
the output saturates ("no spike within S2"); :class:`COGResult` reports
that per column.
"""

from __future__ import annotations

import dataclasses
from typing import Union

import numpy as np

from ..circuits.comparator import ComparatorModel
from ..config import CircuitParameters
from ..errors import CircuitError

ArrayLike = Union[float, np.ndarray]

__all__ = ["ColumnOutputGenerator", "COGResult"]


@dataclasses.dataclass(frozen=True)
class COGResult:
    """Per-column outcome of the output-generation stage.

    Attributes
    ----------
    times:
        Output spike times (seconds).  Saturated columns are clamped to
        the slice length.
    fired:
        Boolean mask — ``False`` where the comparator never crossed
        within S2 (saturated output).
    v_out:
        The held column voltages that produced the times.
    """

    times: np.ndarray
    fired: np.ndarray
    v_out: np.ndarray

    @property
    def any_saturated(self) -> bool:
        """Whether any column failed to fire inside the slice."""
        return bool(np.any(~self.fired))


class ColumnOutputGenerator:
    """Voltage-to-timing back end of a ReSiPE crossbar.

    Parameters
    ----------
    params:
        Circuit operating point.
    exact:
        ``True`` uses the exact exponential charge-up and ramp inversion;
        ``False`` the linear approximations of Eqs. 3–4.
    comparator:
        Optional comparator error model (offset shifts the effective
        threshold, delay shifts the output edge).
    """

    def __init__(
        self,
        params: CircuitParameters,
        exact: bool = True,
        comparator: "ComparatorModel | None" = None,
    ) -> None:
        self.params = params
        self.exact = exact
        self.comparator = comparator

    # ------------------------------------------------------------------
    # Stage 1: computation-stage charge-up (Eq. 3)
    # ------------------------------------------------------------------
    def column_voltage(self, v_eq: ArrayLike, r_eq: ArrayLike) -> ArrayLike:
        """Held column voltage after the computation stage.

        Parameters are the per-column Thevenin equivalents (Eq. 2).
        """
        v_eq_arr = np.asarray(v_eq, dtype=float)
        r_eq_arr = np.asarray(r_eq, dtype=float)
        if np.any(r_eq_arr <= 0):
            raise CircuitError("column equivalent resistance must be positive")
        depth = self.params.dt / (r_eq_arr * self.params.c_cog)
        if self.exact:
            v = v_eq_arr * (1.0 - np.exp(-depth))
        else:
            v = v_eq_arr * depth
        return v if np.ndim(v) else float(v)

    # ------------------------------------------------------------------
    # Stage 2: ramp comparison in S2 (Eq. 4)
    # ------------------------------------------------------------------
    def times_from_voltages(self, v_out: ArrayLike) -> COGResult:
        """Output spike times for held column voltages.

        Allocates only what it returns: the times buffer, transformed in
        place stage by stage, and the ``fired`` mask.  ``v_out`` is
        never written; :attr:`COGResult.v_out` holds it.
        """
        v = np.atleast_1d(np.asarray(v_out, dtype=float))
        if np.any(v < 0):
            raise CircuitError("held column voltages must be >= 0")
        threshold = v
        if self.comparator is not None:
            threshold = np.asarray(
                self.comparator.effective_threshold(v), dtype=float
            )
            threshold = np.maximum(threshold, 0.0)

        p = self.params
        if self.exact:
            t = np.divide(threshold, p.v_s)  # V_out / V_s
            unreachable = ~(t < 1.0)
            # The ramp never reaches V_out >= V_s: those elements become
            # nan or -inf below and are then overwritten with inf.
            with np.errstate(divide="ignore", invalid="ignore"):
                np.negative(t, out=t)
                np.log1p(t, out=t)
                np.multiply(-p.tau_gd, t, out=t)
            np.putmask(t, unreachable, np.inf)
        else:
            t = np.multiply(threshold, p.tau_gd)
            np.divide(t, p.v_s, out=t)

        if self.comparator is not None:
            t = np.asarray(self.comparator.output_edge_time(t), dtype=float)

        fired = t <= p.slice_length
        np.putmask(t, ~fired, p.slice_length)
        return COGResult(times=t, fired=fired, v_out=v)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def generate(self, v_eq: ArrayLike, r_eq: ArrayLike) -> COGResult:
        """Full COG path: column charge-up then ramp comparison."""
        v_out = self.column_voltage(v_eq, r_eq)
        return self.times_from_voltages(v_out)

    def charging_energy(self, v_out: ArrayLike) -> ArrayLike:
        """Energy drawn per column per evaluation.

        Two contributions repeat every MVM (this is what makes the COG
        cluster dominate ReSiPE power — 98.1 % in the paper):

        * charging ``C_cog`` to ``V_out`` during the computation stage
          (and discharging it at reset): ``C_cog · V_out²``;
        * the COG's share of the S2 reference ramp swing.
        """
        v = np.asarray(v_out, dtype=float)
        cap = self.params.c_cog * v**2
        ramp_share = self.params.c_gd * self.params.v_s**2
        out = cap + ramp_share
        return out if np.ndim(out) else float(out)
