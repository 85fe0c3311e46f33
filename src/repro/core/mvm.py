"""Single-spike matrix-vector multiplication (paper Eqs. 5–6).

Composes the global decoder, the crossbar column Thevenin reduction and
the column output generators into one vectorised operator:

    t_out,j = (Δt / C_cog) Σ_i t_in,i G_ij          (LINEAR mode, Eq. 6)

    t_out,j = -τ_gd ln(1 - V_out,j / V_s)            (EXACT mode)
      with V_out,j = V_eq,j (1 - e^{-Δt Σ_i G_ij / C_cog})
      and  V_eq,j  = Σ_i V_s (1 - e^{-t_in,i/τ_gd}) G_ij / Σ_i G_ij

EXACT mode carries the two non-linearities analysed in Section III-D
(ramp curvature and column saturation); LINEAR mode is the idealised
algebra.  Batched evaluation over many input vectors, and over a leading
axis of Monte-Carlo conductance realizations, is a single numpy
expression.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from ..config import CircuitParameters
from ..errors import ConfigurationError, ShapeError
from ..reram.crossbar import CrossbarArray
from ..telemetry import session as _telemetry
from .cog import COGResult, ColumnOutputGenerator
from .global_decoder import GlobalDecoder

__all__ = ["MVMMode", "SingleSpikeMVM"]


class MVMMode(enum.Enum):
    """Fidelity of the single-spike MVM evaluation."""

    EXACT = "exact"
    LINEAR = "linear"


class SingleSpikeMVM:
    """The timing-domain MVM operator of one ReSiPE crossbar.

    Parameters
    ----------
    array:
        The programmed crossbar.
    params:
        Circuit operating point; its ``rows/cols`` need not match the
        array (the array's own shape governs).
    mode:
        :class:`MVMMode.EXACT` (default) or :class:`MVMMode.LINEAR`.
    decoder / cog:
        Optional pre-built front/back ends (e.g. carrying S/H or
        comparator error models); by default ideal exact stages are
        constructed from ``params``.
    parasitic_thevenin:
        Optional precomputed wire-parasitic column equivalents
        (:meth:`repro.reram.nonideal.IRDropSolver.column_thevenin`).
        When given, EXACT mode charges each column from the
        IR-drop-degraded Thevenin source instead of the ideal one.  It
        describes one realization's wires, so it cannot accompany an
        array holding a trial stack (:class:`ConfigurationError`).
    """

    def __init__(
        self,
        array: CrossbarArray,
        params: CircuitParameters,
        mode: MVMMode = MVMMode.EXACT,
        decoder: Optional[GlobalDecoder] = None,
        cog: Optional[ColumnOutputGenerator] = None,
        parasitic_thevenin=None,
    ) -> None:
        self.array = array
        self.params = params
        self.mode = mode
        exact = mode is MVMMode.EXACT
        self.decoder = decoder if decoder is not None else GlobalDecoder(params, exact=exact)
        self.cog = cog if cog is not None else ColumnOutputGenerator(params, exact=exact)
        if parasitic_thevenin is not None and array.conductances.ndim == 3:
            raise ConfigurationError(
                "parasitic_thevenin is one realization's wire state; "
                "a trial stack only supports the ideal column model"
            )
        self.parasitic_thevenin = parasitic_thevenin

    # ------------------------------------------------------------------
    def output_times(self, input_times: np.ndarray) -> np.ndarray:
        """Output spike times for input spike times.

        ``input_times`` is ``(rows,)`` or ``(batch, rows)`` with ``nan``
        marking absent spikes; the result is ``(cols,)`` or
        ``(batch, cols)``, clamped to the slice for saturated columns.
        """
        return self.evaluate(input_times).times

    def evaluate(self, input_times: np.ndarray) -> COGResult:
        """Full evaluation returning times, fired mask and held voltages.

        When the array holds a trial stack ``(T, rows, cols)``, inputs
        may also be per-trial ``(T, batch, rows)`` and every result
        carries the leading trial axis, ``(T, cols)`` or
        ``(T, batch, cols)``.  The trial axis rides through one
        broadcast matmul plus elementwise stages, so ``result[t]`` is
        bit-identical to evaluating the lone realization ``t``.
        """
        t_in = np.asarray(input_times, dtype=float)
        squeeze = t_in.ndim == 1
        if squeeze:
            t_in = t_in[None, :]
        if t_in.shape[-1] != self.array.rows:
            raise ShapeError(
                f"input vector length {t_in.shape[-1]} != crossbar rows "
                f"{self.array.rows}"
            )

        if self.mode is MVMMode.LINEAR:
            result = self._evaluate_linear(t_in)
        else:
            result = self._evaluate_exact(t_in)

        session = _telemetry.active()
        if session is not None:
            products = result.times.size // self.array.cols  # T * batch
            session.count("mvm.count", products)
            session.count(
                "mvm.elements", products * self.array.rows * self.array.cols
            )

        if squeeze:
            return COGResult(
                times=result.times[..., 0, :],
                fired=result.fired[..., 0, :],
                v_out=result.v_out[..., 0, :],
            )
        return result

    # ------------------------------------------------------------------
    def _evaluate_exact(self, t_in: np.ndarray) -> COGResult:
        p = self.params
        v_in = np.asarray(self.decoder.voltages_from_times(t_in), dtype=float)
        if self.parasitic_thevenin is not None:
            v_eq = self.parasitic_thevenin.v_eq(v_in)  # (batch, cols)
            depth = p.dt / (self.parasitic_thevenin.r_eq * p.c_cog)
            v_out = v_eq * (1.0 - np.exp(-depth))
        else:
            # (1, cols), or (T, 1, cols) for a trial stack
            total_g = self.array.column_total_conductance()[..., None, :]
            v_out = self.array.mvm_currents(v_in)  # becomes V_eq then V_out
            np.divide(v_out, total_g, out=v_out)
            depth = p.dt * total_g / p.c_cog
            np.multiply(v_out, 1.0 - np.exp(-depth), out=v_out)

        batch_result = self.cog.times_from_voltages(v_out.ravel())
        shape = v_out.shape
        return COGResult(
            times=batch_result.times.reshape(shape),
            fired=batch_result.fired.reshape(shape),
            v_out=batch_result.v_out.reshape(shape),
        )

    def _evaluate_linear(self, t_in: np.ndarray) -> COGResult:
        p = self.params
        safe_t = np.where(np.isnan(t_in), 0.0, t_in)
        times = self.array.mvm_currents(safe_t)
        np.multiply(p.mac_gain, times, out=times)  # Eq. 6
        fired = times <= p.slice_length
        # Back out the voltage a COG would have held (linear Eq. 4).
        v_out = times * p.v_s / p.tau_gd
        np.putmask(times, ~fired, p.slice_length)
        return COGResult(times=times, fired=fired, v_out=v_out)

    # ------------------------------------------------------------------
    def linear_full_scale_time(self, t_in_max: float) -> float:
        """Worst-case linear output time: every input at ``t_in_max`` into
        the all-LRS column.  Useful for choosing output normalisation."""
        g_col_max = float(self.array.column_total_conductance().max())
        return self.params.mac_gain * t_in_max * g_col_max

    def saturation_mask(self) -> np.ndarray:
        """Columns operating beyond the paper's linear bound (Σ G >
        ``g_column_linear_limit``)."""
        return self.array.exceeds_linear_limit(self.params.g_column_linear_limit)
