"""Crossbar-scale ReSiPE engine (paper Fig. 4).

:class:`ReSiPEEngine` bundles a programmed crossbar, the single-spike
codec, the GD/COG stages and output calibration into a value-in /
value-out MVM operator:

    y = engine.mvm_values(x)      # x, y are normalised vectors

Internally: encode ``x`` into spike times, run the (exact or linear)
timing MVM, decode output times with the engine's calibrated output
scale.  The engine also supports Monte-Carlo clones under any fault
injector — process variation is the Fig. 7 protocol — and optional
column-saturation compensation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import CircuitParameters
from ..errors import MappingError, ShapeError
from ..reram.crossbar import CrossbarArray
from ..reram.device import DeviceSpec
from .encoding import SingleSpikeCodec
from .mvm import MVMMode, SingleSpikeMVM
from .nonlinearity import compensate_column_saturation

__all__ = ["ReSiPEEngine"]


class ReSiPEEngine:
    """One crossbar tile operated in the single-spiking data format.

    Parameters
    ----------
    array:
        Programmed crossbar.
    params:
        Circuit operating point.
    mode:
        Evaluation fidelity (exact circuit equations by default).
    codec:
        Input codec; defaults to a codec on ``[0, t_in_max]`` from
        ``params``.
    output_scale:
        Time that decodes to an output value of 1.0.  Default: the
        time produced by Eq. 6 when **one** full-scale input drives a
        full-LRS cell, i.e. ``mac_gain · t_max · g_max``.  With this
        choice the decoded output is exactly ``Σ x_i w_i`` where
        ``w = G/g_max ∈ [0, 1]`` (in LINEAR mode).
    compensate:
        Apply per-column saturation compensation to decoded outputs
        (EXACT mode extension).
    """

    def __init__(
        self,
        array: CrossbarArray,
        params: CircuitParameters,
        mode: MVMMode = MVMMode.EXACT,
        codec: Optional[SingleSpikeCodec] = None,
        output_scale: Optional[float] = None,
        compensate: bool = False,
    ) -> None:
        self.array = array
        self.params = params
        self.mode = mode
        self.codec = codec if codec is not None else SingleSpikeCodec(
            t_max=params.t_in_max,
            slice_length=params.slice_length,
            spike_width=params.spike_width,
        )
        self.mvm = SingleSpikeMVM(array, params, mode=mode)
        if output_scale is None:
            output_scale = params.mac_gain * self.codec.t_max * array.spec.g_max
        if output_scale <= 0:
            raise MappingError(f"output scale must be positive, got {output_scale!r}")
        self.output_scale = output_scale
        self.compensate = compensate

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_normalised_weights(
        cls,
        weights: np.ndarray,
        params: CircuitParameters,
        spec: Optional[DeviceSpec] = None,
        **kwargs,
    ) -> "ReSiPEEngine":
        """Build an engine from a ``(rows, cols)`` weight matrix in
        ``[0, 1]`` (linearly mapped onto the conductance window)."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2:
            raise ShapeError(f"weights must be 2-D, got shape {w.shape}")
        array = CrossbarArray(
            w.shape[0],
            w.shape[1],
            spec if spec is not None else DeviceSpec.paper_linear_range(),
        )
        array.program_normalised(w)
        return cls(array, params, **kwargs)

    def faulted(
        self, injector, rng: np.random.Generator
    ) -> "ReSiPEEngine":
        """A clone whose conductances are disturbed by ``injector`` (a
        :class:`~repro.faults.injectors.FaultInjector` — variation,
        stuck-at, drift, or any composition).  The original engine is
        untouched."""
        return self.with_array(self.array.injected(injector, rng))

    def with_array(self, array: CrossbarArray) -> "ReSiPEEngine":
        """This engine operating another realization of its crossbar.

        The clone shares everything but the conductances — operating
        point, codec, output scale, and the GD/COG stages — so a
        Monte-Carlo clone costs two small objects.  ``array`` may hold a
        ``(T, rows, cols)`` trial stack, making the clone evaluate ``T``
        realizations at once.
        """
        clone = object.__new__(ReSiPEEngine)
        clone.__dict__.update(self.__dict__)
        clone.array = array
        clone.mvm = SingleSpikeMVM(
            array, self.params, mode=self.mode,
            decoder=self.mvm.decoder, cog=self.mvm.cog,
        )
        return clone

    # ------------------------------------------------------------------
    # Value-domain MVM
    # ------------------------------------------------------------------
    def mvm_values(self, x: np.ndarray) -> np.ndarray:
        """Compute ``y ≈ x @ W`` in the single-spiking time domain.

        ``x`` is ``(rows,)`` or ``(batch, rows)`` with entries in
        ``[0, 1]``; the result is value-decoded output, ``(cols,)`` or
        ``(batch, cols)``.  Outputs that saturate the slice decode to
        the clamp value (the engine's dynamic-range ceiling).

        An engine whose array holds a trial stack (see
        :meth:`with_array`) also takes per-trial ``(T, batch, rows)``
        inputs and returns ``(T, cols)`` or ``(T, batch, cols)``; slice
        ``t`` is bit-identical to the lone realization ``t``.
        """
        x_arr = np.asarray(x, dtype=float)
        times_in = np.asarray(self.codec.times_from_values(x_arr), dtype=float)
        result = self.mvm.evaluate(times_in)
        t_out = result.times
        if self.compensate and self.mode is MVMMode.EXACT:
            total_g = self.array.column_total_conductance()  # ([T,] cols)
            if t_out.ndim > total_g.ndim:
                total_g = total_g[..., None, :]
            t_out = np.asarray(
                compensate_column_saturation(t_out, total_g, self.params),
                dtype=float,
            )
        return np.divide(t_out, self.output_scale, out=t_out)

    def output_times(self, x: np.ndarray) -> np.ndarray:
        """Raw output spike times for normalised input values."""
        x_arr = np.asarray(x, dtype=float)
        times_in = np.asarray(self.codec.times_from_values(x_arr), dtype=float)
        return self.mvm.output_times(times_in)

    @property
    def normalised_weights(self) -> np.ndarray:
        """The stored weights as ``G / g_max`` (the matrix ``W`` such that
        LINEAR-mode :meth:`mvm_values` returns exactly ``x @ W``)."""
        return np.asarray(self.array.conductances) / self.array.spec.g_max

    def dynamic_range_ceiling(self) -> float:
        """Largest decodable output value before slice saturation."""
        return self.params.slice_length / self.output_scale
