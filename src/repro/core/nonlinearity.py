"""Non-linearity analysis of the single-spiking MAC (paper Section III-D).

Two effects pull the exact transfer away from the ideal Eq. 6 line:

1. **Ramp curvature** — ``V(C_gd)`` is exponential, so late spikes
   sample proportionally less voltage.  Because the *same* ramp encodes
   the output in S2, the effect partially cancels (the paper calls it
   "subtle").
2. **Column saturation** — when ``Σ G`` is large, ``C_cog`` charges to
   ``V_eq`` within the computation stage and the output collapses from
   the *sum* toward the *weighted mean*; the paper bounds operation at
   ``Σ G ≤ 1.6 mS``.

This module provides the closed-form transfers used by the Fig. 5
harness and a saturation-compensation decoder (an extension the paper's
conclusion hints at).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..config import CircuitParameters
from ..errors import CircuitError, ShapeError

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "linear_mac_output",
    "exact_mac_output",
    "compensate_column_saturation",
]


def _as_2d(times: np.ndarray, conductances: np.ndarray):
    t = np.atleast_2d(np.asarray(times, dtype=float))
    g = np.asarray(conductances, dtype=float)
    if g.ndim != 1:
        raise ShapeError("conductances must be 1-D (one column)")
    if t.shape[1] != g.size:
        raise ShapeError(
            f"times row length {t.shape[1]} != number of cells {g.size}"
        )
    if np.any(g <= 0):
        raise CircuitError("conductances must be positive")
    return t, g


def linear_mac_output(
    times: ArrayLike, conductances: ArrayLike, params: CircuitParameters
) -> ArrayLike:
    """Ideal Eq. 6 output time: ``(Δt/C_cog) Σ t_i G_i``.

    ``times`` may be ``(M,)`` or ``(batch, M)``; ``nan`` entries (no
    spike) contribute zero.
    """
    t, g = _as_2d(np.asarray(times, dtype=float), np.asarray(conductances, dtype=float))
    safe = np.where(np.isnan(t), 0.0, t)
    out = params.mac_gain * (safe @ g)
    return out if np.ndim(times) > 1 else float(out[0])


def exact_mac_output(
    times: ArrayLike, conductances: ArrayLike, params: CircuitParameters
) -> ArrayLike:
    """Exact output time through the full exponential chain (unclamped —
    may exceed the slice; the engine clamps)."""
    t, g = _as_2d(np.asarray(times, dtype=float), np.asarray(conductances, dtype=float))
    present = ~np.isnan(t)
    safe = np.where(present, t, 0.0)
    v_in = np.where(present, params.v_s * (1.0 - np.exp(-safe / params.tau_gd)), 0.0)
    total_g = float(g.sum())
    v_eq = (v_in @ g) / total_g
    depth = params.dt * total_g / params.c_cog
    v_out = v_eq * (1.0 - np.exp(-depth))
    out = -params.tau_gd * np.log1p(-v_out / params.v_s)
    return out if np.ndim(times) > 1 else float(out[0])


def compensate_column_saturation(
    t_out: ArrayLike, total_g: ArrayLike, params: CircuitParameters
) -> ArrayLike:
    """Invert the dominant (column-saturation) non-linearity.

    Given a measured output time and the column's known total
    conductance, recover an estimate of the ideal linear output time by
    exactly inverting Eq. 4 and the Eq. 3 charge-up::

        V_out = V_s (1 - e^{-t_out/τ_gd})
        V_eq  = V_out / (1 - e^{-Δt ΣG / C_cog})
        t_lin ≈ (Δt/C_cog) · τ_gd/V_s · V_eq · ΣG

    The residual error is only the (self-cancelling) ramp curvature.
    This is the "elaborated circuit designs ... toward better
    robustness" extension: a digital post-correction using per-column
    constants.
    """
    t = np.asarray(t_out, dtype=float)
    g = np.asarray(total_g, dtype=float)
    if np.any(g <= 0):
        raise CircuitError("total conductance must be positive")
    v_out = params.v_s * (1.0 - np.exp(-t / params.tau_gd))
    depth = params.dt * g / params.c_cog
    v_eq = v_out / (1.0 - np.exp(-depth))
    t_lin = (params.dt / params.c_cog) * (params.tau_gd / params.v_s) * v_eq * g
    return t_lin if np.ndim(t_lin) else float(t_lin)
