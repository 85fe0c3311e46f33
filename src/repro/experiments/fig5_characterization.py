"""Fig. 5 — input-output characterisation of the single-spike MVM.

The paper samples 100 random (t_in, G) points on a 32-cell column with
total conductance between 0.32 mS and 3.2 mS and input times between
10 ns and 80 ns, plotting the measured ``t_out`` against the input
strength ``Σ t_in G``.  Three curves summarise the behaviour:

* **Curve 1** — fit over the points with ``Σ G ≤ 1.6 mS`` (the linear
  regime): near-proportional transfer.
* **Curves 2 / 3** — fixed ``Σ G`` = 2.5 mS / 3.2 mS: the column
  saturates and ``t_out`` falls below Curve 1, "especially at big t_in".

We reproduce exactly that protocol with the exact circuit equations.
The default operating point is the calibrated one (which realises the
linear regime the figure shows — see DESIGN.md §1); passing
``CircuitParameters.paper()`` exposes the literal point's full
saturation, which the ablation bench quantifies.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from ..analysis.fitting import LinearFit, fit_linear
from ..config import CircuitParameters
from ..core.nonlinearity import exact_mac_output
from ..errors import ConfigurationError
from ..units import MILLI, si_format

__all__ = ["Fig5Result", "run_fig5", "render_fig5"]


@dataclasses.dataclass
class Fig5Result:
    """The Fig. 5 scatter and its three summary curves.

    Attributes
    ----------
    input_strength:
        ``Σ t_in,i G_i`` per sample (seconds·siemens).
    t_out:
        Exact output spike times (seconds).
    total_g:
        Per-sample column total conductance (siemens).
    curve1:
        Through-origin fit over the ``Σ G ≤ g_limit`` samples.
    curve2 / curve3:
        Through-origin fits over dedicated sweeps at the two high
        conductances (2.5 / 3.2 mS).
    curve2_strength, curve2_tout, curve3_strength, curve3_tout:
        The dedicated sweep series behind curves 2–3.
    params:
        Operating point used.
    """

    input_strength: np.ndarray
    t_out: np.ndarray
    total_g: np.ndarray
    curve1: LinearFit
    curve2: LinearFit
    curve3: LinearFit
    curve2_strength: np.ndarray
    curve2_tout: np.ndarray
    curve3_strength: np.ndarray
    curve3_tout: np.ndarray
    params: CircuitParameters

    @property
    def linear_mask(self) -> np.ndarray:
        """Samples inside the paper's Σ G ≤ 1.6 mS regime."""
        return self.total_g <= self.params.g_column_linear_limit

    def droop(self, curve: LinearFit) -> float:
        """Relative slope drop of ``curve`` versus Curve 1."""
        return 1.0 - curve.slope / self.curve1.slope


def _sweep_fixed_g(
    params: CircuitParameters, total_g: float, cells: int, points: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Common-input-time sweep at a fixed column conductance."""
    g = np.full(cells, total_g / cells)
    t_grid = np.linspace(params.t_in_min, params.t_in_max, points)
    times = np.repeat(t_grid[:, None], cells, axis=1)
    strength = times @ g
    t_out = np.asarray(exact_mac_output(times, g, params), dtype=float)
    return strength, t_out


def run_fig5(
    params: Optional[CircuitParameters] = None,
    samples: int = 100,
    cells: int = 32,
    g_total_range: Tuple[float, float] = (0.32 * MILLI, 3.2 * MILLI),
    curve_g: Tuple[float, float] = (2.5 * MILLI, 3.2 * MILLI),
    seed: int = 0,
) -> Fig5Result:
    """Run the Fig. 5 characterisation protocol."""
    p = params if params is not None else CircuitParameters.calibrated()
    if samples < 10:
        raise ConfigurationError("need at least 10 samples for the fits")
    rng = np.random.default_rng(seed)

    strengths = np.empty(samples)
    outputs = np.empty(samples)
    totals = np.empty(samples)
    for k in range(samples):
        total_g = rng.uniform(*g_total_range)
        raw = rng.random(cells)
        g = raw / raw.sum() * total_g
        times = rng.uniform(p.t_in_min, p.t_in_max, cells)
        strengths[k] = float(times @ g)
        outputs[k] = float(exact_mac_output(times, g, p))
        totals[k] = total_g

    linear_mask = totals <= p.g_column_linear_limit
    if linear_mask.sum() < 2:
        raise ConfigurationError(
            "not enough linear-regime samples; widen g_total_range"
        )
    curve1 = fit_linear(strengths[linear_mask], outputs[linear_mask],
                        through_origin=True)
    s2, o2 = _sweep_fixed_g(p, curve_g[0], cells, 25)
    s3, o3 = _sweep_fixed_g(p, curve_g[1], cells, 25)
    return Fig5Result(
        input_strength=strengths,
        t_out=outputs,
        total_g=totals,
        curve1=curve1,
        curve2=fit_linear(s2, o2, through_origin=True),
        curve3=fit_linear(s3, o3, through_origin=True),
        curve2_strength=s2,
        curve2_tout=o2,
        curve3_strength=s3,
        curve3_tout=o3,
        params=p,
    )


def render_fig5(result: Fig5Result) -> str:
    """Human-readable summary of the characterisation."""
    p = result.params
    ideal_slope = p.mac_gain
    lines = [
        "Fig. 5 — t_out vs input strength (Σ t_in G)",
        f"samples: {result.t_out.size}, linear regime "
        f"(ΣG <= {si_format(p.g_column_linear_limit, 'S')}): "
        f"{int(result.linear_mask.sum())}",
        f"ideal Eq.6 slope  dt/C_cog = {si_format(ideal_slope, 'Ohm')}",
        f"Curve 1 slope = {si_format(result.curve1.slope, 'Ohm')} "
        f"(R² = {result.curve1.r2:.4f}, "
        f"{result.curve1.slope / ideal_slope:.3f}x ideal)",
        f"Curve 2 (ΣG = 2.5 mS): slope {si_format(result.curve2.slope, 'Ohm')}, "
        f"droop vs Curve 1 = {result.droop(result.curve2):.1%}",
        f"Curve 3 (ΣG = 3.2 mS): slope {si_format(result.curve3.slope, 'Ohm')}, "
        f"droop vs Curve 1 = {result.droop(result.curve3):.1%}",
    ]
    return "\n".join(lines)
