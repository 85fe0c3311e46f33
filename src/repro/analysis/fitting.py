"""Curve fitting for the Fig. 5 characterisation.

The paper fits three curves through the (input-strength, t_out) samples:
Curve 1 over the linear-regime points and Curves 2–3 over fixed high
total conductances.  A least-squares line fit with a goodness-of-fit
metric covers all three.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import ShapeError

__all__ = ["LinearFit", "fit_linear", "r_squared"]


@dataclasses.dataclass(frozen=True)
class LinearFit:
    """Result of a least-squares line fit ``y ≈ slope·x + intercept``."""

    slope: float
    intercept: float
    r2: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the fitted line."""
        return self.slope * np.asarray(x, dtype=float) + self.intercept


def _check_xy(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"x and y must be equal-length 1-D, got {x.shape}, {y.shape}")
    if x.size < 2:
        raise ShapeError("need at least two points to fit")


def r_squared(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Coefficient of determination of predictions ``y_hat``."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    ss_res = float(((y - y_hat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0:
        return 1.0 if ss_res == 0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_linear(
    x: np.ndarray, y: np.ndarray, through_origin: bool = False
) -> LinearFit:
    """Least-squares line fit.

    ``through_origin=True`` constrains the intercept to 0 — the natural
    model for the Fig. 5 transfer, which passes through (0, 0).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_xy(x, y)
    if through_origin:
        denom = float((x * x).sum())
        if denom == 0:
            raise ShapeError("cannot fit through origin with all-zero x")
        slope = float((x * y).sum() / denom)
        intercept = 0.0
    else:
        slope, intercept = (float(v) for v in np.polyfit(x, y, 1))
    fit = LinearFit(slope=slope, intercept=intercept, r2=0.0)
    return LinearFit(slope=slope, intercept=intercept,
                     r2=r_squared(y, fit.predict(x)))
