"""Analysis and reporting utilities.

* :mod:`repro.analysis.fitting` — polynomial/linear fits for the Fig. 5
  characterisation curves.
* :mod:`repro.analysis.metrics` — error and accuracy metrics.
* :mod:`repro.analysis.tables` — ASCII table rendering for benchmark
  output.
"""

from .fitting import LinearFit, fit_linear, fit_polynomial, r_squared
from .metrics import (
    accuracy_score,
    mean_relative_error,
    max_relative_error,
    rmse,
)
from .tables import render_table

__all__ = [
    "LinearFit",
    "fit_linear",
    "fit_polynomial",
    "r_squared",
    "accuracy_score",
    "mean_relative_error",
    "max_relative_error",
    "rmse",
    "render_table",
]
