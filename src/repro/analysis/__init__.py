"""Analysis and reporting utilities.

* :mod:`repro.analysis.fitting` — line fits for the Fig. 5
  characterisation curves.
* :mod:`repro.analysis.tables` — ASCII table rendering for benchmark
  output.
"""

from .fitting import LinearFit, fit_linear, r_squared
from .tables import render_table

__all__ = [
    "LinearFit",
    "fit_linear",
    "r_squared",
    "render_table",
]
