"""The default numpy backend — byte-identical to the reference path.

``matmul`` is literally the numpy expression the pre-backend code ran,
so routing the stacked kernels through this backend is a no-op:
fingerprints, persisted store bytes and stdout cannot change.  numpy
evaluates the broadcast ``matmul`` slice-by-slice with the same 2-D
GEMM kernel used for a lone trial, which is what makes stacked results
bit-identical to serial per-trial evaluation (the PR 4 contract).
"""

from __future__ import annotations

import numpy as np

from .backend import ComputeBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ComputeBackend):
    """Pure-numpy kernels (the reproducibility reference)."""

    name = "numpy"

    def matmul(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.matmul(x, w)
