"""Numba JIT backend — parallel ``prange`` over trial slices.

The broadcast trial product is embarrassingly parallel along the trial
axis: slice ``t`` of ``(..., rows) @ (T, rows, cols)`` is an ordinary
2-D GEMM.  The JIT kernels here run one ``numba.prange`` iteration per
trial, each calling ``np.dot`` on contiguous float64 slices — which
dispatches to the very BLAS kernel numpy's broadcast ``np.matmul``
uses, so every output slice stays *bit-identical* to the numpy backend
(the contract the kernels test suite enforces).

Only the product is JIT-compiled.  The elementwise codec stages stay
numpy for every backend: numpy's SIMD transcendental loops and libm
(what numba would compile to) may disagree in the last ulp, and the
backend knob must never change persisted bytes.

numba is imported lazily on first use; constructing the backend without
numba installed raises :class:`~repro.errors.ConfigurationError` (the
``perf`` extra provides it).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .backend import ComputeBackend, _module_available

__all__ = ["NumbaBackend"]


def _compile_kernels() -> Tuple[object, object]:
    """Build the JIT trial-loop kernels (one import + compile per process)."""
    import numba

    @numba.njit(parallel=True, cache=True)
    def matmul_shared(x, w):
        trials = w.shape[0]
        out = np.empty((trials, x.shape[0], w.shape[2]), dtype=np.float64)
        for t in numba.prange(trials):
            out[t] = np.dot(x, w[t])
        return out

    @numba.njit(parallel=True, cache=True)
    def matmul_pertrial(x, w):
        trials = w.shape[0]
        out = np.empty((trials, x.shape[1], w.shape[2]), dtype=np.float64)
        for t in numba.prange(trials):
            out[t] = np.dot(x[t], w[t])
        return out

    return matmul_shared, matmul_pertrial


class NumbaBackend(ComputeBackend):
    """JIT-compiled trial-parallel kernels (requires the ``perf`` extra)."""

    name = "numba"

    def __init__(self) -> None:
        if not _module_available("numba"):
            raise ConfigurationError(
                "NumbaBackend requires numba; install the perf extra "
                "(pip install 'repro[perf]')"
            )
        self._shared: Optional[object] = None
        self._pertrial: Optional[object] = None

    def _ensure(self) -> None:
        if self._shared is None:
            self._shared, self._pertrial = _compile_kernels()

    def matmul(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        w = np.asarray(w)
        # The JIT path covers the hot Monte-Carlo shapes: float64 trial
        # stacks with shared (batch, rows) or per-trial (T, batch, rows)
        # inputs.  Anything else (1-D vectors, exotic dtypes, 2-D w) is
        # cold-path and runs through numpy unchanged.
        if (
            w.ndim != 3
            or x.dtype != np.float64
            or w.dtype != np.float64
            or x.ndim not in (2, 3)
        ):
            return np.matmul(x, w)
        self._ensure()
        xc = np.ascontiguousarray(x)
        wc = np.ascontiguousarray(w)
        if x.ndim == 2:
            return self._shared(xc, wc)  # type: ignore[misc]
        return self._pertrial(xc, wc)  # type: ignore[misc]
