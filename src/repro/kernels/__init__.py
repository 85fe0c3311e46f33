"""Pluggable compute backends for the trial-stacked MVM kernels.

The Monte-Carlo fast path funnels its hottest array operation — the
broadcast batched trial matmul — through :class:`ComputeBackend`;
implementations swap the execution engine without touching the physics
(the elementwise codec stages around it are plain numpy):

* :class:`NumpyBackend` — the default; literally the numpy calls the
  serial reference path runs, so results are byte-identical to today.
* :class:`NumbaBackend` — JIT-compiled ``prange`` over trial slices,
  each slice dispatching to the same BLAS GEMM numpy uses (preserving
  per-slice bit-identity).  Lazily imported; selecting it without
  numba installed raises :class:`~repro.errors.ConfigurationError`.
* :class:`CupyBackend` — GPU stub behind the same capability check.

Backends are *execution knobs*, never spec: campaign fingerprints,
persisted store bytes and CLI stdout are identical across backends
(the kernels contract suite pins this down).  Select one per run via
:func:`get_backend` — ``"auto"`` degrades gracefully to numpy with a
single warning when the ``perf`` extra is missing.
"""

from .backend import ComputeBackend, available_backends, get_backend
from .cupy_backend import CupyBackend
from .numba_backend import NumbaBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "ComputeBackend",
    "NumpyBackend",
    "NumbaBackend",
    "CupyBackend",
    "get_backend",
    "available_backends",
]
