"""The :class:`ComputeBackend` protocol and backend resolution.

A backend provides the one array primitive of the stacked MVM hot path
that an engine other than numpy could plausibly speed up:

``matmul``
    The broadcast trial product ``(..., rows) @ (T, rows, cols)`` —
    the single hottest operation of every Monte-Carlo sweep.

The elementwise stages around it (the COG charge-up and ramp inversion
of paper Eqs. 3–4, masked clamps, the tile-grid partial-sum adder) are
plain numpy, computed in place, and exist once with no backend fork:
numpy's SIMD transcendental loops and a JIT's libm may disagree in the
last ulp, and the backend knob must never change persisted bytes.

Bit-identity contract: the default numpy implementation *is* the
expression the serial reference path runs, so ``get_backend(None)``
changes nothing.  Alternative backends must keep per-trial-slice
bit-identity for ``matmul`` (the property the contract tests enforce).
"""

from __future__ import annotations

import abc
import importlib.util
import warnings
from typing import Optional, Union

import numpy as np

from ..errors import ConfigurationError
from ..telemetry import session as _telemetry

__all__ = ["ComputeBackend", "get_backend", "available_backends"]


def _module_available(name: str) -> bool:
    """Whether ``import name`` would succeed (without importing it)."""
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):
        return False


class ComputeBackend(abc.ABC):
    """Array-primitive provider for the trial-stacked kernels.

    Subclasses implement :meth:`matmul`, the only primitive behind the
    seam.
    """

    #: short identifier (``"numpy"``, ``"numba"``, ``"cupy"``)
    name: str = "abstract"

    @abc.abstractmethod
    def matmul(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Broadcast product ``x @ w``.

        ``w`` is a trial stack ``(T, rows, cols)``; ``x`` is ``(rows,)``
        or ``(batch, rows)`` shared by every trial, or per-trial
        ``(T, batch, rows)``.  Every output slice ``t`` must be
        bit-identical to the 2-D product ``x[t] @ w[t]`` (numpy's
        broadcast ``np.matmul`` semantics).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
_NUMPY_SINGLETON: Optional[ComputeBackend] = None
_AUTO_FALLBACK_WARNED = False


def _numpy_backend() -> ComputeBackend:
    global _NUMPY_SINGLETON
    if _NUMPY_SINGLETON is None:
        from .numpy_backend import NumpyBackend

        _NUMPY_SINGLETON = NumpyBackend()
    return _NUMPY_SINGLETON


def available_backends() -> dict:
    """Map backend name -> importability of its engine.

    ``numpy`` is always available; ``numba``/``cupy`` report whether
    the optional dependency is importable in this environment (the
    ``perf`` extra installs numba; cupy is a manual install).
    """
    return {
        "numpy": True,
        "numba": _module_available("numba"),
        "cupy": _module_available("cupy"),
    }


def get_backend(
    backend: Union[None, str, ComputeBackend] = None,
) -> ComputeBackend:
    """Resolve a backend selection to a :class:`ComputeBackend`.

    ``None`` / ``"numpy"`` return the shared numpy backend (the
    byte-identical default); a :class:`ComputeBackend` instance passes
    through unchanged; ``"numba"`` / ``"cupy"`` require the optional
    dependency and raise :class:`~repro.errors.ConfigurationError` when
    it is missing (an explicit request must not silently degrade);
    ``"auto"`` picks the fastest available engine, falling back to
    numpy with a single warning when the ``perf`` extra is absent.
    """
    global _AUTO_FALLBACK_WARNED
    if backend is None:
        return _numpy_backend()
    if isinstance(backend, ComputeBackend):
        return backend
    if backend == "numpy":
        return _numpy_backend()
    if backend == "numba":
        if not _module_available("numba"):
            raise ConfigurationError(
                "backend 'numba' requested but numba is not installed; "
                "install the perf extra (pip install 'repro[perf]') or "
                "use --backend auto to fall back to numpy"
            )
        from .numba_backend import NumbaBackend

        return NumbaBackend()
    if backend == "cupy":
        if not _module_available("cupy"):
            raise ConfigurationError(
                "backend 'cupy' requested but cupy is not installed; "
                "cupy is a manual install matched to your CUDA toolkit "
                "(see docs/performance.md)"
            )
        from .cupy_backend import CupyBackend

        return CupyBackend()
    if backend == "auto":
        if _module_available("numba"):
            from .numba_backend import NumbaBackend

            return NumbaBackend()
        if not _AUTO_FALLBACK_WARNED:
            _AUTO_FALLBACK_WARNED = True
            warnings.warn(
                "backend 'auto': numba is not installed, falling back to "
                "the numpy kernels (install the perf extra for the JIT "
                "backend)",
                RuntimeWarning,
                stacklevel=2,
            )
            session = _telemetry.active()
            if session is not None:
                session.count("kernels.backend.fallback")
        return _numpy_backend()
    raise ConfigurationError(
        f"unknown compute backend {backend!r}; "
        "choose numpy, numba, cupy or auto"
    )
