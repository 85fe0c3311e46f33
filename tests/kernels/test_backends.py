"""Compute backend resolution and the numpy-reference semantics.

The kernels layer is an *execution* knob: ``get_backend`` must resolve
names deterministically, refuse explicit requests for missing engines
(never silently degrade), and the numpy backend's trial product must be
bit-identical to the raw numpy expression the serial reference path
runs.
"""

import numpy as np
import pytest

import repro.kernels.backend as backend_mod
from repro.errors import ConfigurationError
from repro.kernels import (
    ComputeBackend,
    NumpyBackend,
    available_backends,
    get_backend,
)

HAVE_NUMBA = available_backends()["numba"]
HAVE_CUPY = available_backends()["cupy"]


class TestResolution:
    def test_none_returns_numpy_singleton(self):
        a = get_backend(None)
        b = get_backend(None)
        assert isinstance(a, NumpyBackend)
        assert a is b

    def test_name_numpy_is_same_singleton(self):
        assert get_backend("numpy") is get_backend(None)

    def test_instance_passes_through(self):
        instance = NumpyBackend()
        assert get_backend(instance) is instance

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            get_backend("fortran")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed here")
    def test_explicit_numba_raises_when_missing(self):
        with pytest.raises(ConfigurationError, match="perf"):
            get_backend("numba")

    @pytest.mark.skipif(HAVE_CUPY, reason="cupy installed here")
    def test_explicit_cupy_raises_when_missing(self):
        with pytest.raises(ConfigurationError, match="cupy"):
            get_backend("cupy")

    def test_available_backends_shape(self):
        avail = available_backends()
        assert avail["numpy"] is True
        assert set(avail) == {"numpy", "numba", "cupy"}

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed here")
    def test_auto_falls_back_with_single_warning(self, monkeypatch):
        monkeypatch.setattr(backend_mod, "_AUTO_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            be = get_backend("auto")
        assert isinstance(be, NumpyBackend)
        # Second resolution is silent: the degradation is telemetry, not
        # terminal spam.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert isinstance(get_backend("auto"), NumpyBackend)

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba installed here")
    def test_auto_fallback_counts_telemetry(self, monkeypatch):
        from repro import telemetry

        monkeypatch.setattr(backend_mod, "_AUTO_FALLBACK_WARNED", False)
        with telemetry.capture() as session:
            with pytest.warns(RuntimeWarning):
                get_backend("auto")
        assert session.registry.counter(
            "kernels.backend.fallback").value == 1

    @pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
    def test_auto_selects_numba_when_available(self):
        from repro.kernels import NumbaBackend

        assert isinstance(get_backend("auto"), NumbaBackend)


class TestNumpyBackend:
    def test_matmul_shared_input_bit_identical(self, rng):
        x = rng.random((5, 16))
        w = rng.random((4, 16, 8))
        out = NumpyBackend().matmul(x, w)
        assert np.array_equal(out, np.matmul(x, w))
        for t in range(4):
            assert np.array_equal(out[t], x @ w[t])

    def test_matmul_per_trial_input_bit_identical(self, rng):
        x = rng.random((4, 5, 16))
        w = rng.random((4, 16, 8))
        out = NumpyBackend().matmul(x, w)
        for t in range(4):
            assert np.array_equal(out[t], x[t] @ w[t])

    def test_matmul_is_the_only_primitive(self):
        # The elementwise codec stages are plain numpy with no backend
        # fork; only the trial product sits behind the seam.
        assert ComputeBackend.__abstractmethods__ == frozenset({"matmul"})
        for name in ("exp", "log1p", "where", "accumulate"):
            assert not hasattr(NumpyBackend(), name)

    def test_is_compute_backend(self):
        assert isinstance(NumpyBackend(), ComputeBackend)


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
class TestNumbaBackend:
    """Bit-identity of the JIT kernels against the numpy reference."""

    @pytest.fixture(scope="class")
    def numba_backend(self):
        pytest.importorskip("numba")
        from repro.kernels import NumbaBackend

        return NumbaBackend()

    def test_shared_input_bit_identical(self, rng, numba_backend):
        x = rng.random((5, 16))
        w = rng.random((4, 16, 8))
        assert np.array_equal(numba_backend.matmul(x, w), np.matmul(x, w))

    def test_per_trial_input_bit_identical(self, rng, numba_backend):
        x = rng.random((4, 5, 16))
        w = rng.random((4, 16, 8))
        assert np.array_equal(numba_backend.matmul(x, w), np.matmul(x, w))

    def test_non_float64_falls_back(self, rng, numba_backend):
        x = rng.random((5, 16)).astype(np.float32)
        w = rng.random((4, 16, 8)).astype(np.float32)
        assert np.array_equal(numba_backend.matmul(x, w), np.matmul(x, w))

    def test_2d_weights_fall_back(self, rng, numba_backend):
        x = rng.random((5, 16))
        w = rng.random((16, 8))
        assert np.array_equal(numba_backend.matmul(x, w), np.matmul(x, w))
