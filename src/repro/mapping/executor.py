"""Inference through mapped hardware (the Fig. 7 pipeline).

:class:`PIMExecutor` runs a compiled network end to end:

* weighted layers execute on their programmed tiles;
* activations are normalised into the hardware's ``[0, 1]`` input range
  with per-layer scales measured on a calibration batch (standard
  post-training calibration, cf. the DL-RSIM methodology of ref [21]);
* folded biases are driven at ``1/scale`` so the affine algebra is
  exact;
* an optional per-layer scalar gain is least-squares fitted against the
  software reference on the calibration batch, absorbing the systematic
  part of the circuit non-linearity (the random part — process
  variation — is what Fig. 7 measures);
* everything else (ReLU, pooling, flatten) runs in the digital domain.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..errors import ConfigurationError, MappingError, ShapeError
from ..nn.conv import Conv2D, im2col
from ..nn.layers import Dense
from .compiler import MappedLayer, MappedNetwork
from .stacked import stack_networks

__all__ = ["PIMExecutor"]


class PIMExecutor:
    """Runs a :class:`MappedNetwork` on hardware backends.

    Parameters
    ----------
    network:
        The compiled network.
    calibration_x:
        A representative input batch used to measure per-layer
        activation scales (and gains when ``calibrate_gain``).
    calibrate_gain:
        Fit a scalar output gain per mapped layer against the software
        reference.
    scale_margin:
        Headroom multiplier on the measured activation ceilings, so
        inference activations slightly above the calibration batch's
        maximum are not clipped (standard post-training-calibration
        practice).
    """

    def __init__(
        self,
        network: MappedNetwork,
        calibration_x: np.ndarray,
        calibrate_gain: bool = True,
        scale_margin: float = 1.25,
    ) -> None:
        if scale_margin < 1.0:
            raise MappingError(f"scale margin must be >= 1, got {scale_margin!r}")
        self.network = network
        self.scale_margin = scale_margin
        calibration_x = np.asarray(calibration_x, dtype=float)
        if calibration_x.shape[0] < 1:
            raise MappingError("calibration batch must be non-empty")
        self.mvm_launches: Dict[str, int] = {}
        self.activation_scales = self._measure_activation_scales(calibration_x)
        if calibrate_gain:
            self._fit_gains(calibration_x)
        self.reset_stats()

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def _measure_activation_scales(self, x: np.ndarray) -> Dict[str, float]:
        """Software forward pass recording each mapped layer's input
        ceiling (at least 1 so first-layer inputs pass through)."""
        scales: Dict[str, float] = {}
        activation = x
        for layer, stage in zip(self.network.model, self.network.stages):
            if stage is not None:
                peak = float(np.max(np.abs(activation))) if activation.size else 1.0
                scales[stage.name] = max(1.0, peak * self.scale_margin)
            activation = layer.forward(activation, training=False)
        return scales

    def _fit_gains(self, x: np.ndarray) -> None:
        """Per-layer scalar gain: least squares of software reference on
        hardware output, layer by layer (software activations feed both
        paths so fits are independent)."""
        activation = x
        for layer, stage in zip(self.network.model, self.network.stages):
            if stage is not None:
                reference = layer.forward(activation, training=False)
                stage.gain = 1.0
                hardware = self._run_mapped(stage, activation)
                num = float((hardware * reference).sum())
                den = float((hardware * hardware).sum())
                if den > 0 and num > 0:
                    stage.gain = num / den
                activation = reference
            else:
                activation = layer.forward(activation, training=False)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_mapped(self, stage: MappedLayer, activation: np.ndarray) -> np.ndarray:
        """One weighted layer on hardware, handling Dense vs Conv.

        On a trial stack ``activation`` is ``(batch, ...)`` before the
        trials diverge (the network input or a software prefix) or
        ``(T, batch, ...)`` afterwards; the result then always carries
        the leading trial axis.
        """
        scale = self.activation_scales[stage.name]
        bias_level = 1.0 / scale
        layer = stage.source
        if isinstance(layer, Dense):
            x01 = np.clip(np.asarray(activation, dtype=float) / scale, 0.0, 1.0)
            out = scale * stage.matmul_with_bias_level(x01, bias_level)
            self._count_launches(stage, out)
            return out
        if isinstance(layer, Conv2D):
            x = np.asarray(activation, dtype=float)
            if x.ndim not in (4, 5):
                raise ShapeError(
                    f"{layer.name}: expected (N, C, H, W) or "
                    f"(T, N, C, H, W), got {x.shape}"
                )
            # im2col is per-sample, so per-trial inputs lower as one
            # merged (T*N) batch to the same rows as T separate calls.
            lead, n = x.shape[:-4], x.shape[-4]
            cols, (h_out, w_out) = im2col(
                x.reshape((-1,) + x.shape[-3:]),
                layer.kernel, layer.stride, layer.pad,
            )
            x01 = np.clip(cols.reshape(lead + (-1, cols.shape[-1])) / scale,
                          0.0, 1.0)
            flat = scale * stage.matmul_with_bias_level(x01, bias_level)
            self._count_launches(stage, flat)
            out = flat.reshape(
                flat.shape[:-2] + (n, h_out, w_out, layer.out_channels)
            )
            return np.moveaxis(out, -1, -3)
        raise MappingError(f"unsupported mapped layer type {type(layer).__name__}")

    # ------------------------------------------------------------------
    # Hardware-activity instrumentation
    # ------------------------------------------------------------------
    def _count_launches(self, stage: MappedLayer, out: np.ndarray) -> None:
        """Charge one launch per tile for every output vector of
        ``out`` (every row of every trial)."""
        vectors = out.size // out.shape[-1]
        self.mvm_launches[stage.name] = (
            self.mvm_launches.get(stage.name, 0) + vectors * stage.num_tiles
        )

    def reset_stats(self) -> None:
        """Zero the per-layer tile-MVM launch counters."""
        self.mvm_launches = {}

    def stats(self) -> Dict[str, int]:
        """Per-layer tile-MVM launches since the last reset.

        One launch = one input vector through one physical crossbar
        tile — the unit the engine energy model prices.
        """
        return dict(self.mvm_launches)

    def total_mvm_launches(self) -> int:
        """Total tile-MVM launches since the last reset."""
        return sum(self.mvm_launches.values())

    def energy_estimate(self, power_model) -> float:
        """Energy of the counted activity (joules) under a
        :class:`repro.core.power.ReSiPEPowerModel`."""
        per_mvm = power_model.power() * power_model.latency
        return self.total_mvm_launches() * per_mvm

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Full forward pass with weighted layers on hardware."""
        return self._forward(x, self.network)

    def _forward(self, x: np.ndarray, network: MappedNetwork) -> np.ndarray:
        """Forward ``x`` through ``network`` under this executor's
        calibration: ``(batch, out)`` for a lone chip, ``(T, batch,
        out)`` for a trial stack.

        Once a stack's trials diverge, software stages run on the merged
        ``(T*batch, ...)`` activation (they are per-sample
        deterministic), so slice ``t`` is bit-identical to the forward
        pass of clone ``t``.
        """
        activation = np.asarray(x, dtype=float)
        diverged = False
        for layer, stage in zip(network.model, network.stages):
            if stage is not None:
                activation = self._run_mapped(stage, activation)
                diverged = network.trials > 1
            elif diverged:
                trials, batch = activation.shape[:2]
                flat = activation.reshape(
                    (trials * batch,) + activation.shape[2:]
                )
                out = layer.forward(flat, training=False)
                activation = out.reshape((trials, batch) + out.shape[1:])
            else:
                activation = layer.forward(activation, training=False)
        return activation

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions through the hardware.

        A zero-row input returns a zero-length prediction array (the
        serving coalescer's flush-on-idle path submits empty batches).
        """
        x = np.asarray(x, dtype=float)
        if x.shape[0] == 0:
            return np.empty(0, dtype=np.intp)
        outputs = [
            self.forward(x[i : i + batch_size]) for i in range(0, x.shape[0], batch_size)
        ]
        return np.argmax(np.concatenate(outputs, axis=0), axis=-1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray, batch_size: int = 256) -> float:
        """Top-1 accuracy through the hardware."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] == 0:
            raise ConfigurationError(
                "accuracy of an empty evaluation batch is undefined; "
                "pass at least one sample"
            )
        return float(np.mean(self.predict(x, batch_size) == np.asarray(labels)))

    # ------------------------------------------------------------------
    # Trial-stacked execution (the Monte-Carlo fast path)
    # ------------------------------------------------------------------
    def forward_trials(
        self, x: np.ndarray, networks: Sequence[MappedNetwork]
    ) -> np.ndarray:
        """Forward all per-trial network clones in one stacked pass.

        ``networks`` are Monte-Carlo clones of this executor's network
        (:meth:`faulted` realizations); the result is
        ``(T, batch, out)`` with slice ``t`` bit-identical to running
        ``networks[t]`` alone under this executor's calibration.
        """
        stacked = stack_networks(networks)
        out = self._forward(x, stacked)
        return out if stacked.trials > 1 else out[None]

    def predict_trials(
        self,
        x: np.ndarray,
        networks: Sequence[MappedNetwork],
        batch_size: int = 256,
    ) -> np.ndarray:
        """Per-trial class predictions, ``(T, n_samples)``.

        A zero-row input returns ``(T, 0)`` without touching the
        hardware kernels, mirroring :meth:`predict`.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[0] == 0:
            return np.empty((len(networks), 0), dtype=np.intp)
        stacked = stack_networks(networks)
        outputs = [
            self._forward(x[i : i + batch_size], stacked)
            for i in range(0, x.shape[0], batch_size)
        ]
        labels = np.argmax(np.concatenate(outputs, axis=-2), axis=-1)
        return labels.reshape(stacked.trials, -1)

    def accuracy_trials(
        self,
        x: np.ndarray,
        labels: np.ndarray,
        networks: Sequence[MappedNetwork],
        batch_size: int = 256,
    ) -> np.ndarray:
        """Per-trial top-1 accuracies, ``(T,)`` — each entry equals the
        :meth:`accuracy` of the corresponding clone."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] == 0:
            raise ConfigurationError(
                "accuracy of an empty evaluation batch is undefined; "
                "pass at least one sample"
            )
        predictions = self.predict_trials(x, networks, batch_size)
        labels = np.asarray(labels)
        return np.mean(predictions == labels[None, :], axis=-1)

    # ------------------------------------------------------------------
    # Monte-Carlo variation / fault clones
    # ------------------------------------------------------------------
    def _clone_with_network(self, network: MappedNetwork) -> "PIMExecutor":
        """An executor bound to ``network`` that inherits this one's
        calibration (scales, margin) without re-running it.

        The single place clones are assembled — :meth:`faulted` and the
        remap path go through here, so a new executor attribute
        cannot be silently dropped from some clone kinds.
        """
        clone = object.__new__(PIMExecutor)
        clone.network = network
        clone.activation_scales = dict(self.activation_scales)
        clone.scale_margin = self.scale_margin
        clone.mvm_launches = {}
        return clone

    def faulted(self, injector, rng: np.random.Generator) -> "PIMExecutor":
        """Clone whose tiles carry ``injector``'s disturbance
        (variation, stuck-at cells, drift, or any
        :class:`~repro.faults.injectors.CompositeInjector` of them; see
        :meth:`MappedNetwork.faulted`).

        Calibration is inherited — the Fig. 7 protocol: the chip was
        calibrated healthy, then devices varied, drifted or failed.
        A retention-aged chip is ``faulted(DriftInjector(elapsed), rng)``.
        Pair with
        :func:`repro.mapping.remap.detect_and_remap` to probe the
        faulted network and recover through spare columns.
        """
        return self._clone_with_network(self.network.faulted(injector, rng))
