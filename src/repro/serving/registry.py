"""The model registry: named, calibrated executors ready to serve.

Each entry wraps a trained :class:`~repro.nn.model.Sequential` (loaded
through the artifact store — a warm cache makes startup instant, a cold
one trains and persists first), compiled onto ReSiPE crossbars and
calibrated once at load time.  Optionally an entry carries a
*fault-trial ensemble*: ``T`` variation-perturbed clones of the mapped
network whose predictions are evaluated in a single trial-stacked
forward pass (:func:`~repro.mapping.stacked.stack_networks`) and
reduced by majority vote — robustness-aware serving at nearly the cost
of a single forward.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import CircuitParameters
from ..core.mvm import MVMMode
from ..errors import ConfigurationError, ModelUnavailableError, ShapeError
from ..mapping import PIMExecutor, ReSiPEBackend, compile_network
from ..mapping.compiler import MappedNetwork
from ..runtime import trial_rng

__all__ = ["ModelEntry", "ModelRegistry"]


@dataclasses.dataclass
class ModelEntry:
    """One servable model: calibrated executor + request metadata.

    Attributes
    ----------
    name:
        Registry key (the ``model`` field of predict requests).
    executor:
        Calibrated :class:`~repro.mapping.executor.PIMExecutor`.
    input_shape:
        Per-sample input shape requests must match (e.g. ``(784,)``).
    ensemble:
        Optional Monte-Carlo network clones; when present, predictions
        run all clones in one stacked pass and majority-vote.
    """

    name: str
    executor: PIMExecutor
    input_shape: Tuple[int, ...]
    ensemble: Optional[List[MappedNetwork]] = None

    @property
    def ensemble_trials(self) -> int:
        return len(self.ensemble) if self.ensemble else 0

    def validate_batch(self, x: np.ndarray) -> np.ndarray:
        """Check a ``(rows,) + input_shape`` batch, casting to float."""
        x = np.asarray(x, dtype=float)
        if x.shape[1:] != self.input_shape:
            raise ShapeError(
                f"model {self.name!r} expects per-sample shape "
                f"{self.input_shape}, got batch {x.shape}"
            )
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Labels for a ``(rows, ...)`` batch (rows may be zero).

        With an ensemble, every realization is evaluated in one
        trial-stacked forward pass and each sample answers with the
        majority label (ties break to the smallest label, so the
        reduction is deterministic).
        """
        if not self.ensemble:
            return self.executor.predict(x)
        trials = self.executor.predict_trials(x, self.ensemble)
        votes = np.empty(trials.shape[1], dtype=np.intp)
        for j in range(trials.shape[1]):
            values, counts = np.unique(trials[:, j], return_counts=True)
            votes[j] = values[np.argmax(counts)]
        return votes


class ModelRegistry:
    """Named :class:`ModelEntry` lookup for the daemon and tests.

    A registry distinguishes three kinds of name: *loaded* (servable
    entry), *failed* (configured but its load raised — the daemon keeps
    running and answers 503 for it), and *unknown* (never configured —
    HTTP 404).
    """

    def __init__(
        self,
        entries: Sequence[ModelEntry],
        failed: Optional[Dict[str, str]] = None,
    ) -> None:
        self._entries: Dict[str, ModelEntry] = {}
        self.failed: Dict[str, str] = dict(failed or {})
        for entry in entries:
            if entry.name in self._entries:
                raise ConfigurationError(
                    f"duplicate model name {entry.name!r} in registry"
                )
            self._entries[entry.name] = entry
        if not self._entries:
            raise ConfigurationError("registry needs at least one model")

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> ModelEntry:
        try:
            return self._entries[name]
        except KeyError:
            if name in self.failed:
                raise ModelUnavailableError(
                    f"model {name!r} failed to load: {self.failed[name]}"
                ) from None
            raise ConfigurationError(
                f"unknown model {name!r}; serving {self.names()}"
            ) from None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        keys: Sequence[str],
        loader: Callable[[str], ModelEntry],
        load_hook: Optional[Callable[[str], None]] = None,
        verbose: bool = False,
    ) -> "ModelRegistry":
        """Build a registry one model at a time, isolating failures.

        ``loader(key)`` returns the :class:`ModelEntry` for one key; any
        exception it raises marks that key *failed* (served as 503)
        instead of killing the whole daemon.  ``load_hook(key)`` runs
        first and may itself raise — it is the seam the chaos harness
        uses to inject registry corruption and load failures.  Only
        when *every* key fails is the startup itself an error.
        """
        entries: List[ModelEntry] = []
        failed: Dict[str, str] = {}
        for key in keys:
            try:
                if load_hook is not None:
                    load_hook(key)
                entries.append(loader(key))
            # lint: exempt EXC002 load isolation: broken model -> 503
            except Exception as exc:
                failed[key] = f"{type(exc).__name__}: {exc}"
                if verbose:
                    import sys

                    print(f"[registry] model {key!r} failed to load: "
                          f"{failed[key]}", file=sys.stderr)
        if not entries:
            raise ConfigurationError(
                f"every configured model failed to load: {failed}"
            )
        return cls(entries, failed=failed)

    @classmethod
    def from_benchmarks(
        cls,
        keys: Sequence[str],
        n_samples: int = 600,
        seed: int = 0,
        ensemble_sigma: float = 0.0,
        ensemble_trials: int = 0,
        verbose: bool = False,
        load_hook: Optional[Callable[[str], None]] = None,
    ) -> "ModelRegistry":
        """Load benchmark networks (store-cached) and calibrate them.

        Ensemble clones are seeded by identity —
        ``trial_rng(seed, "serve|<key>|<sigma>|<t>")`` — so a restarted
        daemon serves byte-identical ensemble predictions.  A model
        whose load fails (corrupt artifact the store cannot recover,
        training failure, unknown benchmark key) is recorded in
        :attr:`failed` and answered with 503 instead of crashing the
        daemon — unless *all* of them fail.
        """
        from ..experiments.networks import get_benchmark_networks

        backend = ReSiPEBackend(
            params=CircuitParameters.calibrated(), mode=MVMMode.LINEAR
        )

        def load_one(key: str) -> ModelEntry:
            (net,) = get_benchmark_networks(
                keys=[key], n_samples=n_samples, seed=seed, verbose=verbose
            )
            mapped = compile_network(net.model, backend)
            calibration = net.train.images[: min(64, len(net.train))]
            executor = PIMExecutor(mapped, calibration)
            ensemble = None
            if ensemble_trials > 0 and ensemble_sigma > 0:
                from ..faults import VariationInjector

                variation = VariationInjector(ensemble_sigma)
                ensemble = [
                    executor.faulted(
                        variation,
                        trial_rng(
                            seed,
                            f"serve|{net.spec.key}|{ensemble_sigma:.6f}|{t}",
                        ),
                    ).network
                    for t in range(ensemble_trials)
                ]
            return ModelEntry(
                name=net.spec.key,
                executor=executor,
                input_shape=tuple(net.test.images.shape[1:]),
                ensemble=ensemble,
            )

        return cls.build(
            keys, load_one, load_hook=load_hook, verbose=verbose
        )
